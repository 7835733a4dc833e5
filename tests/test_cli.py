import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from helfrich import shapes
from helfrich.cli import main
from helfrich.mesh_io import read_mesh, write_mesh
from helfrich.serialize import dumps


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    sphere = shapes.icosphere(3)
    write_mesh(d / "sphere.off", sphere)
    write_mesh(d / "sphere.obj", sphere)
    split = shapes.octasphere(5)
    write_mesh(d / "split.off", split)
    np.savetxt(d / "labels.txt", shapes.equator_phase_labels(split), fmt="%d")
    return d


def run(args):
    return main([str(a) for a in args])


def test_hessian_command(workdir, capsys):
    rc = run(["hessian", "--beta", "2", "--gamma", "-1", "--out", workdir / "h.json"])
    assert rc == 0
    data = json.load(open(workdir / "h.json"))
    assert data["verdict"] == "strictly_convex"
    eigs = sorted(set(round(x, 10) for x in data["eigenvalues_closed_form"]))
    assert eigs == [0.5, 3.5]
    assert "3.5" in capsys.readouterr().err


def test_eval_command_sphere(workdir):
    rc = run(
        ["eval", "--mesh", workdir / "sphere.off", "--beta", "1", "--gamma", "0",
         "--h0", "0", "--out", workdir / "eval.json"]
    )
    assert rc == 0
    data = json.load(open(workdir / "eval.json"))
    assert abs(data["total"] - 8 * np.pi) < 0.02 * 8 * np.pi
    assert abs(data["willmore_quarter"] - 4 * np.pi) < 0.02 * 4 * np.pi
    assert abs(data["willmore_varifold"] - 4 * data["willmore_quarter"]) < 1e-9


def test_eval_idempotent_bytes(workdir):
    for name in ("a.json", "b.json"):
        assert run(
            ["eval", "--mesh", workdir / "sphere.off", "--beta", "1.5", "--gamma", "-0.5",
             "--h0", "0.25", "--out", workdir / name]
        ) == 0
    assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()


def test_config_equals_flags(workdir):
    config = {
        "mesh": str(workdir / "sphere.off"),
        "params": [{"beta": 1.5, "gamma": -0.5, "h0": 0.25, "sigma": 0.0}],
    }
    (workdir / "cfg.json").write_text(dumps(config))
    assert run(["eval", "--config", workdir / "cfg.json", "--out", workdir / "c.json"]) == 0
    assert (workdir / "c.json").read_bytes() == (workdir / "a.json").read_bytes()
    # flag overrides config field
    assert run(
        ["eval", "--config", workdir / "cfg.json", "--h0", "0.0", "--out", workdir / "d.json"]
    ) == 0
    assert (workdir / "d.json").read_bytes() != (workdir / "a.json").read_bytes()


def test_eval_multiphase(workdir):
    rc = run(
        ["eval", "--mesh", workdir / "split.off", "--phases", workdir / "labels.txt",
         "--beta", "1,1", "--gamma", "0,0", "--h0", "0,0", "--sigma", "1,1",
         "--out", workdir / "mp.json"]
    )
    assert rc == 0
    data = json.load(open(workdir / "mp.json"))
    assert abs(data["line_tension"] - 4 * np.pi) < 0.02 * 4 * np.pi
    assert len(data["phases"]) == 2


def test_minimize_command_outputs(workdir):
    sphere = read_mesh(workdir / "sphere.off")
    rc = run(
        ["minimize", "--mesh", workdir / "sphere.off", "--beta", "1", "--gamma", "0",
         "--h0", "0", "--area", sphere.total_area(), "--volume", "4.1",
         "--max-iterations", "40", "--out-dir", workdir / "run",
         "--out", workdir / "min.json"]
    )
    assert rc == 0
    assert sorted(os.listdir(workdir / "run")) == ["final.off", "state.json", "trajectory.csv"]
    lines = (workdir / "run" / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("iteration,outer,energy,augmented,bending")
    assert len(lines) > 2
    final = read_mesh(workdir / "run" / "final.off")
    assert final.n_vertices == sphere.n_vertices
    state = json.load(open(workdir / "min.json"))
    assert state["termination"] in ("converged", "max_iterations")


def test_verify_command(workdir):
    rc = run(["verify", "--mesh", workdir / "sphere.off", "--out", workdir / "ver.json"])
    assert rc == 0
    data = json.load(open(workdir / "ver.json"))
    assert data["all_pass"] is True
    checks = data["reports"][0]["checks"]
    names = [c["name"] for c in checks]
    assert names == sorted(names)
    assert any(n.startswith("diameter/") for n in names)


def test_overlap_command_pass_and_fail(workdir):
    rc = run(
        ["overlap", "--mesh", workdir / "split.off", "--phases", workdir / "labels.txt",
         "--eps0", "0.15", "--n-eps", "6", "--out", workdir / "ovl.json"]
    )
    assert rc == 0
    data = json.load(open(workdir / "ovl.json"))
    assert data["passed"] and 2.7 <= data["slope"] <= 3.3
    # identical supports overlap on a surface: gate fails, exit 4
    rc = run(
        ["overlap", "--mesh", workdir / "split.off", "--mesh-b", workdir / "split.off",
         "--eps0", "0.3", "--n-eps", "6", "--out", workdir / "ovl2.json"]
    )
    assert rc == 4
    assert json.load(open(workdir / "ovl2.json"))["passed"] is False


def test_overlap_rejects_unknown_phase_ids(workdir, capsys):
    # phase 0 once wrapped around to the last phase, and an id above the
    # phase count escaped as an IndexError traceback
    for phase_a, phase_b in ((0, 2), (1, 3)):
        rc = run(
            ["overlap", "--mesh", workdir / "split.off", "--phases", workdir / "labels.txt",
             "--eps0", "0.15", "--phase-a", phase_a, "--phase-b", phase_b]
        )
        assert rc == 1
        assert "is not in 1..2" in capsys.readouterr().err


def test_exit_codes(workdir):
    assert run(["hessian", "--beta", "2"]) == 1  # missing --gamma
    assert run(["eval", "--mesh", workdir / "nonexistent.off", "--beta", "1"]) == 1
    assert run(
        ["minimize", "--mesh", workdir / "sphere.off", "--beta", "1",
         "--area", "1.0", "--volume", "10.0"]
    ) == 2  # isoperimetrically infeasible
    # two-phase labels with a single parameter set
    assert run(
        ["eval", "--mesh", workdir / "split.off", "--phases", workdir / "labels.txt",
         "--beta", "1"]
    ) == 1


def test_obj_reader_matches_off(workdir):
    a = read_mesh(workdir / "sphere.off")
    b = read_mesh(workdir / "sphere.obj")
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, b.faces)


def test_parse_error_names_the_reason(capsys):
    assert run(["hessian", "--beta", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: helfrich hessian")
    assert err[-1] == "helfrich hessian: error: the following arguments are required: --gamma"


def test_negative_n_fields_is_rejected(capsys):
    assert run(["verify", "--corpus", "--n-fields", "-3"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: helfrich verify")
    assert err[-1] == "helfrich verify: error: argument --n-fields: expected an integer >= 0, got '-3'"


def test_negative_seed_is_rejected(capsys):
    assert run(["verify", "--corpus", "--seed", "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: helfrich verify")
    assert err[-1] == "helfrich verify: error: argument --seed: expected an integer >= 0, got '-1'"


def test_verify_corpus_report_repeats_bytewise(workdir):
    for name in ("corpus1.json", "corpus2.json"):
        assert run(["verify", "--corpus", "--seed", "0", "--out", workdir / name]) == 0
    assert (workdir / "corpus1.json").read_bytes() == (workdir / "corpus2.json").read_bytes()


VERIFY = ["verify", "--n-fields", "1"]
OVERLAP = ["overlap", "--eps0", "0.15"]


@pytest.mark.parametrize(
    "command, flags",
    [
        (VERIFY, ["--beta", "5", "--gamma", "-100"]),  # outside the convexity window
        (VERIFY, ["--h0", "1"]),
        (VERIFY, ["--sigma", "1"]),
        (VERIFY, ["--phases", "labels.txt"]),
        (OVERLAP, ["--beta", "1"]),
        (OVERLAP, ["--gamma", "-0.5"]),
        (OVERLAP, ["--h0", "1"]),
        (OVERLAP, ["--sigma", "1"]),
    ],
    ids=lambda x: x[0] if x in (VERIFY, OVERLAP) else x[0].lstrip("-"),
)
def test_flags_a_subcommand_never_reads_are_rejected(workdir, capsys, command, flags):
    # verify reports the mesh alone and overlap compares phase supports; a
    # material or phase flag given to them would change nothing, so it fails
    assert run([*command, "--mesh", workdir / "split.off", *flags]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"usage: helfrich {command[0]}")
    assert err[-1] == f"helfrich {command[0]}: error: unrecognized arguments: {' '.join(flags)}"


def test_unknown_flag_is_reported_by_its_subcommand(capsys):
    assert run(["eval", "--beta", "1", "--no-such-flag"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: helfrich eval")
    assert err[-1] == "helfrich eval: error: unrecognized arguments: --no-such-flag"


def test_minimize_outputs_repeat_bytewise(workdir):
    for name in ("rerun1", "rerun2"):
        assert run(
            ["minimize", "--mesh", workdir / "sphere.off", "--beta", "1", "--area", "12.5",
             "--volume", "4.1", "--max-iterations", "8", "--out-dir", workdir / name,
             "--out", workdir / f"{name}.json"]
        ) == 0
    header = (workdir / "rerun1" / "trajectory.csv").read_text().splitlines()[0]
    assert header.endswith(",min_angle_deg,max_edge_ratio,iso_quotient,trials,memory,clamped,obtuse")
    for out in ("trajectory.csv", "state.json", "final.off"):
        assert (workdir / "rerun1" / out).read_bytes() == (workdir / "rerun2" / out).read_bytes()


def test_negative_per_phase_lists(workdir, capsys):
    common = ["eval", "--mesh", workdir / "split.off", "--phases", workdir / "labels.txt",
              "--beta", "1,2", "--h0", "-0.2,.5"]
    assert run(common + ["--gamma", "-0.3,-1", "--out", workdir / "neg1.json"]) == 0
    assert run(common + ["--gamma=-0.3,-1", "--out", workdir / "neg2.json"]) == 0
    assert (workdir / "neg1.json").read_bytes() == (workdir / "neg2.json").read_bytes()
    gauss = [p["gauss"] for p in json.load(open(workdir / "neg1.json"))["phases"]]
    assert gauss[1] < 0 and abs(gauss[0] / gauss[1] - 0.3) < 1e-9  # mirror-symmetric halves
    assert capsys.readouterr().err == ""


def test_readme_config_with_ignored_keys_runs(workdir):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    config = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    config["constraints"]["tol"] = 1e-6  # accepted from older configs and ignored
    config["run"]["seed"] = 0
    config.update(mesh=str(workdir / "split.off"), phase_labels=str(workdir / "labels.txt"),
                  output_dir=str(workdir / "readme_run"))
    (workdir / "readme.json").write_text(dumps(config))
    rc = run(["minimize", "--config", workdir / "readme.json", "--max-iterations", "2",
              "--out", workdir / "readme_state.json"])
    assert rc == 0
    assert json.load(open(workdir / "readme_state.json"))["iterations"] == 2


def test_minimize_phase_count_errors_exit_1(workdir, capsys):
    base = ["minimize", "--mesh", workdir / "split.off", "--area", "12.566", "--volume", "4.0",
            "--max-iterations", "2"]
    # two parameter sets without phase labels
    assert run(base + ["--beta", "1,2"]) == 1
    assert "2 parameter sets but no phase labels" in capsys.readouterr().err
    # phase area targets without phase labels
    assert run(base + ["--beta", "1", "--phase-areas", "6.283,6.283"]) == 1
    assert "2 phase area targets but no phase labels" in capsys.readouterr().err
    # three targets for two phases
    assert run(base + ["--beta", "1,2", "--phases", workdir / "labels.txt",
                       "--phase-areas", "4.1887,4.1887,4.1886"]) == 1
    assert "3 phase targets for 2 phases" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["penalty_max", "outer_iterations", "armijo_c", "armijo_shrink",
                                 "step_grow", "overlap_samples"])
def test_config_with_removed_run_key_exits_1(workdir, capsys, key):
    config = {"mesh": str(workdir / "sphere.off"), "params": [{"beta": 1.0}],
              "constraints": {"area": 12.566, "volume": 4.0}, "run": {key: 1}}
    (workdir / f"removed_{key}.json").write_text(dumps(config))
    assert run(["minimize", "--config", workdir / f"removed_{key}.json"]) == 1
    assert key in capsys.readouterr().err
