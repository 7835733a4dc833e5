import hashlib
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
    data = json.loads((workdir / "h.json").read_text())
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
    data = json.loads((workdir / "eval.json").read_text())
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
    data = json.loads((workdir / "mp.json").read_text())
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
    state = json.loads((workdir / "min.json").read_text())
    assert state["termination"] in ("converged", "max_iterations")


def test_verify_command(workdir):
    rc = run(["verify", "--mesh", workdir / "sphere.off", "--out", workdir / "ver.json"])
    assert rc == 0
    data = json.loads((workdir / "ver.json").read_text())
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
    data = json.loads((workdir / "ovl.json").read_text())
    assert data["passed"] and 2.7 <= data["slope"] <= 3.3
    # identical supports overlap on a surface: gate fails, exit 4
    rc = run(
        ["overlap", "--mesh", workdir / "split.off", "--mesh-b", workdir / "split.off",
         "--eps0", "0.3", "--n-eps", "6", "--out", workdir / "ovl2.json"]
    )
    assert rc == 4
    assert json.loads((workdir / "ovl2.json").read_text())["passed"] is False


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


def test_overlap_rejects_equal_phase_ids(workdir, capsys):
    # a phase compared with itself once ran the scaling gate and failed it
    # (slope ~2.1, exit 4); phase_a defaults to 1, so --phase-b 1 alone is equal too
    config = workdir / "ovl.cfg.json"
    config.write_text(json.dumps({"mesh": str(workdir / "split.off"),
                                  "phase_labels": str(workdir / "labels.txt"),
                                  "constraints": {"overlap_eps0": 0.15}}))
    inputs = ["--mesh", workdir / "split.off", "--phases", workdir / "labels.txt", "--eps0", "0.15"]
    for args in (inputs + ["--phase-a", "2", "--phase-b", "2"], inputs + ["--phase-b", "1"],
                 ["--config", config, "--phase-a", "1", "--phase-b", "1"]):
        assert run(["overlap", *args]) == 1
        err = capsys.readouterr().err
        assert "--phase-a and --phase-b both name phase" in err


@pytest.mark.parametrize("flag", ["--beta", "--gamma", "--h0", "--sigma"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_eval_rejects_non_finite_material_constants(workdir, capsys, flag, value):
    # NaN passed the beta >= 0 test, so eval once exited 0 with a "nan" total
    args = ["eval", "--mesh", workdir / "sphere.off", "--beta", "1", "--out", workdir / "nan.json"]
    assert run(args + [f"{flag}={value}"]) == 1
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-nan", "-NaN,1", "-inf,-0.5"])
def test_negative_non_finite_value_after_a_space_is_a_value(workdir, capsys, value):
    # "-inf" and "-nan" once read as unknown options ("expected one argument")
    args = ["eval", "--mesh", workdir / "sphere.off", "--beta", "1", "--out", workdir / "nan.json"]
    assert run(args + ["--gamma", value]) == 1
    assert capsys.readouterr().err.startswith("error: gamma must be finite, got ")


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
    gauss = [p["gauss"] for p in json.loads((workdir / "neg1.json").read_text())["phases"]]
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
    assert json.loads((workdir / "readme_state.json").read_text())["iterations"] == 2


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


# --- config schema: one table from flag to config key -----------------------

def _flag_args(values):
    args = []
    for flag, value in values.items():
        if isinstance(value, list):
            value = ",".join(repr(x) for x in value)
        args.append(f"--{flag.replace('_', '-')}={value}")
    return args


def _config_at(key, value):
    """A config holding ``value`` at a README schema key."""
    if key.startswith("params[i]."):
        return {"params": [{key.removeprefix("params[i]."): x} for x in value]}
    head, _, tail = key.partition(".")
    return {head: {tail: value}} if tail else {head: value}


SCHEMA_KEYS = {
    "mesh": "mesh", "phases": "phase_labels", "out_dir": "output_dir",
    "beta": "params[i].beta", "gamma": "params[i].gamma", "h0": "params[i].h0",
    "sigma": "params[i].sigma", "area": "constraints.area", "volume": "constraints.volume",
    "phase_areas": "constraints.phase_areas", "eps0": "constraints.overlap_eps0",
    "max_iterations": "run.max_iterations", "grad_tol": "run.grad_tol",
    "constraint_tol": "run.constraint_tol", "penalty_init": "run.penalty_init",
    "penalty_growth": "run.penalty_growth",
}
SCHEMA_READS = {
    "eval": ["mesh", "phases", "beta", "gamma", "h0", "sigma", "area", "volume"],
    "minimize": list(SCHEMA_KEYS),
    "verify": ["mesh"],
    "overlap": ["mesh", "phases", "eps0"],
}


@pytest.fixture(scope="module")
def schema_values(workdir):
    from helfrich.curvature import geometry

    split = read_mesh(workdir / "split.off")
    labels = np.loadtxt(workdir / "labels.txt", dtype=np.int64)
    halves = np.bincount(labels - 1, weights=geometry(split).area).tolist()
    two_phase = {"mesh": str(workdir / "split.off"), "phases": str(workdir / "labels.txt")}
    material = {"beta": [1.0, 2.0], "gamma": [-0.5, -1.0], "h0": [0.0, 0.2], "sigma": [1.0, 1.0]}
    return {
        "eval": {**two_phase, **material, "area": 12.5, "volume": 4.1},
        "minimize": {**two_phase, **material, "area": sum(halves), "volume": 4.0,
                     "phase_areas": halves, "eps0": 0.15, "max_iterations": 3,
                     "grad_tol": 1e-5, "constraint_tol": 1e-6, "penalty_init": 20.0,
                     "penalty_growth": 5.0},
        "verify": {"mesh": str(workdir / "sphere.off")},
        "overlap": {**two_phase, "eps0": 0.15},
    }


def _outputs(workdir, command, values, from_config, tag):
    """Output bytes of ``command`` with ``values`` as flags, except ``from_config`` given by config."""
    values = dict(values)
    if command == "minimize":
        values["out_dir"] = str(workdir / tag)
    argv = [command, "--out", workdir / f"{tag}.json"]
    argv += ["--n-fields", "1"] if command == "verify" else []
    if from_config:
        config = _config_at(SCHEMA_KEYS[from_config], values.pop(from_config))
        (workdir / f"{tag}.cfg.json").write_text(dumps(config))
        argv += ["--config", workdir / f"{tag}.cfg.json"]
    assert run(argv + _flag_args(values)) in (0, 4)
    names = [f"{tag}.json"]
    if command == "minimize":
        names += [f"{tag}/{out}" for out in ("trajectory.csv", "state.json", "final.off")]
    return [(workdir / name).read_bytes() for name in names]


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, flags in SCHEMA_READS.items() for f in flags],
    ids=lambda x: x,
)
def test_config_key_equals_its_flag(workdir, schema_values, command, flag):
    values = schema_values[command]
    from_flags = _outputs(workdir, command, values, None, f"schema-{command}-{flag}-flags")
    from_config = _outputs(workdir, command, values, flag, f"schema-{command}-{flag}-config")
    assert from_config == from_flags


def test_readme_config_schema_matches_cli_table():
    import argparse

    from helfrich.cli import _SCHEMA, build_parser

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Config schema", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| `--([a-z0-9-]+)` \| ([a-z, ]+) \|$", section, re.M)
    assert {(key, flag.replace("-", "_")) for key, flag, _ in rows} == {
        (key, flag) for flag, key in _SCHEMA.items()
    }
    assert dict(_SCHEMA) == SCHEMA_KEYS
    # "read by" lists the subcommands taking both --config and the flag
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for key, flag, readers in rows:
        takes = {name for name, p in commands.items()
                 if {"--config", f"--{flag}"} <= set(p._option_string_actions)}
        assert set(readers.split(", ")) == takes, key
        assert takes == {c for c, flags in SCHEMA_READS.items() if flag.replace("-", "_") in flags}


@pytest.mark.parametrize("command", ["eval", "minimize", "verify", "overlap"])
def test_readme_config_serves_every_subcommand(workdir, command):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    config = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    config.update(mesh=str(workdir / "split.off"), phase_labels=str(workdir / "labels.txt"),
                  output_dir=str(workdir / f"readme_{command}"))
    (workdir / f"readme_{command}.json").write_text(dumps(config))
    argv = [command, "--config", workdir / f"readme_{command}.json"]
    argv += {"minimize": ["--max-iterations", "2"], "verify": ["--n-fields", "1"]}.get(command, [])
    assert run(argv + ["--out", workdir / f"readme_{command}.out.json"]) == 0


def test_eval_reports_residuals_from_config_constraints(workdir):
    flags = ["--beta", "1", "--out"]
    assert run(["eval", "--mesh", workdir / "sphere.off", "--area", "12.5", "--volume", "4.1",
                *flags, workdir / "res_flags.json"]) == 0
    config = {"mesh": str(workdir / "sphere.off"),
              "constraints": {"area": 12.5, "volume": 4.1}}
    (workdir / "res.cfg.json").write_text(dumps(config))
    assert run(["eval", "--config", workdir / "res.cfg.json", *flags, workdir / "res_cfg.json"]) == 0
    assert "constraint_residuals" in json.loads((workdir / "res_cfg.json").read_text())
    assert (workdir / "res_cfg.json").read_bytes() == (workdir / "res_flags.json").read_bytes()


def test_overlap_reads_eps0_from_config_constraints(workdir):
    inputs = ["--mesh", workdir / "split.off", "--phases", workdir / "labels.txt"]
    assert run(["overlap", *inputs, "--eps0", "0.15", "--out", workdir / "eps_flags.json"]) == 0
    (workdir / "eps.cfg.json").write_text(dumps({"constraints": {"overlap_eps0": 0.15}}))
    assert run(["overlap", *inputs, "--config", workdir / "eps.cfg.json",
                "--out", workdir / "eps_cfg.json"]) == 0
    assert (workdir / "eps_cfg.json").read_bytes() == (workdir / "eps_flags.json").read_bytes()


@pytest.mark.parametrize("targets, message", [
    (["--area", "0", "--volume", "4.1"], "need m, e > 0, got (0.0, 4.1)"),
    (["--area", "12"], "--volume (or config constraints.volume) is required"),
    (["--volume", "4.1"], "--area (or config constraints.area) is required"),
], ids=["zero-area", "no-volume", "no-area"])
def test_eval_targets_need_both_and_positive(workdir, capsys, targets, message):
    assert run(["eval", "--mesh", workdir / "sphere.off", "--beta", "1", *targets]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--phases", "labels.txt"], ["--phase-a", "2"],
                                   ["--phase-b", "1"], ["--phases", "labels.txt", "--phase-b", "1"]],
                         ids=lambda x: "+".join(f for f in x if f.startswith("--")))
def test_overlap_mesh_b_rejects_phase_flags(workdir, capsys, flags):
    flags = [workdir / f if f == "labels.txt" else f for f in flags]
    assert run(["overlap", "--mesh", workdir / "split.off", "--mesh-b", workdir / "split.off",
                "--eps0", "0.3", *flags]) == 1
    given = ", ".join(str(f) for f in flags if str(f).startswith("--"))
    assert f"--mesh-b compares whole meshes; {given} do not apply" in capsys.readouterr().err


def test_overlap_mesh_b_reads_no_config_phase_labels(workdir):
    config = {"phase_labels": str(workdir / "nonexistent_labels.txt")}
    (workdir / "mesh_b.cfg.json").write_text(dumps(config))
    assert run(["overlap", "--config", workdir / "mesh_b.cfg.json", "--mesh", workdir / "split.off",
                "--mesh-b", workdir / "split.off", "--eps0", "0.3",
                "--out", workdir / "mesh_b.json"]) == 4


@pytest.mark.parametrize("extra", [["--mesh", "nonexistent.off"], ["--config", "nonexistent.json"]],
                         ids=["mesh", "config"])
def test_verify_corpus_rejects_mesh_and_config(capsys, extra):
    assert run(["verify", "--corpus", "--n-fields", "1", *extra]) == 1
    assert "--corpus verifies the shipped corpus; drop --mesh and --config" in capsys.readouterr().err


OUTSIDE_SCHEMA = [
    ({"phases": "labels.txt"}, "phases"),
    ({"area": 12.5}, "area"),
    ({"volume": 4.1}, "volume"),
    ({"eps0": 0.15}, "eps0"),
    ({"constraints": {"area_tol": 1e-6}}, "constraints.area_tol"),
    ({"run": {"penalty_max": 1e12}}, "run.penalty_max"),
    ({"params": [{"beta": 1.0, "kappa": 1.0}]}, "params[i].kappa"),
]


@pytest.mark.parametrize("config, key", OUTSIDE_SCHEMA, ids=[key for _, key in OUTSIDE_SCHEMA])
def test_config_key_outside_schema_exits_1(workdir, capsys, config, key):
    config = {"mesh": str(workdir / "sphere.off"), "params": [{"beta": 1.0}], **config}
    (workdir / "unknown.cfg.json").write_text(dumps(config))
    assert run(["eval", "--config", workdir / "unknown.cfg.json"]) == 1
    assert f"unknown config key {key}" in capsys.readouterr().err


def test_config_that_is_not_an_object_exits_1(workdir, capsys):
    (workdir / "list.cfg.json").write_text("[1]")
    assert run(["eval", "--config", workdir / "list.cfg.json"]) == 1
    assert "a config file holds one JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params, message",
    [
        (["beta"], "config params[0] is not an object"),
        ([{"beta": 1.0}, 2.0], "config params[1] is not an object"),
        ({"beta": 1.0}, "config params must be a list of objects"),
    ],
    ids=["string_entry", "number_entry", "object"],
)
def test_config_params_that_are_not_objects_exit_1(workdir, capsys, params, message):
    config = {"mesh": str(workdir / "sphere.off"), "params": params}
    (workdir / "params.cfg.json").write_text(dumps(config))
    assert run(["eval", "--config", workdir / "params.cfg.json"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("first, second", [("zeta", "alpha"), ("alpha", "zeta")])
def test_first_unknown_params_key_is_reported(workdir, capsys, first, second):
    # the params columns keep first-seen key order, not a set's hash order
    config = {"mesh": str(workdir / "sphere.off"), "params": [{"beta": 1.0, first: 1.0}, {"beta": 2.0, second: 1.0}]}
    (workdir / "params.cfg.json").write_text(dumps(config))
    assert run(["eval", "--config", workdir / "params.cfg.json"]) == 1
    assert capsys.readouterr().err == f"error: unknown config key params[i].{first}\n"


@pytest.mark.parametrize("name", ["max_iterations", "inner_iterations", "max_backtracks"])
def test_run_config_rejects_negative_integers(name):
    from helfrich.optimize import RunConfig

    RunConfig(**{name: 0})
    with pytest.raises(ValueError, match=f"{name} must be >= 0"):
        RunConfig(**{name: -1})


def test_minimize_negative_max_iterations_exits_1(workdir, capsys):
    assert run(["minimize", "--mesh", workdir / "sphere.off", "--beta", "1", "--area", "12.5",
                "--volume", "4.1", "--max-iterations", "-5"]) == 1
    assert "max_iterations must be >= 0" in capsys.readouterr().err


# sha256 of every output a subcommand writes; a change to the JSON or CSV
# layout, to the float format or to any value shows here
PINNED_OUTPUTS = {
    "verify_corpus": "dec17db20af978172178c57123926b09bab23c6e7c5c4da61ac87c8a8ac669b7",
    "eval_two_phase": "f64d00cf096bd86effe0b01925ef3a432ac45c78d1b843b3a6492ae71e963b7e",
    "overlap": "afbbf498ea10b94fe1d0c6da1cf77fc5807023822eb8a334b4d1d2694971c10c",
    "hessian": "571bcec6935187d1cf7fa8be05c99d045290399ca6cfa38c5035bd9125e74250",
    "minimize_stdout": "46a55dc3f3a57600ea0b3225ace888d43222f13ed4c23ae2154c334b62957cd1",
    "minimize_state": "46a55dc3f3a57600ea0b3225ace888d43222f13ed4c23ae2154c334b62957cd1",
    "minimize_trajectory": "ca3ed1b9d97409689c7427bed28dec76acf026417d874458fa6bd78885a3ab6a",
}


def test_output_bytes_are_pinned(workdir, capsys):
    split = ["--mesh", workdir / "split.off", "--phases", workdir / "labels.txt"]
    commands = {
        "verify_corpus": ["verify", "--corpus", "--seed", "0"],
        "eval_two_phase": ["eval", *split, "--beta", "1,1.5", "--gamma", "-0.3,-0.5",
                           "--h0", "0.2,-0.4", "--sigma", "0.7,0.7", "--area", "12.5",
                           "--volume", "4.1"],
        "overlap": ["overlap", *split, "--eps0", "0.15"],
        "hessian": ["hessian", "--beta", "2", "--gamma", "-1"],
        "minimize_stdout": ["minimize", *split, "--beta", "1,1.5", "--gamma", "-0.3,-0.5",
                            "--h0", "0.2,-0.4", "--sigma", "0.7,0.7", "--area", "12.55",
                            "--volume", "4.15", "--phase-areas", "6.2,6.35",
                            "--max-iterations", "6", "--out-dir", workdir / "pinned"],
    }
    digests = {}
    for name, args in commands.items():
        capsys.readouterr()
        assert run(args) == 0, name
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    for name, out in (("minimize_state", "state.json"), ("minimize_trajectory", "trajectory.csv")):
        digests[name] = hashlib.sha256((workdir / "pinned" / out).read_bytes()).hexdigest()
    assert digests == PINNED_OUTPUTS


def test_minimize_without_iterations_writes_the_trajectory_header(workdir):
    assert run(["minimize", "--mesh", workdir / "sphere.off", "--beta", "1", "--area", "12.5",
                "--volume", "4.1", "--max-iterations", "0", "--out-dir", workdir / "no_iter",
                "--out", workdir / "no_iter.json"]) == 0
    assert (workdir / "no_iter" / "trajectory.csv").read_bytes() == (
        b"iteration,outer,energy,augmented,bending,gauss,spontaneous,line_tension,"
        b"residual_area,residual_volume,residual_phase_max,penalty,step,grad_norm,"
        b"min_angle_deg,max_edge_ratio,iso_quotient,trials,memory,clamped,obtuse\r\n"
    )
