"""Both writers load back what they wrote: floats bit for bit, as floats."""

import csv
import json
import math
from dataclasses import fields, is_dataclass

import numpy as np

from helfrich import serialize, shapes
from helfrich.cli import main
from helfrich.constraints import ConstraintSet
from helfrich.curvature import curvature_field
from helfrich.density import MaterialParams
from helfrich.diagnostics import standard_report
from helfrich.energy import PhaseField, multiphase_energy
from helfrich.mesh_io import write_mesh
from helfrich.optimize import RunConfig, TrajectoryPoint, minimize


def assert_loads_back(value, loaded):
    """``loaded`` is ``value`` as JSON data: a float with the same bits as a
    float, "nan"/"inf"/"-inf" for the non-finite ones, ints and bools typed."""
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        assert list(loaded) == list(value)
        for key, item in value.items():
            assert_loads_back(item, loaded[key])
    elif isinstance(value, (list, tuple, np.ndarray)):
        assert isinstance(loaded, list) and len(loaded) == len(value)
        for item, back in zip(value, loaded):
            assert_loads_back(item, back)
    elif isinstance(value, (bool, np.bool_)):
        assert loaded is bool(value)
    elif isinstance(value, (int, np.integer)):
        assert type(loaded) is int and loaded == value
    elif isinstance(value, (float, np.floating)):
        if math.isfinite(value):
            assert type(loaded) is float and loaded.hex() == float(value).hex()
        else:
            assert loaded == str(float(value))
    else:
        assert loaded == value


def test_verification_report_loads_back(corpus):
    report = standard_report(corpus["torus"][0], "torus")
    assert_loads_back(report, json.loads(serialize.dumps(report)))


def test_energy_report_loads_back(split_sphere):
    mesh, labels = split_sphere
    curv = curvature_field(mesh)
    params = [MaterialParams(1.0, -0.3, 0.2, 0.7), MaterialParams(1.5, -0.5, -0.4, 0.7, phase_id=2)]
    two_phase = multiphase_energy(mesh, curv, PhaseField(labels), params)
    # one phase: line_tension, spontaneous and boundary_length are 0.0
    one_phase = multiphase_energy(mesh, curv, None, [MaterialParams(1.0, -0.5)])
    for report in (two_phase, one_phase):
        assert_loads_back(report, json.loads(serialize.dumps(report)))


def test_numpy_scalars_and_non_finite_floats_load_back():
    value = {"f": np.float64(0.5), "whole": np.float64(3.0), "i": np.int64(-7), "b": np.bool_(True),
             "nan": float("nan"), "inf": np.inf, "-inf": -np.inf, "rows": np.eye(2), "none": None}
    text = serialize.dumps(value)
    assert "np." not in text and "NaN" not in text and "Infinity" not in text
    assert_loads_back(value, json.loads(text))


def test_minimize_payload_loads_back(tmp_path, monkeypatch):
    # the zero-iteration run writes penalty 10.0 and grad_norm inf
    written = []
    dumps = serialize.dumps
    monkeypatch.setattr(serialize, "dumps", lambda obj: written.append(obj) or dumps(obj))
    write_mesh(tmp_path / "sphere.off", shapes.icosphere(2))
    assert main(["minimize", "--mesh", str(tmp_path / "sphere.off"), "--beta", "1", "--area", "12.5",
                 "--volume", "4.1", "--max-iterations", "0", "--out", str(tmp_path / "out.json")]) == 0
    (payload,) = written
    loaded = json.loads((tmp_path / "out.json").read_text())
    assert loaded["penalty"] == 10.0 and type(loaded["penalty"]) is float
    assert loaded["grad_norm"] == "inf"
    assert_loads_back(payload, loaded)


def test_trajectory_csv_loads_back(tmp_path):
    mesh = shapes.jittered(shapes.icosphere(2), 0.02, seed=5)
    cs = ConstraintSet(area=12.0, volume=3.9)
    rows = minimize(mesh, None, [MaterialParams(1.0, 0.0, 0.0)], cs, RunConfig(max_iterations=4)).trajectory
    serialize.dump_csv(TrajectoryPoint, rows, tmp_path / "trajectory.csv")
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        header, *cells = list(csv.reader(fh))
    assert header == [f.name for f in fields(TrajectoryPoint)] and len(cells) == len(rows)
    for row, line in zip(rows, cells):
        for name, cell in zip(header, line):
            value = getattr(row, name)
            if isinstance(value, int):
                assert cell == str(value)
            else:  # never an int literal, so a reader that infers types sees a float
                assert not cell.lstrip("-").isdigit() and float(cell).hex() == float(value).hex(), name
