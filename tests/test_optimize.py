import hashlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from helfrich import optimize, shapes
from helfrich.constraints import ConstraintSet
from helfrich.curvature import curvature_field, geometry
from helfrich.density import MaterialParams
from helfrich.energy import PhaseField, multiphase_energy, willmore
from helfrich.errors import (
    DegenerateConfiguration,
    DegenerateFace,
    Diverged,
    Infeasible,
    NonPositiveTarget,
    PhaseCountMismatch,
    QualityCollapse,
)
from helfrich.gradient import energy_and_gradient, total_energy
from helfrich.mesh import TriMesh, enclosed_volume
from helfrich.optimize import (
    _MEMORY,
    RunConfig,
    _check_quality,
    _Constraints,
    _quality_fault,
    _two_loop,
    minimize,
    reduced_volume,
)

from conftest import face_corners, rotation_matrix, sample_mesh

WILLMORE = [MaterialParams(1.0, 0.0, 0.0)]


def test_reduced_volume():
    v, verdict = reduced_volume(4 * np.pi, 4 * np.pi / 3)
    assert abs(v - 1.0) < 1e-12 and verdict == "equality"
    v, verdict = reduced_volume(4 * np.pi, 2 * np.pi / 3)
    assert abs(v - 0.5) < 1e-12 and verdict == "feasible"
    v, verdict = reduced_volume(4 * np.pi, 10.0)
    assert v > 1.0 and verdict == "infeasible"
    with pytest.raises(NonPositiveTarget):
        reduced_volume(0.0, 1.0)


def test_zero_iteration_run_echoes_input():
    mesh = shapes.icosphere(2)
    cs = ConstraintSet(area=mesh.total_area(), volume=enclosed_volume(mesh))
    state = minimize(mesh, None, WILLMORE, cs, RunConfig(max_iterations=0))
    assert state.iteration == 0
    assert state.mesh is mesh
    assert abs(state.energy - total_energy(mesh, None, WILLMORE)) == 0.0
    assert abs(state.residuals.area) < 1e-12 and abs(state.residuals.volume) < 1e-12


def test_infeasible_targets_rejected():
    mesh = shapes.icosphere(2)
    with pytest.raises(Infeasible):
        minimize(mesh, None, WILLMORE, ConstraintSet(area=1.0, volume=10.0))


def test_descent_is_monotone_within_outer_rounds():
    mesh = shapes.jittered(shapes.icosphere(2), 0.01, seed=1)
    cs = ConstraintSet(area=mesh.total_area(), volume=enclosed_volume(mesh) * 0.999)
    state = minimize(mesh, None, WILLMORE, cs, RunConfig(max_iterations=120))
    assert len(state.trajectory) > 5
    for a, b in zip(state.trajectory, state.trajectory[1:]):
        if a.outer == b.outer:
            assert b.augmented <= a.augmented + 1e-10 * max(1.0, abs(a.augmented))
    # energy went down overall
    assert state.trajectory[-1].energy < state.trajectory[0].energy


def test_perturbed_sphere_short_run_progress():
    mesh = shapes.jittered(shapes.icosphere(2), 0.01, seed=2)
    cs = ConstraintSet(area=4 * np.pi, volume=4 * np.pi / 3 * 0.995)
    state = minimize(mesh, None, WILLMORE, cs, RunConfig(max_iterations=250))
    assert state.termination in ("converged", "max_iterations")
    assert abs(state.residuals.area) < 5e-3
    assert abs(state.residuals.volume) < 5e-3
    curv = curvature_field(state.mesh, tensors=False)
    assert willmore(state.mesh, curv, "quarter") < 4 * np.pi * 1.05



@pytest.mark.parametrize("budget, termination", [(1000, "outer_limit"), (120, "max_iterations")])
def test_termination_names_the_outer_limit(budget, termination):
    # 60 outer rounds of 2 inner iterations each spend 120 iterations
    mesh = shapes.jittered(shapes.icosphere(2), 0.01, seed=2)
    cs = ConstraintSet(area=4 * np.pi, volume=4 * np.pi / 3 * 0.995)
    state = minimize(mesh, None, WILLMORE, cs, RunConfig(max_iterations=budget, inner_iterations=2))
    assert state.iteration == 120
    assert state.inner_stops == ["inner_cap"] * optimize._OUTER_ITERATIONS
    assert state.termination == termination

def test_frame_indifference():
    mesh = shapes.jittered(shapes.icosphere(2), 0.01, seed=3)
    cs = ConstraintSet(area=4 * np.pi, volume=enclosed_volume(mesh))
    cfg = RunConfig(max_iterations=40)
    state1 = minimize(mesh, None, WILLMORE, cs, cfg)
    R = rotation_matrix(5)
    rotated = mesh.with_vertices(mesh.vertices @ R.T)
    state2 = minimize(rotated, None, WILLMORE, cs, cfg)
    assert len(state1.trajectory) == len(state2.trajectory)
    for a, b in zip(state1.trajectory, state2.trajectory):
        assert abs(a.energy - b.energy) < 1e-8 * max(1.0, abs(a.energy))


def test_quality_guard_trips():
    mesh = shapes.jittered(shapes.icosphere(2), 0.01, seed=4)
    cs = ConstraintSet(area=4 * np.pi, volume=4.0)
    with pytest.raises(QualityCollapse):
        minimize(mesh, None, WILLMORE, cs, RunConfig(max_iterations=50, max_edge_ratio=1.05))


def test_multiphase_run_with_phase_targets(split_sphere):
    mesh, labels = split_sphere
    phases = PhaseField(labels)
    area = mesh.total_area()
    params = [
        MaterialParams(1.0, -0.5, 0.0, 0.2, 1),
        MaterialParams(1.0, -0.5, 0.0, 0.2, 2),
    ]
    cs = ConstraintSet(
        area=area,
        volume=enclosed_volume(mesh) * 0.999,
        phase_areas=(area / 2, area / 2),
        overlap_eps0=0.0,
    )
    state = minimize(mesh, phases, params, cs, RunConfig(max_iterations=60))
    assert state.termination in ("converged", "max_iterations")
    assert np.abs(state.residuals.phase_areas).max() < 5e-3
    assert "phase_areas" in state.multipliers


def test_constraint_gradients_match_fd():
    from helfrich.optimize import _Constraints

    mesh = shapes.jittered(shapes.icosphere(2), 0.02, seed=9)
    cs = ConstraintSet(area=4 * np.pi, volume=4.0)
    con = _Constraints(None, cs)
    grads = con.gradients(mesh)
    rng = np.random.default_rng(0)
    h = 1e-6
    for p in rng.choice(mesh.n_vertices, 8, replace=False):
        for c in range(3):
            vp = mesh.vertices.copy()
            vm = mesh.vertices.copy()
            vp[p, c] += h
            vm[p, c] -= h
            fd = (con.values(mesh.with_vertices(vp)) - con.values(mesh.with_vertices(vm))) / (2 * h)
            for k, g in enumerate(grads):
                assert abs(fd[k] - g[p, c]) < 1e-6 * max(1.0, abs(fd[k]))


def _cross_product_gradients(mesh, phases, cs):
    """Constraint gradients as per-face cross products, summed with np.add.at (oracle).

    Area: d A_f / d x_c = n_f x (x_{c+2} - x_{c+1}) / 2; volume: the
    determinant sum's d / d x_c = x_{c+1} x x_{c+2} / 6.
    """
    x = face_corners(mesh)
    n = np.cross(x[1] - x[0], x[2] - x[0])
    nhat = n / np.linalg.norm(n, axis=1, keepdims=True)
    f, V = mesh.faces, mesh.n_vertices

    def scatter(sel, blocks):
        out = np.zeros((V, 3))
        for c in range(3):
            np.add.at(out, f[sel, c], blocks[c][sel])
        return out

    dA = [0.5 * np.cross(nhat, x[(c + 2) % 3] - x[(c + 1) % 3]) for c in range(3)]
    if phases is None:
        grads = [scatter(slice(None), dA) / cs.area]
    else:
        grads = [scatter(phases.labels == i + 1, dA) / t for i, t in enumerate(cs.phase_areas)]
    dvol = [np.cross(x[(c + 1) % 3], x[(c + 2) % 3]) for c in range(3)]
    return grads + [scatter(slice(None), dvol) / (6.0 * cs.volume)]


def _arcsin_guard(mesh):
    """Longest over shortest edge and the smallest corner angle in degrees, via arcsin (oracle)."""
    xi, xj, xk = face_corners(mesh)
    e1 = np.linalg.norm(xj - xi, axis=1)
    e2 = np.linalg.norm(xk - xj, axis=1)
    e3 = np.linalg.norm(xi - xk, axis=1)
    ratio = max(e1.max(), e2.max(), e3.max()) / min(e1.min(), e2.min(), e3.min())
    area2 = np.linalg.norm(np.cross(xj - xi, xk - xi), axis=1)
    min_deg = min(
        np.degrees(np.arcsin(np.clip(area2 / (b * c), 0.0, 1.0))).min()
        for b, c in ((e2, e3), (e3, e1), (e1, e2))
    )
    return ratio, min_deg


@pytest.mark.parametrize("kind", ["sphere", "box"])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    shift=hnp.arrays(np.float64, 3, elements=st.floats(-2.0, 2.0)),
    amplitude=st.floats(0.0, 0.05),
    data=st.data(),
)
def test_constraint_gradients_match_cross_product_oracle(kind, seed, shift, amplitude, data):
    mesh = sample_mesh(kind, seed, shift, amplitude)
    labels = data.draw(hnp.arrays(np.int64, mesh.n_faces, elements=st.integers(1, 3)), label="labels")
    for phases, cs in (
        (None, ConstraintSet(area=2.0, volume=1.5)),
        (PhaseField(labels, n_phases=3), ConstraintSet(area=2.0, volume=1.5, phase_areas=(0.5, 0.7, 0.8))),
    ):
        got = _Constraints(phases, cs).gradients(mesh)
        want = _cross_product_gradients(mesh, phases, cs)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


@pytest.mark.parametrize("kind", ["sphere", "box"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), amplitude=st.floats(0.0, 0.08))
def test_quality_guard_matches_arcsin_oracle(kind, seed, amplitude):
    mesh = sample_mesh(kind, seed, amplitude=amplitude)
    ratio, min_deg = _arcsin_guard(mesh)
    geo = geometry(mesh)
    assert abs(geo.edge_ratio - ratio) <= 1e-14 * ratio
    assert abs(np.degrees(geo.min_angle) - min_deg) <= 1e-10 * min_deg
    loose = 1.0 + 1e-8
    _check_quality(mesh, RunConfig(max_edge_ratio=ratio * loose, min_angle_deg=min_deg / loose))
    with pytest.raises(QualityCollapse, match="edge ratio"):
        _check_quality(mesh, RunConfig(max_edge_ratio=ratio / loose, min_angle_deg=min_deg / loose))
    with pytest.raises(QualityCollapse, match="min angle"):
        _check_quality(mesh, RunConfig(max_edge_ratio=ratio * loose, min_angle_deg=min_deg * loose))


def test_volume_gradient_matches_fd_on_shifted_box():
    # the volume is linear in each vertex, so central differences are exact
    # up to rounding
    mesh = sample_mesh("box", 7, shift=(0.3, -0.2, 0.7))
    con = _Constraints(None, ConstraintSet(area=1.0, volume=1.0))
    grad = con.gradients(mesh)[-1]
    h = 1e-6
    fd = np.empty_like(grad)
    for p in range(mesh.n_vertices):
        for c in range(3):
            vp = mesh.vertices.copy()
            vm = mesh.vertices.copy()
            vp[p, c] += h
            vm[p, c] -= h
            fd[p, c] = (con.values(mesh.with_vertices(vp))[-1] - con.values(mesh.with_vertices(vm))[-1]) / (2 * h)
    assert np.abs(fd - grad).max() <= 1e-8 * np.abs(grad).max()


@pytest.mark.parametrize("two_phase", [False, True])
def test_trajectory_energy_terms_match_energy_report(monkeypatch, two_phase):
    meshes = []
    evaluate = optimize.energy_and_gradient

    def recording(mesh, phases, params_list):
        meshes.append(mesh)
        return evaluate(mesh, phases, params_list)

    monkeypatch.setattr(optimize, "energy_and_gradient", recording)
    if two_phase:
        mesh = shapes.jittered(shapes.octasphere(3), 0.01, seed=5)
        phases = PhaseField(shapes.equator_phase_labels(mesh))
        params = [MaterialParams(1.0, -0.3, 0.5, 0.8, 1), MaterialParams(2.0, -1.0, -0.2, 0.4, 2)]
        cs = ConstraintSet(area=4 * np.pi, volume=4.0, phase_areas=(2 * np.pi, 2 * np.pi))
    else:
        mesh = sample_mesh("sphere", 3)
        phases, params = None, [MaterialParams(1.0, -0.6, 0.4)]
        cs = ConstraintSet(area=4 * np.pi, volume=4.0)
    trajectory = minimize(mesh, phases, params, cs, RunConfig(max_iterations=6)).trajectory
    assert len(trajectory) == len(meshes) == 6
    report_phases = phases if phases is not None else PhaseField.uniform(mesh)
    for point, at in zip(trajectory, meshes):
        report = multiphase_energy(at, curvature_field(at, tensors=False), report_phases, params)
        want = (
            sum(p.bending for p in report.phases),
            sum(p.gauss for p in report.phases),
            sum(p.spontaneous for p in report.phases),
            report.line_tension,
        )
        got = (point.bending, point.gauss, point.spontaneous, point.line_tension)
        scale = max(abs(x) for x in want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(abs(w), 1e-300)
        assert abs(sum(got) - point.energy) <= 1e-12 * scale
        assert (point.line_tension > 0) == two_phase


def test_two_phase_run_builds_each_phase_split_once(monkeypatch):
    import helfrich.energy as energy

    seen = []  # the meshes themselves, so no id is reused

    def recording(build):
        def wrapper(mesh, phases):
            seen.append(mesh)
            return build(mesh, phases)
        return wrapper

    for name in ("_interface", "vertex_phase_weights"):
        monkeypatch.setattr(energy, name, recording(getattr(energy, name)))
    mesh = shapes.jittered(shapes.octasphere(3), 0.01, seed=5)
    phases = PhaseField(shapes.equator_phase_labels(mesh))
    params = [MaterialParams(1.0, -0.3, 0.5, 0.8, 1), MaterialParams(2.0, -1.0, -0.2, 0.4, 2)]
    cs = ConstraintSet(area=4 * np.pi, volume=4.0, phase_areas=(2 * np.pi, 2 * np.pi))
    state = minimize(mesh, phases, params, cs, RunConfig(max_iterations=12))
    assert len(seen) > state.iteration
    assert len({id(m) for m in seen}) == len(seen)


def test_trajectory_reports_mesh_quality():
    mesh = sample_mesh("sphere", 3)
    cs = ConstraintSet(area=4 * np.pi, volume=4.0)
    first = minimize(mesh, None, WILLMORE, cs, RunConfig(max_iterations=1)).trajectory[0]
    ratio, min_deg = _arcsin_guard(mesh)
    xi, xj, xk = face_corners(mesh)
    vol = np.einsum("ij,ij->", xi, np.cross(xj, xk)) / 6.0
    area = 0.5 * np.linalg.norm(np.cross(xj - xi, xk - xi), axis=1).sum()
    iso = 36.0 * np.pi * vol**2 / area**3
    assert abs(first.max_edge_ratio - ratio) <= 1e-14 * ratio
    assert abs(first.min_angle_deg - min_deg) <= 1e-10 * min_deg
    assert abs(first.iso_quotient - iso) <= 1e-12 * iso


def test_prolate_ellipsoid_feasible_targets_converge():
    # reduced volume ~0.9: feasible targets, so the multiplier loop can
    # actually reach them; monotone descent plus tight residuals
    mesh = shapes.icosphere(3)
    mesh = mesh.with_vertices(mesh.vertices * np.array([1.0, 1.0, 1.95]))
    cs = ConstraintSet(area=mesh.total_area(), volume=enclosed_volume(mesh))
    state = minimize(mesh, None, WILLMORE, cs, RunConfig(max_iterations=1200))
    assert abs(state.residuals.area) < 1e-5
    assert abs(state.residuals.volume) < 1e-5
    for a, b in zip(state.trajectory, state.trajectory[1:]):
        if a.outer == b.outer:
            assert b.augmented <= a.augmented + 1e-10 * max(1.0, abs(a.augmented))


def test_overlap_gate_paths(split_sphere):
    mesh, labels = split_sphere
    phases = PhaseField(labels)
    area = mesh.total_area()
    params = [MaterialParams(1.0, 0.0, 0.0, 0.1, 1), MaterialParams(1.0, 0.0, 0.0, 0.1, 2)]
    cs_fail = ConstraintSet(
        area=area, volume=enclosed_volume(mesh),
        phase_areas=(area / 2, area / 2), overlap_eps0=0.5,
    )
    # hemispheres exceed eps^3/eps0 at eps0 = 0.5: the gate stops the run
    state = minimize(mesh, phases, params, cs_fail, RunConfig(max_iterations=10, inner_iterations=5))
    assert state.termination == "no_overlap_violation"
    assert state.overlap_verdicts and not state.overlap_verdicts[-1][0].passed
    # eps0 below mesh resolution: gate is indeterminate, run continues
    cs_small = ConstraintSet(
        area=area, volume=enclosed_volume(mesh),
        phase_areas=(area / 2, area / 2), overlap_eps0=0.05,
    )
    state = minimize(mesh, phases, params, cs_small, RunConfig(max_iterations=6, inner_iterations=3))
    assert state.termination != "no_overlap_violation"
    assert state.overlap_verdicts and state.overlap_verdicts[0][0] is None


def test_overlap_gate_builds_each_support_once_per_round(monkeypatch):
    import helfrich.optimize as optimize
    from helfrich.constraints import no_overlap_check, phase_support

    mesh = shapes.octasphere(3)
    z = mesh.vertices[mesh.faces].mean(axis=1)[:, 2]
    phases = PhaseField(1 + (z > -0.4) + (z > 0.4))
    per_phase = np.bincount(phases.labels - 1, weights=geometry(mesh).area)
    params = [MaterialParams(1.0, 0.0, 0.0, 0.1, p) for p in (1, 2, 3)]
    cs = ConstraintSet(
        area=float(per_phase.sum()), volume=enclosed_volume(mesh),
        phase_areas=tuple(per_phase), overlap_eps0=0.5,
    )
    built = []

    def counting_support(m, ph, phase_id):
        built.append(phase_id)
        return phase_support(m, ph, phase_id)

    monkeypatch.setattr(optimize, "phase_support", counting_support)
    state = minimize(mesh, phases, params, cs, RunConfig(max_iterations=4, inner_iterations=2))
    assert state.overlap_verdicts
    assert built == [1, 2, 3] * len(state.overlap_verdicts)
    # the gates pair the supports (1, 2), (1, 3), (2, 3) of the last round
    sup = [phase_support(state.mesh, phases, p) for p in (1, 2, 3)]
    for gate, (i, j) in zip(state.overlap_verdicts[-1], ((0, 1), (0, 2), (1, 2))):
        expected = no_overlap_check(sup[i], sup[j], cs.overlap_eps0)
        assert gate.measures.tobytes() == expected.measures.tobytes()


def test_multiphase_initial_phase_areas_sanity(split_sphere):
    mesh, labels = split_sphere
    phases = PhaseField(labels)
    area = mesh.total_area()
    cs = ConstraintSet(
        area=area,
        volume=enclosed_volume(mesh),
        phase_areas=(0.9 * area, 0.1 * area),  # split sphere is 50/50
    )
    params = [MaterialParams(1.0, 0.0, 0.0, 0.0, 1), MaterialParams(1.0, 0.0, 0.0, 0.0, 2)]
    with pytest.raises(Infeasible):
        minimize(mesh, phases, params, cs, RunConfig(max_iterations=5))


def test_optimizer_path_does_not_import_scipy_sparse():
    # numpy is the only runtime dependency: neither the optimizer nor the
    # verify report, which counts each mesh's components, loads scipy
    code = textwrap.dedent(
        """
        import os
        import sys
        import numpy as np
        from helfrich import cli, shapes
        from helfrich.constraints import ConstraintSet
        from helfrich.density import MaterialParams
        from helfrich.gradient import energy_and_gradient
        from helfrich.optimize import RunConfig, minimize

        mesh = shapes.jittered(shapes.icosphere(2), 0.01, seed=1)
        params = [MaterialParams(1.0, 0.0, 0.0)]
        energy_and_gradient(mesh, None, params)
        cs = ConstraintSet(area=4 * np.pi, volume=4 * np.pi / 3)
        minimize(mesh, None, params, cs, RunConfig(max_iterations=2))
        assert cli.main(["verify", "--corpus", "--n-fields", "1", "--out", os.devnull]) == 0
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def _spiked_sphere():
    """icosphere(2) with vertex 0 pushed out to radius 1.3: the first steepest
    step moves it ~7 units and flattens faces to below a degree."""
    base = shapes.icosphere(2)
    v = base.vertices.copy()
    v[0] *= 1.3
    mesh = TriMesh(v, base.faces)
    return mesh, ConstraintSet(area=mesh.total_area(), volume=enclosed_volume(mesh))


def _recording_trials(monkeypatch):
    trials = []
    with_vertices = TriMesh.with_vertices

    def recording(self, vertices):
        trials.append(with_vertices(self, vertices))
        return trials[-1]

    monkeypatch.setattr(TriMesh, "with_vertices", recording)
    return trials


def test_run_survives_a_first_step_that_collapses_faces(monkeypatch):
    mesh, cs = _spiked_sphere()
    cfg = RunConfig(max_iterations=20)
    trials = _recording_trials(monkeypatch)
    state = minimize(mesh, None, WILLMORE, cs, cfg)
    assert state.iteration == 20 and state.termination == "max_iterations"
    # the first trial breaks the 3 degree guard; it is rejected, the step shrinks
    assert _quality_fault(geometry(trials[0]), cfg) is not None
    rejected = sum(_quality_fault(geometry(t), cfg) is not None for t in trials)
    assert rejected >= 1
    assert state.trajectory[0].trials > 1 and state.trajectory[0].step < 1.0 / state.trajectory[0].grad_norm
    assert sum(p.trials for p in state.trajectory) == len(trials)


def test_guard_rejections_that_exhaust_the_search_raise(monkeypatch):
    mesh, cs = _spiked_sphere()
    cfg = RunConfig(max_iterations=20, max_backtracks=1)
    trials = _recording_trials(monkeypatch)
    with pytest.raises(QualityCollapse) as err:
        minimize(mesh, None, WILLMORE, cs, cfg)
    geo = geometry(trials[0])
    deg = np.degrees(geo.min_angle)
    assert re.fullmatch(
        rf"min angle {deg:.3g} deg < 3.0 in face {geo.min_angle_face} at iteration 0: "
        r"no acceptable step in 1 trials",
        str(err.value),
    )


@pytest.mark.parametrize("fault", ["degenerate_face", "degenerate_configuration", "not_finite"])
def test_bad_trials_are_rejected_not_fatal(monkeypatch, fault):
    import helfrich.optimize as optimize

    mesh = shapes.jittered(shapes.icosphere(2), 0.01, seed=1)
    cs = ConstraintSet(area=mesh.total_area(), volume=enclosed_volume(mesh) * 0.999)
    calls = []
    if fault == "degenerate_face":
        with_vertices = TriMesh.with_vertices

        def collapsing(self, vertices):
            if not calls:
                vertices = vertices.copy()
                a, b, _ = self.faces[0]
                vertices[a] = vertices[b] * (1.0 + 1e-13)  # face 0: area > 0, below the floor
            calls.append(with_vertices(self, vertices))
            return calls[-1]

        monkeypatch.setattr(TriMesh, "with_vertices", collapsing)
    else:
        def failing(m, phases, params):
            calls.append(1)
            if len(calls) == 1:
                if fault == "not_finite":
                    return float("nan")
                raise DegenerateConfiguration("injected")
            return total_energy(m, phases, params)

        monkeypatch.setattr(optimize, "total_energy", failing)
    state = minimize(mesh, None, WILLMORE, cs, RunConfig(max_iterations=10))
    assert state.iteration == 10
    assert state.trajectory[0].trials >= 2  # the bad first trial, then a good one
    if fault == "degenerate_face":
        assert geometry(calls[0]).area.min() > 0.0
        with pytest.raises(DegenerateFace):  # the threshold TriMesh applies
            calls[0]._validate_face_areas()


def test_diverged_names_iteration_vertex_and_value(monkeypatch):
    import helfrich.optimize as optimize
    from helfrich.gradient import energy_and_gradient

    calls = []

    def poisoned(m, phases, params):
        calls.append(1)
        E, g = energy_and_gradient(m, phases, params)
        if len(calls) == 3:
            g = g.copy()
            g[17, 1] = np.inf
        return E, g

    monkeypatch.setattr(optimize, "energy_and_gradient", poisoned)
    mesh = shapes.jittered(shapes.icosphere(2), 0.01, seed=1)
    cs = ConstraintSet(area=mesh.total_area(), volume=enclosed_volume(mesh))
    with pytest.raises(Diverged, match=r"at iteration 2; vertex 17 has gradient norm inf$"):
        minimize(mesh, None, WILLMORE, cs, RunConfig(max_iterations=10))


def test_start_mesh_guard_names_face_and_value():
    mesh = shapes.jittered(shapes.icosphere(2), 0.01, seed=4)
    geo = geometry(mesh)
    cs = ConstraintSet(area=4 * np.pi, volume=4.0)
    with pytest.raises(QualityCollapse) as err:
        minimize(mesh, None, WILLMORE, cs, RunConfig(max_edge_ratio=1.05))
    assert str(err.value) == (
        f"edge ratio {geo.edge_ratio:.3g} > 1.05 (shortest edge in face {geo.short_edge_face}) "
        "at iteration 0"
    )


def test_stall_ends_the_inner_round():
    mesh = shapes.jittered(shapes.icosphere(2), 0.01, seed=1)
    cs = ConstraintSet(area=mesh.total_area(), volume=enclosed_volume(mesh) * 0.999)
    state = minimize(mesh, None, WILLMORE, cs, RunConfig(max_iterations=3, max_backtracks=0))
    assert state.inner_stops == ["stalled"] * 3
    assert [p.trials for p in state.trajectory] == [0, 0, 0]
    assert [p.step for p in state.trajectory] == [0.0, 0.0, 0.0]


def test_criterion_8_search_builds_few_trials(monkeypatch):
    # criterion 8's configuration with a 150-iteration budget
    mesh0 = shapes.jittered(shapes.icosphere(4), 0.01, seed=11)
    cs = ConstraintSet(area=4 * np.pi, volume=4 * np.pi / 3)
    # the single-phase bits, pinned when the geometry record and the
    # gradient held (F, 3) face blocks; the row layout must not move them
    E, g = energy_and_gradient(mesh0, None, WILLMORE)
    assert E.hex() == "0x1.abe3f385535aap+8"
    assert hashlib.sha256(g.tobytes()).hexdigest() == (
        "0634fe36a192c930b3378087710890d2f787cc6dcc454d370be1b7d6991f6281"
    )
    trials = _recording_trials(monkeypatch)
    state = minimize(mesh0, None, WILLMORE, cs, RunConfig(max_iterations=150))
    assert state.iteration == 150
    assert state.energy == 25.13338138454342
    assert hashlib.sha256(state.mesh.vertices.tobytes()).hexdigest() == (
        "85e96136becbd6265bcd752cdce5f262a202456cdb3fdb7f5fb09eca8a99e0e9"
    )
    assert len(trials) <= 1.3 * state.iteration
    points = state.trajectory
    assert sum(p.trials for p in points) == len(trials)
    # one entry per outer round; the memory restarts with every round
    assert len(state.inner_stops) == len({p.outer for p in points})
    assert state.inner_stops[-1] == "budget"
    for a, b in zip(points, points[1:]):
        assert b.memory <= _MEMORY
        if b.outer != a.outer:
            assert b.memory == 0
    assert sum(p.memory > 0 for p in points) > 0.8 * len(points)
    geo = geometry(mesh0)
    assert points[0].clamped == int(geo.clamped.sum())
    assert points[0].obtuse == int(geo.obtuse.any(axis=0).sum())


def _dense_bfgs_direction(g, pairs):
    """-H g with H built by the dense BFGS inverse update from gamma I (oracle)."""
    n = g.size
    s, y = pairs[-1]
    H = (s @ y) / (y @ y) * np.eye(n)
    for s, y in pairs:
        r = 1.0 / (s @ y)
        left = np.eye(n) - r * np.outer(s, y)
        H = left @ H @ left.T + r * np.outer(s, s)
    return -(H @ g.ravel()).reshape(g.shape)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**16), n_pairs=st.integers(1, 10), n_vertices=st.integers(2, 12))
def test_two_loop_matches_dense_bfgs(seed, n_pairs, n_vertices):
    rng = np.random.default_rng(seed)
    n = 3 * n_vertices
    pairs = []
    for _ in range(n_pairs):
        s = rng.standard_normal(n)
        B = rng.standard_normal((n, n))
        y = (B @ B.T / n + np.eye(n)) @ s  # s.y >= |s|^2 > 0
        pairs.append((s, y))
    g = rng.standard_normal((n_vertices, 3))
    got = _two_loop(g, [(s, y, 1.0 / (s @ y)) for s, y in pairs])
    want = _dense_bfgs_direction(g, pairs)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _no_iterations(monkeypatch):
    """Make any inner iteration fail, so a test sees what minimize rejects up front."""

    def unreachable(*args):
        raise AssertionError("minimize started iterating")

    monkeypatch.setattr(optimize, "energy_and_gradient", unreachable)
    monkeypatch.setattr(optimize, "total_energy", unreachable)


def test_parameter_count_mismatch_is_named_by_minimize():
    mesh = shapes.octasphere(3)
    phases = PhaseField(shapes.equator_phase_labels(mesh))
    cs = ConstraintSet(area=4 * np.pi, volume=4.0)
    two = [MaterialParams(1.0, 0.0), MaterialParams(2.0, 0.0, phase_id=2)]
    with pytest.raises(PhaseCountMismatch, match="2 parameter sets but no phase labels"):
        minimize(mesh, None, two, cs, RunConfig(max_iterations=3))
    with pytest.raises(PhaseCountMismatch, match="2 phases but 3 parameter sets"):
        minimize(mesh, phases, two + two[1:], cs, RunConfig(max_iterations=3))


def test_phase_targets_are_checked_up_front(monkeypatch):
    mesh = shapes.octasphere(3)
    phases = PhaseField(shapes.equator_phase_labels(mesh))
    two = [MaterialParams(1.0, 0.0), MaterialParams(2.0, 0.0, phase_id=2)]
    _no_iterations(monkeypatch)
    halves = ConstraintSet(area=4 * np.pi, volume=4.0, phase_areas=(2 * np.pi, 2 * np.pi))
    with pytest.raises(PhaseCountMismatch, match="2 phase area targets but no phase labels"):
        minimize(mesh, None, WILLMORE, halves, RunConfig(max_iterations=3))
    thirds = ConstraintSet(area=4 * np.pi, volume=4.0, phase_areas=(4 * np.pi / 3,) * 3)
    with pytest.raises(PhaseCountMismatch, match="3 phase targets for 2 phases"):
        minimize(mesh, phases, two, thirds, RunConfig(max_iterations=3))
