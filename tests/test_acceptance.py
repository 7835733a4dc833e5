"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8's residual clause asserts the stated 1e-5 bound literally. On
any fixed triangulation the exact-polyhedron area and volume cannot both
match a round-sphere target to that accuracy (flat faces cap the
isoperimetric quotient below 1 by ~7e-4 at this resolution, putting the
joint residual floor near 1.5e-4), so that single assertion documents a
target the discrete model cannot reach; see the measured values it prints.
Everything else is expected green.
"""

import time

import numpy as np
import pytest

from helfrich import shapes
from helfrich.constraints import ConstraintSet, no_overlap_check, overlap_measure, phase_support
from helfrich.curvature import curvature_field
from helfrich.density import MaterialParams, convexity_check, f_ch, hessian
from helfrich.energy import PhaseField, canham_helfrich, multiphase_energy, willmore
from helfrich.mesh import enclosed_volume
from helfrich.optimize import RunConfig, minimize

from conftest import overlap_brute, total_area
from test_constraints import unit_square_support
from test_gradient import fd_worst_error

FOUR_PI = 4 * np.pi


def report(num, label, passed, detail=""):
    print(f"[criterion {num}] {'PASS' if passed else 'FAIL'} {label} {detail}".rstrip())
    return passed


def test_criterion_1_hessian_exactness():
    t0 = time.time()
    ok = True
    for beta in np.linspace(0.5, 3.0, 4):
        for gamma in np.linspace(-3.0, 0.5, 5):
            res = hessian(MaterialParams(float(beta), float(gamma)))
            expected = np.sort(
                np.concatenate([[(6 * beta + 5 * gamma) / 2], np.full(8, -gamma / 2)])
            )
            ok &= np.abs(np.sort(res.eigenvalues_numeric) - expected).max() <= 1e-10
    for beta in (0.5, 1.0, 3.0):
        edge = -6.0 * beta / 5.0
        ok &= convexity_check(MaterialParams(beta, edge * (1 + 1e-9))) == "nonconvex"
        ok &= convexity_check(MaterialParams(beta, edge * (1 - 1e-9))) == "strictly_convex"
        ok &= convexity_check(MaterialParams(beta, -1e-9)) == "strictly_convex"
        ok &= convexity_check(MaterialParams(beta, 1e-9)) == "nonconvex"
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    assert report(1, "Hessian eigenvalues and window flips", ok, f"({elapsed:.2f} s)")


def test_criterion_2_gauss_bonnet(corpus):
    t0 = time.time()
    ok = True
    for name, (mesh, _) in corpus.items():
        curv = curvature_field(mesh)
        total = float(curv.K @ curv.mixed_area)
        if name == "torus":
            ok &= abs(total) <= 1e-9
        elif mesh.euler_characteristic == 2:
            ok &= abs(total - FOUR_PI) <= 1e-9
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    assert report(2, "discrete Gauss-Bonnet on the corpus", ok, f"({elapsed:.2f} s)")


def test_criterion_3_sphere_energies(icosphere4, icosphere4_curv):
    t0 = time.time()
    mesh, curv = icosphere4, icosphere4_curv
    wq = willmore(mesh, curv, "quarter")
    wv = willmore(mesh, curv, "varifold")
    ech = canham_helfrich(mesh, curv, MaterialParams(1.0, -1.0, 0.0))
    vol = enclosed_volume(mesh)
    area = total_area(mesh)
    ok = abs(wq - FOUR_PI) <= 0.02 * FOUR_PI
    ok &= abs(wv - 16 * np.pi) <= 0.02 * 16 * np.pi
    ok &= abs(ech - FOUR_PI) <= 0.02 * FOUR_PI
    ok &= abs(vol - FOUR_PI / 3) <= 0.01 * FOUR_PI / 3
    ok &= abs(area - FOUR_PI) <= 0.01 * FOUR_PI
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    assert report(
        3, "level-4 icosphere energies", ok,
        f"(Wq={wq:.4f}, Wv={wv:.4f}, E={ech:.4f}, V={vol:.4f}, A={area:.4f}, {elapsed:.2f} s)",
    )


def test_criterion_4_two_path_agreement(corpus):
    ok = True
    params = MaterialParams(1.0, -1.0, 0.5)
    for name, (mesh, _) in corpus.items():
        curv = curvature_field(mesh)
        scalar = canham_helfrich(mesh, curv, params)
        tensor = float(np.sum(f_ch(curv.normal, curv.curvature_tensor, params) * curv.mixed_area))
        ok &= abs(scalar - tensor) <= 1e-9 * max(abs(scalar), abs(tensor))
    assert report(4, "tensor and scalar energy paths agree to 1e-9", ok)


def test_criterion_5_inequality_suite(corpus, tmp_path):
    from helfrich.cli import main
    from helfrich.diagnostics import standard_report

    t0 = time.time()
    ok = True
    for name, (mesh, _) in corpus.items():
        rep = standard_report(mesh, name, n_fields=20, seed=0)
        ok &= rep.all_pass
    exit_code = main(["verify", "--corpus", "--out", str(tmp_path / "corpus.json")])
    ok &= exit_code == 0
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    assert report(5, "inequality suite on the full corpus", ok, f"(exit={exit_code}, {elapsed:.1f} s)")


def test_criterion_6_no_overlap_scaling(split_sphere5):
    t0 = time.time()
    flat = unit_square_support()
    coincident = no_overlap_check(flat, flat, 0.3, n_eps=6)
    ok = (not coincident.passed) and 1.7 <= coincident.slope <= 2.3
    upright = unit_square_support(rotate=True)
    hinged = no_overlap_check(flat, upright, 0.5, n_eps=6)
    ok &= hinged.passed and 2.7 <= hinged.slope <= 3.3
    mesh, labels = split_sphere5
    phases = PhaseField(labels)
    a = phase_support(mesh, phases, 1)
    b = phase_support(mesh, phases, 2)
    hemis = no_overlap_check(a, b, 0.15, n_eps=6)
    ok &= hemis.passed and 2.7 <= hemis.slope <= 3.3
    rng = np.random.default_rng(12)
    from helfrich.constraints import PhaseSupport

    small_a = PhaseSupport(rng.uniform(0, 1, (450, 3)), rng.uniform(0.5, 1, 450), 0.05)
    small_b = PhaseSupport(rng.uniform(0, 1, (500, 3)), rng.uniform(0.5, 1, 500), 0.05)
    for eps in (0.05, 0.2, 0.9):
        ok &= overlap_measure(small_a, small_b, eps) == overlap_brute(small_a, small_b, eps)
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    assert report(
        6, "no-overlap scaling laws", ok,
        f"(slopes: flat={coincident.slope:.2f}, hinge={hinged.slope:.2f}, "
        f"hemis={hemis.slope:.2f}, {elapsed:.1f} s)",
    )


def test_criterion_7_gradient_correctness():
    t0 = time.time()
    meshes = {
        "perturbed_sphere": (shapes.jittered(shapes.icosphere(3), 0.01, seed=7), None,
                             [MaterialParams(1.0, 0.0, 0.0)]),
        "torus": (shapes.torus(), None, [MaterialParams(1.0, -1.0, 3.0)]),
        "split_sphere": (
            shapes.octasphere(4),
            PhaseField(shapes.equator_phase_labels(shapes.octasphere(4))),
            [MaterialParams(1.0, -0.3, 0.5, 0.8, 1), MaterialParams(2.0, -1.0, -0.2, 0.4, 2)],
        ),
    }
    ok = True
    worsts = {}
    for name, (mesh, phases, params) in meshes.items():
        worst = fd_worst_error(mesh, phases, params, nsample=50, seed=0)
        worsts[name] = worst
        ok &= worst <= 1e-4
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    assert report(
        7, "analytic gradient vs central differences", ok,
        "(" + ", ".join(f"{k}={v:.2e}" for k, v in worsts.items()) + f", {elapsed:.1f} s)",
    )


def test_criterion_8_minimization_benchmark():
    t0 = time.time()
    mesh0 = shapes.jittered(shapes.icosphere(4), 0.01, seed=11)
    cs = ConstraintSet(area=FOUR_PI, volume=FOUR_PI / 3)
    cfg = RunConfig(max_iterations=2000, grad_tol=1e-4, constraint_tol=1e-5)
    state = minimize(mesh0, None, [MaterialParams(1.0, 0.0, 0.0)], cs, cfg)
    elapsed = time.time() - t0
    curv = curvature_field(state.mesh)
    wq = willmore(state.mesh, curv, "quarter")
    res_area = abs(state.residuals.area)
    res_vol = abs(state.residuals.volume)
    willmore_ok = wq <= FOUR_PI * 1.02
    budget_ok = state.iteration <= 2000 and elapsed < 600.0
    residual_ok = res_area < 1e-5 and res_vol < 1e-5
    report(
        8, "sphere minimization benchmark", willmore_ok and budget_ok and residual_ok,
        f"(Wq/4pi={wq / FOUR_PI:.5f}, |res_area|={res_area:.2e}, |res_vol|={res_vol:.2e}, "
        f"iters={state.iteration}, {elapsed:.0f} s)",
    )
    assert willmore_ok, f"quarter Willmore {wq} above 1.02 * 4 pi"
    assert budget_ok
    # A triangulated sphere's flat faces keep its isoperimetric quotient
    # below 1 by ~7e-4 at this resolution, so area and volume cannot both
    # match the round-sphere pair to 1e-5; the optimizer lands on the
    # balanced floor near 1.5e-4 instead. Asserted literally regardless.
    assert residual_ok, (
        f"area/volume residuals ({res_area:.2e}, {res_vol:.2e}) cannot jointly reach 1e-5 "
        "on a fixed polyhedron whose isoperimetric quotient is bounded away from 1"
    )


def test_criterion_9_multiphase_line_tension(split_sphere5):
    t0 = time.time()
    mesh, labels = split_sphere5
    curv = curvature_field(mesh)
    params = [
        MaterialParams(1.0, 0.0, 0.0, sigma=1.0, phase_id=1),
        MaterialParams(1.0, 0.0, 0.0, sigma=1.0, phase_id=2),
    ]
    rep = multiphase_energy(mesh, curv, PhaseField(labels), params)
    ok = abs(rep.line_tension - FOUR_PI) <= 0.02 * FOUR_PI
    for phase in rep.phases:
        ok &= abs(phase.area - 2 * np.pi) <= 0.02 * 2 * np.pi
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    assert report(
        9, "equator-split line tension and phase areas", ok,
        f"(line={rep.line_tension:.4f}, areas=({rep.phases[0].area:.4f}, "
        f"{rep.phases[1].area:.4f}), {elapsed:.2f} s)",
    )
