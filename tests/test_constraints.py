import re

import numpy as np
import pytest

from helfrich.constraints import (
    ConstraintSet,
    PhaseSupport,
    _Constraints,
    constraint_residuals,
    isoperimetric_check,
    no_overlap_check,
    overlap_measure,
    phase_support,
)
from helfrich.energy import PhaseField
from helfrich.errors import InsufficientSamples, NonPositiveTarget
from helfrich.mesh import enclosed_volume

from conftest import overlap_brute, total_area


def unit_square_support(n=40, spacing=0.025, rotate=False):
    """Area measure of a flat n x n-cell patch of equilateral triangles, about a unit square.

    Row j of n + 1 points lies at y = j dy, dy = spacing √3/2, odd rows
    shifted by half a spacing. The weights are the trapezoid rule's: the
    cell area dy·spacing, halved on the first and last row and column.
    ``rotate`` stands the patch up in the plane y = 0, hinged on the x axis.
    """
    dy = spacing * np.sqrt(3.0) / 2.0
    j, i = np.mgrid[0 : n + 1, 0 : n + 1]
    x = ((i + 0.5 * (j % 2)) * spacing).ravel()
    y = (j * dy).ravel()
    zero = np.zeros_like(x)
    points = np.column_stack([x, zero, y] if rotate else [x, y, zero])
    weights = np.full((n + 1, n + 1), dy * spacing)
    weights[[0, -1]] /= 2.0
    weights[:, [0, -1]] /= 2.0
    return PhaseSupport(points, weights.ravel(), spacing)


def test_isoperimetric_examples():
    assert isoperimetric_check(4 * np.pi, 4 * np.pi / 3) == "equality"
    # (6 sqrt(pi) 10)^(1/3) ~ 4.72 exceeds sqrt(4 pi) ~ 3.54
    assert isoperimetric_check(4 * np.pi, 10.0) == "infeasible"
    assert isoperimetric_check(100.0, 1.0) == "feasible"
    with pytest.raises(NonPositiveTarget):
        isoperimetric_check(-1.0, 1.0)


def test_constraint_set_validation():
    with pytest.raises(NonPositiveTarget):
        ConstraintSet(area=0.0, volume=1.0)
    cs = ConstraintSet(area=2.0, volume=0.1, phase_areas=(1.5, 0.5))
    assert isoperimetric_check(cs.area, cs.volume) == "feasible"
    with pytest.raises(Exception):
        ConstraintSet(area=2.0, volume=0.1, phase_areas=(1.5, 1.5))


def test_distant_supports_have_zero_overlap():
    rng = np.random.default_rng(0)
    a = PhaseSupport(rng.uniform(0, 1, (100, 3)), np.ones(100), 0.1)
    b = PhaseSupport(rng.uniform(0, 1, (80, 3)) + 5.0, np.ones(80), 0.1)
    assert overlap_measure(a, b, 0.5) == 0.0
    verdict = no_overlap_check(a, b, 1.0, n_eps=5)
    assert verdict.passed and np.isnan(verdict.slope)


def test_grid_equals_brute_force_exactly():
    rng = np.random.default_rng(42)
    for trial in range(4):
        a = PhaseSupport(rng.uniform(-1, 1, (400, 3)), rng.uniform(0.1, 1, 400), 0.05)
        b = PhaseSupport(rng.uniform(-1, 1, (500, 3)), rng.uniform(0.1, 1, 500), 0.05)
        for eps in (0.07, 0.31, 1.3):
            assert overlap_measure(a, b, eps) == overlap_brute(a, b, eps)


def test_overlap_symmetry_and_monotonicity():
    rng = np.random.default_rng(5)
    a = PhaseSupport(rng.uniform(0, 1, (300, 3)), rng.uniform(0.5, 1, 300), 0.05)
    b = PhaseSupport(rng.uniform(0, 1, (300, 3)), rng.uniform(0.5, 1, 300), 0.05)
    prev = 0.0
    for eps in (0.05, 0.1, 0.2, 0.4):
        ab = overlap_measure(a, b, eps)
        ba = overlap_measure(b, a, eps)
        assert abs(ab - ba) < 1e-12 * max(1.0, ab)
        assert ab >= prev
        prev = ab


def test_coincident_flat_patches_scale_like_area():
    sup = unit_square_support()
    eps = 0.1
    measure = overlap_measure(sup, sup, eps)
    # full surface overlap: measure ~ area * pi eps^2
    assert 0.5 * np.pi * eps**2 < measure / sup.mass < 1.5 * np.pi * eps**2
    verdict = no_overlap_check(sup, sup, 0.3, n_eps=6)
    assert not verdict.passed
    assert 1.7 <= verdict.slope <= 2.3


def test_hinged_patches_scale_cubically():
    flat = unit_square_support()
    upright = unit_square_support(rotate=True)
    verdict = no_overlap_check(flat, upright, 0.5, n_eps=6)
    assert verdict.passed
    assert 2.7 <= verdict.slope <= 3.3


def test_hemispheres_curve_contact(split_sphere5):
    mesh, labels = split_sphere5
    phases = PhaseField(labels)
    a = phase_support(mesh, phases, 1)
    b = phase_support(mesh, phases, 2)
    wide = no_overlap_check(a, b, 0.5, n_eps=6)
    assert 2.7 <= wide.slope <= 3.3
    gate = no_overlap_check(a, b, 0.15, n_eps=6)
    assert gate.passed
    assert 2.7 <= gate.slope <= 3.3


def test_duplicated_supports_fail(split_sphere5):
    mesh, labels = split_sphere5
    sup = phase_support(mesh, PhaseField(labels), 1)
    verdict = no_overlap_check(sup, sup, 0.3, n_eps=6)
    assert not verdict.passed
    assert verdict.slope < 2.5


def test_mutual_singularity_shadow(split_sphere5):
    # curve contact passing the gate: coincident-pair mass is zero at mesh
    # resolution (the shared support is only the equator ring)
    mesh, labels = split_sphere5
    phases = PhaseField(labels)
    a = phase_support(mesh, phases, 1)
    b = phase_support(mesh, phases, 2)
    shared = 0.0
    seen = {tuple(np.round(p, 12)): w for p, w in zip(a.points, a.weights)}
    for p, w in zip(b.points, b.weights):
        shared += w * seen.get(tuple(np.round(p, 12)), 0.0)
    assert shared <= a.resolution**2 * min(a.mass, b.mass)


@pytest.mark.parametrize("eps0", [np.inf, np.nan, -1.0])
def test_constraint_set_rejects_a_negative_or_non_finite_eps0(eps0):
    # an infinite eps0 gives infinite radii, zero measures and NaN bounds: a
    # gate that fails on any input
    with pytest.raises(ValueError, match="overlap_eps0 must be finite and >= 0"):
        ConstraintSet(area=2.0, volume=0.1, overlap_eps0=eps0)


@pytest.mark.parametrize("eps0", [np.inf, np.nan])
def test_no_overlap_check_rejects_a_non_finite_eps0(eps0):
    sup = unit_square_support(n=10, spacing=0.1)
    with pytest.raises(ValueError, match="eps0 must be finite"):
        no_overlap_check(sup, sup, eps0)


@pytest.mark.parametrize("eps0", [1e103, 1e300])
def test_an_eps0_whose_cube_overflows_is_rejected(eps0):
    # 1e300 once reached the gate and overflowed in d^2 < eps^2 and eps^3
    sup = unit_square_support(n=10, spacing=0.1)
    message = re.escape(f"overlap_eps0 must be finite with a finite cube, got {eps0}")
    with pytest.raises(ValueError, match=message):
        no_overlap_check(sup, sup, eps0)
    with pytest.raises(ValueError, match=message):
        ConstraintSet(area=2.0, volume=0.1, overlap_eps0=eps0)


def test_an_eps0_near_the_cube_limit_runs_without_warnings():
    # every pair lies within the largest radius; RuntimeWarnings are errors here
    sup = unit_square_support(n=10, spacing=0.1)
    verdict = no_overlap_check(sup, sup, 1e102)
    assert np.isfinite(verdict.bounds).all() and verdict.measures[-1] == sup.mass**2


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_overlap_measure_rejects_a_non_positive_or_non_finite_eps(eps):
    # the cloud overlaps itself, so a NaN or infinite radius read as 0.0 hid it
    sup = unit_square_support(n=10, spacing=0.1)
    with pytest.raises(ValueError, match=f"eps must be finite and > 0, got {eps}"):
        overlap_measure(sup, sup, eps)


_POINTS = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])


@pytest.mark.parametrize(
    "points, weights, resolution, field",
    [
        (_POINTS[:, :2], np.ones(3), 0.1, "points"),
        (_POINTS.ravel(), np.ones(9), 0.1, "points"),
        (np.where(np.eye(3, dtype=bool), np.nan, _POINTS), np.ones(3), 0.1, "points"),
        (_POINTS + [0.0, 0.0, np.inf], np.ones(3), 0.1, "points"),
        (_POINTS, np.ones(2), 0.1, "weights"),
        (_POINTS, np.ones((3, 1)), 0.1, "weights"),
        (_POINTS, [1.0, -1.0, 1.0], 0.1, "weights"),
        (_POINTS, [1.0, np.nan, 1.0], 0.1, "weights"),
        (_POINTS, [1.0, np.inf, 1.0], 0.1, "weights"),
        (_POINTS, np.ones(3), 0.0, "resolution"),
        (_POINTS, np.ones(3), -0.1, "resolution"),
        (_POINTS, np.ones(3), np.nan, "resolution"),
        (_POINTS, np.ones(3), np.inf, "resolution"),
    ],
)
def test_phase_support_rejects_bad_input(points, weights, resolution, field):
    # unchecked, a weight of -1 gave a negative measure, a NaN point a NaN
    # grid origin and (N, 2) points a bare broadcast error
    with pytest.raises(ValueError, match=f"^{field} must"):
        PhaseSupport(points, weights, resolution)


def test_insufficient_samples():
    sup = unit_square_support(n=10, spacing=0.1)
    with pytest.raises(InsufficientSamples):
        no_overlap_check(sup, sup, 0.5, n_eps=3)
    with pytest.raises(InsufficientSamples):
        # resolution floor above eps0: empty radius range
        no_overlap_check(sup, sup, 0.05, n_eps=6)


def test_constraint_residuals_self_consistency(icosphere4):
    cs = ConstraintSet(
        area=total_area(icosphere4), volume=enclosed_volume(icosphere4)
    )
    res = constraint_residuals(icosphere4, None, cs)
    assert res.area == 0.0 and res.volume == 0.0


def test_constraint_residuals_sphere_targets(icosphere4):
    cs = ConstraintSet(area=4 * np.pi, volume=4 * np.pi / 3)
    res = constraint_residuals(icosphere4, None, cs)
    assert abs(res.area) < 0.01
    assert abs(res.volume) < 0.01
    assert max(abs(res.area), abs(res.volume)) < 0.01


def test_constraint_residuals_per_phase(split_sphere):
    mesh, labels = split_sphere
    area = total_area(mesh)
    cs = ConstraintSet(
        area=area, volume=enclosed_volume(mesh), phase_areas=(area / 2, area / 2)
    )
    res = constraint_residuals(mesh, PhaseField(labels), cs)
    assert np.abs(res.phase_areas).max() < 1e-12
    # the end-of-run report and the optimizer's constraint values agree bitwise
    cs = ConstraintSet(area=12.0, volume=4.0, phase_areas=(5.0, 7.0))
    res = constraint_residuals(mesh, PhaseField(labels), cs)
    vals = _Constraints(PhaseField(labels), cs).values(mesh)
    assert vals.tobytes() == np.array([*res.phase_areas, res.volume]).tobytes()
    assert res.phase_areas[0] != res.phase_areas[1]
    total = _Constraints(None, ConstraintSet(area=12.0, volume=4.0)).values(mesh)
    assert total.tobytes() == np.array([res.area, res.volume]).tobytes()
