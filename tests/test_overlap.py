"""The multi-radius overlap kernel against the brute-force double loop."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from helfrich import constraints, shapes
from helfrich.constraints import (
    PhaseSupport,
    _overlap_measures,
    no_overlap_check,
    overlap_measure,
    phase_support,
)
from helfrich.energy import PhaseField
from helfrich.errors import UnknownPhase

from conftest import overlap_brute, traced_memory

# Quarter-lattice clouds give exact distance ties with quarter radii, so a
# mask that admits d == eps shows; arbitrary floats cover the generic case.
_QUARTERS = st.integers(-2, 2).map(lambda k: k / 4)
_COORD = st.one_of(_QUARTERS, st.floats(-2.0, 2.0, allow_nan=False))
_RADIUS = st.one_of(st.integers(1, 12).map(lambda k: k / 4), st.floats(1e-3, 4.0))


@st.composite
def _supports(draw):
    n_a, n_b = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    coord = draw(st.sampled_from([_QUARTERS, _COORD]))
    pa = draw(hnp.arrays(np.float64, (n_a, 3), elements=coord))
    pb = draw(hnp.arrays(np.float64, (n_b, 3), elements=coord))
    if n_a and draw(st.booleans()):
        # points of A repeated in A and coincident with points of B
        idx = draw(st.lists(st.integers(0, n_a - 1), min_size=1, max_size=8))
        pa = np.concatenate([pa, pa[idx]])
        pb = np.concatenate([pb, pa[idx]])
    if draw(st.booleans()):
        pb = pb + draw(st.sampled_from([0.0, 9.5, 100.0]))
    weight = st.floats(0.0, 1.0, allow_nan=False)
    wa = draw(hnp.arrays(np.float64, len(pa), elements=weight))
    wb = draw(hnp.arrays(np.float64, len(pb), elements=weight))
    return PhaseSupport(pa, wa, 0.1), PhaseSupport(pb, wb, 0.1)


_RNG = np.random.default_rng(3)
_CLOUD = PhaseSupport(_RNG.uniform(0, 1, (40, 3)), _RNG.uniform(0.1, 1, 40), 0.1)
_EMPTY = PhaseSupport(np.zeros((0, 3)), np.zeros(0), 0.1)
_FAR = PhaseSupport(_CLOUD.points + 50.0, _CLOUD.weights, 0.1)
_LATTICE = PhaseSupport(np.indices((3, 3, 3)).reshape(3, -1).T / 4, np.linspace(0.1, 1, 27), 0.1)
# 1e-6 lies below every distance between distinct points of the cloud
_EDGE_RADII = [0.3, 1e-6, 0.05, 0.3, 1.5]
# 300 points of A in one cell of size 0.5, and B around and inside it
_DENSE = PhaseSupport(_RNG.uniform(0, 0.1, (300, 3)), _RNG.uniform(0.1, 1, 300), 0.1)
_DENSE_B = PhaseSupport(_RNG.uniform(-0.4, 0.5, (200, 3)), _RNG.uniform(0.1, 1, 200), 0.1)
# with cell size 1 the far point of A puts the origin at z = -4, so A's
# column holds B in the cells z-1, z, z+1, and z+2 out of reach
_COLUMN_A = PhaseSupport(
    [[0.0, 0.0, 0.5], [0.0, 0.0, 0.55], [0.3, 0.2, 0.5], [5.0, 5.0, -3.0]], [0.5, 0.25, 1.0, 0.125], 0.1
)
_COLUMN_B = PhaseSupport(
    [[0.0, 0.0, z] for z in (-0.4, 0.2, 0.9, 1.4, 2.2)] + [[0.9, 0.1, 0.3]],
    [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
    0.1,
)
# |b|^2 rounds to either side of radius^2 depending on the order of the
# three squares; the brute force adds them as (x^2 + y^2) + z^2
_ORIGIN = PhaseSupport([[0.0, 0.0, 0.0]], [1.0], 0.1)
_TIES = PhaseSupport([[0.544871, 0.512832, -0.663414], [0.386512, -0.352541, 0.852246]], [0.5, 0.25], 0.1)
_TIE_RADII = [0.9999996011304204, 0.9999999636704994]


_EDGE_WINDOW_RADII = [0.5, 1.0, 0.5]
# dz = +-r from z = 1.75, 2 and 2.25 ends on both sides of the z-cell
# boundary at 2, and in the cell above or below
_Z_EDGE = [[0.5, 0.5, z] for z in (1.75, 2.0, 2.25)]
# x = 1 and y = 2 are column boundaries; 1 - ulp and 2 - ulp lie in the
# columns before them
_COLUMN_EDGE = [[x, y, 1.5] for x, y in [(1.0, 0.5), (np.nextafter(1.0, 0), 0.5), (0.5, 2.0), (0.5, np.nextafter(2.0, 0))]]


def _window_edge_example(a, scale=1.0, shift=0.0):
    """A at ``a * scale + shift`` and, for each radius r, B right above and
    below each point of A at |dz| = r and one ulp of z inside it.

    The anchor (0, 0, 0), mapped like A and added to A only, puts the grid
    origin at -1 for cell size 1, so that cell boundaries lie at the
    integers.
    """
    radii = [r * scale for r in _EDGE_WINDOW_RADII]
    a = np.asarray(a) * scale + shift
    b = []
    for r in sorted(set(radii)):
        for z in (a[:, 2] + r, a[:, 2] - r):
            b += [np.c_[a[:, :2], z], np.c_[a[:, :2], np.nextafter(z, a[:, 2])]]
    a, b = np.r_[[[shift] * 3], a], np.concatenate(b)
    supports = (PhaseSupport(a, np.linspace(0.25, 1, len(a)), 0.1), PhaseSupport(b, np.linspace(1, 0.5, len(b)), 0.1))
    return supports, radii


_WINDOW_EDGES = [
    _window_edge_example(points, *transform)
    for points in (_Z_EDGE, _COLUMN_EDGE)
    # 2^-10, about 1e-3, keeps every coordinate and radius exact at 1e6
    for transform in ((), (2.0**-10, 1e6))
]

# (eps, z of the anchor, z_a, z_b): B lies just inside eps of A, above or
# below it, but z_b - oz and z_a - oz, oz the grid origin's z, round
# apart by more than eps, so a z window of exactly eps would miss the pair
_MARGIN = [
    ((PhaseSupport([[0, 0, z0], [0, 0, za]], [0.5, 1.0], 0.1), PhaseSupport([[0, 0, zb]], [0.25], 0.1)), [eps])
    for eps, z0, za, zb in [
        (0.836093595829174, -0.6830814536401725, 30.88856950504479, 30.052475909215616),
        (0.5712568071914436, -0.8232919721561289, 3.1560354970508597, 3.727292304242303),
    ]
]


_EXAMPLES = [
    ((_CLOUD, _EMPTY), _EDGE_RADII),
    ((_EMPTY, _CLOUD), _EDGE_RADII),
    ((_CLOUD, _FAR), _EDGE_RADII),
    ((_CLOUD, _CLOUD), _EDGE_RADII),
    ((_LATTICE, _LATTICE), [0.25, 0.5, 0.25]),
    ((_DENSE, _DENSE_B), [0.5, 0.05, 0.2, 0.1]),
    ((_COLUMN_A, _COLUMN_B), [1.0, 0.6, 0.95, 0.3]),
    ((_ORIGIN, _TIES), _TIE_RADII),
    *_WINDOW_EDGES,
    *_MARGIN,
]


def _with_examples(test):
    for supports, radii in _EXAMPLES:
        test = example(supports=supports, radii=radii)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(
    supports=_supports(),
    radii=st.lists(_RADIUS, min_size=1, max_size=6).flatmap(
        # repeated radii, in any order
        lambda r: st.permutations(r + r[: len(r) // 2])
    ),
)
@_with_examples
def test_multi_radius_kernel_equals_brute_force(supports, radii):
    a, b = supports
    brute = np.array([overlap_brute(a, b, e) for e in radii])
    assert _overlap_measures(a, b, radii).tobytes() == brute.tobytes()


@pytest.mark.parametrize("example", range(len(_WINDOW_EDGES)))
def test_window_edge_examples_have_pairs_at_every_radius(example):
    (a, b), radii = _WINDOW_EDGES[example]
    assert all(overlap_brute(a, b, e) > 0 for e in radii)


@pytest.mark.parametrize("chunk", [1, 7])
def test_chunks_cut_inside_cells_keep_the_bits(monkeypatch, chunk):
    """The property test's examples, scanned in chunks of ``chunk`` candidates.

    Chunks this small end inside cells (every point of ``_DENSE`` shares
    one), and a point with more candidates than the budget is a chunk alone.
    """
    monkeypatch.setattr(constraints, "_CANDIDATE_CHUNK", chunk)
    for (a, b), radii in _EXAMPLES:
        brute = np.array([overlap_brute(a, b, e) for e in radii])
        assert _overlap_measures(a, b, radii).tobytes() == brute.tobytes()


def test_dense_clouds_are_scanned_in_bounded_memory():
    """Two 800-point clouds in one cell: 640000 candidate pairs, each a hit at the largest radius.

    A chunk's pairs are freed before the next chunk is scanned, so the
    peak stays at a few MiB; with every pair held at once it was 74 MiB.
    """
    rng = np.random.default_rng(7)
    a, b = (PhaseSupport(rng.uniform(0, 0.1, (800, 3)), rng.uniform(0.1, 1, 800), 0.1) for _ in range(2))
    radii = [0.5, 0.05, 0.1]
    measures, _, peak = traced_memory(_overlap_measures, a, b, radii)
    brute = np.array([overlap_brute(a, b, e) for e in radii])
    assert measures.tobytes() == brute.tobytes()
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_radius_below_the_grid_resolution_is_rejected():
    # cell size 1e-7 over a unit cloud needs cell indices past 2^20
    with pytest.raises(ValueError, match="radius too small for the grid extent"):
        _overlap_measures(_CLOUD, _CLOUD, [1e-7])


def test_gate_measures_equal_per_radius_calls(split_sphere5):
    mesh, labels = split_sphere5
    phases = PhaseField(labels)
    a, b = phase_support(mesh, phases, 1), phase_support(mesh, phases, 2)
    verdict = no_overlap_check(a, b, 0.15, n_eps=6)
    for measure in (overlap_measure, overlap_brute):
        per_radius = np.array([measure(a, b, e) for e in verdict.radii])
        assert verdict.measures.tobytes() == per_radius.tobytes()


def test_phase_support_rejects_unknown_ids(split_sphere):
    mesh, labels = split_sphere
    phases = PhaseField(labels)
    for phase_id in (0, -1, phases.n_phases + 1):
        with pytest.raises(UnknownPhase):
            phase_support(mesh, phases, phase_id)


def test_gate_on_the_large_split_input_is_pinned():
    """The gate at V=40962, where the brute-force oracle is too slow to run.

    The input is the ``large_split_eval`` benchmark's: icosphere(6) with
    equator labels, jittered by 1e-3 with seed 0, and eps0 = 0.15. On
    smaller inputs the kernel is checked against the brute force bit for
    bit; here the pinned hash of the measures stands in for that check.
    A second call, traced, bounds the gate's working memory: 5.55 MiB
    when every A point took its cells' full 27-cell neighbourhoods.
    """
    mesh = shapes.icosphere(6)
    labels = shapes.equator_phase_labels(mesh)
    mesh = shapes.jittered(mesh, 1e-3, 0)
    phases = PhaseField(labels)
    a, b = phase_support(mesh, phases, 1), phase_support(mesh, phases, 2)
    verdict = no_overlap_check(a, b, 0.15)
    assert hashlib.sha256(verdict.measures.tobytes()).hexdigest() == (
        "a632ad6ed25fedbe8b9000ce9f1f402fd141183d36c5238aa8e26d4bf2e96f5d"
    )
    assert verdict.slope == pytest.approx(2.9309327266064997, rel=1e-12, abs=0)
    assert verdict.passed
    again, _, peak = traced_memory(no_overlap_check, a, b, 0.15)
    assert again.measures.tobytes() == verdict.measures.tobytes()
    assert peak <= 5.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"
