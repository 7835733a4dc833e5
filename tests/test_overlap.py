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


_EXAMPLES = [
    ((_CLOUD, _EMPTY), _EDGE_RADII),
    ((_EMPTY, _CLOUD), _EDGE_RADII),
    ((_CLOUD, _FAR), _EDGE_RADII),
    ((_CLOUD, _CLOUD), _EDGE_RADII),
    ((_LATTICE, _LATTICE), [0.25, 0.5, 0.25]),
    ((_DENSE, _DENSE_B), [0.5, 0.05, 0.2, 0.1]),
    ((_COLUMN_A, _COLUMN_B), [1.0, 0.6, 0.95, 0.3]),
    ((_ORIGIN, _TIES), _TIE_RADII),
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
