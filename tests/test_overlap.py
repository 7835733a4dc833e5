"""The multi-radius overlap kernel against the brute-force double loop."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from helfrich.constraints import (
    PhaseSupport,
    _overlap_measures,
    no_overlap_check,
    overlap_measure,
    phase_support,
)
from helfrich.energy import PhaseField
from helfrich.errors import UnknownPhase

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


@settings(max_examples=150, deadline=None)
@given(
    supports=_supports(),
    radii=st.lists(_RADIUS, min_size=1, max_size=6).flatmap(
        # repeated radii, in any order
        lambda r: st.permutations(r + r[: len(r) // 2])
    ),
)
@example(supports=(_CLOUD, _EMPTY), radii=_EDGE_RADII)
@example(supports=(_EMPTY, _CLOUD), radii=_EDGE_RADII)
@example(supports=(_CLOUD, _FAR), radii=_EDGE_RADII)
@example(supports=(_CLOUD, _CLOUD), radii=_EDGE_RADII)
@example(supports=(_LATTICE, _LATTICE), radii=[0.25, 0.5, 0.25])
def test_multi_radius_kernel_equals_brute_force(supports, radii):
    a, b = supports
    brute = np.array([overlap_measure(a, b, e, "brute") for e in radii])
    assert _overlap_measures(a, b, radii).tobytes() == brute.tobytes()


def test_gate_measures_equal_per_radius_calls(split_sphere5):
    mesh, labels = split_sphere5
    phases = PhaseField(labels)
    a, b = phase_support(mesh, phases, 1), phase_support(mesh, phases, 2)
    verdict = no_overlap_check(a, b, 0.15, n_eps=6)
    for method in ("grid", "brute"):
        per_radius = np.array([overlap_measure(a, b, e, method) for e in verdict.radii])
        assert verdict.measures.tobytes() == per_radius.tobytes()


def test_phase_support_rejects_unknown_ids(split_sphere):
    mesh, labels = split_sphere
    phases = PhaseField(labels)
    for phase_id in (0, -1, phases.n_phases + 1):
        with pytest.raises(UnknownPhase):
            phase_support(mesh, phases, phase_id)
