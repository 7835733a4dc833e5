import hashlib
import tracemalloc

import numpy as np
import pytest

from helfrich import gradient, shapes
from helfrich.curvature import geometry
from helfrich.density import MaterialParams
from helfrich.constraints import ConstraintSet
from helfrich.energy import PhaseField, interface_kink, multiphase_energy, canham_helfrich
from helfrich.curvature import curvature_field
from helfrich.errors import DegenerateConfiguration, PhaseCountMismatch
from helfrich.gradient import energy_and_gradient, total_energy
from helfrich.optimize import _Constraints

from conftest import flat_cube_faces, rotation_matrix

# criterion 7's split-sphere material sets
SPLIT_PARAMS = [MaterialParams(1.0, -0.3, 0.5, 0.8, 1), MaterialParams(2.0, -1.0, -0.2, 0.4, 2)]


def sha(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


def jittered_split(level, amplitude, seed):
    """Equator-split icosphere, labelled before its vertices are jittered."""
    base = shapes.icosphere(level)
    phases = PhaseField(shapes.equator_phase_labels(base))
    return shapes.jittered(base, amplitude, seed), phases


@pytest.fixture(scope="module")
def large_split():
    """The ``large_split_eval`` benchmark input (V=40962, F=81920)."""
    return jittered_split(6, 1e-3, 0)


def eligible_vertices(mesh, hstep):
    """Vertices whose star stays inside one smoothness branch across an FD step.

    The energy is piecewise smooth (umbilic reconciliation, obtuse mixed
    areas); central differences are only meaningful away from the branch
    boundaries.
    """
    geo = geometry(mesh)
    Hraw, K = geo.H_raw, geo.K
    D = Hraw**2 - 4 * K
    band = 2.0 * (hstep / mesh.mean_edge_length) * (Hraw**2 + 4 * np.abs(K))
    near = np.abs(D) < np.maximum(band, 1e-12)
    offsets, nbrs = mesh.vertex_neighbors()
    counts = np.diff(offsets)
    src = np.repeat(np.arange(mesh.n_vertices), counts)
    bad = near.copy()
    np.logical_or.at(bad, src, near[nbrs])
    return np.flatnonzero(~bad)


def fd_worst_error(mesh, phases, params, nsample=50, seed=0, hrel=1e-5):
    _, grad = energy_and_gradient(mesh, phases, params)
    rms = float(np.sqrt(np.mean(np.sum(grad**2, axis=1))))
    hstep = hrel * mesh.bbox_diagonal
    pool = eligible_vertices(mesh, hstep)
    rng = np.random.default_rng(seed)
    idx = rng.choice(pool, size=min(nsample, len(pool)), replace=False)
    worst = 0.0
    for p in idx:
        fd = np.empty(3)
        for c in range(3):
            vp = mesh.vertices.copy()
            vm = mesh.vertices.copy()
            vp[p, c] += hstep
            vm[p, c] -= hstep
            fd[c] = (
                total_energy(mesh.with_vertices(vp), phases, params)
                - total_energy(mesh.with_vertices(vm), phases, params)
            ) / (2 * hstep)
        err = np.linalg.norm(fd - grad[p]) / max(np.linalg.norm(fd), np.linalg.norm(grad[p]), rms)
        worst = max(worst, err)
    return worst


def test_gradient_matches_fd_perturbed_sphere():
    mesh = shapes.jittered(shapes.icosphere(3), 0.01, seed=7)
    assert fd_worst_error(mesh, None, [MaterialParams(1.0, 0.0, 0.0)]) <= 1e-4


def test_gradient_matches_fd_torus():
    assert fd_worst_error(shapes.torus(), None, [MaterialParams(1.0, -1.0, 3.0)]) <= 1e-4


def test_gradient_matches_fd_multiphase():
    mesh = shapes.octasphere(4)
    phases = PhaseField(shapes.equator_phase_labels(mesh))
    params = [
        MaterialParams(1.0, -0.3, 0.5, 0.8, 1),
        MaterialParams(2.0, -1.0, -0.2, 0.4, 2),
    ]
    assert fd_worst_error(mesh, phases, params, nsample=40) <= 1e-4


def test_flat_patch_interior_gradient_vanishes():
    # the faces of a subdivided cube are flat patches; their deep vertices
    # have flat one-rings
    mesh, flat = flat_cube_faces()
    _, grad = energy_and_gradient(mesh, None, [MaterialParams(1.0, 0.0, 0.0)])
    offsets, nbrs = mesh.vertex_neighbors()
    deep = [v for v in np.flatnonzero(flat) if flat[nbrs[offsets[v] : offsets[v + 1]]].all()]
    assert len(deep) == 150
    assert np.abs(grad[deep]).max() < 1e-10


def test_translation_invariance(corpus):
    mesh, labels = corpus["split_sphere"]
    phases = PhaseField(labels)
    params = [MaterialParams(1.0, -0.5, 0.4, 1.0, 1), MaterialParams(1.5, -0.2, 0.0, 0.5, 2)]
    _, grad = energy_and_gradient(mesh, phases, params)
    assert np.abs(grad.sum(axis=0)).max() < 1e-10 * max(1.0, np.abs(grad).max())


def test_energy_consistency_with_energy_module(corpus):
    mesh, labels = corpus["split_sphere"]
    phases = PhaseField(labels)
    params = [MaterialParams(1.0, -0.5, 0.4, 1.0, 1), MaterialParams(1.5, -0.2, 0.0, 0.5, 2)]
    curv = curvature_field(mesh)
    report = multiphase_energy(mesh, curv, phases, params)
    E = total_energy(mesh, phases, params)
    assert abs(E - report.total) < 1e-12 * max(1.0, abs(E))
    single = corpus["icosphere3"][0]
    p = MaterialParams(1.1, -0.6, 0.2)
    e_grad = total_energy(single, None, [p])
    e_mod = canham_helfrich(single, curvature_field(single), p)
    assert abs(e_grad - e_mod) < 1e-12 * abs(e_mod)


def test_rotation_equivariance():
    mesh = shapes.jittered(shapes.icosphere(2), 0.02, seed=3)
    params = [MaterialParams(1.0, -0.7, 0.5)]
    R = rotation_matrix(2)
    rotated = mesh.with_vertices(mesh.vertices @ R.T)
    e1, g1 = energy_and_gradient(mesh, None, params)
    e2, g2 = energy_and_gradient(rotated, None, params)
    assert abs(e1 - e2) < 1e-10 * abs(e1)
    assert np.abs(g1 @ R.T - g2).max() < 1e-9 * max(1.0, np.abs(g1).max())


def test_degenerate_configuration_raises():
    tet = shapes.tetrahedron()
    v = tet.vertices.copy()
    v[0] = v[1]  # zero-area faces: every face holding both vertices 0 and 1
    first = int(np.flatnonzero(np.isin(tet.faces, [0, 1]).sum(axis=1) == 2)[0])
    with pytest.raises(DegenerateConfiguration, match=rf"^face {first} has area 0$"):
        total_energy(tet.with_vertices(v), None, [MaterialParams(1.0, 0.0)])


@pytest.mark.parametrize("route", [total_energy, energy_and_gradient])
def test_parameter_count_mismatch_is_named(route):
    mesh = shapes.octasphere(3)
    phases = PhaseField(shapes.equator_phase_labels(mesh))
    one, two = MaterialParams(1.0, 0.0), MaterialParams(2.0, 0.0, phase_id=2)
    with pytest.raises(PhaseCountMismatch, match="2 parameter sets but no phase labels"):
        route(mesh, None, [one, two])
    with pytest.raises(PhaseCountMismatch, match="2 phases but 1 parameter sets"):
        route(mesh, phases, [one])
    with pytest.raises(PhaseCountMismatch, match="2 phases but 3 parameter sets"):
        route(mesh, phases, [one, two, two])


@pytest.mark.parametrize("block", [None, 7, 1000, 1279])
def test_two_phase_outputs_pinned(monkeypatch, block):
    """Bitwise values of the two-phase routes on a jittered icosphere(3).

    Pinned when each route gathered its own face corners; every route now
    reads the geometry record's edges and the stored phase split, and the
    bits must not move. They hold for any face slice of the gradient
    (``block``; None keeps the default, a single slice of the 1280 faces).
    """
    if block is not None:
        monkeypatch.setattr(gradient, "_FACE_BLOCK", block)
    base = shapes.icosphere(3)
    phases = PhaseField(shapes.equator_phase_labels(base))
    mesh = shapes.jittered(base, 0.01, seed=5)
    params = [MaterialParams(1.0, -0.3, 0.5, 0.8, 1), MaterialParams(2.0, -1.0, -0.2, 0.4, 2)]

    def sha(a):
        return hashlib.sha256(a.tobytes()).hexdigest()

    E, grad = energy_and_gradient(mesh, phases, params)
    assert E.hex() == "0x1.22ea11cfa6848p+6"
    assert sha(grad) == "6f5462dc4e23f7408a67c27c74bfd6f44099adb3582e2a320cd2db3adec7518a"
    assert multiphase_energy(mesh, curvature_field(mesh), phases, params).total.hex() == "0x1.22ea11cfa6849p+6"
    assert interface_kink(mesh, phases).hex() == "0x1.b3ca6edec14e2p-2"
    cs = ConstraintSet(area=4 * np.pi, volume=4.0, phase_areas=(2 * np.pi, 2 * np.pi))
    assert [sha(g) for g in _Constraints(phases, cs).gradients(mesh)] == [
        "b3ea5411dfb76e6c829fd9fad18561a798f1ef9b8bd8fac272610e2e365702d6",
        "f701574247b3ccb5ed7a6bb65e13ca9ee816a92a41215fb18389de9c9cade16c",
        "31819517a8aca1e410d5993baecf5073885309a6572b8bf726ca558f8eb9532c",
    ]


def test_single_phase_none_equals_uniform_bitwise():
    """``phases=None`` is a fast path, not a different energy.

    With h0, gamma and sigma all nonzero, ``PhaseField.uniform`` (whose
    split weights are all 1 and whose interface is empty) gives the same
    bits as ``None`` for the energy, its gradient and the report total.
    """
    mesh = shapes.jittered(shapes.icosphere(4), 0.01, seed=3)
    params = [MaterialParams(1.0, -0.5, 0.3, 0.2)]
    uniform = PhaseField.uniform(mesh)
    E0, g0 = energy_and_gradient(mesh, None, params)
    E1, g1 = energy_and_gradient(mesh, uniform, params)
    assert E0.hex() == E1.hex()
    assert g0.tobytes() == g1.tobytes()
    curv = curvature_field(mesh)
    assert (
        multiphase_energy(mesh, curv, None, params).total.hex()
        == multiphase_energy(mesh, curv, uniform, params).total.hex()
    )


def test_large_split_outputs_pinned(large_split):
    """Bitwise energy and gradient on the ``large_split_eval`` input (F=81920)."""
    mesh, phases = large_split
    E, grad = energy_and_gradient(mesh, phases, SPLIT_PARAMS)
    assert E.hex() == "0x1.75390c06e1d2bp+10"
    assert sha(grad) == "a216e824595c82f39f5a4346dcedecb8ce78690bca3625240c2f80b65e8d643c"


def test_two_phase_icosphere5_outputs_pinned():
    """Bitwise energy and gradient on a jittered two-phase icosphere(5) (F=20480).

    The jitter is about 7% of the mean edge, as in the icosphere(3) pin,
    so both branches of the gradient are taken: 53 vertices are clamped
    and 72 faces are obtuse.
    """
    mesh, phases = jittered_split(5, 0.0025, 5)
    geo = geometry(mesh)
    assert (int(geo.clamped.sum()), int(geo.obtuse.any(axis=0).sum())) == (53, 72)
    E, grad = energy_and_gradient(mesh, phases, SPLIT_PARAMS)
    assert E.hex() == "0x1.2bf691316199ap+9"
    assert sha(grad) == "c1dd21990cb8132a845b0fcdc416884ef71e7eb581a88d10477b1ff1979b645a"


def test_gradient_transient_memory_is_bounded(large_split):
    """One gradient call on the large-split input allocates at most 30 MiB at peak.

    The record and the phase split are built first. The face-local stage
    runs one face slice at a time, so its temporaries do not grow with F;
    with whole-mesh (3, F) temporaries the peak was 46.7 MiB.
    """
    mesh, phases = large_split
    total_energy(mesh, phases, SPLIT_PARAMS)
    tracemalloc.start()
    try:
        energy_and_gradient(mesh, phases, SPLIT_PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20, f"peak {peak / 2**20:.1f} MiB"
