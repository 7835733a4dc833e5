import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helfrich import shapes
from helfrich.curvature import _principal_directions, _tangent_bases, curvature_field, geometry
from helfrich.errors import DegenerateOneRing
from helfrich.mesh import _scatter

from conftest import flat_cube_faces


def test_sphere_curvatures_r1(icosphere4, icosphere4_curv):
    curv = icosphere4_curv
    assert np.abs(curv.H - 2.0).max() < 0.02 * 2.0
    assert np.abs(curv.K - 1.0).max() < 0.02


def test_sphere_curvatures_r2():
    m = shapes.icosphere(4, radius=2.0)
    curv = curvature_field(m, tensors=False)
    assert np.abs(curv.H - 1.0).max() < 0.02
    assert np.abs(curv.K - 0.25).max() < 0.02 * 0.25


def test_sphere_curvature_errors_shrink_under_refinement():
    h_errs, k_errs = [], []
    for level in (2, 3, 4):
        curv = curvature_field(shapes.icosphere(level), tensors=False)
        h_errs.append(np.abs(curv.H - 2.0).max())
        k_errs.append(np.abs(curv.K - 1.0).max())
    assert h_errs[0] > h_errs[1] > h_errs[2]
    assert k_errs[0] > k_errs[1] > k_errs[2]


def test_flat_patch_interior_exact_zero():
    # the faces of a subdivided cube are flat patches
    mesh, inside = flat_cube_faces()
    assert np.count_nonzero(inside) == 294
    curv = curvature_field(mesh)
    assert np.abs(curv.H[inside]).max() < 1e-12
    assert np.abs(curv.K[inside]).max() < 1e-12


def test_normals_unit_and_outward(icosphere4_curv, icosphere4):
    nu = icosphere4_curv.normal
    assert np.abs(np.linalg.norm(nu, axis=1) - 1.0).max() < 1e-12
    # outward on a star-shaped mesh
    assert (np.einsum("ij,ij->i", nu, icosphere4.vertices) > 0).all()


def test_mixed_area_partitions_surface(corpus):
    for name, (mesh, _) in corpus.items():
        curv = curvature_field(mesh, tensors=False)
        assert abs(curv.mixed_area.sum() - mesh.total_area()) < 1e-9 * mesh.total_area(), name


@pytest.mark.parametrize("name", ["icosphere3", "torus", "capsule", "perturbed_sphere", "split_sphere"])
def test_tensor_identities(corpus, name):
    mesh, _ = corpus[name]
    curv = curvature_field(mesh)
    A = curv.curvature_tensor
    II = curv.second_fundamental_form
    # A_ijk = II^j_ik + II^k_ij
    assert np.abs(A - (II.transpose(0, 1, 3, 2) + II)).max() == 0.0
    # |A|^2 = 2 |II|^2
    a2 = np.einsum("vijk,vijk->v", A, A)
    ii2 = np.einsum("vijk,vijk->v", II, II)
    assert np.abs(a2 - 2 * ii2).max() < 1e-10 * max(1.0, a2.max())
    # trace recovers the mean curvature vector
    trace = np.einsum("vjij->vi", A)
    assert np.abs(trace - curv.Hbar).max() < 1e-10 * max(1.0, np.abs(curv.H).max())
    # K = |Hbar|^2/2 - |A|^2/4
    gauss = 0.5 * np.einsum("vi,vi->v", curv.Hbar, curv.Hbar) - 0.25 * a2
    scale = np.abs(curv.K) + 0.25 * a2
    assert np.abs(curv.K - gauss).max() < 1e-10 * max(1.0, scale.max())
    assert np.abs(curv.norm_A_squared() - a2).max() < 1e-10 * max(1.0, a2.max())


def test_gauss_curvature_is_exact_angle_defect(corpus):
    for name, (mesh, _) in corpus.items():
        curv = curvature_field(mesh, tensors=False)
        total = curv.K @ curv.mixed_area
        assert abs(total - 2 * np.pi * mesh.euler_characteristic) < 1e-9, name


def test_principal_curvature_product_and_sum(icosphere4_curv):
    c = icosphere4_curv
    assert np.abs(c.kappa1 * c.kappa2 - c.K).max() < 1e-12 * np.abs(c.K).max()
    assert np.abs(c.kappa1 + c.kappa2 - c.H).max() < 1e-12 * np.abs(c.H).max()
    assert (c.kappa1 >= c.kappa2).all()


def test_principal_directions_orthonormal(icosphere4_curv):
    c = icosphere4_curv
    for d in (c.direction1, c.direction2):
        assert np.abs(np.linalg.norm(d, axis=1) - 1).max() < 1e-9
        assert np.abs(np.einsum("vi,vi->v", d, c.normal)).max() < 1e-9
    assert np.abs(np.einsum("vi,vi->v", c.direction1, c.direction2)).max() < 1e-9


def test_degenerate_one_ring_raises():
    # two neighbors whose tangential displacements are collinear: the
    # normal-variation fit cannot determine curvature across that line
    stub = SimpleNamespace(
        vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]),
        n_vertices=3,
        vertex_neighbors=lambda: (np.array([0, 2, 3, 4]), np.array([1, 2, 0, 0])),
    )
    nu = np.tile(np.array([0.0, 0, 1.0]), (3, 1))
    with pytest.raises(DegenerateOneRing) as err:
        _principal_directions(stub, nu)
    assert err.value.vertex == 0


def oracle_directions(mesh, nu):
    """The one-ring fit with the 3x3 normal equations assembled per vertex.

    Returns (d1, d2, s) with s the fitted (s11, s12, s22); raises
    DegenerateOneRing like ``_principal_directions``.
    """
    t1, t2 = _tangent_bases(nu)
    offsets, nbrs = mesh.vertex_neighbors()
    counts = np.diff(offsets)
    src = np.repeat(np.arange(mesh.n_vertices), counts)
    du = mesh.vertices[nbrs] - mesh.vertices[src]
    dn = nu[nbrs] - nu[src]
    u1 = np.einsum("ej,ej->e", du, t1[src])
    u2 = np.einsum("ej,ej->e", du, t2[src])
    w1 = np.einsum("ej,ej->e", dn, t1[src])
    w2 = np.einsum("ej,ej->e", dn, t2[src])
    # unknowns (s11, s12, s22): rows [u1,u2,0]->w1 and [0,u1,u2]->w2
    r1 = np.stack([u1, u2, np.zeros_like(u1)], axis=1)
    r2 = np.stack([np.zeros_like(u1), u1, u2], axis=1)
    rows = src[None, :]
    M = _scatter(rows, [np.einsum("ei,ej->ije", r1, r1) + np.einsum("ei,ej->ije", r2, r2)], mesh.n_vertices)
    M = np.moveaxis(M, -1, 0)
    b = _scatter(rows, [(r1 * w1[:, None] + r2 * w2[:, None]).T], mesh.n_vertices).T
    diag = M[:, (0, 1, 2), (0, 1, 2)].sum(axis=1) / 3.0
    det = np.linalg.det(M)
    bad = np.abs(det) <= 1e-12 * np.maximum(diag, 1e-300) ** 3
    if bad.any():
        raise DegenerateOneRing(int(np.flatnonzero(bad)[0]))
    s = np.linalg.solve(M, b[:, :, None])[:, :, 0]
    if not np.isfinite(s).all():
        raise DegenerateOneRing(int(np.flatnonzero(~np.isfinite(s).all(axis=1))[0]))
    s11, s12, s22 = s[:, 0], s[:, 1], s[:, 2]
    angle = 0.5 * np.arctan2(2.0 * s12, s11 - s22)
    c, sn = np.cos(angle)[:, None], np.sin(angle)[:, None]
    return c * t1 + sn * t2, -sn * t1 + c * t2, s


@lru_cache(maxsize=None)
def fit_base(kind):
    return {
        "icosphere2": lambda: shapes.icosphere(2),
        "icosphere3": lambda: shapes.icosphere(3),
        "octasphere3": lambda: shapes.octasphere(3),
        "torus": shapes.torus,
    }[kind]()


# three far vertices in the plane z = 0, in general position seen from
# each other and from any point within a few units of the origin
STUB_HELPERS = np.array([[10.0, 0.0, 0.0], [-5.0, 9.0, 0.0], [-5.0, -9.0, 0.0]])


def star_stub(offsets):
    """Vertex 0 joined to neighbours at ``offsets``.

    Each neighbour is joined to the three ``STUB_HELPERS``, and each helper
    to the other two, so vertex 0 is the only one whose fit can be
    degenerate.
    """
    k = len(offsets)
    helpers = k + 1 + np.arange(3)
    nbrs = [np.arange(1, k + 1), np.tile(helpers, k)] + [np.delete(helpers, j) for j in range(3)]
    return SimpleNamespace(
        vertices=np.vstack([np.zeros(3), offsets, STUB_HELPERS]),
        n_vertices=k + 4,
        vertex_neighbors=lambda: (
            np.concatenate([[0, k], k + 3 * np.arange(1, k + 1), 4 * k + 2 * np.arange(1, 4)]),
            np.concatenate(nbrs),
        ),
    )


def fit_outcome(fit, mesh, nu):
    try:
        return fit(mesh, nu)
    except DegenerateOneRing as err:
        return err.vertex


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["icosphere2", "icosphere3", "octasphere3", "torus"]),
    amplitude=st.floats(0.0, 0.02),
    seed=st.integers(0, 2**16),
)
def test_principal_directions_match_assembled_oracle(kind, amplitude, seed):
    mesh = shapes.jittered(fit_base(kind), amplitude, seed)
    curv = curvature_field(mesh)
    d1, d2, s = oracle_directions(mesh, curv.normal)
    S = curv.shape_operator
    S_oracle = curv.kappa1[:, None, None] * np.einsum("vi,vj->vij", d1, d1) + curv.kappa2[
        :, None, None
    ] * np.einsum("vi,vj->vij", d2, d2)
    # Where the fitted operator is isotropic to rounding (the 12 valence-5
    # vertices of an unjittered icosphere) its eigenframe is arbitrary and
    # the two fits may pick frames an angle ~ ulp / gap apart; S then moves
    # by that angle times kappa1 - kappa2 (which there is sqrt(ulp) noise).
    gap = np.hypot(s[:, 0] - s[:, 2], 2.0 * s[:, 1])
    gap = gap / np.maximum(np.hypot(s[:, 0] + s[:, 2], gap), 1e-300)
    frame = (curv.kappa1 - curv.kappa2) * np.minimum(2.0, 1e-14 / np.maximum(gap, 1e-300))
    err = np.abs(S - S_oracle).max(axis=(1, 2))
    assert (err <= 1e-12 * np.abs(S).max() + frame).all()
    for d in (curv.direction1, curv.direction2):
        assert np.abs(np.linalg.norm(d, axis=1) - 1.0).max() < 1e-12
        assert np.abs(np.einsum("vi,vi->v", d, curv.normal)).max() < 1e-12
    assert np.abs(np.einsum("vi,vi->v", curv.direction1, curv.direction2)).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=2, max_size=8),
    lengths=st.lists(st.floats(0.1, 2.0), min_size=8, max_size=8),
    collinear=st.booleans(),
)
def test_degenerate_one_ring_matches_oracle(angles, lengths, collinear):
    # a flat star around vertex 0; collinear offsets cannot determine
    # curvature across their line
    k = len(angles)
    theta = np.full(k, angles[0]) if collinear else np.asarray(angles)
    # keep general position well clear of the det threshold, where two
    # roundings of the same determinant may fall on either side
    spread = np.abs(np.sin(theta - theta[0])).max()
    assume(collinear or spread > 1e-2)
    r = np.asarray(lengths[:k]) * np.where(np.arange(k) % 2, -1.0, 1.0)
    stub = star_stub(np.column_stack([r * np.cos(theta), r * np.sin(theta), np.zeros(k)]))
    nu = np.tile(np.array([0.0, 0, 1.0]), (stub.n_vertices, 1))
    new = fit_outcome(_principal_directions, stub, nu)
    old = fit_outcome(oracle_directions, stub, nu)
    assert isinstance(new, int) == isinstance(old, int)
    if isinstance(old, int):
        assert new == old == 0


# the stub of test_degenerate_one_ring_raises, and three neighbours in
# general position on the paraboloid z = (x^2 + 3 y^2) / 2
PARABOLOID_XY = np.array([[1.0, 0.0], [0.0, 1.0], [-0.7, 0.7]])
FIXED_STUBS = {
    "collinear": np.array([[1.0, 0, 0], [2.0, 0, 0]]),
    "well_posed": np.column_stack([PARABOLOID_XY, 0.5 * (PARABOLOID_XY[:, 0] ** 2 + 3.0 * PARABOLOID_XY[:, 1] ** 2)]),
}


@pytest.mark.parametrize("name", sorted(FIXED_STUBS))
def test_fixed_stubs_raise_like_oracle(name):
    offsets = FIXED_STUBS[name]
    stub = star_stub(offsets)
    nu = np.tile(np.array([0.0, 0, 1.0]), (stub.n_vertices, 1))
    new = fit_outcome(_principal_directions, stub, nu)
    old = fit_outcome(oracle_directions, stub, nu)
    if name == "collinear":
        assert new == old == 0
    else:
        assert not isinstance(old, int)
        for d in new:
            assert np.abs(np.linalg.norm(d, axis=1) - 1.0).max() < 1e-12
            assert np.abs(d[:, 2]).max() < 1e-12


def test_principal_directions_peak_allocation():
    # The component-wise fit peaks at ~113 bytes per directed edge and the
    # assembled normal equations at ~290; one (E, 3, 3) float array is 72
    # more, which this bound does not leave room for.
    mesh = shapes.jittered(shapes.icosphere(5), 1e-3, 0)
    nu = geometry(mesh).nu.T
    n_edges = len(mesh.vertex_neighbors()[1])
    tracemalloc.start()
    try:
        _principal_directions(mesh, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 160 * n_edges, f"{peak / n_edges:.0f} bytes per directed edge"


def test_clamp_reconciles_discriminant(icosphere4_curv):
    c = icosphere4_curv
    # defect-K on a discrete sphere exceeds (H/2)^2, so H snaps to 2 sqrt(K)
    assert c.clamped.all()
    assert np.abs(c.H - 2 * np.sqrt(c.K)).max() < 1e-12 * 2
