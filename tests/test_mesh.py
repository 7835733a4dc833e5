import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from helfrich import shapes
from helfrich.curvature import curvature_field
from helfrich.density import MaterialParams
from helfrich.energy import PhaseField
from helfrich.errors import (
    DegenerateFace,
    IndexOutOfRange,
    InconsistentOrientation,
    NonManifold,
)
from helfrich.gradient import energy_and_gradient
from helfrich.mesh import TriMesh, _scatter, build_mesh, diameter, enclosed_volume

from conftest import rotation_matrix


def test_octahedron_valid():
    m = shapes.octahedron()
    assert (m.n_vertices, m.n_faces) == (6, 8)
    assert m.euler_characteristic == 2
    assert m.genus == 0
    assert m.is_closed


def test_back_to_back_triangles_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    with pytest.raises((NonManifold, InconsistentOrientation)):
        build_mesh(verts, [(0, 1, 2), (0, 2, 1)])


def test_inconsistent_orientation_rejected():
    tet = shapes.tetrahedron()
    faces = tet.faces.copy()
    faces[0] = faces[0, ::-1]  # one face flipped: shared edges traversed twice same way
    with pytest.raises(InconsistentOrientation):
        build_mesh(tet.vertices, faces)


def test_subdivision_oracle_euler():
    for level in (1, 2, 3):
        m = shapes.icosphere(level)
        assert m.n_faces == 20 * 4**level
        assert m.euler_characteristic == 2


def test_index_and_reference_validation():
    with pytest.raises(IndexOutOfRange):
        build_mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 5)])
    with pytest.raises(IndexOutOfRange):
        # vertex 3 unreferenced
        build_mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0), (5, 5, 5)], [(0, 1, 2)])


def test_degenerate_face_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]
    with pytest.raises(DegenerateFace):
        build_mesh(verts, [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])


def test_open_mesh_needs_flag():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    with pytest.raises(NonManifold):
        build_mesh(verts, [(0, 1, 2)])
    m = build_mesh(verts, [(0, 1, 2)], allow_boundary=True)
    assert not m.is_closed
    assert set(m.boundary_vertices) == {0, 1, 2}


def test_pinched_vertex_rejected():
    a = shapes.tetrahedron()
    b = shapes.tetrahedron()
    vb = b.vertices + np.array([2.0, 0, 0])
    # merge vertex 0 of both tetrahedra into one
    verts = np.vstack([a.vertices, vb[1:]])
    fb = b.faces.copy()
    fb[fb == 0] = 0
    fb[fb > 0] += 3
    with pytest.raises(NonManifold):
        build_mesh(verts, np.vstack([a.faces, fb]))


def test_enclosed_volume_cube_exact():
    assert enclosed_volume(shapes.cube()) == 1.0


def test_enclosed_volume_sphere(icosphere4):
    assert abs(enclosed_volume(icosphere4) - 4 * np.pi / 3) < 0.01 * 4 * np.pi / 3


def test_enclosed_volume_orientation_antisymmetry(icosphere4):
    vol = enclosed_volume(icosphere4)
    assert abs(enclosed_volume(icosphere4.flipped()) + vol) < 1e-12 * abs(vol)


def test_diameter():
    assert abs(diameter(shapes.cube()) - np.sqrt(3)) < 1e-12
    assert abs(diameter(shapes.tetrahedron(edge=1.0)) - 1.0) < 1e-12
    for level in (3, 4):
        assert abs(diameter(shapes.icosphere(level)) - 2.0) < 1e-3


def test_gauss_bonnet_exact(corpus):
    for name, (mesh, _) in corpus.items():
        defect_sum = mesh.angle_defects().sum()
        assert abs(defect_sum - 2 * np.pi * mesh.euler_characteristic) < 1e-9, name


def test_rigid_motion_invariance():
    m = shapes.jittered(shapes.icosphere(2), 0.02, seed=4)
    R = rotation_matrix(1)
    m2 = m.with_vertices(m.vertices @ R.T + np.array([0.3, -1.2, 2.5]))
    c1 = curvature_field(m, tensors=False)
    c2 = curvature_field(m2, tensors=False)
    for f1, f2 in ((c1.H, c2.H), (c1.K, c2.K), (c1.mixed_area, c2.mixed_area)):
        assert np.abs(f1 - f2).max() < 1e-9 * max(1.0, np.abs(f1).max())
    assert abs(enclosed_volume(m2) - enclosed_volume(m)) < 1e-9 * abs(enclosed_volume(m))


def test_scaling_covariance():
    m = shapes.jittered(shapes.icosphere(2), 0.02, seed=4)
    s = 2.3
    m2 = m.with_vertices(s * m.vertices)
    c1 = curvature_field(m, tensors=False)
    c2 = curvature_field(m2, tensors=False)
    assert np.abs(c2.H - c1.H / s).max() < 1e-9 * np.abs(c1.H).max()
    assert np.abs(c2.K - c1.K / s**2).max() < 1e-9 * np.abs(c1.K).max()
    assert abs(m2.total_area() - s**2 * m.total_area()) < 1e-9 * m.total_area()
    assert abs(enclosed_volume(m2) - s**3 * enclosed_volume(m)) < 1e-9 * enclosed_volume(m2)
    assert np.abs(c2.Hbar - c1.Hbar / s).max() < 1e-9 * np.abs(c1.Hbar).max()


def test_vertices_immutable(icosphere4):
    with pytest.raises(ValueError):
        icosphere4.vertices[0, 0] = 7.0


def test_with_vertices_guards(icosphere4):
    with pytest.raises(IndexOutOfRange):
        icosphere4.with_vertices(icosphere4.vertices[:-1])
    bad = icosphere4.vertices.copy()
    bad[0] = np.nan
    with pytest.raises(DegenerateFace):
        icosphere4.with_vertices(bad)


def test_with_vertices_evaluates_like_a_fresh_mesh():
    mesh = shapes.octasphere(3)
    phases = PhaseField(shapes.equator_phase_labels(mesh))
    params = [MaterialParams(1.0, -0.3, 0.5, 0.8, 1), MaterialParams(2.0, -1.0, -0.2, 0.4, 2)]
    energy_and_gradient(mesh, phases, params)  # geometry of the old positions is now stored
    mesh.vertex_neighbors()
    v2 = shapes.jittered(mesh, 0.02, seed=4).vertices
    moved = mesh.with_vertices(v2)
    assert moved.vertex_neighbors() is mesh.vertex_neighbors()
    e1, g1 = energy_and_gradient(moved, phases, params)
    e2, g2 = energy_and_gradient(TriMesh(v2, mesh.faces), phases, params)
    assert e1 == e2
    assert np.array_equal(g1, g2)


def _scatter_oracle(index, values, n):
    out = np.zeros((n,) + np.shape(values[0])[1:])
    for c, vals in enumerate(values):
        np.add.at(out, index[:, c], vals)
    return out


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_scatter_matches_add_at(data):
    n = data.draw(st.integers(1, 6), label="bins")
    rows = data.draw(st.integers(0, 6), label="rows")
    cols = data.draw(st.integers(1, 3), label="columns")
    tail = data.draw(st.sampled_from([(), (3,)]), label="tail")
    # few bins and repeated indices; bins above the largest index stay empty
    index = data.draw(hnp.arrays(np.int64, (rows, cols), elements=st.integers(0, n - 1)))
    weight = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    values = [data.draw(hnp.arrays(np.float64, (rows,) + tail, elements=weight)) for _ in range(cols)]
    n_bins = n + data.draw(st.integers(0, 2), label="extra bins")
    got = _scatter(index, values, n_bins)
    want = _scatter_oracle(index, values, n_bins)
    assert got.shape == want.shape
    total = sum(float(np.abs(v).sum()) for v in values)
    assert np.abs(got - want).max(initial=0.0) <= 1e-15 * total
    assert np.array_equal(got, _scatter(index, values, n_bins))


def test_edges_and_adjacency(icosphere4):
    m = icosphere4
    assert m.n_edges == 3 * m.n_faces // 2
    assert (m.edge_faces >= 0).all()
    offsets, nbrs = m.vertex_neighbors()
    assert offsets[-1] == 2 * m.n_edges
    # neighbor relation is symmetric
    assert set(map(tuple, m.edges)) == {
        (min(a, b), max(a, b)) for a, b in zip(m.half_edge_origin, m.half_edge_dest)
    }
