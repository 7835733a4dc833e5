import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

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
from helfrich.mesh import (
    TriMesh,
    _columns,
    _count_components,
    _cross,
    _dot,
    _max_pair_d2,
    _norm,
    _scatter,
    build_mesh,
    diameter,
    enclosed_volume,
)
from helfrich.shapes import _ICO_FACES, _ICO_VERTS

from conftest import face_corners, rotation_matrix, sample_mesh


def test_octahedron_valid():
    m = shapes.octahedron()
    assert (m.n_vertices, m.n_faces) == (6, 8)
    assert m.euler_characteristic == 2
    assert m.genus == 0


def test_back_to_back_triangles_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    with pytest.raises((NonManifold, InconsistentOrientation)):
        build_mesh(verts, [(0, 1, 2), (0, 2, 1)])


@settings(max_examples=25, deadline=None)
@given(
    shape=st.sampled_from([shapes.tetrahedron, shapes.octahedron, lambda: shapes.icosphere(1)]),
    data=st.data(),
)
def test_inconsistent_orientation_rejected(shape, data):
    mesh = shape()
    faces = mesh.faces.copy()
    i = data.draw(st.integers(0, len(faces) - 1), label="flipped face")
    faces[i] = faces[i, ::-1]  # one face flipped: shared edges traversed twice same way
    with pytest.raises(InconsistentOrientation):
        build_mesh(mesh.vertices, faces)


def test_subdivision_oracle_euler():
    for level in (1, 2, 3):
        m = shapes.icosphere(level)
        assert m.n_faces == 20 * 4**level
        assert m.euler_characteristic == 2


def _subdivide_oracle(verts, faces, levels):
    """Sphere subdivision with a dict midpoint cache, one face at a time."""
    verts = [tuple(p) for p in verts / np.linalg.norm(verts, axis=1, keepdims=True)]
    faces = [tuple(f) for f in faces]
    for _ in range(levels):
        cache = {}
        new_faces = []

        def midpoint(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in cache:
                p = np.add(verts[a], verts[b])
                verts.append(tuple(p / np.linalg.norm(p)))
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
        faces = new_faces
    return np.asarray(verts), np.asarray(faces, dtype=np.int64)


def _fan_walk_oracle(mesh):
    """Walk every vertex star one half-edge at a time, counterclockwise.

    Raises NonManifold at the first vertex whose star is not a single fan:
    the cycle from its first outgoing half-edge misses some of the others.
    """
    nv = mesh.n_vertices
    valence = np.bincount(mesh.half_edge_origin, minlength=nv)
    out_he = np.full(nv, -1, dtype=np.int64)
    out_he[mesh.half_edge_origin[::-1]] = np.arange(len(mesh.half_edge_origin) - 1, -1, -1)
    twin, nxt = mesh.half_edge_twin, mesh.half_edge_next
    for v in range(nv):
        h0 = h = out_he[v]
        seen = 1
        while (h := twin[nxt[nxt[h]]]) != h0:  # next outgoing half-edge
            seen += 1
        if seen != valence[v]:
            raise NonManifold(f"pinched vertex {v}: star is not a single fan")


def _half_edges_only(vertices, faces):
    """A TriMesh built up to, not including, the vertex-link check."""
    m = object.__new__(TriMesh)
    m.vertices = np.asarray(vertices, dtype=np.float64)
    m.faces = np.asarray(faces, dtype=np.int64)
    m._validate_indices()
    m._build_half_edges()
    return m


def _same_link_verdict(m):
    """The fan check and the walk oracle raise alike on ``m``; True when neither does."""
    try:
        _fan_walk_oracle(m)
    except NonManifold as exc:
        with pytest.raises(NonManifold) as got:
            m._validate_vertex_links()
        assert str(got.value) == str(exc)
        return False
    m._validate_vertex_links()
    return True


_MESH_ARRAYS = (
    "vertices", "faces", "half_edge_origin", "half_edge_dest", "half_edge_twin",
    "half_edge_face", "half_edge_next", "edges", "edge_faces",
)


def test_subdivision_matches_dict_oracle():
    octa = shapes.octahedron()
    for generator, verts, faces in (
        (shapes.icosphere, _ICO_VERTS, _ICO_FACES),
        (shapes.octasphere, octa.vertices, octa.faces),
    ):
        for level in range(6):
            mesh = generator(level, radius=1.5)
            v, f = _subdivide_oracle(verts, faces, level)
            want = TriMesh(1.5 * v, f)
            for name in _MESH_ARRAYS:
                got, ref = getattr(mesh, name), getattr(want, name)
                assert got.dtype == ref.dtype and np.array_equal(got, ref), (generator, level, name)
            _fan_walk_oracle(mesh)


_GLUE_SHAPES = {
    "tetrahedron": shapes.tetrahedron,
    "octahedron": shapes.octahedron,
    "cube": shapes.cube,
    "icosphere1": lambda: shapes.icosphere(1),
    "torus": lambda: shapes.torus(2.0, 1.0, 6, 4),
}


@settings(max_examples=50, deadline=None)
@given(
    names=st.tuples(st.sampled_from(sorted(_GLUE_SHAPES)), st.sampled_from(sorted(_GLUE_SHAPES))),
    data=st.data(),
)
def test_fan_check_matches_walk_on_glued_closed_shapes(names, data):
    # two closed shapes side by side, with up to three vertex pairs glued
    # across them (each glued vertex is pinched), under a random numbering
    a, b = (_GLUE_SHAPES[name]() for name in names)
    n = a.n_vertices + b.n_vertices
    k = data.draw(st.integers(0, 3), label="glued pairs")
    ia = data.draw(st.lists(st.integers(0, a.n_vertices - 1), min_size=k, max_size=k, unique=True), label="a")
    ib = data.draw(st.lists(st.integers(0, b.n_vertices - 1), min_size=k, max_size=k, unique=True), label="b")
    merged = np.arange(n)
    merged[a.n_vertices + np.array(ib, dtype=np.int64)] = ia
    faces = merged[np.vstack([a.faces, b.faces + a.n_vertices])]
    verts = np.vstack([a.vertices, b.vertices + np.array([5.0, 0.0, 0.0])])
    used, compact = np.unique(faces, return_inverse=True)
    perm = np.array(data.draw(st.permutations(range(len(used))), label="numbering"), dtype=np.int64)
    renamed = np.empty_like(verts[used])
    renamed[perm] = verts[used]
    faces = perm[compact.reshape(faces.shape)]
    try:
        m = _half_edges_only(renamed, faces)
    except (NonManifold, InconsistentOrientation):
        # glued pairs on an edge of each shape merge two edges into one
        assume(False)
    assert _same_link_verdict(m) == (k == 0)


def test_duplicated_face_rejected():
    tet = shapes.tetrahedron()
    faces = np.vstack([tet.faces, tet.faces[2, [1, 2, 0]]])
    with pytest.raises(NonManifold, match="duplicated face"):
        build_mesh(tet.vertices, faces)


def test_index_and_reference_validation():
    with pytest.raises(IndexOutOfRange):
        build_mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 5)])
    with pytest.raises(IndexOutOfRange):
        # vertex 3 unreferenced
        build_mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0), (5, 5, 5)], [(0, 1, 2)])


def test_degenerate_face_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]
    # face 3 is flat; the threshold is 1e-12 * bbox_diagonal^2 = 5e-12
    with pytest.raises(DegenerateFace, match=r"^face 3 has area 0 <= 5e-12$"):
        build_mesh(verts, [(0, 2, 3), (0, 3, 1), (1, 3, 2), (0, 1, 2)])


def test_open_mesh_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    with pytest.raises(NonManifold, match="boundary edge"):
        build_mesh(verts, [(0, 1, 2)])
    tet = shapes.tetrahedron()
    with pytest.raises(NonManifold, match="boundary edge"):
        build_mesh(tet.vertices, tet.faces[1:])


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
    assert not _same_link_verdict(_half_edges_only(verts, np.vstack([a.faces, fb])))


def _scipy_components(edges, n):
    """Component count of a graph by scipy's breadth-first search."""
    adj = coo_matrix((np.ones(len(edges), dtype=np.int8), (edges[:, 0], edges[:, 1])), shape=(n, n))
    return connected_components(adj, directed=False)[0]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_count_components_matches_scipy_on_any_graph(data):
    # paths through a random node order (some edges cut) make deep trees, where a
    # round that stops pointer jumping early loses a hook; random extra
    # edges add self-loops, repeats and either orientation
    n = data.draw(st.integers(1, 60), label="n")
    order = np.array(data.draw(st.permutations(range(n)), label="order"), dtype=np.int64)
    cut = data.draw(hnp.arrays(np.bool_, max(n - 1, 0)), label="cut")
    extra = data.draw(
        hnp.arrays(np.int64, st.tuples(st.integers(0, 20), st.just(2)), elements=st.integers(0, n - 1)),
        label="extra",
    )
    edges = np.vstack([np.column_stack([order[:-1], order[1:]])[~cut], extra])
    assert _count_components(edges, n) == _scipy_components(edges, n)


def _disjoint_union(meshes):
    verts, faces, offset = [], [], 0
    for k, m in enumerate(meshes):
        verts.append(m.vertices + np.array([3.0 * k, 0.0, 0.0]))
        faces.append(m.faces + offset)
        offset += m.n_vertices
    return TriMesh(np.vstack(verts), np.vstack(faces))


def _component_cases():
    """name -> (mesh, known component count)."""
    cases = {name: (mesh, 1) for name, (mesh, _) in shapes.standard_corpus().items()}
    cases["two_spheres_touching"] = (shapes.two_spheres_touching(), 2)
    spheres = [shapes.icosphere(1), shapes.octasphere(2), shapes.icosphere(2), shapes.octahedron()]
    for k in range(1, 5):
        cases[f"union{k}"] = (_disjoint_union(spheres[:k]), k)
    return cases


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_components_and_genus_match_scipy(seed):
    # hook-and-compress is order dependent in its rounds, not its answer:
    # random vertex numberings change which roots hook where
    for name, (mesh, known) in _component_cases().items():
        perm = np.arange(mesh.n_vertices)
        if seed is not None:
            perm = np.random.default_rng(seed).permutation(mesh.n_vertices)
        verts = np.empty_like(mesh.vertices)
        verts[perm] = mesh.vertices
        fresh = TriMesh(verts, perm[mesh.faces])  # no cached count
        count = _scipy_components(fresh.edges, fresh.n_vertices)
        assert count == known, name
        assert fresh.n_components == count, name
        assert fresh.genus == count - fresh.euler_characteristic // 2, name


def test_enclosed_volume_cube_exact():
    assert enclosed_volume(shapes.cube()) == 1.0


def test_enclosed_volume_sphere(icosphere4):
    assert abs(enclosed_volume(icosphere4) - 4 * np.pi / 3) < 0.01 * 4 * np.pi / 3


def test_enclosed_volume_orientation_antisymmetry(icosphere4):
    vol = enclosed_volume(icosphere4)
    assert abs(enclosed_volume(icosphere4.flipped()) + vol) < 1e-12 * abs(vol)


@pytest.mark.parametrize("kind", ["sphere", "box"])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    shift=hnp.arrays(np.float64, 3, elements=st.floats(-2.0, 2.0)),
    amplitude=st.floats(0.0, 0.05),
)
@example(seed=0, shift=np.array([0.5, 0.5, 5e-324]), amplitude=0.0)
def test_record_volume_and_mean_edge_match_oracles(kind, seed, shift, amplitude):
    mesh = sample_mesh(kind, seed, shift, amplitude)
    xi, xj, xk = face_corners(mesh)
    # divergence-theorem determinant sum and the mean over the edge list
    det = np.einsum("ij,ij->i", xi, np.cross(xj, xk))
    e = mesh.edges
    mean_edge = np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1).mean()
    # the floor keeps a subnormal volume from demanding an exact match where
    # 1e-12 relative rounds to 0
    tol = max(1e-12 * np.abs(det).sum() / 6.0, 4 * np.finfo(float).smallest_subnormal)
    assert abs(enclosed_volume(mesh) - det.sum() / 6.0) <= tol
    assert abs(mesh.mean_edge_length - mean_edge) <= 1e-14 * mean_edge


def test_diameter():
    assert abs(diameter(shapes.cube()) - np.sqrt(3)) < 1e-12
    assert abs(diameter(shapes.tetrahedron(edge=1.0)) - 1.0) < 1e-12
    for level in (3, 4):
        assert abs(diameter(shapes.icosphere(level)) - 2.0) < 1e-3


def _max_pair_d2_oracle(points):
    """All-pairs maximum of the d2 expression the pruned scan evaluates."""
    return float(np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2).max())


@st.composite
def _point_sets(draw):
    kind = draw(st.sampled_from(["cloud", "icosphere", "coplanar", "collinear", "duplicates", "small", "shell"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = draw(st.integers(1, 400), label="points")
    if kind == "cloud":
        pts = rng.standard_normal((n, 3)) * rng.uniform(0.1, 3.0, 3)
    elif kind == "icosphere":
        pts = shapes.icosphere(draw(st.integers(0, 3), label="level")).vertices.copy()
    elif kind == "coplanar":
        uv = rng.uniform(-1.0, 1.0, (n, 2))
        if draw(st.booleans(), label="axis-aligned plane"):
            pts = np.column_stack([uv, np.full(n, 0.5)])
        else:
            frame = rng.standard_normal((2, 3))
            pts = uv @ frame + rng.standard_normal(3)
    elif kind == "collinear":
        pts = rng.uniform(-1.0, 1.0, (n, 1)) * rng.standard_normal(3) + rng.standard_normal(3)
    elif kind == "shell":
        # round shells, where the cone bound prunes hardest: jittered unit
        # vectors, hemispherical caps, and {p, -p} sets whose antipodal
        # pairs tie in d² up to rounding
        form = draw(st.sampled_from(["sphere", "cap", "antipodal"]), label="shell form")
        m = (n + 1) // 2 if form == "antipodal" else n
        pts = rng.standard_normal((m, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        if form == "cap":
            pts[:, 2] = np.abs(pts[:, 2])
        amplitude = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.05)), label="jitter")
        pts = pts + amplitude * rng.standard_normal((m, 3))
        if form == "antipodal":
            pts = np.concatenate([pts, -pts])
    elif kind == "duplicates":
        base = rng.standard_normal((draw(st.integers(1, 8), label="distinct"), 3))
        pts = base[rng.integers(0, len(base), n)]
    else:
        pts = draw(
            hnp.arrays(np.float64, (draw(st.integers(1, 32), label="points"), 3),
                       elements=st.floats(-4.0, 4.0, allow_subnormal=False)),
            label="small set",
        )
    if draw(st.booleans(), label="far from the origin"):
        scale = 10.0 ** draw(st.integers(-6, 6), label="scale exponent")
        pts = pts * scale + rng.uniform(-1e8, 1e8, 3)
    return pts


@settings(max_examples=150, deadline=None)
@given(points=_point_sets())
def test_pruned_diameter_equals_all_pairs_bitwise(points):
    assert _max_pair_d2(points) == _max_pair_d2_oracle(points)


def _max_pair_d2_rows(points, rows=128):
    """The oracle's expression a block of rows at a time, each row against itself and later rows."""
    best = 0.0
    for start in range(0, len(points), rows):
        block = points[start:start + rows, None, :] - points[None, start:, :]
        best = max(best, float(np.sum(block**2, axis=2).max()))
    return best


@pytest.mark.parametrize("amplitude", [0.0, 1e-3])
def test_pruned_diameter_equals_all_pairs_bitwise_at_v10242(amplitude):
    mesh = shapes.icosphere(5)
    if amplitude:
        mesh = shapes.jittered(mesh, amplitude, seed=0)
    assert mesh.n_vertices == 10242
    assert _max_pair_d2(mesh.vertices) == _max_pair_d2_rows(mesh.vertices)


# float.hex of the corpus diameters as the all-pairs maximum gives them;
# the pruned scan must reproduce them bitwise
_CORPUS_DIAMETERS = {
    "icosphere2": "0x1.0000000000000p+1",
    "icosphere3": "0x1.0000000000000p+1",
    "icosphere4": "0x1.0000000000000p+1",
    "torus": "0x1.8000000000001p+2",
    "capsule": "0x1.4000000000000p+3",
    "perturbed_sphere": "0x1.050ae7e0f3956p+1",
    "split_sphere": "0x1.0000000000000p+1",
}


def test_corpus_diameters_are_bitwise_unchanged(corpus):
    assert sorted(corpus) == sorted(_CORPUS_DIAMETERS)
    for name, (mesh, _) in corpus.items():
        d = diameter(mesh)
        assert d.hex() == _CORPUS_DIAMETERS[name], name
        assert d == float(np.sqrt(_max_pair_d2_oracle(mesh.vertices))), name


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_cross_equals_np_cross_bitwise(data):
    n = data.draw(st.integers(0, 64), label="rows")
    value = st.floats(allow_nan=False, allow_infinity=False, width=64)
    a = data.draw(hnp.arrays(np.float64, (n, 3), elements=value))
    b = data.draw(hnp.arrays(np.float64, (n, 3), elements=value))
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.cross(a, b)
        got = _cross(a.T, b.T).T
    assert got.shape == (n, 3)
    assert np.array_equal(got, want, equal_nan=True)
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal((2, 5120, 3))
    assert np.array_equal(_cross(a.T, b.T).T, np.cross(a, b))


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


def test_jittered_refuses_a_degenerate_mesh():
    tet = shapes.tetrahedron()
    v = tet.vertices.copy()
    v[0] = v[1]
    flat = tet.with_vertices(v)  # with_vertices leaves the face-area check to its callers
    with pytest.raises(DegenerateFace, match="face 0 has area"):
        shapes.jittered(flat, 0.0)


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
    blocks = [np.moveaxis(v, 0, -1) for v in values]
    got = np.moveaxis(_scatter(index.T, blocks, n_bins), -1, 0)
    want = _scatter_oracle(index, values, n_bins)
    assert got.shape == want.shape
    total = sum(float(np.abs(v).sum()) for v in values)
    assert np.abs(got - want).max(initial=0.0) <= 1e-15 * total
    assert np.array_equal(got, np.moveaxis(_scatter(index.T, blocks, n_bins), -1, 0))


def _bits(a):
    return a.shape, np.ascontiguousarray(a).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(1, 40), st.integers(1, 100_001)),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.booleans(),
)
def test_row_helpers_keep_numpy_bit_orders(n, seed, zeros):
    """The row helpers keep the bits of the numpy calls they replace.

    The geometry record and the gradient work on (3, n) component rows and
    promise the bits the (n, 3) code had; this holds only while numpy sums
    in the orders the helpers spell out, so a numpy upgrade that moves one
    fails here first.
    """
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, n, 3)) * np.exp2(rng.integers(-40, 40, (2, n, 3)))
    if zeros:  # signed zeros and near cancellations
        x[rng.random((n, 3)) < 0.3] = -0.0
        y[rng.random((n, 3)) < 0.3] = 0.0
        y[::2, 1] = -x[::2, 1] * y[::2, 0] / np.where(x[::2, 0] == 0, 1.0, x[::2, 0])
    xr, yr = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)
    assert _bits(_dot(xr, yr)) == _bits(np.einsum("ij,ij->i", x, y))
    assert _bits(_norm(xr)) == _bits(np.linalg.norm(x, axis=1))
    assert _bits(_cross(xr, yr)) == _bits(np.cross(x, y).T)
    assert _bits(_columns(xr)) == _bits(x)
    # the column loop the (n, 3) scatter ran, corner by corner
    bins = 1 + n // 3
    index = rng.integers(0, bins, (n, 3))
    want = np.zeros((bins, 3))
    for c, vals in enumerate((x, y, -x)):
        for k in range(3):
            want[:, k] += np.bincount(index[:, c], weights=vals[:, k], minlength=bins)
    got = _scatter(np.ascontiguousarray(index.T), (xr, yr, -xr), bins)
    assert _bits(got) == _bits(want.T)


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
