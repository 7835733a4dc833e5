import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from helfrich import shapes
from helfrich.curvature import curvature_field, geometry
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
    _stable_argsort,
    diameter,
    enclosed_volume,
)
from helfrich.shapes import _ICO_FACES, _ICO_VERTS

from conftest import (
    face_corners,
    rotation_matrix,
    sample_mesh,
    stable_argsort_neighbors,
    stable_argsort_pairing,
    total_area,
    traced_memory,
    two_spheres_touching,
)


def test_octahedron_valid():
    m = shapes.octasphere(0)
    assert (m.n_vertices, m.n_faces) == (6, 8)
    assert m.euler_characteristic == 2
    assert m.genus == 0


def test_back_to_back_triangles_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    with pytest.raises((NonManifold, InconsistentOrientation)):
        TriMesh(verts, [(0, 1, 2), (0, 2, 1)])


@settings(max_examples=25, deadline=None)
@given(
    shape=st.sampled_from([shapes.tetrahedron, lambda: shapes.octasphere(0), lambda: shapes.icosphere(1)]),
    data=st.data(),
)
def test_inconsistent_orientation_rejected(shape, data):
    mesh = shape()
    faces = mesh.faces.copy()
    i = data.draw(st.integers(0, len(faces) - 1), label="flipped face")
    faces[i] = faces[i, ::-1]  # one face flipped: shared edges traversed twice same way
    with pytest.raises(InconsistentOrientation):
        TriMesh(mesh.vertices, faces)


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

    Half-edge h = 3 f + c runs from faces[f, c] to faces[f, c + 1]; its
    twin comes from a dict of (origin, dest) pairs, so the walk does not
    lean on the mesh's own half-edge pairing. Raises NonManifold at the
    first vertex whose star is not a single fan: the cycle from its first
    outgoing half-edge misses some of the others.
    """
    nv = mesh.n_vertices
    origin = mesh.faces.ravel()
    dest = mesh.faces[:, [1, 2, 0]].ravel()
    nxt = [h - h % 3 + (h + 1) % 3 for h in range(len(origin))]
    half_edge = {(int(o), int(d)): h for h, (o, d) in enumerate(zip(origin, dest))}
    twin = [half_edge[int(d), int(o)] for o, d in zip(origin, dest)]
    valence = np.bincount(origin, minlength=nv)
    out_he = np.full(nv, -1, dtype=np.int64)
    out_he[origin[::-1]] = np.arange(len(origin) - 1, -1, -1)
    for v in range(nv):
        h0 = h = out_he[v]
        seen = 1
        while (h := twin[nxt[nxt[h]]]) != h0:  # next outgoing half-edge
            seen += 1
        if seen != valence[v]:
            raise NonManifold(f"pinched vertex {v}: star is not a single fan")


def _half_edges_only(vertices, faces):
    """A TriMesh built up to, not including, the vertex-link check, and the builder's half-edge arrays."""
    m = object.__new__(TriMesh)
    m.vertices = np.asarray(vertices, dtype=np.float64)
    m.faces = np.asarray(faces, dtype=np.int64)
    m._validate_indices()
    return m, m._build_half_edges()


def _same_link_verdict(m, half_edges):
    """The fan check and the walk oracle raise alike on ``m``; True when neither does."""
    try:
        _fan_walk_oracle(m)
    except NonManifold as exc:
        with pytest.raises(NonManifold) as got:
            m._validate_vertex_links(*half_edges)
        assert str(got.value) == str(exc)
        return False
    m._validate_vertex_links(*half_edges)
    return True


_MESH_ARRAYS = ("vertices", "faces", "edges", "edge_faces")


def test_subdivision_matches_dict_oracle():
    octa = shapes.octasphere(0)
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
    "octahedron": lambda: shapes.octasphere(0),
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
        m, half_edges = _half_edges_only(renamed, faces)
    except (NonManifold, InconsistentOrientation):
        # glued pairs on an edge of each shape merge two edges into one
        assume(False)
    assert _same_link_verdict(m, half_edges) == (k == 0)


def test_duplicated_face_rejected():
    # a copy beside other faces puts its edges in three faces
    tet = shapes.tetrahedron()
    faces = np.vstack([tet.faces, tet.faces[2, [1, 2, 0]]])
    with pytest.raises(NonManifold, match="more than two incident faces"):
        TriMesh(tet.vertices, faces)
    # a reversed copy standing alone pairs every edge once each way
    with pytest.raises(NonManifold, match="duplicated face"):
        TriMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2), (0, 2, 1)])


def test_index_and_reference_validation():
    with pytest.raises(IndexOutOfRange):
        TriMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 5)])
    with pytest.raises(IndexOutOfRange):
        # vertex 3 unreferenced
        TriMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0), (5, 5, 5)], [(0, 1, 2)])


@pytest.mark.parametrize("vertices, faces, error, message", [
    (np.zeros((4, 2)), [[0, 1, 2]], IndexOutOfRange, r"vertices must be \(V, 3\), got \(4, 2\)"),
    (np.eye(4, 3), [[0, 1, 2, 3]], IndexOutOfRange, r"faces must be \(F, 3\), got \(1, 4\)"),
    ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, np.nan, 0.0]], [[0, 1, 2]], DegenerateFace,
     "non-finite vertex coordinates"),
    (np.eye(3), np.zeros((0, 3), dtype=np.int64), IndexOutOfRange, "mesh has no faces"),
    (np.eye(3)[:2], [[0, 0, 1]], DegenerateFace, "face with repeated vertex"),
], ids=["vertices_2d", "quad_face", "nan_vertex", "no_faces", "repeated_vertex"])
def test_malformed_input_arrays_are_rejected_by_name(vertices, faces, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        TriMesh(vertices, faces)


def test_degenerate_face_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]
    # face 3 is flat; the threshold is 1e-12 * bbox_diagonal^2 = 5e-12
    with pytest.raises(DegenerateFace, match=r"^face 3 has area 0 <= 5e-12$"):
        TriMesh(verts, [(0, 2, 3), (0, 3, 1), (1, 3, 2), (0, 1, 2)])


@pytest.mark.parametrize("scale", [2.0**260, 1e155, 1e308])
def test_overflowing_face_areas_are_degenerate(scale):
    # inf areas at 2^260; inf and NaN areas and an inf floor at 1e155 and 1e308
    m = shapes.icosphere(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFace, match=r"^face 0 has area (inf|nan)"):
            TriMesh(scale * m.vertices, m.faces)


@pytest.mark.parametrize("k, reason", [
    (-265, r"<= 2\.98e-154"), (-258, r"<= 2\.98e-154"), (-253, r"<= 2\.98e-154"),
    (253, r">= 1\.05e\+151"), (257, r">= 1\.05e\+151"), (258, r">= 1\.05e\+151"),
])
def test_face_areas_that_leave_the_normal_range_are_degenerate(k, reason):
    # at 2^257 and 2^258 the vertex normals once overflowed to 0 and the
    # energy read low; from 2^-258 the squares went subnormal and the
    # Gauss-Bonnet records failed. The floor is 2^-510, the cap 2^510 / F.
    m = shapes.jittered(shapes.icosphere(2), 0.02, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFace, match=rf"^face \d+ has area \S+ {reason}$"):
            TriMesh(2.0**k * m.vertices, m.faces)


def test_open_mesh_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    with pytest.raises(NonManifold, match="boundary edge"):
        TriMesh(verts, [(0, 1, 2)])
    tet = shapes.tetrahedron()
    with pytest.raises(NonManifold, match="boundary edge"):
        TriMesh(tet.vertices, tet.faces[1:])


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
        TriMesh(verts, np.vstack([a.faces, fb]))
    assert not _same_link_verdict(*_half_edges_only(verts, np.vstack([a.faces, fb])))


def _stable_argsort_oracle(key):
    order = np.argsort(key, kind="stable")
    return order, key[order]


@settings(max_examples=100, deadline=None)
@given(
    key=hnp.arrays(np.int64, st.integers(0, 300), elements=st.integers(0, 40)),
    extra=st.integers(0, 1000),
)
def test_stable_argsort_matches_numpy_on_keys_with_ties(key, extra):
    # few distinct keys, so most of them repeat; any bound above the largest key
    got = _stable_argsort(key, int(key.max(initial=0)) + 1 + extra)
    for a, b in zip(got, _stable_argsort_oracle(key)):
        assert a.dtype == np.int64 and np.array_equal(a, b)


@settings(max_examples=50, deadline=None)
@given(
    key=hnp.arrays(
        np.int64, st.integers(1, 60),
        elements=st.one_of(st.integers(0, 3), st.integers(2**62 - 4, 2**62 - 1)),
    ),
    over=st.integers(1, 2**62),
)
def test_stable_argsort_falls_back_when_packed_keys_would_overflow(key, over):
    want = _stable_argsort_oracle(key)
    with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
        got = _stable_argsort(key, -(-(2**63) // len(key)) + over)  # bound * n > 2**63
    assert spy.call_count == 1 and spy.call_args.kwargs == {"kind": "stable"}
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_stable_argsort_packs_while_bound_times_n_is_at_most_2_to_the_63():
    key = np.array([2**61 - 1, 0, 2**61 - 1, 5])
    with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
        got = _stable_argsort(key, 2**61)  # the largest packed value is 2**63 - 1
    assert spy.call_count == 0
    assert all(np.array_equal(a, b) for a, b in zip(got, _stable_argsort_oracle(key)))


_PAIRING_SHAPES = {
    **_GLUE_SHAPES,
    "icosphere2": lambda: shapes.icosphere(2),
    "octasphere2": lambda: shapes.octasphere(2),
    "capsule": lambda: shapes.capsule(0.5, 2.0, 6, 2, 3),
}


@st.composite
def _renumbered_mesh(draw):
    """One or two closed shapes side by side, with a mutation, renumbered.

    Mutations: none; a face dropped (boundary edges), flipped (inconsistent
    orientation) or joined by one or two faces on one of its edges; a reversed
    face pair standing alone (duplicated face); one vertex of the second
    shape glued onto the first (pinched vertex). Then the vertices, the
    faces and each face's corners are drawn in a new order.
    """
    names = draw(st.lists(st.sampled_from(sorted(_PAIRING_SHAPES)), min_size=1, max_size=2), label="shapes")
    parts = [_PAIRING_SHAPES[name]() for name in names]
    verts = np.vstack([m.vertices + np.array([5.0 * i, 0.0, 0.0]) for i, m in enumerate(parts)])
    offsets = np.cumsum([0] + [m.n_vertices for m in parts])
    faces = np.vstack([m.faces + o for m, o in zip(parts, offsets)])
    kinds = ["none", "drop", "flip", "faces on an edge", "reversed pair"] + ["pinch"] * (len(parts) == 2)
    kind = draw(st.sampled_from(kinds), label="mutation")
    i = draw(st.integers(0, parts[0].n_faces - 1), label="face")
    if kind == "drop":
        faces = np.delete(faces, i, axis=0)
    elif kind == "flip":
        faces[i] = faces[i, ::-1]
    elif kind == "faces on an edge":
        a, b = faces[i, :2]
        d = draw(st.integers(0, parts[0].n_vertices - 1).filter(lambda d: d not in faces[i]), label="apex")
        # three faces on edge ab, or four, whose half-edges pair up two by two
        faces = np.vstack([faces, [(b, a, d), (a, b, d)][: draw(st.integers(1, 2), label="added")]])
    elif kind == "reversed pair":
        n = len(verts)
        verts = np.vstack([verts, [(-5.0, 0.0, 0.0), (-4.0, 0.0, 0.0), (-5.0, 1.0, 0.0)]])
        faces = np.vstack([faces, [(n, n + 1, n + 2), (n, n + 2, n + 1)]])
    elif kind == "pinch":
        a = draw(st.integers(0, parts[0].n_vertices - 1), label="glued in a")
        b = draw(st.integers(offsets[1], offsets[2] - 1), label="glued in b")
        faces[faces == b] = a
    used, compact = np.unique(faces, return_inverse=True)
    perm = np.array(draw(st.permutations(range(len(used))), label="numbering"), dtype=np.int64)
    renamed = np.empty((len(used), 3))
    renamed[perm] = verts[used]
    faces = perm[compact.reshape(faces.shape)]
    faces = faces[np.array(draw(st.permutations(range(len(faces))), label="face order"), dtype=np.int64)]
    turns = draw(hnp.arrays(np.int64, len(faces), elements=st.integers(0, 2)), label="corner turns")
    faces = faces[np.arange(len(faces))[:, None], (np.arange(3) + turns[:, None]) % 3]
    return kind, renamed, faces


def _reference_build(vertices, faces):
    """The reference pairing and, on its twins, the fan check: (origin, twin, edges, edge_faces, edge_half)."""
    origin, twin, *connectivity = stable_argsort_pairing(faces, len(vertices))
    ref = object.__new__(TriMesh)
    ref.vertices = vertices
    ref._validate_vertex_links(origin, twin)
    return (origin, twin, *connectivity)


@settings(max_examples=150, deadline=None)
@given(case=_renumbered_mesh())
def test_one_sort_pairs_like_the_stable_argsort(case):
    kind, vertices, faces = case
    try:
        want = _reference_build(vertices, faces)
    except (NonManifold, InconsistentOrientation) as exc:
        assert kind != "none"
        with pytest.raises(type(exc)) as got:
            TriMesh(vertices, faces)
        assert str(got.value) == str(exc)
        return
    assert kind == "none"
    mesh = TriMesh(vertices, faces)
    half_edges = _half_edges_only(vertices, faces)[1]
    got = (*half_edges, mesh.edges, mesh.edge_faces, mesh._edge_half)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for a, b in zip(mesh.vertex_neighbors(), stable_argsort_neighbors(faces, len(vertices))):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _shape_cases():
    for level in range(7):
        yield f"icosphere{level}", lambda level=level: shapes.icosphere(level)
        yield f"octasphere{level}", lambda level=level: shapes.octasphere(level)
    yield "torus", shapes.torus
    yield "capsule", shapes.capsule
    yield "two_spheres_touching", two_spheres_touching


@pytest.mark.parametrize("name, build", list(_shape_cases()), ids=[name for name, _ in _shape_cases()])
def test_shapes_pair_like_the_stable_argsort(name, build):
    mesh = build()
    _, _, *want = stable_argsort_pairing(mesh.faces, mesh.n_vertices)
    want += stable_argsort_neighbors(mesh.faces, mesh.n_vertices)
    got = (mesh.edges, mesh.edge_faces, mesh._edge_half, *mesh.vertex_neighbors())
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("value, why", [
    (0.4, "0.4 is not an integer"),
    (np.nan, "nan is not an integer"),
    (np.inf, "inf is not an integer"),
    (-np.inf, "-inf is not an integer"),
    (2.0**63, r"9\.223372036854776e\+18 is out of range for 6 vertices"),
    (-1e19, r"-1e\+19 is out of range for 6 vertices"),
])
def test_non_integral_face_values_are_rejected(value, why):
    # 0.4 was once truncated to vertex 0 and the mesh built; NaN, inf and
    # 2^63 made the cast warn and become vertex -2^63
    octa = shapes.octasphere(0)
    faces = octa.faces.astype(np.float64)
    faces[3, 1] += value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IndexOutOfRange, match=rf"^face 3: vertex index {why}$"):
            TriMesh(octa.vertices, faces)
        with pytest.raises(IndexOutOfRange, match=rf"^face 3: vertex index {why}$"):
            TriMesh(octa.vertices, faces.tolist())
    # integral floats are indices
    built = TriMesh(octa.vertices, octa.faces.astype(np.float64))
    assert built.faces.dtype == np.int64 and np.array_equal(built.faces, octa.faces)


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
    cases["two_spheres_touching"] = (two_spheres_touching(), 2)
    spheres = [shapes.icosphere(1), shapes.octasphere(2), shapes.icosphere(2), shapes.octasphere(0)]
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
    assert abs(enclosed_volume(TriMesh(icosphere4.vertices, icosphere4.faces[:, ::-1])) + vol) < 1e-12 * abs(vol)


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


def _face_major_record(mesh):
    """The record's reductions by the (F, 3) face-major expressions the row code replaced.

    Returns the bounding-box diagonal, the mean edge length over the
    half-edges the edge sort puts first (h = 3 f + c), the edge ratio with
    its face, the smallest corner angle with its face, and the corner
    cotangents, each as the (V, 3) or face-major code computed it.
    """
    geo = geometry(mesh)
    v = mesh.vertices
    bbox = float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))
    lengths = _columns(np.sqrt(geo.l2)).ravel()
    # each edge's first half-edge: the corner of edge_faces[k, 0] that starts it
    f = mesh.edge_faces[:, 0]
    tri = mesh.faces[f]
    nxt = np.roll(tri, -1, axis=1)
    lo, hi = mesh.edges.T
    at = (np.minimum(tri, nxt) == lo[:, None]) & (np.maximum(tri, nxt) == hi[:, None])
    mean_edge = float(lengths[3 * f + np.argmax(at, axis=1)].mean())
    short = int(np.argmin(lengths))
    ratio = float(lengths.max() / max(lengths[short], 1e-300))
    ec = geo.e.transpose(1, 0, 2)
    dots = -_dot(ec, ec[:, [2, 0, 1]])
    twice = 2.0 * geo.area
    theta = _columns(np.arctan2(twice, dots)).ravel()
    sharp = int(np.argmin(theta))
    cot = dots / np.where(twice == 0, 1.0, twice)
    return bbox, mean_edge, (ratio, short // 3), (float(theta[sharp]), sharp // 3), cot


@pytest.mark.parametrize("kind", ["sphere", "box"])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    shift=hnp.arrays(np.float64, 3, elements=st.floats(-2.0, 2.0)),
    amplitude=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
)
def test_record_row_reductions_keep_face_major_bits(kind, seed, shift, amplitude):
    """Per-face minima over (3, F) rows pick the face-major argmin's face and value.

    An unjittered box has exact ties in lengths and angles across faces
    and corners; the first face among them must win, as before.
    """
    mesh = sample_mesh(kind, seed, shift, amplitude)
    geo = geometry(mesh)
    bbox, mean_edge, (ratio, short), (angle, sharp), cot = _face_major_record(mesh)
    assert mesh.bbox_diagonal.hex() == bbox.hex()
    assert geo.mean_edge.hex() == mean_edge.hex()
    assert (geo.edge_ratio.hex(), geo.short_edge_face) == (ratio.hex(), short)
    assert (geo.min_angle.hex(), geo.min_angle_face) == (angle.hex(), sharp)
    assert _bits(geo.cot) == _bits(cot)


def test_regular_octahedron_ties_go_to_face_zero():
    mesh = shapes.octasphere(0)
    geo = geometry(mesh)
    # every edge and every corner angle is bitwise the same
    assert len(np.unique(geo.l2)) == 1 and len(np.unique(geo.cot)) == 1
    assert (geo.short_edge_face, geo.min_angle_face) == (0, 0)
    assert _face_major_record(mesh)[2][1] == _face_major_record(mesh)[3][1] == 0


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
        defect_sum = geometry(mesh).defect.sum()
        assert abs(defect_sum - 2 * np.pi * mesh.euler_characteristic) < 1e-9, name


def test_rigid_motion_invariance():
    m = shapes.jittered(shapes.icosphere(2), 0.02, seed=4)
    R = rotation_matrix(1)
    m2 = m.with_vertices(m.vertices @ R.T + np.array([0.3, -1.2, 2.5]))
    c1 = curvature_field(m)
    c2 = curvature_field(m2)
    for f1, f2 in ((c1.H, c2.H), (c1.K, c2.K), (c1.mixed_area, c2.mixed_area)):
        assert np.abs(f1 - f2).max() < 1e-9 * max(1.0, np.abs(f1).max())
    assert abs(enclosed_volume(m2) - enclosed_volume(m)) < 1e-9 * abs(enclosed_volume(m))


def test_scaling_covariance():
    m = shapes.jittered(shapes.icosphere(2), 0.02, seed=4)
    s = 2.3
    m2 = m.with_vertices(s * m.vertices)
    c1 = curvature_field(m)
    c2 = curvature_field(m2)
    assert np.abs(c2.H - c1.H / s).max() < 1e-9 * np.abs(c1.H).max()
    assert np.abs(c2.K - c1.K / s**2).max() < 1e-9 * np.abs(c1.K).max()
    assert abs(total_area(m2) - s**2 * total_area(m)) < 1e-9 * total_area(m)
    assert abs(enclosed_volume(m2) - s**3 * enclosed_volume(m)) < 1e-9 * enclosed_volume(m2)
    assert np.abs(c2.Hbar - c1.Hbar / s).max() < 1e-9 * np.abs(c1.Hbar).max()


def test_vertices_immutable(icosphere4):
    with pytest.raises(ValueError):
        icosphere4.vertices[0, 0] = 7.0


def test_mesh_owns_its_arrays():
    octa = shapes.octasphere(0)
    big = np.vstack([octa.vertices, np.ones((2, 3))])
    v, f = big[:6], octa.faces.copy()
    m = TriMesh(v, f)
    record = geometry(m)
    volume, area = record.volume, record.area.copy()
    w = 1.5 * octa.vertices
    moved = m.with_vertices(w)
    moved_area = geometry(moved).area.copy()
    for arr in (big, v, f, w):
        assert arr.flags.writeable
    big[0, 0] = 7.0
    f[0] = f[1]
    w[1] = 0.0
    assert np.array_equal(m.vertices, octa.vertices) and np.array_equal(m.faces, octa.faces)
    assert np.array_equal(moved.vertices, 1.5 * octa.vertices)
    assert geometry(m) is record and record.volume == volume
    assert np.array_equal(record.area, area)
    assert np.array_equal(geometry(moved).area, moved_area)
    assert np.array_equal(geometry(m.with_vertices(m.vertices)).area, area)


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
    v2 = shapes.jittered(mesh, 0.02, seed=4).vertices
    moved = mesh.with_vertices(v2)
    e1, g1 = energy_and_gradient(moved, phases, params)
    e2, g2 = energy_and_gradient(TriMesh(v2, mesh.faces), phases, params)
    assert e1 == e2
    assert np.array_equal(g1, g2)


def test_mesh_keeps_each_connectivity_fact_once():
    # the half-edge arrays are validation locals and nothing else is cached,
    # so besides its own copies of the inputs a build keeps (3, F) face
    # rows, two (E, 2) edge arrays and one half-edge per edge: 84 bytes per face
    m = shapes.icosphere(5)
    mesh, grown, _ = traced_memory(TriMesh, m.vertices, m.faces)
    per_face = (grown - mesh.vertices.nbytes - mesh.faces.nbytes) / mesh.n_faces
    kept = {"vertices", "faces", "_face_rows", "edges", "edge_faces", "_edge_half"}
    moved = mesh.with_vertices(1.5 * mesh.vertices)
    for built in (mesh, moved):
        assert {name for name, value in vars(built).items() if isinstance(value, np.ndarray)} == kept
    for name in kept - {"vertices"}:
        assert getattr(moved, name) is getattr(mesh, name), name
    assert per_face < 100, per_face


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
    half_edges = zip(m.faces.ravel(), m.faces[:, [1, 2, 0]].ravel())
    assert set(map(tuple, m.edges)) == {(min(a, b), max(a, b)) for a, b in half_edges}

