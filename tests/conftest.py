import re
import tracemalloc

import numpy as np
import pytest

from helfrich import shapes
from helfrich.curvature import curvature_field, geometry
from helfrich.density import MaterialParams
from helfrich.energy import PhaseField, _split
from helfrich.errors import InconsistentOrientation, MeshError, NonManifold
from helfrich.gradient import _energy_pass
from helfrich.mesh import TriMesh, _cross, _dot
from helfrich.mesh_io import _mesh


@pytest.fixture(scope="session")
def corpus():
    return shapes.standard_corpus()


@pytest.fixture(scope="session")
def icosphere4():
    return shapes.icosphere(4)


@pytest.fixture(scope="session")
def icosphere4_curv(icosphere4):
    return curvature_field(icosphere4)


@pytest.fixture(scope="session")
def split_sphere():
    mesh = shapes.octasphere(4)
    return mesh, shapes.equator_phase_labels(mesh)


@pytest.fixture(scope="session")
def split_sphere5():
    mesh = shapes.octasphere(5)
    return mesh, shapes.equator_phase_labels(mesh)


@pytest.fixture(scope="session", params=[3, 5, 9])
def triple_junctions(request):
    """A jittered icosphere(3) labelled by face index mod P, with P parameter sets.

    Neighbouring faces mostly carry different labels, so most vertices see
    three or more phases: a reordered sum over a vertex's phases can move
    its last bit here, unlike under a band split, where no vertex has more
    than two nonzero weights. P = 9 takes numpy's pairwise reduction
    (8 lanes) where P = 3 and 5 take its sequential one.
    """
    n = request.param
    mesh = shapes.jittered(shapes.icosphere(3), 0.01, seed=9)
    return mesh, PhaseField(np.arange(mesh.n_faces) % n + 1, n_phases=n), phase_params(n)


def phase_params(n):
    """``n`` distinct material parameter sets, one per phase, all constants nonzero."""
    return [MaterialParams(1.0 + 0.25 * p, -0.3 - 0.1 * p, 0.5 - 0.2 * p, 0.1 + 0.15 * p, p + 1) for p in range(n)]


def total_energy(mesh, phases, params_list):
    """Discrete total energy at the mesh's positions: the E of its energy pass."""
    return _energy_pass(mesh, phases, params_list)[0]


def two_spheres_touching(level=3, radius=1.0):
    """Two spheres tangent at the origin (one mesh, two components).

    Octahedral spheres carry their poles as vertices, so the tangent point
    is an exact vertex of both components: point multiplicity two.
    """
    a = shapes.octasphere(level, radius)
    b = shapes.octasphere(level, radius)
    va = a.vertices + np.array([0.0, 0.0, radius])
    vb = b.vertices - np.array([0.0, 0.0, radius])
    faces = np.vstack([a.faces, b.faces + len(va)])
    return TriMesh(np.vstack([va, vb]), faces)


def total_area(mesh):
    """Total face area, from the mesh's geometry record."""
    return float(geometry(mesh).area.sum())


def traced_memory(call, *args):
    """``call(*args)`` under tracemalloc: its result, and the bytes traced since the call began.

    Returns ``(result, current, peak)``: ``current`` is what the call left
    allocated, its result included, and ``peak`` the most it held at once.
    """
    tracemalloc.start()
    try:
        result = call(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def rotation_matrix(seed=0):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def face_corners(mesh):
    """Positions of the three corners of every face: three (F, 3) arrays.

    The oracles gather them here, apart from the geometry record.
    """
    return tuple(mesh.vertices[mesh.faces[:, c]] for c in range(3))


def stable_argsort_pairing(faces, n_vertices):
    """Half-edge pairing by a stable argsort of the edge keys: the reference of ``TriMesh``'s one sort.

    Returns (origin, twin, edges, edge_faces, edge_half) as
    ``TriMesh._build_half_edges`` computed them with
    ``np.argsort(kind="stable")``, and raises where it raised, with the
    same class and message.
    """
    f = np.asarray(faces, dtype=np.int64)
    nh = 3 * len(f)
    origin = f.ravel()
    dest = f[:, [1, 2, 0]].ravel()
    lo = np.minimum(origin, dest)
    hi = np.maximum(origin, dest)
    und = lo * n_vertices + hi
    order = np.argsort(und, kind="stable")
    grp = np.flatnonzero(np.diff(und[order]) != 0)
    sizes = np.diff(np.concatenate([[0], grp + 1, [nh]]))
    if (sizes > 2).any():
        raise NonManifold("edge with more than two incident faces")
    if (sizes < 2).any():
        raise NonManifold("boundary edge in closed mesh")
    h1, h2 = order[0::2], order[1::2]
    if (origin[h1] == origin[h2]).any():
        raise InconsistentOrientation("shared edge traversed twice in the same direction")
    twin = np.empty(nh, dtype=np.int64)
    twin[h1] = h2
    twin[h2] = h1
    twin_face = (twin // 3).reshape(-1, 3)
    if ((twin_face[:, 0] == twin_face[:, 1]) & (twin_face[:, 1] == twin_face[:, 2])).any():
        raise NonManifold("duplicated face (same vertex triple)")
    edges = np.column_stack([lo[h1], hi[h1]])
    edge_faces = np.column_stack([h1 // 3, h2 // 3])
    edge_half = (h1 % 3) * len(f) + h1 // 3
    return origin, twin, edges, edge_faces, edge_half


def stable_argsort_neighbors(faces, n_vertices):
    """``TriMesh.vertex_neighbors``' CSR by a stable argsort of the half-edge origins."""
    f = np.asarray(faces, dtype=np.int64)
    origin = f.ravel()
    order = np.argsort(origin, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(origin, minlength=n_vertices))])
    return offsets, f[:, [1, 2, 0]].ravel()[order]


def overlap_brute(support_a, support_b, eps):
    """m(eps) by the O(N*M) double loop: the oracle of the spatial-hash kernel.

    Each point of A sums the weights of B closer than eps with
    ``np.add.reduceat``, as the kernel's segment sums do, so the kernel's
    measures must equal it bitwise.
    """
    pa, wa = support_a.points, support_a.weights
    pb, wb = support_b.points, support_b.weights
    if len(pa) == 0 or len(pb) == 0:
        return 0.0
    s = np.zeros(len(pa))
    for i in range(len(pa)):
        sel = wb[np.sum((pb - pa[i]) ** 2, axis=1) < eps * eps]
        if len(sel):
            s[i] = np.add.reduceat(sel, [0])[0]
    return float(np.sum(wa * s))


def interface_kink(mesh, phases):
    """Max angle (radians) between face normals across interface edges.

    The discrete counterpart of the smooth no-kink condition at phase
    boundaries: refining a phase split of a smooth shape drives it to 0.
    """
    iface = _split(mesh, phases)[1].edges
    if len(iface) == 0:
        return 0.0
    geo = geometry(mesh)
    n0, n1 = (0.5 * _cross(geo.e[0][:, f], -geo.e[2][:, f]) / geo.area[f] for f in mesh.edge_faces[iface].T)
    return float(np.arccos(np.clip(_dot(n0, n1), -1.0, 1.0)).max())


def midpoint_subdivision(mesh, levels):
    """``mesh`` with every face split into four at its edge midpoints, ``levels`` times.

    The midpoints are not projected anywhere, so a flat face stays flat:
    on ``cube(2.0)`` every coordinate is a multiple of 2**-levels, exactly.
    """
    verts, faces = mesh.vertices, mesh.faces
    for _ in range(levels):
        n = len(verts)
        a, b = faces.ravel(), faces[:, [1, 2, 0]].ravel()
        keys, inverse = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
        verts = np.vstack([verts, 0.5 * (verts[keys // n] + verts[keys % n])])
        ab, bc, ca = (n + inverse).reshape(-1, 3).T
        i, j, k = faces.T
        faces = np.stack([i, ab, ca, ab, j, bc, ca, bc, k, ab, bc, ca], axis=1).reshape(-1, 3)
    return TriMesh(verts, faces)


def flat_cube_faces():
    """``cube(2.0)`` midpoint-subdivided three times, and its flat-patch vertex mask.

    The mask holds the 294 vertices inside a face of the cube: on exactly
    one of the planes |x_k| = 1, off the cube's edges.
    """
    mesh = midpoint_subdivision(shapes.cube(2.0), 3)
    return mesh, np.count_nonzero(np.abs(mesh.vertices) == 1.0, axis=1) == 1


def sample_mesh(kind, seed, shift=(0.0, 0.0, 0.0), amplitude=0.02):
    """Jittered ``icosphere(2)`` or box, translated by ``shift``.

    The box is ``cube(1.0)`` midpoint-subdivided twice (V = 98, edges 0.25
    and 0.35): flat faces, valence-4 and valence-6 vertices and right
    angles, unlike the sphere.
    """
    base = shapes.icosphere(2) if kind == "sphere" else midpoint_subdivision(shapes.cube(1.0), 2)
    mesh = shapes.jittered(base, amplitude, seed=seed)
    return mesh.with_vertices(mesh.vertices + np.asarray(shift))


def read_off_tokens(path):
    """The OFF reader over Python string tokens: the oracle of ``read_off``.

    The file is decoded as UTF-8, ``#`` comments are cut with a regex and
    the text is split into one ``str`` per number; the vertex block is
    converted as floats and the face block as int64. ``read_off`` parses
    the same files in one numeric pass over their bytes.
    """
    with open(path, encoding="utf-8") as fh:
        tokens = re.sub(r"#[^\n]*", "", fh.read()).split()
    header = tokens[0] if tokens else ""
    if header.upper() != "OFF":
        raise MeshError(f"{path}: header {header!r} is not OFF; only plain OFF files are read")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])  # then the edge count
        if nv < 0 or nf < 0:
            raise MeshError(f"{path}: negative vertex or face count")
        start, end = 4 + 3 * nv, 4 + 3 * nv + 4 * nf
        if len(tokens) < start:
            raise MeshError(f"{path}: truncated vertex section: {nv} vertices declared")
        verts = np.array(tokens[4:start], dtype=np.float64).reshape(nv, 3)
        # while every face before it is a triangle, face i's count is token 4 i
        counts = np.array(tokens[start:end:4], dtype=np.int64)
        if (counts != 3).any():
            raise MeshError(f"{path}: non-triangle face with {counts[np.argmax(counts != 3)]} vertices")
        if len(tokens) < end:
            raise MeshError(f"{path}: truncated face section: {nf} faces declared")
        faces = np.array(tokens[start:end], dtype=np.int64).reshape(nf, 4)[:, 1:]
    except (ValueError, IndexError) as err:
        raise MeshError(f"{path}: malformed OFF counts or numbers") from err
    if nf == 0:
        raise MeshError(f"{path}: no faces declared")
    return _mesh(path, verts, faces)
