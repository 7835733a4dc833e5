import numpy as np
import pytest

from helfrich import shapes
from helfrich.curvature import curvature_field
from helfrich.mesh import TriMesh


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
