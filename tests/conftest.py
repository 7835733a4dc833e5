import numpy as np
import pytest

from helfrich import shapes
from helfrich.curvature import curvature_field


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


def sample_mesh(kind, seed, shift=(0.0, 0.0, 0.0), amplitude=0.02):
    """Jittered closed ``icosphere(2)`` or open ``flat_patch(4)``, translated by ``shift``.

    The open patch's volume and its gradient depend on the origin, so a
    shift exercises the rim terms.
    """
    base = shapes.icosphere(2) if kind == "sphere" else shapes.flat_patch(4)
    mesh = shapes.jittered(base, amplitude, seed=seed)
    return mesh.with_vertices(mesh.vertices + np.asarray(shift))
