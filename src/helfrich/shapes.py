"""Analytic test shapes and the standard verification corpus.

All generators return :class:`~helfrich.mesh.TriMesh` with outward
orientation. Spheres come in two subdivision families: the icosahedral one
(most uniform triangles) and the octahedral one, whose equator is an exact
polygon of mesh edges at z = 0; use the latter for hemisphere phase
splits.
"""

from __future__ import annotations

import numpy as np

from .mesh import TriMesh, _stable_argsort

__all__ = [
    "icosphere",
    "octasphere",
    "cube",
    "tetrahedron",
    "torus",
    "capsule",
    "jittered",
    "equator_phase_labels",
    "standard_corpus",
]

_PHI = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array(
    [
        (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
        (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
        (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1),
    ],
    dtype=np.float64,
)

_ICO_FACES = np.array(
    [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ],
    dtype=np.int64,
)


def _subdivide_on_sphere(verts, faces, levels, radius):
    verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.asarray(faces, dtype=np.int64)
    for _ in range(levels):
        # edges ab, bc, ca of every face, in face order; midpoints are
        # numbered by first visit
        nv = len(verts)
        a, b = faces.ravel(), faces[:, [1, 2, 0]].ravel()
        order, key = _stable_argsort(np.minimum(a, b) * nv + np.maximum(a, b), nv * nv)
        # a stable sort puts each edge's first visit first among its half-edges
        starts = np.concatenate([[True], key[1:] != key[:-1]])
        head = order[starts]
        first = np.zeros(len(a), dtype=bool)
        first[head] = True
        number = np.cumsum(first) + (nv - 1)  # a midpoint's number, at its first visit
        mid = np.empty_like(a)
        mid[order] = number[head][np.cumsum(starts) - 1]
        visits = np.flatnonzero(first)
        p = verts[a[visits]] + verts[b[visits]]
        verts = np.vstack([verts, p / np.sqrt(np.vecdot(p, p))[:, None]])
        ab, bc, ca = mid.reshape(-1, 3).T
        i, j, k = faces.T
        faces = np.stack([i, ab, ca, ab, j, bc, ca, bc, k, ab, bc, ca], axis=1).reshape(-1, 3)
    return TriMesh(radius * verts, faces)


def icosphere(level=3, radius=1.0):
    """Icosahedral sphere subdivision: 20 * 4**level faces, all on the sphere."""
    return _subdivide_on_sphere(_ICO_VERTS, _ICO_FACES, level, radius)


def octasphere(level=3, radius=1.0):
    """Octahedral sphere subdivision; the equator z = 0 is an edge polygon."""
    verts = np.array(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], dtype=np.float64
    )
    faces = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4), (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]
    return _subdivide_on_sphere(verts, faces, level, radius)


def cube(edge=1.0):
    """Axis-aligned cube surface of 12 triangles, centered at the origin."""
    s = edge / 2.0
    corners = np.array(
        [(x, y, z) for x in (-s, s) for y in (-s, s) for z in (-s, s)], dtype=np.float64
    )
    quads = [
        (0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1), (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3),
    ]
    faces = []
    for a, b, c, d in quads:
        faces.extend([(a, b, c), (a, c, d)])
    return TriMesh(corners, np.array(faces, dtype=np.int64))


def tetrahedron(edge=1.0):
    """Regular tetrahedron with the given edge length."""
    v = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], dtype=np.float64)
    v *= edge / np.sqrt(8.0)
    faces = np.array([(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)], dtype=np.int64)
    return TriMesh(v, faces)


def torus(big_radius=2.0, small_radius=1.0, n_u=64, n_v=32):
    """Torus of revolution around the z-axis, outward orientation."""
    u = 2 * np.pi * np.arange(n_u) / n_u
    w = 2 * np.pi * np.arange(n_v) / n_v
    uu, ww = np.meshgrid(u, w, indexing="ij")
    r = big_radius + small_radius * np.cos(ww)
    verts = np.column_stack(
        [(r * np.cos(uu)).ravel(), (r * np.sin(uu)).ravel(), (small_radius * np.sin(ww)).ravel()]
    )
    i = np.arange(n_u)[:, None]
    j = np.arange(n_v)[None, :]
    i1, j1 = (i + 1) % n_u, (j + 1) % n_v
    a, b, c, d = i * n_v + j, i1 * n_v + j, i1 * n_v + j1, i * n_v + j1
    # faces (a, b, c), (a, c, d) per grid cell, cells in (i, j) order
    faces = np.stack(np.broadcast_arrays(a, b, c, a, c, d), axis=-1).reshape(-1, 3)
    return TriMesh(verts, faces)


def capsule(radius=0.5, cylinder_length=9.0, n_around=32, n_cap=8, n_length=48):
    """Cylinder with hemispherical caps, axis along z, centered at the origin.

    Defaults give a needle of total length 10 and aspect ratio 10.
    """
    rows = []
    half = cylinder_length / 2.0
    # south cap (excluding pole), cylinder wall, north cap (excluding pole)
    for i in range(1, n_cap + 1):
        ang = np.pi / 2 * i / n_cap
        rows.append((radius * np.sin(ang), -half - radius * np.cos(ang)))
    for i in range(1, n_length):
        rows.append((radius, -half + cylinder_length * i / n_length))
    for i in range(n_cap, 0, -1):
        ang = np.pi / 2 * i / n_cap
        rows.append((radius * np.sin(ang), half + radius * np.cos(ang)))
    phi = 2 * np.pi * np.arange(n_around) / n_around
    rho, z = np.array(rows).T
    ring = np.stack(
        [rho[:, None] * np.cos(phi), rho[:, None] * np.sin(phi), np.repeat(z[:, None], n_around, axis=1)],
        axis=-1,
    )
    verts = np.vstack([(0.0, 0.0, -half - radius), ring.reshape(-1, 3), (0.0, 0.0, half + radius)])
    k = np.arange(n_around)
    k1 = (k + 1) % n_around
    south = np.column_stack([np.zeros_like(k), 1 + k1, 1 + k])
    # two faces per quad between ring r and ring r + 1, quads in (r, k) order
    base0 = 1 + n_around * np.arange(len(rows) - 1)[:, None]
    base1 = base0 + n_around
    wall = np.stack(
        np.broadcast_arrays(base0 + k, base0 + k1, base1 + k1, base0 + k, base1 + k1, base1 + k), axis=-1
    ).reshape(-1, 3)
    top = len(verts) - 1
    base = 1 + (len(rows) - 1) * n_around
    north = np.column_stack([np.full_like(k, top), base + k, base + k1])
    return TriMesh(verts, np.vstack([south, wall, north]))


def jittered(mesh, amplitude, seed=0):
    """Mesh with vertices displaced by iid normal noise of the given amplitude.

    Raises DegenerateFace when the noise collapses a face.
    """
    rng = np.random.default_rng(seed)
    moved = mesh.with_vertices(mesh.vertices + amplitude * rng.standard_normal(mesh.vertices.shape))
    moved._validate_face_areas()
    return moved


def equator_phase_labels(mesh):
    """Two-phase face labels: 1 above z = 0, 2 below (by face centroid).

    Only the centroid's z is formed, as ((z0 + z1) + z2) / 3 from the
    corner rows: the bits of ``vertices[faces].mean(axis=1)[:, 2]``.
    """
    z = np.ascontiguousarray(mesh.vertices[:, 2])
    z0, z1, z2 = (np.take(z, corner) for corner in mesh._face_rows)
    z0 += z1
    z0 += z2
    z0 /= 3.0
    return np.where(z0 > 0.0, 1, 2).astype(np.int64)


def standard_corpus():
    """The shipped verification corpus: name -> (mesh, phase labels or None)."""
    corpus = {}
    for level in (2, 3, 4):
        corpus[f"icosphere{level}"] = (icosphere(level), None)
    corpus["torus"] = (torus(2.0, 1.0, 64, 32), None)
    corpus["capsule"] = (capsule(), None)
    # same connectivity and positions as a fresh icosphere(3)
    corpus["perturbed_sphere"] = (jittered(corpus["icosphere3"][0], 0.01, seed=7), None)
    split = octasphere(4)
    corpus["split_sphere"] = (split, equator_phase_labels(split))
    return corpus
