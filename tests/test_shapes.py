"""Vectorized shape construction against the loop construction it replaced."""

import numpy as np
import pytest

from helfrich import shapes


def _loop_torus(big_radius=2.0, small_radius=1.0, n_u=64, n_v=32):
    u = 2 * np.pi * np.arange(n_u) / n_u
    w = 2 * np.pi * np.arange(n_v) / n_v
    uu, ww = np.meshgrid(u, w, indexing="ij")
    r = big_radius + small_radius * np.cos(ww)
    verts = np.column_stack(
        [(r * np.cos(uu)).ravel(), (r * np.sin(uu)).ravel(), (small_radius * np.sin(ww)).ravel()]
    )
    faces = []
    for i in range(n_u):
        for j in range(n_v):
            a = i * n_v + j
            b = ((i + 1) % n_u) * n_v + j
            c = ((i + 1) % n_u) * n_v + (j + 1) % n_v
            d = i * n_v + (j + 1) % n_v
            faces.extend([(a, b, c), (a, c, d)])
    return verts, np.array(faces, dtype=np.int64)


def _loop_capsule(radius=0.5, cylinder_length=9.0, n_around=32, n_cap=8, n_length=48):
    rows = []
    half = cylinder_length / 2.0
    for i in range(1, n_cap + 1):
        ang = np.pi / 2 * i / n_cap
        rows.append((radius * np.sin(ang), -half - radius * np.cos(ang)))
    for i in range(1, n_length):
        rows.append((radius, -half + cylinder_length * i / n_length))
    for i in range(n_cap, 0, -1):
        ang = np.pi / 2 * i / n_cap
        rows.append((radius * np.sin(ang), half + radius * np.cos(ang)))
    phi = 2 * np.pi * np.arange(n_around) / n_around
    ring = np.column_stack([np.cos(phi), np.sin(phi)])
    verts = [(0.0, 0.0, -half - radius)]
    for rho, z in rows:
        verts.extend((rho * c, rho * s, z) for c, s in ring)
    verts.append((0.0, 0.0, half + radius))
    verts = np.array(verts, dtype=np.float64)
    faces = []
    for k in range(n_around):
        faces.append((0, 1 + (k + 1) % n_around, 1 + k))
    for r0 in range(len(rows) - 1):
        base0 = 1 + r0 * n_around
        base1 = base0 + n_around
        for k in range(n_around):
            k1 = (k + 1) % n_around
            faces.append((base0 + k, base0 + k1, base1 + k1))
            faces.append((base0 + k, base1 + k1, base1 + k))
    top = len(verts) - 1
    base = 1 + (len(rows) - 1) * n_around
    for k in range(n_around):
        faces.append((top, base + k, base + (k + 1) % n_around))
    return verts, np.array(faces, dtype=np.int64)


def _assert_same(mesh, verts, faces):
    assert mesh.faces.dtype == faces.dtype
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.faces, faces)


@pytest.mark.parametrize("args", [(), (2.0, 1.0, 16, 8), (1.0, 0.3, 5, 3)])
def test_torus_equals_the_loop_construction(args):
    _assert_same(shapes.torus(*args), *_loop_torus(*args))


@pytest.mark.parametrize("args", [(), (0.3, 2.0, 5, 2, 3), (1.0, 1.0, 7, 1, 2)])
def test_capsule_equals_the_loop_construction(args):
    _assert_same(shapes.capsule(*args), *_loop_capsule(*args))


def test_corpus_perturbed_sphere_equals_a_fresh_jitter(corpus):
    mesh, labels = corpus["perturbed_sphere"]
    fresh = shapes.jittered(shapes.icosphere(3), 0.01, seed=7)
    assert labels is None
    _assert_same(mesh, fresh.vertices, fresh.faces)


@pytest.mark.parametrize(
    "make",
    [lambda: shapes.icosphere(6), lambda: shapes.octasphere(5),
     lambda: shapes.jittered(shapes.icosphere(5), 0.01, seed=3)],
    ids=["icosphere6", "octasphere5", "jittered_icosphere5"],
)
def test_equator_labels_match_the_full_centroid_expression(make):
    # the labels form only the centroid's z, with the bits of the full mean
    mesh = make()
    centroid_z = mesh.vertices[mesh.faces].mean(axis=1)[:, 2]
    want = np.where(centroid_z > 0.0, 1, 2).astype(np.int64)
    got = shapes.equator_phase_labels(mesh)
    assert got.dtype == want.dtype and np.array_equal(got, want)
