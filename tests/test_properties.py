"""Hypothesis properties: relabelling, rigid motions, file round trips and the unit of length."""

import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from helfrich import shapes
from helfrich.curvature import curvature_field
from helfrich.density import MaterialParams
from helfrich.diagnostics import standard_report
from helfrich.errors import DegenerateFace
from helfrich.energy import PhaseField, willmore
from helfrich.gradient import energy_and_gradient
from helfrich.mesh import TriMesh
from helfrich.mesh_io import read_mesh, write_mesh

from conftest import total_energy

PARAMS = [MaterialParams(1.0, -0.3, 0.5, 0.8, 1), MaterialParams(2.0, -1.0, -0.2, 0.4, 2)]
RTOL = 1e-12

_BASE = shapes.jittered(shapes.icosphere(2), 0.02, seed=5)
_LABELS = shapes.equator_phase_labels(_BASE)


def _close(a, b, scale=None):
    return abs(a - b) <= RTOL * max(abs(a), abs(b), scale or 0.0)


def _invariants(mesh, labels):
    curv = curvature_field(mesh)
    records = sorted(standard_report(mesh).checks, key=lambda r: r.name)
    return total_energy(mesh, PhaseField(labels), PARAMS), willmore(mesh, curv), records


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_relabelling_leaves_energy_and_report_unchanged(data):
    nv, nf = _BASE.n_vertices, _BASE.n_faces
    new_index = np.array(data.draw(st.permutations(range(nv)), label="vertex relabelling"))
    face_order = np.array(data.draw(st.permutations(range(nf)), label="face order"))
    # rotating a face's corners keeps its orientation
    shift = data.draw(hnp.arrays(np.int64, nf, elements=st.integers(0, 2)), label="corner shift")
    vertices = np.empty_like(_BASE.vertices)
    vertices[new_index] = _BASE.vertices
    corners = (np.arange(3) + shift[:, None]) % 3
    faces = np.take_along_axis(new_index[_BASE.faces[face_order]], corners, axis=1)
    relabelled = TriMesh(vertices, faces)

    e0, w0, rec0 = _invariants(_BASE, _LABELS)
    e1, w1, rec1 = _invariants(relabelled, _LABELS[face_order])
    assert _close(e0, e1) and _close(w0, w1)
    assert [r.name for r in rec0] == [r.name for r in rec1]
    for r0, r1 in zip(rec0, rec1):
        # residual records sit at rounding level; measure them against 1
        assert _close(r0.lhs, r1.lhs, 1.0) and _close(r0.rhs, r1.rhs, 1.0), r0.name
        assert r0.passed == r1.passed, r0.name


@settings(max_examples=25, deadline=None)
@given(
    quaternion=hnp.arrays(np.float64, 4, elements=st.floats(-1, 1)).filter(
        lambda q: np.linalg.norm(q) > 0.1
    ),
    shift=hnp.arrays(np.float64, 3, elements=st.floats(-2, 2)),
)
def test_rigid_motion_leaves_energy_unchanged(quaternion, shift):
    w, x, y, z = quaternion / np.linalg.norm(quaternion)
    rotation = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    moved = _BASE.with_vertices(_BASE.vertices @ rotation.T + shift)
    phases = PhaseField(_LABELS)
    assert _close(total_energy(_BASE, phases, PARAMS), total_energy(moved, phases, PARAMS))


@settings(max_examples=25, deadline=None)
@given(
    suffix=st.sampled_from([".off", ".obj"]),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
    noise=hnp.arrays(np.float64, (42, 3), elements=st.floats(-0.05, 0.05)),
)
def test_file_round_trip_is_bitwise(suffix, scale, noise):
    base = shapes.icosphere(1)
    mesh = TriMesh(scale * (base.vertices + noise), base.faces)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh" + suffix)
        write_mesh(path, mesh)
        back = read_mesh(path)
    assert back.vertices.dtype == mesh.vertices.dtype and back.faces.dtype == mesh.faces.dtype
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


def _length_power(name):
    """The power of length that a standard_report record's lhs and rhs carry."""
    if name.startswith(("diameter/", "first_variation/")):
        return 1
    if name == "pointwise/trace_identity":
        return -1  # a curvature
    if name in ("pointwise/frobenius_identity", "pointwise/gauss_identity", "pointwise/mean_curvature_vs_A"):
        return -2  # a squared curvature
    return 0  # energies, Gauss-Bonnet, Li-Yau, the unit normal; zeros fit any power


@settings(max_examples=15, deadline=None)
@example(k=-250)
@example(k=-200)
@example(k=200)
@example(k=250)
@given(k=st.integers(-40, 40))
def test_standard_report_does_not_depend_on_the_unit_of_length(k):
    # scaling by 2^k is exact, so every record scales by 2^(p k) bit for bit
    base = standard_report(_BASE, n_fields=5)
    scaled = standard_report(TriMesh(2.0**k * _BASE.vertices, _BASE.faces), n_fields=5)
    assert [r.name for r in scaled.checks] == [r.name for r in base.checks]
    for got, want in zip(scaled.checks, base.checks):
        assert got.passed == want.passed, want.name
        scale = 2.0 ** (_length_power(want.name) * k)
        assert got.lhs == want.lhs * scale, want.name
        # H0 carries a unit of length: with H0 = 0.5 the energy F, and so
        # the rhs c1 (F + c2 mu), does not scale by a power of two
        if "H0=0.5]" not in want.name:
            assert got.rhs == want.rhs * scale, want.name
    assert scaled.all_pass == base.all_pass


def test_meshes_at_the_ends_of_the_scale_range_evaluate_correctly():
    # 2^-252 and 2^252 are the last scales at which _BASE builds: every
    # area-vector square there is still a normal float, so the energy (H0
    # and sigma 0, so no unit of length), its gradient, Willmore and every
    # verdict agree with the unit scale to rounding
    params = [MaterialParams(1.0, -0.5)]
    E0, g0 = energy_and_gradient(_BASE, None, params)
    W0, report0 = willmore(_BASE, curvature_field(_BASE)), standard_report(_BASE, n_fields=5)
    for k in (-252, 252):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh = TriMesh(2.0**k * _BASE.vertices, _BASE.faces)
            E, g = energy_and_gradient(mesh, None, params)
            W, report = willmore(mesh, curvature_field(mesh)), standard_report(mesh, n_fields=5)
        assert _close(E, E0) and _close(W, W0)
        assert np.abs(2.0**k * g - g0).max() <= RTOL * np.abs(g0).max()
        for got, want in zip(report.checks, report0.checks, strict=True):
            assert got.passed == want.passed, want.name
            assert _close(got.lhs * 2.0 ** (-_length_power(want.name) * k), want.lhs, 1.0), want.name
        with pytest.raises(DegenerateFace):
            TriMesh(2.0 ** (k + np.sign(k)) * _BASE.vertices, _BASE.faces)
