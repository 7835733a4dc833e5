import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from helfrich import shapes
from helfrich.curvature import curvature_field
from helfrich.density import MaterialParams, f_ch
from helfrich.energy import (
    PhaseField,
    _split,
    canham_helfrich,
    multiphase_energy,
    vertex_phase_weights,
    willmore,
)
from helfrich.errors import PhaseCountMismatch
from helfrich.mesh import TriMesh

from conftest import interface_kink, total_energy

FOUR_PI = 4 * np.pi


def test_sphere_half_squared_mean_curvature(icosphere4, icosphere4_curv):
    val = canham_helfrich(icosphere4, icosphere4_curv, MaterialParams(1.0, 0.0, 0.0))
    assert abs(val - 8 * np.pi) < 0.02 * 8 * np.pi


def test_sphere_matched_spontaneous_curvature(icosphere4, icosphere4_curv):
    val = canham_helfrich(icosphere4, icosphere4_curv, MaterialParams(1.0, 0.0, 2.0))
    assert abs(val) < 0.02 * 8 * np.pi


def test_sphere_with_gauss_term(icosphere4, icosphere4_curv):
    val = canham_helfrich(icosphere4, icosphere4_curv, MaterialParams(1.0, -1.0, 0.0))
    assert abs(val - FOUR_PI) < 0.02 * FOUR_PI


def test_willmore_normalizations(icosphere4, icosphere4_curv, corpus):
    quarter = willmore(icosphere4, icosphere4_curv, "quarter")
    varifold = willmore(icosphere4, icosphere4_curv, "varifold")
    assert abs(quarter - FOUR_PI) < 0.01 * FOUR_PI
    assert abs(varifold - 16 * np.pi) < 0.01 * 16 * np.pi
    assert abs(varifold - 4 * quarter) < 1e-12 * varifold
    # |Hbar|^2 = H^2 pointwise, so the two sums agree to rounding
    for name, (mesh, _) in corpus.items():
        curv = curvature_field(mesh)
        q, v = willmore(mesh, curv, "quarter"), willmore(mesh, curv, "varifold")
        assert abs(v - 4 * q) <= 1e-12 * max(v, 1.0), name
    with pytest.raises(ValueError):
        willmore(icosphere4, icosphere4_curv, "half")


def test_willmore_scale_invariance(icosphere4):
    scaled = icosphere4.with_vertices(3.7 * icosphere4.vertices)
    c1 = curvature_field(icosphere4)
    c2 = curvature_field(scaled)
    for norm in ("quarter", "varifold"):
        a, b = willmore(icosphere4, c1, norm), willmore(scaled, c2, norm)
        assert abs(a - b) < 1e-9 * a


def test_two_path_agreement_on_corpus(corpus):
    params = MaterialParams(1.3, -1.1, 0.7)
    for name, (mesh, _) in corpus.items():
        curv = curvature_field(mesh)
        # the same energy through the paper's density f(nu, A)
        scalar = canham_helfrich(mesh, curv, params)
        tensor = float(np.sum(f_ch(curv.normal, curv.curvature_tensor, params) * curv.mixed_area))
        assert abs(scalar - tensor) <= 1e-9 * max(abs(scalar), abs(tensor), 1e-300), name


def test_orientation_flip_negates_h0(corpus):
    mesh, _ = corpus["perturbed_sphere"]
    flipped = TriMesh(mesh.vertices, mesh.faces[:, ::-1])
    c1 = curvature_field(mesh)
    c2 = curvature_field(flipped)
    e_flip = canham_helfrich(flipped, c2, MaterialParams(1.0, -0.5, 0.8))
    e_neg = canham_helfrich(mesh, c1, MaterialParams(1.0, -0.5, -0.8))
    assert abs(e_flip - e_neg) < 1e-10 * max(1.0, abs(e_neg))


def test_gauss_term_topology(corpus):
    # pure Gauss rigidity: the energy is a topological invariant
    params = MaterialParams(0.0, 1.0, 0.0)
    for name, (mesh, _) in corpus.items():
        curv = curvature_field(mesh)
        val = canham_helfrich(mesh, curv, params)
        assert abs(val - 2 * np.pi * mesh.euler_characteristic) < 1e-9, name


def test_single_phase_has_no_line_term(icosphere4, icosphere4_curv):
    phases = PhaseField.uniform(icosphere4)
    params = [MaterialParams(1.0, -0.5, 0.3, sigma=2.5)]
    rep = multiphase_energy(icosphere4, icosphere4_curv, phases, params)
    assert rep.line_tension == 0.0
    single = canham_helfrich(icosphere4, icosphere4_curv, params[0])
    assert abs(rep.total - single) < 1e-10 * abs(single)


def test_equator_split_line_tension(split_sphere):
    mesh, labels = split_sphere
    curv = curvature_field(mesh)
    params = [
        MaterialParams(1.0, 0.0, 0.0, sigma=1.0, phase_id=1),
        MaterialParams(1.0, 0.0, 0.0, sigma=1.0, phase_id=2),
    ]
    rep = multiphase_energy(mesh, curv, PhaseField(labels), params)
    assert abs(rep.line_tension - FOUR_PI) < 0.02 * FOUR_PI
    for phase in rep.phases:
        assert abs(phase.area - 2 * np.pi) < 0.02 * 2 * np.pi
        assert abs(phase.boundary_length - 2 * np.pi) < 0.02 * 2 * np.pi
    assert abs(rep.total - rep.parts_sum()) < 1e-10 * abs(rep.total)


def test_identical_phases_match_single_phase(split_sphere):
    mesh, labels = split_sphere
    curv = curvature_field(mesh)
    params = MaterialParams(1.4, -0.9, 0.2)
    rep = multiphase_energy(
        mesh, curv, PhaseField(labels),
        [params, MaterialParams(1.4, -0.9, 0.2, phase_id=2)],
    )
    single = canham_helfrich(mesh, curv, params)
    assert abs(rep.total - single) < 1e-10 * abs(single)


def test_phase_count_mismatch(split_sphere):
    mesh, labels = split_sphere
    curv = curvature_field(mesh)
    with pytest.raises(PhaseCountMismatch):
        multiphase_energy(mesh, curv, PhaseField(labels), [MaterialParams(1.0, 0.0)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "labels, face, shown",
    [
        ([1.5, 2.0], 0, "1.5"),
        ([1.0, 2.0, np.nan], 2, "nan"),
        ([1.0, np.inf, 2.0], 1, "inf"),
        ([1.0, -np.inf], 1, "-inf"),
    ],
)
def test_non_integer_labels_raise(labels, face, shown):
    with pytest.raises(PhaseCountMismatch, match=rf"^face {face} has phase label {shown}, not an integer$"):
        PhaseField(np.array(labels))


@pytest.mark.parametrize("n_phases, shown", [(2.7, "2.7"), (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
def test_non_integer_phase_count_raises(n_phases, shown):
    with pytest.raises(PhaseCountMismatch, match=rf"^phase count {shown} is not an integer$"):
        PhaseField([1, 2], n_phases=n_phases)


def test_integral_float_labels_are_kept():
    phases = PhaseField([1.0, 2.0, 2.0])
    assert phases.labels.dtype == np.int64
    assert phases.labels.tolist() == [1, 2, 2]
    assert phases.n_phases == 2
    declared = PhaseField([1, 2], n_phases=3.0).n_phases
    assert type(declared) is int and declared == 3


def test_boundary_mass(split_sphere, icosphere4):
    mesh, labels = split_sphere
    phases = PhaseField(labels)
    assert abs(_split(mesh, phases)[1].boundary_length(1) - 2 * np.pi) < 0.02 * 2 * np.pi
    assert _split(icosphere4, PhaseField.uniform(icosphere4))[1].boundary_length(1) == 0.0


def test_single_face_phase_boundary():
    tet = shapes.tetrahedron(edge=1.0)
    labels = np.array([1, 2, 2, 2])
    assert abs(_split(tet, PhaseField(labels))[1].boundary_length(1) - 3.0) < 1e-12


def test_interface_edges_form_closed_curves(split_sphere):
    mesh, labels = split_sphere
    deg = np.bincount(mesh.edges[PhaseField(labels).interface_edges(mesh)].ravel(), minlength=mesh.n_vertices)
    assert (deg % 2 == 0).all()


def test_vertex_phase_weights_partition(split_sphere):
    mesh, labels = split_sphere
    w = vertex_phase_weights(mesh, PhaseField(labels))
    assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12
    assert (w >= 0).all()


def test_phase_labels_are_a_read_only_copy(split_sphere):
    mesh, labels = split_sphere
    mine = labels.copy()
    phases = PhaseField(mine)
    params = [MaterialParams(1.0, -0.3, 0.5, 0.8, 1), MaterialParams(2.0, -1.0, -0.2, 0.4, 2)]
    before = total_energy(mesh, phases, params)
    mine[:] = 1  # the caller's array, after construction
    assert total_energy(mesh.with_vertices(mesh.vertices), phases, params) == before
    with pytest.raises(ValueError):
        phases.labels[0] = 2


def test_kink_decreases_under_refinement():
    kinks = []
    for level in (2, 3, 4):
        mesh = shapes.octasphere(level)
        phases = PhaseField(shapes.equator_phase_labels(mesh))
        kinks.append(interface_kink(mesh, phases))
    assert kinks[0] > kinks[1] > kinks[2]
    assert interface_kink(shapes.octasphere(2), PhaseField.uniform(shapes.octasphere(2))) == 0.0


_PROPERTY_MESHES = {
    "octasphere2": shapes.octasphere(2),
    "jittered_icosphere2": shapes.jittered(shapes.icosphere(2), 0.02, seed=3),
}


@pytest.mark.parametrize("name", sorted(_PROPERTY_MESHES))
@settings(max_examples=25, deadline=None)
@given(n_phases=st.integers(1, 4), data=st.data())
def test_energy_routes_share_one_phase_split(name, n_phases, data):
    mesh = _PROPERTY_MESHES[name]
    labels = data.draw(
        hnp.arrays(np.int64, mesh.n_faces, elements=st.integers(1, n_phases)), label="labels"
    )
    sigma = data.draw(st.lists(st.floats(0.0, 3.0), min_size=n_phases, max_size=n_phases), label="sigma")
    params = [
        MaterialParams(1.0 + 0.25 * p, -0.1 * p, 0.2 * p - 0.3, s, phase_id=p + 1)
        for p, s in enumerate(sigma)
    ]
    phases = PhaseField(labels, n_phases=n_phases)
    rep = multiphase_energy(mesh, curvature_field(mesh), phases, params)
    scale = abs(rep.line_tension) + sum(
        abs(p.bending) + abs(p.gauss) + abs(p.spontaneous) for p in rep.phases
    )
    assert abs(total_energy(mesh, phases, params) - rep.total) <= 1e-12 * scale

    present = np.unique(labels)
    iface = _split(mesh, phases)[1]
    line = sum(params[p - 1].sigma * iface.boundary_length(p) for p in present)
    assert abs(rep.line_tension - line) <= 1e-12 * max(abs(line), 1e-300)

    # every interface edge bounds exactly two phases
    ef = mesh.edge_faces
    cut = labels[ef[:, 0]] != labels[ef[:, 1]]
    ends = mesh.edges[cut]
    interface = np.linalg.norm(mesh.vertices[ends[:, 0]] - mesh.vertices[ends[:, 1]], axis=1).sum()
    assert abs(sum(p.boundary_length for p in rep.phases) - 2.0 * interface) <= 1e-12 * max(interface, 1e-300)


@pytest.mark.parametrize("labels, n_phases, message", [
    ([[1, 2], [1, 1]], None, "labels must be one integer per face"),
    ([1, 3], 2, "label exceeds declared phase count"),
], ids=["two_dimensional", "label_past_the_count"])
def test_phase_field_rejects_labels_by_name(labels, n_phases, message):
    with pytest.raises(PhaseCountMismatch, match=f"^{message}$"):
        PhaseField(labels, n_phases=n_phases)
