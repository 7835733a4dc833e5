import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from helfrich import serialize, shapes
from helfrich.curvature import curvature_field
from helfrich.density import MaterialParams
from helfrich.energy import willmore
from helfrich.errors import NotConvex
from helfrich.mesh import _columns
from helfrich.diagnostics import (
    _plane_wave_rows,
    _plane_waves,
    standard_report,
    verify_diameter,
    verify_energy_bounds,
    verify_first_variation,
    verify_li_yau,
    verify_pointwise,
)

from conftest import two_spheres_touching
from test_first_variation import first_variation

FOUR_PI = 4 * np.pi
CORPUS_NAMES = ["icosphere2", "icosphere3", "icosphere4", "torus", "capsule", "perturbed_sphere", "split_sphere"]


def spheroid_willmore_quarter(a=1.0, c=0.5):
    """Quadrature oracle: 1/4 integral of H^2 over the spheroid (a, a, c).

    Axisymmetric first/second fundamental forms; validated against the
    closed-form spheroid area.
    """

    def H_dA(t):
        st, ct = np.sin(t), np.cos(t)
        E = a * a * ct * ct + c * c * st * st
        G = a * a * st * st
        nx, nz = c * st * a * st, a * ct * a * st
        nn = np.sqrt(nx * nx + nz * nz)
        L = (-a * st * nx - c * ct * nz) / nn
        N = (-a * st * nx) / nn
        H = (E * N + G * L) / (E * G)
        return H, np.sqrt(E * G)

    val, _ = quad(lambda t: 0.25 * H_dA(t)[0] ** 2 * H_dA(t)[1] * 2 * np.pi, 0, np.pi, limit=200)
    area, _ = quad(lambda t: H_dA(t)[1] * 2 * np.pi, 0, np.pi, limit=200)
    ecc = np.sqrt(1 - (c / a) ** 2)
    area_exact = 2 * np.pi * a * a * (1 + (1 - ecc**2) / ecc * np.arctanh(ecc))
    assert abs(area - area_exact) < 1e-9 * area_exact
    return val


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_standard_report_passes_on_corpus(corpus, name):
    mesh, _ = corpus[name]
    report = standard_report(mesh, name)
    failed = [r.name for r in report.checks if not r.passed]
    assert report.all_pass, failed


def test_pointwise_sphere_values(icosphere4_curv):
    records = {r.name: r for r in verify_pointwise(icosphere4_curv)}
    rec = records["pointwise/mean_curvature_vs_A"]
    # |Hbar|^2 ~ 4/r^2 against 2|A|^2 ~ 8/r^2
    assert abs(rec.lhs - 4.0) < 0.1 and abs(rec.rhs - 8.0) < 0.2
    assert rec.passed


def test_pointwise_random_fields_through_constructor():
    rng = np.random.default_rng(11)
    # random (kappa, directions) through the tensor constructor never
    # violate |Hbar|^2 <= 2 |A|^2
    k1 = rng.uniform(-5, 5, 10000)
    k2 = rng.uniform(-5, 5, 10000)
    lhs = (k1 + k2) ** 2
    rhs = 2 * 2 * (k1**2 + k2**2)
    assert (lhs <= rhs + 1e-10).all()


def test_first_variation_identity_field(icosphere4, icosphere4_curv):
    def identity(points):
        return points.copy(), np.tile(np.eye(3), (len(points), 1, 1))

    delta, _ = first_variation(icosphere4, icosphere4_curv, identity)
    mu = icosphere4_curv.mixed_area.sum()
    assert abs(delta - 2 * mu) < 1e-9 * mu
    assert abs(delta - 8 * np.pi) < 0.01 * 8 * np.pi
    # right-hand side ~ sqrt(8 pi) sqrt(16 pi) ~ 35.54
    rhs = np.sqrt(2 * mu) * np.sqrt(icosphere4_curv.norm_A_squared() @ icosphere4_curv.mixed_area)
    assert abs(rhs - np.sqrt(128 * np.pi**2)) < 0.02 * rhs
    assert delta <= rhs


@pytest.mark.parametrize("radius", [0.125, 0.5, 2.0, 8.0])
def test_identity_field_record_scales_with_the_radius(radius):
    # lhs = 2 mu / max |x - c| and rhs = sqrt(2 mu) ||A||_L2 both scale like the
    # radius, so the verdict does not depend on the unit of length
    def identity(mesh):
        records = verify_first_variation(curvature_field(mesh), n_fields=0)
        return next(r for r in records if r.name.endswith("identity_field"))

    unit = identity(shapes.icosphere(3))
    scaled = identity(shapes.icosphere(3, radius=radius))
    assert scaled.passed and unit.passed
    assert scaled.lhs.hex() == (radius * unit.lhs).hex()
    assert scaled.rhs.hex() == (radius * unit.rhs).hex()
    assert 0.70 < scaled.lhs / scaled.rhs < 0.71


def test_first_variation_records(icosphere4, icosphere4_curv):
    records = verify_first_variation(icosphere4_curv, n_fields=20, seed=0)
    assert len(records) == 22  # constant + identity + 20 random
    assert all(r.passed for r in records)
    const = [r for r in records if r.name.endswith("constant_field")][0]
    assert const.lhs == 0.0


def test_energy_bounds_sphere(icosphere4, icosphere4_curv):
    records = verify_energy_bounds(icosphere4_curv, MaterialParams(1.0, -1.0, 0.0))
    by_name = {r.name.split("[")[0]: r for r in records}
    curvature = by_name["energy_bounds/curvature"]
    # ||A||^2 = 16 pi <= c1 F = 8 * 4 pi
    assert abs(curvature.lhs - 16 * np.pi) < 0.02 * 16 * np.pi
    assert abs(curvature.rhs - 32 * np.pi) < 0.02 * 32 * np.pi
    w = by_name["energy_bounds/willmore"]
    assert abs(w.lhs - 16 * np.pi) < 0.02 * 16 * np.pi
    assert abs(w.rhs - 64 * np.pi) < 0.02 * 64 * np.pi
    assert all(r.passed for r in records)


def test_energy_bounds_requires_convexity(icosphere4, icosphere4_curv):
    with pytest.raises(NotConvex):
        verify_energy_bounds(icosphere4_curv, MaterialParams(1.0, 0.5, 0.0))


def test_energy_bounds_nonzero_h0_on_corpus(corpus):
    params = MaterialParams(1.0, -1.0, 0.7)
    for name, (mesh, _) in corpus.items():
        curv = curvature_field(mesh)
        records = verify_energy_bounds(curv, params)
        assert all(r.passed for r in records), name


def test_diameter_bounds_sphere(icosphere4, icosphere4_curv):
    records = {r.name: r for r in verify_diameter(icosphere4_curv)}
    lower_var = records["diameter/lower_varifold"]
    assert abs(lower_var.lhs - 0.5) < 0.01  # 4pi / sqrt(4pi * 16pi)
    assert abs(lower_var.rhs - 2.0) < 0.01
    lower_q = records["diameter/lower_quarter"]
    assert abs(lower_q.lhs - 1.0) < 0.01  # sqrt(4pi / 4pi)
    upper = records["diameter/upper"]
    assert abs(upper.rhs - 8.0) < 0.1  # (2/pi) * 4pi
    assert all(r.passed for r in records.values())


def test_diameter_bounds_capsule(corpus):
    mesh, _ = corpus["capsule"]
    curv = curvature_field(mesh)
    assert all(r.passed for r in verify_diameter(curv))


def test_li_yau_sphere_equality(icosphere4, icosphere4_curv):
    (rec,) = verify_li_yau(icosphere4_curv, multiplicity_hint=1)
    assert rec.passed
    assert abs(rec.rhs - FOUR_PI) < 0.01 * FOUR_PI  # equality case


def test_li_yau_two_touching_spheres():
    mesh = two_spheres_touching(level=3)
    curv = curvature_field(mesh)
    (rec,) = verify_li_yau(curv, multiplicity_hint=2)
    assert rec.passed
    wq = willmore(mesh, curv, "quarter")
    assert abs(wq - 8 * np.pi) < 0.02 * 8 * np.pi


def test_li_yau_torus(corpus):
    mesh, _ = corpus["torus"]
    curv = curvature_field(mesh)
    (rec,) = verify_li_yau(curv, multiplicity_hint=1)
    assert rec.passed
    assert willmore(mesh, curv, "quarter") >= FOUR_PI


def refinement_probe(shape_generator, levels, exact, quantity):
    """Convergence of ``quantity(mesh, curv)`` toward a closed-form value.

    The discrete counterpart of lower semicontinuity is convergence under
    refinement. Returns ``(rows, order, monotone)``: rows of (h, value,
    abs error) per level, the empirical order (least-squares slope of log
    error against log h over the errors above rounding; inf with fewer
    than two), and whether the errors decrease monotonically.
    """
    rows = []
    for level in levels:
        mesh = shape_generator(level)
        val = float(quantity(mesh, curvature_field(mesh)))
        rows.append((mesh.mean_edge_length, val, abs(val - exact)))
    hs, _, errs = np.array(rows).T
    floor = 1e-12 * max(1.0, abs(exact))  # converged to rounding
    monotone = bool((np.diff(np.maximum(errs, floor)) <= 0).all())
    live = errs > floor
    order = float(np.polyfit(np.log(hs[live]), np.log(errs[live]), 1)[0]) if live.sum() >= 2 else float("inf")
    return rows, order, monotone


def test_refinement_probe_sphere_quarter_willmore():
    rows, order, monotone = refinement_probe(
        shapes.icosphere, [2, 3, 4], FOUR_PI, lambda m, c: willmore(m, c, "quarter")
    )
    # the estimator is Gauss-Bonnet-exact on spheres: converged to rounding
    assert monotone and order >= 1.0
    assert all(err < 1e-11 for _, _, err in rows)


def test_refinement_probe_gauss_term_exact():
    rows, order, monotone = refinement_probe(
        shapes.icosphere, [2, 3, 4], FOUR_PI, lambda m, c: float(c.K @ c.mixed_area)
    )
    assert monotone and order >= 1.0
    assert all(err < 1e-10 for _, _, err in rows)


def test_refinement_probe_ellipsoid_willmore():
    oracle = spheroid_willmore_quarter(1.0, 0.5)

    def ellipsoid(level):
        m = shapes.icosphere(level)
        return m.with_vertices(m.vertices * np.array([1.0, 1.0, 0.5]))

    rows, order, monotone = refinement_probe(
        ellipsoid, [2, 3, 4, 5], oracle, lambda m, c: willmore(m, c, "quarter")
    )
    assert monotone
    assert order >= 1.0
    assert rows[-1][2] < 2e-3 * oracle


def test_report_serialization_deterministic(corpus):
    mesh, _ = corpus["icosphere2"]
    a = serialize.dumps(standard_report(mesh, "icosphere2"))
    b = serialize.dumps(standard_report(mesh, "icosphere2"))
    assert a == b
    assert '"all_pass": true' in a


def test_verify_functions_do_not_mutate(icosphere4, icosphere4_curv):
    before = icosphere4.vertices.copy()
    h_before = icosphere4_curv.H.copy()
    standard_report(icosphere4, "probe")
    assert np.array_equal(icosphere4.vertices, before)
    assert np.array_equal(icosphere4_curv.H, h_before)


def random_trig_fields(n_fields, length_scale, seed=0):
    """The random fields of ``verify_first_variation`` as callables on (N, 3) points.

    Each component is a sum of plane waves drawn by ``_plane_waves``.
    Returns a list of callables ``X(points) -> (values (N,3), jacobians
    (N,3,3))``, both C-contiguous; scale to sup-norm 1 at the evaluation
    points is the caller's job. Each call evaluates ``_plane_wave_rows`` on
    the (3, N) rows of ``points`` and copies the result into (N, ...)
    layout. The Jacobian's summation order is fixed: each term is
    (amp * sin) * wave and the waves are summed in index order, so the
    fields, and the records built from them, are bitwise reproducible.
    """
    fields = []
    for wave, phase, amp in _plane_waves(n_fields, length_scale, seed):

        def X(points, wave=wave, phase=phase, amp=amp):
            work = np.empty((3, 3, 3, len(points)))
            vals, S = _plane_wave_rows(np.ascontiguousarray(points.T), wave, phase, amp, work)
            jac = np.empty((len(points), 3, 3))
            np.negative(S.transpose(2, 0, 1), out=jac)
            return _columns(vals), jac

        fields.append(X)
    return fields


def _einsum_trig_fields(n_fields, length_scale, seed=0, n_waves=3):
    """The plane-wave fields with the three-operand einsum Jacobian; same draws."""
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(n_fields):
        wave = rng.normal(0.0, 1.5 / length_scale, size=(3, n_waves, 3))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(3, n_waves))
        amp = rng.normal(0.0, 1.0, size=(3, n_waves))

        def X(points, wave=wave, phase=phase, amp=amp):
            arg = np.einsum("itj,nj->nit", wave, points) + phase[None]
            vals = np.einsum("it,nit->ni", amp, np.cos(arg))
            jac = -np.einsum("it,nit,itj->nij", amp, np.sin(arg), wave)
            return vals, jac

        fields.append(X)
    return fields


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_trig_fields_bitwise_equal_the_einsum_oracle(corpus, name, seed):
    mesh, _ = corpus[name]
    length = mesh.bbox_diagonal / 2
    got = random_trig_fields(20, length, seed=seed)
    want = _einsum_trig_fields(20, length, seed=seed)
    for X, Y in zip(got, want):
        (vals, jac), (vals_o, jac_o) = X(mesh.vertices), Y(mesh.vertices)
        assert jac.shape == jac_o.shape == (mesh.n_vertices, 3, 3)
        assert vals.tobytes() == vals_o.tobytes()
        assert jac.tobytes() == jac_o.tobytes()


@settings(max_examples=60, deadline=None)
@example(n=1, log_scale=0.0, shift=0.0, log_length=0.0, zeros=1.0, seed=0)
@example(n=7, log_scale=-6.0, shift=1e6, log_length=-6.0, zeros=0.1, seed=1)
@example(n=3001, log_scale=6.0, shift=-1e6, log_length=6.0, zeros=0.1, seed=2)
@given(
    n=st.one_of(st.integers(1, 17), st.integers(1, 3001)),
    log_scale=st.floats(-6.0, 6.0),
    shift=st.floats(-1e6, 1e6),
    log_length=st.floats(-6.0, 6.0),
    zeros=st.sampled_from([0.0, 0.1, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_trig_fields_bitwise_equal_the_einsum_oracle_on_drawn_points(n, log_scale, shift, log_length, zeros, seed):
    # point counts below and between multiples of the SIMD width, scales and
    # offsets far from the corpus's, and -0.0 coordinates
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3)) * 10.0**log_scale + shift
    points[rng.random((n, 3)) < zeros] = -0.0
    length = 10.0**log_length
    for X, Y in zip(random_trig_fields(3, length, seed=seed), _einsum_trig_fields(3, length, seed=seed)):
        (vals, jac), (vals_o, jac_o) = X(points), Y(points)
        assert vals.shape == (n, 3) and jac.shape == (n, 3, 3)
        assert vals.flags.c_contiguous and jac.flags.c_contiguous
        assert vals.tobytes() == vals_o.tobytes()
        assert jac.tobytes() == jac_o.tobytes()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_trig_field_jacobian_matches_central_differences(corpus, name):
    mesh, _ = corpus[name]
    length = mesh.bbox_diagonal / 2
    h = 1e-5 * length
    points = mesh.vertices
    for X in random_trig_fields(20, length, seed=0):
        _, jac = X(points)
        for j, e in enumerate(h * np.eye(3)):
            fd = (X(points + e)[0] - X(points - e)[0]) / (2.0 * h)
            assert np.abs(fd - jac[:, :, j]).max() <= 1e-8 * np.abs(jac).max()
