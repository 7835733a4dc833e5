import numpy as np
import pytest

from helfrich import shapes
from helfrich.curvature import curvature_field
from helfrich.density import (
    MaterialParams,
    coercivity_constants,
    convexity_check,
    f_ch,
    hessian,
)
from helfrich.errors import NonUnitNormal, NotConvex
from helfrich.gradient import energy_and_gradient


def test_zero_tensor_leaves_spontaneous_term():
    params = MaterialParams(beta=1.0, gamma=-0.7, h0=3.0)
    val = f_ch(np.array([0.0, 0.0, 1.0]), np.zeros((3, 3, 3)), params)
    assert abs(val - 4.5) < 1e-14
    # any unit normal gives the same value: sum nu_i^2 = 1
    nu = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
    assert abs(f_ch(nu, np.zeros((3, 3, 3)), params) - 4.5) < 1e-14


def test_sphere_consistent_density_is_gauss_term(icosphere4, icosphere4_curv):
    curv = icosphere4_curv
    gamma = -0.8
    params = MaterialParams(beta=1.0, gamma=gamma, h0=2.0)
    vals = f_ch(curv.normal, curv.curvature_tensor, params)
    # H0 = 2/r kills the bending term pointwise; what is left is gamma * K
    assert np.abs(vals - gamma * curv.K).max() < 0.02 * abs(gamma)


def test_trace_bookkeeping():
    params = MaterialParams(beta=1.0, gamma=0.0, h0=0.0)
    nu = np.array([0.0, 0.0, 1.0])
    for t in (0.3, -2.0, 11.0):
        # first != last index: enters no trace, and gamma = 0 kills |A|^2
        A = np.zeros((3, 3, 3))
        A[0, 0, 1] = t
        assert f_ch(nu, A, params) == 0.0
        # first == last index: contributes to trace_2 (middle index)
        A = np.zeros((3, 3, 3))
        A[0, 1, 0] = t
        assert abs(f_ch(nu, A, params) - 0.5 * t**2) < 1e-14 * max(1, t**2)


def test_non_unit_normal_rejected():
    with pytest.raises(NonUnitNormal):
        f_ch(np.array([0.0, 0.0, 1.0 + 1e-6]), np.zeros((3, 3, 3)), MaterialParams(1.0, 0.0))


def test_hessian_example_values():
    res = hessian(MaterialParams(beta=2.0, gamma=-1.0))
    lams = sorted(set(np.round(res.eigenvalues_closed_form, 12)))
    assert lams == [0.5, 3.5]
    assert np.abs(np.sort(res.eigenvalues_numeric) - res.eigenvalues_closed_form).max() < 1e-10


def test_hessian_structure():
    res = hessian(MaterialParams(beta=1.3, gamma=-0.9))
    H = res.matrix
    assert H.shape == (9, 9)
    assert np.abs(H - H.T).max() == 0.0
    assert H[0, 0] == (2 * 1.3 - 0.9) / 2
    assert H[0, 1] == 1.3 - 0.9
    assert H[4, 4] == 0.45
    assert np.abs(H[3:, :3]).max() == 0.0


@pytest.mark.parametrize("beta", np.linspace(0.5, 3.0, 4))
@pytest.mark.parametrize("gamma", np.linspace(-3.0, 0.5, 5))
def test_hessian_grid_eigenvalues(beta, gamma):
    res = hessian(MaterialParams(beta=float(beta), gamma=float(gamma)))
    expected = np.sort(np.concatenate([[(6 * beta + 5 * gamma) / 2], np.full(8, -gamma / 2)]))
    assert np.abs(np.sort(res.eigenvalues_numeric) - expected).max() < 1e-10


def test_convexity_verdicts():
    assert convexity_check(MaterialParams(1.0, -1.0)) == "strictly_convex"
    assert convexity_check(MaterialParams(1.0, 0.1)) == "nonconvex"
    assert convexity_check(MaterialParams(1.0, 0.0)) == "boundary"
    assert convexity_check(MaterialParams(1.0, -6.0 / 5.0)) == "boundary"
    assert convexity_check(MaterialParams(1.0, -1.3)) == "nonconvex"
    # negative lambda_1 example: beta=1, gamma=-1.3 -> lambda_1 = -0.25
    res = hessian(MaterialParams(1.0, -1.3))
    assert abs(res.eigenvalues_closed_form[0] + 0.25) < 1e-12


def test_convexity_flips_at_window_edges():
    for beta in (0.5, 1.0, 2.5):
        edge = -6.0 * beta / 5.0
        assert convexity_check(MaterialParams(beta, edge * (1 + 1e-9))) == "nonconvex"
        assert convexity_check(MaterialParams(beta, edge * (1 - 1e-9))) == "strictly_convex"
        assert convexity_check(MaterialParams(beta, -1e-9)) == "strictly_convex"
        assert convexity_check(MaterialParams(beta, +1e-9)) == "nonconvex"


def test_convexity_agrees_with_numeric_sign_pattern():
    for beta in np.linspace(0.5, 3.0, 5):
        for gamma in np.linspace(-3.0, 0.5, 5):
            verdict = convexity_check(MaterialParams(float(beta), float(gamma)))
            eigs = hessian(MaterialParams(float(beta), float(gamma))).eigenvalues_numeric
            if verdict == "strictly_convex":
                assert eigs.min() > -1e-10
            elif verdict == "nonconvex":
                assert eigs.min() < 1e-10


def coercivity_worst(params, c1, c2, n_samples, seed=0):
    """min of f(nu, A) - (|A|^2 / c1 - c2) over random draws; >= 0 where the bound holds.

    Unit normals, and tensors with iid normal entries at three magnitudes
    (0.03, 1 and 30) so the linear and the quadratic terms each dominate
    somewhere.
    """
    rng = np.random.default_rng(seed)
    nu = rng.standard_normal((n_samples, 3))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    A = rng.standard_normal((n_samples, 3, 3, 3)) * rng.choice([0.03, 1.0, 30.0], size=(n_samples, 1, 1, 1))
    bound = np.einsum("vijk,vijk->v", A, A) / c1 - c2
    return float((f_ch(nu, A, params) - bound).min())


def test_coercivity_example_constants():
    params = MaterialParams(1.0, -1.0, 1.0)
    c1, c2 = coercivity_constants(params)
    assert (c1, c2) == (8.0, 12.5)
    assert coercivity_worst(params, c1, c2, 100_000) >= -1e-9


def test_coercivity_h0_zero():
    c1, c2 = coercivity_constants(MaterialParams(1.0, -1.0, 0.0))
    assert c2 == 0.0
    assert coercivity_worst(MaterialParams(1.0, -1.0, 0.0), c1, c2, 100_000) >= -1e-9
    # sampled minimum of f / |A|^2 must dominate 1/c1 = lambda_min / 4
    rng = np.random.default_rng(2)
    nu = rng.standard_normal((20000, 3))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    A = rng.standard_normal((20000, 3, 3, 3))
    ratio = f_ch(nu, A, MaterialParams(1.0, -1.0, 0.0)) / np.einsum("vijk,vijk->v", A, A)
    assert ratio.min() >= 0.125


def test_coercivity_requires_convexity():
    with pytest.raises(NotConvex):
        coercivity_constants(MaterialParams(1.0, 0.5))


def test_coercivity_zero_tensor_trivial():
    params = MaterialParams(1.0, -1.0, 2.0)
    c1, c2 = coercivity_constants(params)
    assert coercivity_worst(params, c1, c2, 1000) >= -1e-9
    assert f_ch(np.array([0.0, 0, 1.0]), np.zeros((3, 3, 3)), params) >= -c2


def test_density_convexity_property():
    rng = np.random.default_rng(7)
    params = MaterialParams(1.2, -1.0, 0.8)
    nu = rng.standard_normal((10000, 3))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    A = rng.standard_normal((10000, 3, 3, 3))
    B = rng.standard_normal((10000, 3, 3, 3))
    fa = f_ch(nu, A, params)
    fb = f_ch(nu, B, params)
    for t in (0.25, 0.5, 0.75):
        mid = f_ch(nu, t * A + (1 - t) * B, params)
        assert (mid <= t * fa + (1 - t) * fb + 1e-9).all()


def test_orientation_coupling():
    rng = np.random.default_rng(9)
    for _ in range(50):
        nu = rng.standard_normal(3)
        nu /= np.linalg.norm(nu)
        A = rng.standard_normal((3, 3, 3))
        plus = f_ch(-nu, A, MaterialParams(1.1, -0.6, 0.9))
        minus = f_ch(nu, A, MaterialParams(1.1, -0.6, -0.9))
        assert abs(plus - minus) < 1e-12 * max(1.0, abs(plus))


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(4)
    params = MaterialParams(1.7, -1.1, 0.6)
    res = hessian(params)
    nu = rng.standard_normal(3)
    nu /= np.linalg.norm(nu)
    base = rng.standard_normal((3, 3, 3))
    # nine coordinates A_{j,i,k} for fixed middle index i, in the Hessian's
    # (j, k) order
    mid = 1
    coords = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]
    h = 1e-4
    num = np.zeros((9, 9))

    def f_at(delta):
        A = base.copy()
        for (j, k), d in zip(coords, delta):
            A[j, mid, k] += d
        return f_ch(nu, A, params)

    for p in range(9):
        for q in range(9):
            dp = np.zeros(9)
            dq = np.zeros(9)
            dp[p] = h
            dq[q] = h
            num[p, q] = (
                f_at(dp + dq) - f_at(dp - dq) - f_at(dq - dp) + f_at(-dp - dq)
            ) / (4 * h * h)
    assert np.abs(num - res.matrix).max() < 1e-6 * max(1.0, np.abs(res.matrix).max())


@pytest.mark.parametrize("name", ["beta", "gamma", "h0", "sigma"])
def test_material_params_reject_non_finite_constants(name):
    values = {"beta": 1.0, "gamma": -0.5, "h0": 0.3, "sigma": 0.2}
    # a finite value whose square overflows too: coercivity_constants once
    # raised OverflowError from beta**2 at MaterialParams(1e200, -1e200)
    for bad in (float("nan"), float("inf"), -float("inf"), 1e200, -1e200, 1.3407807929942597e154):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            MaterialParams(**{**values, name: bad})
    # the largest float whose square is finite is admitted
    MaterialParams(**{**values, name: 1.3407807929942596e154})


def test_material_params_reject_an_overflowing_bending_density():
    # energy_and_gradient on icosphere(2) once returned E = inf and a
    # non-finite gradient for this set, after RuntimeWarnings
    with pytest.raises(
        ValueError,
        match=r"^beta and h0 must give a finite beta \* h0\*\*2 / 2, got beta=1e\+150, h0=1e\+150$",
    ):
        MaterialParams(1e150, 0.0, 1e150)
    # beta / 2 = 1 leaves the largest finite h0**2 finite; beta / 2 = 2 doubles it past the range
    h0 = -1.3407807929942596e154
    MaterialParams(2.0, 0.0, h0)
    with pytest.raises(ValueError, match="^beta and h0 must give a finite"):
        MaterialParams(4.0, 0.0, h0)
    # an admitted large set evaluates without a RuntimeWarning (an error here)
    E, grad = energy_and_gradient(shapes.icosphere(2), None, [MaterialParams(1e100, 0.0, 1e100)])
    assert np.isfinite(E) and np.isfinite(grad).all()


def test_material_params_reject_a_negative_beta():
    with pytest.raises(ValueError, match=r"^beta must be >= 0, got -1.0$"):
        MaterialParams(-1.0, 0.0)
