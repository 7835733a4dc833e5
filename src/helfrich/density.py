"""Pointwise bending energy density, its Hessian, and coercivity constants.

The density acts on a unit normal and a third-order curvature tensor:

    f(nu, A) = sum_i [ beta/2 (t_i - nu_i H0)^2 + gamma/2 t_i^2
                       - gamma/4 sum_{jk} A_ijk^2 ],      t_i = sum_j A_jij.

Restricted to the nine entries A_{j,i,k} with fixed middle index i, f is a
quadratic with a 9x9 Hessian whose eigenvalues are (6 beta + 5 gamma)/2
(once) and -gamma/2 (eight times); it is positive definite exactly on the
window -6/5 beta < gamma < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonUnitNormal, NotConvex

__all__ = [
    "MaterialParams",
    "f_ch",
    "hessian",
    "HessianResult",
    "convexity_check",
    "coercivity_constants",
]

# |lambda| below this (relative to beta, |gamma|) counts as the window edge
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class MaterialParams:
    """Material constants of one membrane phase.

    beta : bending rigidity (> 0, energy units)
    gamma : Gaussian rigidity (energy units)
    h0 : spontaneous curvature (1/length)
    sigma : line tension (energy/length); used only by multiphase energies
    phase_id : small integer label

    A non-finite constant, or one whose square overflows (|x| above
    about 1.34e154), raises ValueError: the energies and the coercivity
    constants square each of them. So does a pair whose beta * h0**2 / 2,
    the bending density at zero mean curvature, overflows.
    """

    beta: float
    gamma: float
    h0: float = 0.0
    sigma: float = 0.0
    phase_id: int = 1

    def __post_init__(self):
        for name in ("beta", "gamma", "h0", "sigma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if not math.isfinite(float(value) * float(value)):  # inf on overflow; ** would raise
                raise ValueError(f"{name} must be finite with a finite square, got {value}")
        # beta = 0 is admitted so the pure Gauss term can be evaluated; the
        # convexity window then rejects it where convexity matters
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        # in the energy pass's order, 0.5 * beta * (H - h0)**2
        if not math.isfinite(0.5 * float(self.beta) * (float(self.h0) * float(self.h0))):
            raise ValueError(
                f"beta and h0 must give a finite beta * h0**2 / 2, got beta={self.beta}, h0={self.h0}"
            )

    @property
    def strictly_convex(self):
        """True iff -6/5 beta < gamma < 0."""
        return convexity_check(self) == "strictly_convex"


@dataclass(frozen=True)
class HessianResult:
    matrix: np.ndarray
    eigenvalues_closed_form: np.ndarray
    eigenvalues_numeric: np.ndarray


def f_ch(nu, A, params):
    """Evaluate the bending density at one point or a batch.

    Parameters
    ----------
    nu : (3,) or (V, 3) array_like
        Unit normal(s); |nu| must equal 1 to 1e-9.
    A : (3, 3, 3) or (V, 3, 3, 3) array_like
        Curvature tensor(s).
    params : MaterialParams

    Returns
    -------
    float or (V,) ndarray
    """
    nu = np.asarray(nu, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    single = nu.ndim == 1
    nu2 = nu[None] if single else nu
    A2 = A[None] if single else A
    norms = np.linalg.norm(nu2, axis=1)
    if np.abs(norms - 1.0).max() > 1e-9:
        raise NonUnitNormal(f"|nu| deviates from 1 by {np.abs(norms - 1.0).max():g}")
    trace = np.einsum("vjij->vi", A2)
    beta, gamma, h0 = params.beta, params.gamma, params.h0
    val = (
        0.5 * beta * np.sum((trace - h0 * nu2) ** 2, axis=1)
        + 0.5 * gamma * np.sum(trace**2, axis=1)
        - 0.25 * gamma * np.einsum("vijk,vijk->v", A2, A2)
    )
    return float(val[0]) if single else val


def hessian(params):
    """Exact 9x9 Hessian of the quadratic part, plus both eigenvalue routes.

    The nine coordinates are the entries A_{j,i,k} for one fixed middle
    index i, ordered (11, 22, 33, 12, 13, 23, 21, 31, 32) in (j, k).
    """
    beta, gamma = params.beta, params.gamma
    H = np.zeros((9, 9))
    H[:3, :3] = beta + gamma
    np.fill_diagonal(H[:3, :3], (2.0 * beta + gamma) / 2.0)
    np.fill_diagonal(H[3:, 3:], -gamma / 2.0)
    closed = np.sort(np.concatenate([[(6.0 * beta + 5.0 * gamma) / 2.0], np.full(8, -gamma / 2.0)]))
    numeric = np.linalg.eigvalsh(H)
    return HessianResult(H, closed, numeric)


def convexity_check(params):
    """Classify the window: 'strictly_convex', 'boundary', or 'nonconvex'.

    Uses the closed-form eigenvalues; a relative band of 1e-12 around zero
    counts as 'boundary'.
    """
    beta, gamma = params.beta, params.gamma
    lam1 = (6.0 * beta + 5.0 * gamma) / 2.0
    lam2 = -gamma / 2.0
    scale = max(abs(beta), abs(gamma), 1e-300)
    lam_min = min(lam1, lam2)
    if abs(lam_min) <= _BOUNDARY_TOL * scale:
        return "boundary"
    return "strictly_convex" if lam_min > 0 else "nonconvex"


def coercivity_constants(params):
    """Explicit (c1, c2) with f(nu, A) >= |A|^2 / c1 - c2 for all inputs.

    With lam_min = min((6 beta + 5 gamma)/2, -gamma/2) the quadratic part
    dominates lam_min/2 |A|^2; absorbing the linear spontaneous-curvature
    term by Young's inequality with parameter lam_min/4 gives

        c1 = 4 / lam_min,
        c2 = beta H0^2 / 2 + 6 beta^2 H0^2 / lam_min.

    Raises
    ------
    NotConvex
        If the parameters are not strictly convex.
    """
    if convexity_check(params) != "strictly_convex":
        raise NotConvex(f"(beta, gamma) = ({params.beta}, {params.gamma}) not strictly convex")
    beta, gamma, h0 = params.beta, params.gamma, params.h0
    lam_min = min((6.0 * beta + 5.0 * gamma) / 2.0, -gamma / 2.0)
    c1 = 4.0 / lam_min
    c2 = beta * h0**2 / 2.0 + 6.0 * beta**2 * h0**2 / lam_min
    return c1, c2
