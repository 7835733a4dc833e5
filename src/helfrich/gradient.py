"""Analytic position gradient of the discrete total energy.

The energy is the one the ``energy`` module integrates:

    E(x) = sum_v a_v sum_p w_pv [ beta_p/2 (H_v - H0_p)^2 + gamma_p K_v ]
           + sum_{interface edges} (sigma_left + sigma_right) * length,

with every ingredient an explicit function of vertex positions: mixed
Voronoi areas (with the obtuse fallback branch), angle defects, the
cotangent mean-curvature vector projected on area-weighted normals (with
the umbilic reconciliation branch), and phase area fractions. The gradient
differentiates each branch analytically; the energy itself is continuous
across branch boundaries.

The forward quantities, face edges and phase split included, are read
from the mesh's stored geometry record (``curvature.geometry``), so an
energy evaluation followed by a gradient at the same positions computes
them once. Assembly is face-elemental on (3, F) component rows: each
face's three corner blocks are summed into (3, V) vertex rows with
``np.bincount`` (``mesh._scatter``), corner by corner and faces in index
order, so results are bitwise deterministic. The gradient is returned as
a C-contiguous (V, 3) array.
"""

from __future__ import annotations

import numpy as np

from .curvature import geometry
from .energy import _phase_split
from .errors import DegenerateConfiguration
from .mesh import _columns, _cross, _dot, _scatter

__all__ = ["energy_and_gradient", "total_energy"]


def _checked_geometry(mesh):
    geo = geometry(mesh)
    if not (geo.area > 0).all():
        i = int(np.argmin(geo.area > 0))
        raise DegenerateConfiguration(f"face {i} has area {geo.area[i]:.3g}")
    if not (geo.Nv_norm > 0).all():
        raise DegenerateConfiguration(f"vertex {int(np.argmin(geo.Nv_norm > 0))} has a vanishing normal")
    return geo


def _phase_data(mesh, phases, params_list, H, K):
    """Per-vertex G, G_H, G_K, per-(vertex,phase) weights and densities, and line terms.

    The line terms are the line-tension energy, the interface and its edge
    coefficients sigma_left + sigma_right. ``phases=None`` is the fast path.
    """
    w, iface = _phase_split(mesh, phases, params_list)
    beta, gamma, h0, sigma = (
        np.array([getattr(p, k) for p in params_list]) for k in ("beta", "gamma", "h0", "sigma")
    )
    coeff = sigma[iface.left - 1] + sigma[iface.right - 1]
    if w is None:
        G = 0.5 * beta[0] * (H - h0[0]) ** 2 + gamma[0] * K
        G_H, G_K, gp = beta[0] * (H - h0[0]), np.full(len(H), gamma[0]), G[:, None]
    else:
        gp = 0.5 * beta[None, :] * (H[:, None] - h0[None, :]) ** 2 + gamma[None, :] * K[:, None]
        G = np.einsum("vp,vp->v", w, gp)
        G_H = np.einsum("vp,vp->v", w, beta[None, :] * (H[:, None] - h0[None, :]))
        G_K = w @ gamma
    return G, G_H, G_K, w, gp, float(coeff @ iface.length), iface, coeff


def total_energy(mesh, phases, params_list):
    """Discrete total energy at the mesh's current positions (fast path)."""
    geo = _checked_geometry(mesh)
    G, *_, line, _, _ = _phase_data(mesh, phases, params_list, geo.H, geo.K)
    return float(geo.a @ G + line)


def energy_and_gradient(mesh, phases, params_list):
    """Total energy and its analytic gradient w.r.t. vertex positions.

    Returns ``(E, grad)`` with ``grad`` of shape (V, 3). ``phases=None``
    with a single parameter set is the single-phase fast path.

    Raises
    ------
    DegenerateConfiguration
        On zero-area faces or vanishing vertex normals.
    """
    geo = _checked_geometry(mesh)
    f, V = mesh._face_rows, mesh.n_vertices
    a, H, K, clamped, cot, nu, e, l2 = geo.a, geo.H, geo.K, geo.clamped, geo.cot, geo.nu, geo.e, geo.l2
    G, G_H, G_K, w, gp, line, iface, coeff = _phase_data(mesh, phases, params_list, H, K)
    E = float(a @ G + line)

    # per-vertex chain-rule coefficients against the primitives (h, d, a)
    coef_h = np.where(clamped, 0.0, G_H / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        clamp_d = np.where(clamped, a * G_H * H / (2.0 * geo.defect), 0.0)
    coef_d = np.where(clamped, clamp_d + G_K, G_K)
    coef_a = np.where(
        clamped,
        G - G_H * H / 2.0 - G_K * K,
        G - G_H * H - G_K * K,
    )

    # Face-local derivatives, as (3, F) component rows. Edge c runs from
    # corner c to corner c + 1 and faces corner c + 2. A term that moves
    # corner c by +ev[c] and corner c + 1 by -ev[c] is an edge term; q[c]
    # collects the coefficient of d theta_c and qA the coefficient of the
    # face area.
    nhat = 0.5 * _cross(e[0], -e[2]) / geo.area
    s_corner = coef_a[f]
    obtuse = geo.obtuse
    any_obt = obtuse.any(axis=0)
    h_v = coef_h * nu
    h_corner = [np.take(h_v, fc, axis=1) for fc in f]
    qcot = np.empty_like(cot)
    ev = []
    for c in range(3):
        n, far = (c + 1) % 3, (c + 2) % 3
        # mixed-area term on regular faces: (s_c + s_n) / 8 * |e_c|^2 cot_far
        t = np.where(any_obt, 0.0, (s_corner[c] + s_corner[n]) / 8.0)
        # cotangent-vector term <L, nu> through L
        dh = h_corner[c] - h_corner[n]
        qcot[far] = t * l2[c] - _dot(e[c], dh)
        ev.append(cot[far] * dh - (2.0 * t * cot[far]) * e[c])
    # defect term and d cot = -(1 + cot^2) d theta
    q = -coef_d[f] - (1.0 + cot**2) * qcot
    # d theta_c / d x_n = -nhat x e_c / |e_c|^2 and d theta_n / d x_c is its
    # negative, so edge c carries (q_c - q_n) nhat x e_c / |e_c|^2
    for c in range(3):
        g = _cross(nhat, e[c]) / l2[c]
        ev[c] += (q[c] - q[(c + 1) % 3]) * g

    # obtuse faces: area * (sum_c s_c * (1/2 if obtuse at c else 1/4))
    qA = np.where(any_obt, np.sum(s_corner * np.where(obtuse, 0.5, 0.25), axis=0), 0.0)
    # phase-area fraction term
    if w is not None:
        star_area = _scatter(f, (geo.area,) * 3, V)
        tau = a[:, None] * gp  # (V, P)
        tau_w = np.einsum("vp,vp->v", tau, w)
        lab = phases.labels - 1
        for vc in f:
            qA += (tau[vc, lab] - tau_w[vc]) / star_area[vc]
    # <L, nu> through the area-weighted normal: M . N_f with M the face sum
    P_L = geo.L - nu * _dot(nu, geo.L)
    m_v = (coef_h / geo.Nv_norm) * P_L
    m_f = [np.take(m_v, fc, axis=1) for fc in f]
    M = qA * nhat + m_f[0] + m_f[1] + m_f[2]
    # d(M . N_f)/d x_c = M x e_{c+1} / 2
    blocks = [0.5 * _cross(M, e[(c + 1) % 3]) + ev[c] - ev[(c + 2) % 3] for c in range(3)]
    grad = _scatter(f, blocks, V)

    # line tension
    if len(iface.edges):
        o, d = mesh.edges[iface.edges].T
        rows = mesh.vertices.T
        pull = coeff * ((rows[:, o] - rows[:, d]) / iface.length)
        grad += _scatter((o, d), (pull, -pull), V)

    grad = _columns(grad)
    return E, grad
