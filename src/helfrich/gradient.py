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
from the mesh's stored geometry record (``curvature.geometry``); E is
computed in one place, ``_energy_pass``, with the terms ``_gradient``
continues from, so each position's energy terms are computed once.
Assembly is face-elemental on component rows. The per-vertex chain-rule
coefficients are built once for the whole mesh; the face-local stage
then runs over consecutive slices of ``_FACE_BLOCK`` faces, so its
temporaries are (3, n) rows of one slice, not (3, F) rows of the whole
mesh. Every step inside a slice is elementwise per face or a gather, so
the slice size cannot change a bit. Each corner block of a slice goes
straight into per-corner vertex sums, one (V,) row per corner and
component, with ``np.add.at``: it adds faces in index order from +0.0,
as ``np.bincount`` does, and the slices arrive in order, so each corner
row is bitwise ``mesh._scatter``'s and the gradient row, (corner 0 +
corner 1) + corner 2, is too. Results are bitwise deterministic. The
gradient is returned as a C-contiguous (V, 3) array.

Per-(vertex, phase) arrays (the phase densities, the G_H factors, the
phase-area fraction table) are C-contiguous (V, P) arrays filled one
phase column at a time, each column an elementwise expression of
(V,) rows, so no broadcast runs an inner loop of length P. Every sum
over a vertex's phases (``einsum("vp,vp->v")``, ``w @ gamma``) reads
these (V, P) arrays as numpy would read the broadcasts they replace, so
the summation order, and with it every bit, is the same at any phase
count. The face slices read the fraction table with one flat ``take``
per corner, at ``v * P + label``.
"""

from __future__ import annotations

import numpy as np

from .curvature import geometry
from .energy import _phase_split
from .errors import DegenerateConfiguration
from .mesh import _columns, _cross, _dot, _scatter, _vdot

__all__ = ["energy_and_gradient"]

# Faces per slice of the gradient's face-local stage: a (3, n) row block
# of a slice is 192 KiB, so the stage's temporaries take about 5 MiB at
# any mesh size.
_FACE_BLOCK = 1 << 13


def _energy_pass(mesh, phases, params_list):
    """Energy at the mesh's current positions and the terms its gradient continues from.

    Returns ``(E, terms)``, terms the per-vertex G, G_H, G_K, the
    per-(vertex, phase) weights and densities, the interface and its edge
    coefficients sigma_left + sigma_right. ``phases=None`` is the fast path.
    Raises DegenerateConfiguration on zero-area faces or vanishing normals.
    """
    geo = geometry(mesh)
    if not (geo.area > 0).all():
        i = int(np.argmin(geo.area > 0))
        raise DegenerateConfiguration(f"face {i} has area {geo.area[i]:.3g}")
    if not (geo.Nv_norm > 0).all():
        raise DegenerateConfiguration(f"vertex {int(np.argmin(geo.Nv_norm > 0))} has a vanishing normal")
    H, K = geo.H, geo.K
    w, iface = _phase_split(mesh, phases, params_list)
    beta, gamma, h0, sigma = (
        np.array([getattr(p, k) for p in params_list]) for k in ("beta", "gamma", "h0", "sigma")
    )
    coeff = sigma[iface.left - 1] + sigma[iface.right - 1]
    if w is None:
        G = 0.5 * beta[0] * (H - h0[0]) ** 2 + gamma[0] * K
        G_H, G_K, gp = beta[0] * (H - h0[0]), np.full(len(H), gamma[0]), G[:, None]
    else:
        # phase densities and G_H factors, one phase column at a time
        gp, gh = np.empty(w.shape), np.empty(w.shape)
        for p in range(w.shape[1]):
            dH = H - h0[p]
            np.multiply(beta[p], dH, out=gh[:, p])
            gp[:, p] = 0.5 * beta[p] * dH**2 + gamma[p] * K
        G = np.einsum("vp,vp->v", w, gp)
        G_H = np.einsum("vp,vp->v", w, gh)
        G_K = w @ gamma
    E = float(_vdot(geo.a, G) + _vdot(coeff, iface.length))
    return E, (G, G_H, G_K, w, gp, iface, coeff)


def energy_and_gradient(mesh, phases, params_list):
    """Total energy and its analytic gradient w.r.t. vertex positions.

    Returns ``(E, grad)`` with ``grad`` of shape (V, 3). ``phases=None``
    with a single parameter set is the single-phase fast path.

    Raises
    ------
    DegenerateConfiguration
        On zero-area faces or vanishing vertex normals.
    """
    E, terms = _energy_pass(mesh, phases, params_list)
    return E, _gradient(mesh, phases, terms)


def _gradient(mesh, phases, terms):
    """Analytic gradient (V, 3) at the positions where :func:`_energy_pass` gave ``terms``."""
    geo = geometry(mesh)
    f, V, F = mesh._face_rows, mesh.n_vertices, mesh.n_faces
    a, H, K, clamped, nu = geo.a, geo.H, geo.K, geo.clamped, geo.nu
    G, G_H, G_K, w, gp, iface, coeff = terms

    # per-vertex chain-rule coefficients against the primitives (h, d, a)
    coef_h = np.where(clamped, 0.0, G_H / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        clamp_d = np.where(clamped, a * G_H * H / (2.0 * geo.defect), 0.0)
    coef_d = np.where(clamped, clamp_d + G_K, G_K)
    del clamp_d
    coef_a = np.where(
        clamped,
        G - G_H * H / 2.0 - G_K * K,
        G - G_H * H - G_K * K,
    )
    h_v = coef_h * nu
    # <L, nu> through the area-weighted normal: its face term is M . N_f,
    # M the face sum of m_v = coef_h / |N_v| * (L - nu <nu, L>)
    m_v = geo.L - nu * _dot(nu, geo.L)
    m_v *= coef_h / geo.Nv_norm
    del coef_h
    if w is not None:
        # phase-area fraction term: the (V, P) table
        # (tau_vp - tau_w_v) / star_area_v, tau = a * gp, built in place
        P = w.shape[1]
        star_area = _scatter(f, (geo.area,) * 3, V)
        frac = np.empty(w.shape)
        for p in range(P):
            np.multiply(a, gp[:, p], out=frac[:, p])
        tau_w = np.einsum("vp,vp->v", frac, w)
        for p in range(P):
            col = frac[:, p]
            col -= tau_w
            col /= star_area
        del star_area, tau_w
        frac = frac.ravel()

    # Face-local derivatives, one slice of faces at a time, as (3, n)
    # component rows. Edge c runs from corner c to corner c + 1 and faces
    # corner c + 2. A term that moves corner c by +ev[c] and corner c + 1
    # by -ev[c] is an edge term; q[c] collects the coefficient of
    # d theta_c and qA the coefficient of the face area. Each corner block
    # is formed in ``buf`` and added at once into acc[c][k], the sum over
    # corner c of component k.
    acc = [[np.zeros(V) for _ in range(3)] for _ in range(3)]
    buf = np.empty((3, min(F, _FACE_BLOCK)))
    for lo in range(0, F, _FACE_BLOCK):
        sl = slice(lo, lo + _FACE_BLOCK)
        fs, e, l2, cot = f[:, sl], geo.e[:, :, sl], geo.l2[:, sl], geo.cot[:, sl]
        obtuse = geo.obtuse[:, sl]
        nhat = _cross(e[0], -e[2])
        nhat *= 0.5
        nhat /= geo.area[sl]
        s_corner = coef_a.take(fs)
        any_obt = obtuse.any(axis=0)
        # h_corner[:, c] holds h_v at corner c
        h_corner = np.take(h_v, fs, axis=1)
        qcot = np.empty_like(cot)
        ev = []
        for c in range(3):
            n, far = (c + 1) % 3, (c + 2) % 3
            # mixed-area term on regular faces: (s_c + s_n) / 8 * |e_c|^2 cot_far
            t = np.where(any_obt, 0.0, (s_corner[c] + s_corner[n]) / 8.0)
            # cotangent-vector term <L, nu> through L
            dh = h_corner[:, c] - h_corner[:, n]
            np.subtract(t * l2[c], _dot(e[c], dh), out=qcot[far])
            dh *= cot[far]
            t *= 2.0
            t *= cot[far]
            dh -= t * e[c]
            ev.append(dh)
        # defect term and d cot = -(1 + cot^2) d theta
        q = -coef_d.take(fs)
        q -= (1.0 + cot**2) * qcot
        # d theta_c / d x_n = -nhat x e_c / |e_c|^2 and d theta_n / d x_c is
        # its negative, so edge c carries (q_c - q_n) nhat x e_c / |e_c|^2
        for c in range(3):
            g = _cross(nhat, e[c])
            g /= l2[c]
            g *= q[c] - q[(c + 1) % 3]
            ev[c] += g

        # obtuse faces: area * (sum_c s_c * (1/2 if obtuse at c else 1/4))
        qA = np.where(any_obt, np.sum(s_corner * np.where(obtuse, 0.5, 0.25), axis=0), 0.0)
        if w is not None:
            lab = phases.labels[sl] - 1
            for vc in fs:
                qA += frac.take(vc * P + lab)
        m_f = np.take(m_v, fs, axis=1)
        M = qA * nhat
        for c in range(3):
            M += m_f[:, c]
        # d(M . N_f)/d x_c = M x e_{c+1} / 2
        for c in range(3):
            out = _cross(M, e[(c + 1) % 3], out=buf[:, : fs.shape[1]])
            out *= 0.5
            out += ev[c]
            out -= ev[(c + 2) % 3]
            for k in range(3):
                np.add.at(acc[c][k], fs[c], out[k])
    # coef_a, coef_d, h_v and m_v live until here: freed before the sums,
    # they let glibc trim the heap, and a fresh-process minimize paid ten
    # times the page faults to map it back on the next call
    grad = np.empty((3, V))
    for k in range(3):
        np.add(acc[0][k], acc[1][k], out=grad[k])
        grad[k] += acc[2][k]

    # line tension, summed over the interface's end vertices only: grad
    # holds no -0.0 (its sums start from +0.0), so adding +0.0 elsewhere,
    # as a full (3, V) scatter would, changes no bit
    if len(iface.edges):
        o, d = mesh.edges[iface.edges].T
        rows = mesh.vertices.T
        pull = coeff * ((rows[:, o] - rows[:, d]) / iface.length)
        ends, slot = np.unique(np.r_[o, d], return_inverse=True)
        grad[:, ends] += _scatter(slot.reshape(2, -1), (pull, -pull), len(ends))

    return _columns(grad)
