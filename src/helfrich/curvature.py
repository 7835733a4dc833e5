"""Per-vertex curvature fields on triangle meshes.

Every quantity comes from one forward geometry record per mesh position
(:func:`geometry`), which implements the mixed-Voronoi operators of Meyer,
Desbrun, Schroeder & Barr (2003), "Discrete Differential-Geometry
Operators for Triangulated 2-Manifolds". The energy, its gradient, the
curvature fields and ``TriMesh.angle_defects`` all read the same record;
it is built on first use and stored on the mesh instance, whose vertices
are read-only. The construction keeps the classical discrete estimators as
primaries and derives everything else from them so that the pointwise
tensor identities hold to rounding, not just to discretization error:

* mixed Voronoi area ``a`` (Meyer style, obtuse fallback),
* Gauss curvature ``K`` = angle defect / mixed area, so the global sum is
  exactly 2*pi*chi,
* scalar mean curvature ``H`` = cotangent mean-curvature vector projected
  on the area-weighted vertex normal,
* principal curvatures as the roots of ``t^2 - H t + K``; where the
  discriminant is negative (defect noise near umbilics makes K exceed
  H^2/4) H snaps to the nearest consistent value ``sign(H) * 2 sqrt(K)``,
* the mean curvature vector is stored as ``H * normal`` and the curvature
  tensors are assembled from the principal decomposition, so the trace,
  norm, and Gauss identities are exact by construction.

Principal directions come from a least-squares fit of normal variation
over the one-ring (Rusinkiewicz 2004). Its 3x3 normal equations have only
three distinct entries, so they are summed as per-vertex scalars and
solved in closed form; only the directions are used, the magnitudes still
come from (H, K).

Vector data in the record is component-major: face blocks are (3, F)
rows (edges ``e`` (3, 3, F)) and vertex vectors (3, V) rows, so every
stage works on contiguous rows. The row helpers of ``mesh`` keep the bits
the (F, 3) layout had: a 3-dot is (x0 y0 + x2 y2) + x1 y1 (einsum's
order), a norm sqrt((x0² + x1²) + x2²), and argmins over corners are
taken in face-major order. Per-vertex sums gather face-corner
contributions with ``np.bincount`` (``mesh._scatter``): corner row by
corner row, faces in index order within a row, so repeated runs are
bitwise deterministic. ``CurvatureField`` keeps (V, 3) arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateOneRing
from .mesh import _columns, _cross, _dot, _face_vectors, _norm, _scatter

__all__ = ["CurvatureField", "curvature_field"]

# Corner permutations of a (3, ...) face block: ``block[_PREV][c]`` is
# ``block[c - 1]`` and ``block[_NEXT][c]`` is ``block[c + 1]``.
_PREV, _NEXT = [2, 0, 1], [1, 2, 0]

# Below (_K_FLOOR_FACTOR / mean edge)^2 the defect is rounding noise and no
# umbilic reconciliation is attempted.
_K_FLOOR_FACTOR = 1e-7


class CurvatureField:
    """Vertex curvature data for a mesh; see :func:`curvature_field`.

    Attributes
    ----------
    mixed_area : (V,) ndarray
        Mixed Voronoi area weights; they partition the total mesh area.
    normal : (V, 3) ndarray
        Unit outward vertex normals (area-weighted).
    Hbar : (V, 3) ndarray
        Mean curvature vector, equal to ``H * normal``.
    H, K : (V,) ndarray
        Scalar mean and Gauss curvature. ``sum(K * mixed_area)`` is the
        total angle defect, exactly.
    kappa1, kappa2 : (V,) ndarray
        Principal curvatures, ``kappa1 >= kappa2``.
    direction1, direction2 : (V, 3) ndarray
        Principal directions (unit, tangent, orthogonal).
    shape_operator : (V, 3, 3) ndarray or None
        ``kappa1 d1 d1^T + kappa2 d2 d2^T``; None in scalars-only fields.
    clamped : (V,) bool ndarray
        Vertices where H was reconciled with K (negative discriminant).

    ``mixed_area``, ``H``, ``K`` and ``clamped`` are the read-only arrays
    of the mesh's geometry record, and ``normal`` a read-only (V, 3) copy
    of its (3, V) ``nu``.
    """

    def __init__(self, mesh, mixed_area, normal, H, K, kappa1, kappa2, clamped,
                 direction1=None, direction2=None, shape_operator=None):
        self.mesh = mesh
        self.mixed_area = mixed_area
        self.normal = normal
        self.H = H
        self.K = K
        self.Hbar = H[:, None] * normal
        self.kappa1 = kappa1
        self.kappa2 = kappa2
        self.clamped = clamped
        self.direction1 = direction1
        self.direction2 = direction2
        self.shape_operator = shape_operator
        self._II = None
        self._A = None

    @property
    def has_tensors(self):
        return self.shape_operator is not None

    def projection(self):
        """Tangential projections P = I - normal normal^T, shape (V, 3, 3)."""
        nu = self.normal
        return np.eye(3)[None] - nu[:, :, None] * nu[:, None, :]

    @property
    def second_fundamental_form(self):
        """II[v, i, j, k] = S[v, i, j] * normal[v, k]."""
        if self._II is None:
            if not self.has_tensors:
                raise ValueError("field was built with tensors=False")
            self._II = np.einsum("vij,vk->vijk", self.shape_operator, self.normal)
        return self._II

    @property
    def curvature_tensor(self):
        """A[v, i, j, k] = II[v, i, k, j] + II[v, i, j, k]; trace_j A[j,i,j] = Hbar_i."""
        if self._A is None:
            II = self.second_fundamental_form
            self._A = II.transpose(0, 1, 3, 2) + II
        return self._A

    def norm_A_squared(self):
        """Pointwise |A|^2 = 2 (kappa1^2 + kappa2^2), shape (V,)."""
        return 2.0 * (self.kappa1**2 + self.kappa2**2)


class _Geometry:
    """Forward geometry of one mesh position; see :func:`geometry`.

    Vector data is component-major: row k of a block holds component k
    of every face's or vertex's vector. Per face: the edge vectors ``e``
    (3, 3, F), ``e[c]`` running from corner c to corner c + 1, their
    squared lengths ``l2`` (3, F), corner cotangents ``cot`` (3, F), the
    ``obtuse`` corner mask (3, F) and ``area`` (F,); the gradients and
    ``energy.interface_kink`` read these and gather no face corners. Per
    vertex: mixed areas ``a``, angle defects ``defect``, the cotangent
    vector ``L`` (3, V), the unit normal ``nu`` (3, V) with ``Nv_norm``
    the length of the area-vector sum it normalizes, the unclamped
    ``H_raw``, the reconciled ``H``, ``K``, the ``clamped`` mask, and
    ``k_floor``. Scalars: the signed enclosed ``volume`` (divergence
    theorem, sum_f x_i . N_f / 3 with N_f the face area vector; exact for
    polyhedra), ``mean_edge`` (mean length over ``mesh.edges``),
    ``edge_ratio`` (longest over shortest edge) with ``short_edge_face``
    a face holding the shortest edge, and ``min_angle`` (the smallest
    corner angle, radians) with ``min_angle_face`` its face; both faces
    are the first in face-major order among ties.
    Corner angles and face area vectors are not kept: the record lives as
    long as its mesh. ``splits`` maps each ``energy.PhaseField`` to its
    phase split (``energy._split``). Every array is read-only.
    """

    def __init__(self, mesh):
        f, V = mesh._face_rows, mesh.n_vertices
        x0, e, N = _face_vectors(mesh.vertices, f)
        # ec[k, c] is component k of edge c
        ec = e.transpose(1, 0, 2)
        l2 = _dot(ec, ec)
        self.e, self.l2 = e, l2
        self.area = _norm(N)
        # one einsum over the face-major values keeps its summation order
        self.volume = float(np.einsum("i,i->", _columns(x0).ravel(), _columns(N).ravel()) / 3.0)
        # half-edge 3 f + c is e[c] of face f; twins have bitwise equal lengths
        lengths = _columns(np.sqrt(l2)).ravel()
        edge_lengths = np.empty(mesh.n_edges)
        edge_lengths[mesh._edge_of_halfedge] = lengths
        self.mean_edge = float(edge_lengths.mean())
        short = int(np.argmin(lengths))
        self.short_edge_face = short // 3
        self.edge_ratio = float(lengths.max() / max(lengths[short], 1e-300))
        # at corner c the edges are e[c] and -e[c - 1]; |e[c] x e[c - 1]| = 2 area
        dots = -_dot(ec, ec[:, _PREV])
        twice = 2.0 * self.area
        theta = np.arctan2(twice, dots)
        sharp = int(np.argmin(_columns(theta)))
        self.min_angle_face = sharp // 3
        self.min_angle = float(theta[sharp % 3, sharp // 3])
        cot = self.cot = dots / np.where(twice == 0, 1.0, twice)
        # Voronoi share of corner c: its two edges times the opposite cotangents
        corner_a = (l2 * cot[_PREV] + l2[_PREV] * cot[_NEXT]) / 8.0
        self.obtuse = theta > np.pi / 2.0
        any_obtuse = self.obtuse.any(axis=0)
        corner_a[:, any_obtuse] = np.where(self.obtuse[:, any_obtuse], 0.5, 0.25) * self.area[any_obtuse]
        self.a = _scatter(f, corner_a, V)
        self.defect = 2.0 * np.pi - _scatter(f, theta, V)
        self.L = _scatter(f, _cotan_corners(cot, e), V)
        Nv = _scatter(f, (N, N, N), V)
        self.Nv_norm = _norm(Nv)
        self.nu = Nv / np.where(self.Nv_norm == 0, 1.0, self.Nv_norm)
        self.H_raw = _dot(self.L, self.nu) / (2.0 * self.a)
        self.K = self.defect / self.a
        self.k_floor = (_K_FLOOR_FACTOR / self.mean_edge) ** 2
        sign = np.where(self.H_raw < 0, -1.0, 1.0)
        self.clamped = (self.K > self.k_floor) & (self.H_raw**2 < 4.0 * self.K)
        self.H = np.where(self.clamped, sign * 2.0 * np.sqrt(np.maximum(self.K, 0.0)), self.H_raw)
        self.splits = {}
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def _cotan_corners(cot, e):
    """Per-corner terms (3, 3, F) of the cotangent vector L of faces with edges ``e``.

    L_v = sum over edges (cot a + cot b)(x_v - x_w), a and b the corners
    facing the edge; edge c runs from corner c to c + 1 and faces corner
    c + 2. Scattered onto the face corners, the terms give L.
    """
    w = cot[_PREV, None] * e
    return w[_PREV] - w


def geometry(mesh):
    """The :class:`_Geometry` record of ``mesh``, built on first use.

    It is stored on the mesh instance; ``TriMesh.vertices`` is read-only
    and :meth:`TriMesh.with_vertices` does not copy it, so a stored record
    always matches its mesh's positions.
    """
    geo = mesh.__dict__.get("_geometry")
    if geo is None:
        geo = mesh._geometry = _Geometry(mesh)
    return geo


def _principal_curvatures(H, K):
    disc = np.sqrt(np.maximum(H**2 - 4.0 * K, 0.0))
    return (H + disc) / 2.0, (H - disc) / 2.0


def _tangent_bases(nu):
    """Unit tangents (V, 3) t1 = nu x e / |nu x e|, e the axis nu leans least on, and t2 = nu x t1."""
    smallest = np.argmin(np.abs(nu), axis=1)
    helper = np.zeros((3, len(nu)))
    helper[smallest, np.arange(len(nu))] = 1.0
    t1 = _cross(nu.T, helper)
    t1 /= _norm(t1)
    t2 = _cross(nu.T, t1)
    return _columns(t1), _columns(t2)


def _principal_directions(mesh, nu):
    """One-ring least-squares fit of normal variation; returns unit d1, d2.

    The fit of Rusinkiewicz, "Estimating Curvatures and Their Derivatives
    on Triangle Meshes" (3DPVT 2004), per vertex: in the tangent frame
    (t1, t2) each directed edge gives the neighbour offset (u1, u2) and the
    normal change (w1, w2), and the shape operator (s11, s12, s22) solves
    rows [u1, u2, 0] -> w1 and [0, u1, u2] -> w2 in the least-squares
    sense. Its normal equations M s = b have three distinct entries,
    M = [[A, B, 0], [B, A + C, B], [0, B, C]] with A, B, C the one-ring
    sums of u1^2, u1 u2, u2^2, so six per-vertex sums and Cramer's rule
    solve them, with det M = (A + C)(AC - B^2). Only the fitted directions
    are used downstream; the curvature magnitudes come from (H, K).
    """
    t1, t2 = _tangent_bases(nu)
    offsets, nbrs = mesh.vertex_neighbors()
    counts = np.diff(offsets)
    V = len(counts)
    src = np.repeat(np.arange(V), counts)  # the CSR is sorted by source
    u1, u2, w1, w2 = (np.zeros(len(nbrs)) for _ in range(4))
    # component by component, so no (E, 3) array is built
    for k in range(3):
        f1, f2 = np.repeat(t1[:, k], counts), np.repeat(t2[:, k], counts)
        for x, p1, p2 in ((mesh.vertices[:, k], u1, u2), (nu[:, k], w1, w2)):
            d = np.take(x, nbrs) - np.repeat(x, counts)
            p1 += d * f1
            p2 += d * f2

    def total(per_edge):
        return np.bincount(src, weights=per_edge, minlength=V)

    A, B, C = total(u1 * u1), total(u1 * u2), total(u2 * u2)
    b1, b2, b3 = total(u1 * w1), total(u2 * w1 + u1 * w2), total(u2 * w2)
    AC, BB, ApC = A * C, B * B, A + C
    det = ApC * (AC - BB)
    diag = 2.0 * ApC / 3.0  # mean of M's diagonal
    bad = np.abs(det) <= 1e-12 * np.maximum(diag, 1e-300) ** 3
    if bad.any():
        raise DegenerateOneRing(int(np.flatnonzero(bad)[0]))
    s11 = ((ApC * C - BB) * b1 - B * C * b2 + BB * b3) / det
    s12 = (AC * b2 - B * (C * b1 + A * b3)) / det
    s22 = (BB * b1 - A * B * b2 + (A * ApC - BB) * b3) / det
    finite = np.isfinite(s11) & np.isfinite(s12) & np.isfinite(s22)
    if not finite.all():
        raise DegenerateOneRing(int(np.flatnonzero(~finite)[0]))
    # closed-form 2x2 symmetric eigenvectors; (cos, sin) belongs to the
    # larger eigenvalue
    angle = 0.5 * np.arctan2(2.0 * s12, s11 - s22)
    c, sn = np.cos(angle)[:, None], np.sin(angle)[:, None]
    d1 = c * t1 + sn * t2
    d2 = -sn * t1 + c * t2
    return d1, d2


def curvature_field(mesh, tensors=True):
    """Compute all per-vertex curvature quantities of a mesh.

    Parameters
    ----------
    mesh : TriMesh
    tensors : bool
        Also fit principal directions and assemble the shape operator
        (needed for II, A, and the tensor energy path). The optimizer
        iterates on the geometry record (``geometry``); the scalars-only
        field serves ``minimize``'s final energy report and
        ``diagnostics.refinement_probe``.

    Raises
    ------
    DegenerateOneRing
        If H or K is not finite, or the one-ring fit is singular or produces
        non-finite values, at some vertex (the first such index is attached).
    """
    geo = geometry(mesh)
    H, K = geo.H, geo.K
    finite = np.isfinite(H) & np.isfinite(K)
    if not finite.all():
        raise DegenerateOneRing(int(np.flatnonzero(~finite)[0]))
    kappa1, kappa2 = _principal_curvatures(H, K)
    nu = _columns(geo.nu)
    nu.setflags(write=False)
    d1 = d2 = S = None
    if tensors:
        d1, d2 = _principal_directions(mesh, nu)
        S = kappa1[:, None, None] * np.einsum("vi,vj->vij", d1, d1) + kappa2[
            :, None, None
        ] * np.einsum("vi,vj->vij", d2, d2)
    return CurvatureField(
        mesh, geo.a, nu, H, K, kappa1, kappa2, geo.clamped,
        direction1=d1, direction2=d2, shape_operator=S,
    )
