"""Per-vertex curvature fields on triangle meshes.

Every quantity comes from one forward geometry record per mesh position
(:func:`geometry`), which implements the mixed-Voronoi operators of Meyer,
Desbrun, Schroeder & Barr (2003), "Discrete Differential-Geometry
Operators for Triangulated 2-Manifolds". The energy, its gradient and the
curvature fields all read the same record; it is built on first use and
stored on the mesh instance, whose vertices are read-only. The
construction keeps the classical discrete estimators as primaries and
derives everything else from them so that the pointwise tensor identities
hold to rounding, not just to discretization error:

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
order) and a norm sqrt((x0² + x1²) + x2²). Per-vertex sums gather face-corner
contributions with ``np.bincount`` (``mesh._scatter``): corner row by
corner row, faces in index order within a row, so repeated runs are
bitwise deterministic. ``CurvatureField`` keeps (V, 3) arrays.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DegenerateOneRing
from .mesh import _columns, _cross, _dot, _face_edges, _norm, _scatter

__all__ = ["CurvatureField", "curvature_field"]

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
    shape_operator : (V, 3, 3) ndarray
        ``kappa1 d1 d1^T + kappa2 d2 d2^T``, d1 and d2 the principal
        directions (unit, tangent, orthogonal).
    clamped : (V,) bool ndarray
        Vertices where H was reconciled with K (negative discriminant).

    ``mixed_area``, ``H``, ``K`` and ``clamped`` are the read-only arrays
    of the mesh's geometry record, and ``normal`` a read-only (V, 3) copy
    of its (3, V) ``nu``. The directions and the tensors are computed on
    first read and kept, so the one-ring fit runs at most once per field
    and only if something reads them; a singular fit raises
    ``DegenerateOneRing`` at that first read.
    """

    def __init__(self, mesh):
        geo = geometry(mesh)
        H, K = geo.H, geo.K
        finite = np.isfinite(H) & np.isfinite(K)
        if not finite.all():
            raise DegenerateOneRing(int(np.flatnonzero(~finite)[0]))
        self.mesh = mesh
        self.mixed_area, self.H, self.K, self.clamped = geo.a, H, K, geo.clamped
        self.normal = _columns(geo.nu)
        self.normal.setflags(write=False)
        self.Hbar = H[:, None] * self.normal
        self.kappa1, self.kappa2 = _principal_curvatures(H, K)

    @cached_property
    def _directions(self):
        return _principal_directions(self.mesh, self.normal)

    @cached_property
    def shape_operator(self):
        d1, d2 = self._directions
        return self.kappa1[:, None, None] * np.einsum("vi,vj->vij", d1, d1) + self.kappa2[
            :, None, None
        ] * np.einsum("vi,vj->vij", d2, d2)

    def projection(self):
        """Tangential projections P = I - normal normal^T, shape (V, 3, 3)."""
        nu = self.normal
        return np.eye(3)[None] - nu[:, :, None] * nu[:, None, :]

    @cached_property
    def second_fundamental_form(self):
        """II[v, i, j, k] = S[v, i, j] * normal[v, k]."""
        return np.einsum("vij,vk->vijk", self.shape_operator, self.normal)

    @cached_property
    def curvature_tensor(self):
        """A[v, i, j, k] = II[v, i, k, j] + II[v, i, j, k]; trace_j A[j,i,j] = Hbar_i."""
        II = self.second_fundamental_form
        return II.transpose(0, 1, 3, 2) + II

    def norm_A_squared(self):
        """Pointwise |A|^2 = 2 (kappa1^2 + kappa2^2), shape (V,)."""
        return 2.0 * (self.kappa1**2 + self.kappa2**2)


class _Geometry:
    """Forward geometry of one mesh position; see :func:`geometry`.

    Vector data is component-major: row k of a block holds component k
    of every face's or vertex's vector. Per face: the edge vectors ``e``
    (3, 3, F), ``e[c]`` running from corner c to corner c + 1, their
    squared lengths ``l2`` (3, F), corner cotangents ``cot`` (3, F), the
    ``obtuse`` corner mask (3, F) and ``area`` (F,); the gradients read
    these and gather no face corners. Per
    vertex: mixed areas ``a``, angle defects ``defect``, the cotangent
    vector ``L`` (3, V), the unit normal ``nu`` (3, V) with ``Nv_norm``
    the length of the area-vector sum it normalizes, the unclamped
    ``H_raw``, the reconciled ``H``, ``K``, the ``clamped`` mask, and
    ``k_floor``. Scalars: the signed enclosed ``volume`` (divergence
    theorem, sum_f x_i . N_f / 3 with N_f the face area vector; exact for
    polyhedra), ``mean_edge`` (mean length over ``mesh.edges``, read from
    the (3, F) length rows at the positions ``mesh._edge_half``, in edge
    order), ``edge_ratio`` (longest over shortest edge) with
    ``short_edge_face`` a face holding the shortest edge, and
    ``min_angle`` (the smallest corner angle, radians) with
    ``min_angle_face`` its face. Both faces come from per-face minima
    over the three corner rows; among ties the first face wins, the face
    an argmin over the face-major (F, 3) values picks.
    Corner angles and face area vectors are not kept: the record lives as
    long as its mesh. ``splits`` maps each ``energy.PhaseField`` to its
    phase split (``energy._split``). Every array is read-only.

    It keeps about 180 bytes per face (``e``, ``l2``, ``cot``, ``obtuse``,
    ``area`` and the vertex rows), and its build holds about 60 more at
    its peak: each face-sized intermediate lives in the helper that reads
    it last and is freed on its return. The area vectors die once the
    area, the normals and the volume are read, the corner angles once the
    cotangents, the defects and the obtuse mask are, the corner areas once
    they are scattered, and the cotangent vector is scattered one (3, F)
    corner block at a time.
    """

    def __init__(self, mesh):
        f, V = mesh._face_rows, mesh.n_vertices
        self.e = e = _face_edges(mesh.vertices, f)
        self._area_vectors(mesh)
        # ec[k, c] is component k of edge c
        ec = e.transpose(1, 0, 2)
        self.l2 = _dot(ec, ec)
        self._edge_lengths(mesh)
        self._angles(f, V)
        self._mixed_areas(f, V)
        self.L = _cotan_vector(f, self.cot, e, V)
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

    def _area_vectors(self, mesh):
        """``area``, ``volume``, ``nu`` and ``Nv_norm`` from the face area vectors N = e[2] x e[0] / 2.

        e[2] x e[0] is bitwise e[0] x -e[2], without the negated copy.
        """
        f = mesh._face_rows
        N = _cross(self.e[2], self.e[0])
        N *= 0.5
        self.area = _norm(N)
        Nv = _scatter(f, (N, N, N), mesh.n_vertices)
        self.Nv_norm = _norm(Nv)
        self.nu = Nv / np.where(self.Nv_norm == 0, 1.0, self.Nv_norm)
        # one einsum over the face-major values keeps its summation order
        x0 = mesh.vertices.take(f[0], axis=0)
        self.volume = float(np.einsum("i,i->", x0.ravel(), _columns(N).ravel()) / 3.0)

    def _edge_lengths(self, mesh):
        """``mean_edge``, ``edge_ratio`` and ``short_edge_face`` from the (3, F) edge lengths."""
        lengths = np.sqrt(self.l2)
        # twins have bitwise equal lengths; the half-edges come in edge order
        self.mean_edge = float(np.take(lengths, mesh._edge_half).mean())
        # per-face minima: argmin picks the first face among ties, as an
        # argmin over the face-major (F, 3) values does
        shortest = lengths.min(axis=0)
        self.short_edge_face = int(np.argmin(shortest))
        self.edge_ratio = float(lengths.max() / max(shortest[self.short_edge_face], 1e-300))

    def _angles(self, f, V):
        """``cot``, ``obtuse``, ``defect``, ``min_angle`` and ``min_angle_face`` from the corner angles."""
        e = self.e
        # at corner c the edges are e[c] and -e[c - 1]; |e[c] x e[c - 1]| = 2 area
        cot = np.empty_like(self.l2)
        for c in range(3):
            np.negative(_dot(e[c], e[c - 1]), out=cot[c])
        twice = 2.0 * self.area
        theta = np.arctan2(twice, cot)
        sharpest = theta.min(axis=0)
        self.min_angle_face = int(np.argmin(sharpest))
        self.min_angle = float(sharpest[self.min_angle_face])
        # the dot products become the cotangents in place
        cot /= np.where(twice == 0, 1.0, twice)
        self.cot = cot
        self.obtuse = theta > np.pi / 2.0
        self.defect = 2.0 * np.pi - _scatter(f, theta, V)

    def _mixed_areas(self, f, V):
        """Mixed Voronoi areas ``a`` (V,) from the corner areas (3, F)."""
        l2, cot, obtuse = self.l2, self.cot, self.obtuse
        # Voronoi share of corner c: its two edges times the opposite
        # cotangents, l2[c] cot[c - 1] + l2[c - 1] cot[c + 1]
        share = [l2[c] * cot[c - 1] for c in range(3)]
        corner_a = np.empty_like(l2)
        for c in range(3):
            np.add(share[c], share[c - 1], out=corner_a[c])
        corner_a /= 8.0
        any_obtuse = obtuse.any(axis=0)
        corner_a[:, any_obtuse] = np.where(obtuse[:, any_obtuse], 0.5, 0.25) * self.area[any_obtuse]
        self.a = _scatter(f, corner_a, V)


def _cotan_vector(index, cot, e, n):
    """Cotangent vector L (3, n) of faces with edges ``e``, corner c of face r in bin ``index[c, r]``.

    L_v = sum over edges (cot a + cot b)(x_v - x_w), a and b the corners
    facing the edge; edge c runs from corner c to c + 1 and faces corner
    c + 2, so corner c takes cot[c - 2] e[c - 1] - cot[c - 1] e[c]. The
    corners are built and summed one at a time, in ``mesh._scatter``'s
    order, so one (3, F) corner block is alive at a time.
    """
    L = np.zeros((3, n))
    for c in range(3):
        corner = cot[c - 2] * e[c - 1]
        corner -= cot[c - 1] * e[c]
        for row, weights in zip(L, corner):
            row += np.bincount(index[c], weights=weights, minlength=n)
    return L


def geometry(mesh):
    """The :class:`_Geometry` record of ``mesh``, built on first use.

    It is stored on the mesh instance; ``TriMesh.vertices`` is the mesh's
    own read-only copy and :meth:`TriMesh.with_vertices` does not carry the
    record over, so a stored record always matches its mesh's positions.
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

    det M is a sixth power of length, so the offsets are taken in units of
    2^e, e the binary exponent of max|x|: the singular-fit test then holds
    at every scale a mesh can be built at, and the directions keep their bits.
    """
    t1, t2 = _tangent_bases(nu)
    x = np.ldexp(mesh.vertices, -np.frexp(np.abs(mesh.vertices).max())[1])
    offsets, nbrs = mesh.vertex_neighbors()
    counts = np.diff(offsets)
    V = len(counts)
    src = np.repeat(np.arange(V), counts)  # the CSR is sorted by source
    u1, u2, w1, w2 = (np.zeros(len(nbrs)) for _ in range(4))
    # component by component, so no (E, 3) array is built
    for k in range(3):
        f1, f2 = np.repeat(t1[:, k], counts), np.repeat(t2[:, k], counts)
        for xk, p1, p2 in ((x[:, k], u1, u2), (nu[:, k], w1, w2)):
            d = np.take(xk, nbrs) - np.repeat(xk, counts)
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


def curvature_field(mesh, tensors=None):
    """The :class:`CurvatureField` of a mesh.

    The scalars come from the geometry record (``geometry``); the
    principal directions and the tensors II and A are computed on first
    read. ``tensors`` is ignored: it is kept for callers that still pass it.

    Raises
    ------
    DegenerateOneRing
        If H or K is not finite at some vertex (the first such index is
        attached). Reading the directions or the tensors raises it too if
        the one-ring fit is singular or produces non-finite values.
    """
    return CurvatureField(mesh)
