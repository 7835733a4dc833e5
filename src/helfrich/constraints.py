"""Constraint functionals: areas, volume, isoperimetric gate, phase overlap.

Phase measures are sampled at vertices with mixed-area weights. The
overlap between two phases is the weighted count of cross pairs closer
than epsilon,

    m(eps) = sum_{x in A} w_A(x) * sum_{y in B, |x-y| < eps} w_B(y),

accelerated by a uniform spatial hash. One hash of cell size max(eps)
collects the cross pairs closer than the largest radius once, and every
smaller radius of the gate masks the same pairs. Both phases are sorted
by cell: each occupied cell of A queries its neighbour cells once, the
candidates are read component-major from contiguous ranges of B, and A
is scanned in cell order in chunks of a fixed candidate budget, whose
survivors are put in (a, b) order by one integer key. Time is
O(candidates) and memory O(N_A + N_B + chunk), so the candidate count,
which grows quadratically under refinement at a fixed eps0, sets no
memory. Every measure is bitwise equal to the brute-force double loop.
The admissible scaling is m(eps) <= eps^3 / eps0 on (0, eps0):
surface-to-surface contact scales like eps^2 and fails, curve or point
contact scales like eps^3 and passes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .curvature import _cotan_vector, geometry
from .energy import vertex_phase_weights
from .errors import InsufficientSamples, NonPositiveTarget, PhaseCountMismatch, UnknownPhase
from .mesh import _columns

__all__ = [
    "ConstraintSet",
    "PhaseSupport",
    "phase_support",
    "isoperimetric_check",
    "overlap_measure",
    "no_overlap_check",
    "OverlapVerdict",
    "constraint_residuals",
    "ConstraintResiduals",
]


@dataclass(frozen=True)
class ConstraintSet:
    """Targets for the constrained minimization.

    area : target total area m (finite, > 0)
    volume : target enclosed volume e (finite, > 0)
    phase_areas : per-phase area targets, each finite and > 0, summing to
        ``area`` (optional)
    overlap_eps0 : threshold of the no-overlap condition (length units,
        finite and >= 0; 0 disables the gate)
    """

    area: float
    volume: float
    phase_areas: tuple = None
    overlap_eps0: float = 0.0

    def __post_init__(self):
        if not (self.area > 0 and self.volume > 0):
            raise NonPositiveTarget(f"need m, e > 0, got ({self.area}, {self.volume})")
        if np.isinf(self.area) or np.isinf(self.volume):
            raise NonPositiveTarget(f"need finite m, e, got ({self.area}, {self.volume})")
        if not (np.isfinite(self.overlap_eps0) and self.overlap_eps0 >= 0):
            raise ValueError(f"overlap_eps0 must be finite and >= 0, got {self.overlap_eps0}")
        if self.phase_areas is not None:
            pa = tuple(float(x) for x in self.phase_areas)
            object.__setattr__(self, "phase_areas", pa)
            if not all(0 < x < np.inf for x in pa):
                raise NonPositiveTarget(f"phase areas must be finite and > 0, got {pa}")
            if abs(sum(pa) - self.area) > 1e-9 * self.area:
                raise PhaseCountMismatch(
                    f"phase areas sum to {sum(pa)}, target total is {self.area}"
                )

    def check_phases(self, mesh, phases):
        """Raise PhaseCountMismatch unless there is one phase area target per phase, if any."""
        if self.phase_areas is None:
            return
        if phases is None:
            raise PhaseCountMismatch(f"{len(self.phase_areas)} phase area targets but no phase labels")
        phases.check(mesh)
        if len(self.phase_areas) != phases.n_phases:
            raise PhaseCountMismatch(f"{len(self.phase_areas)} phase targets for {phases.n_phases} phases")


def isoperimetric_check(m, e):
    """Admissibility of (area, volume): '(6 sqrt(pi) e)^(1/3) <= sqrt(m)'.

    Returns 'feasible', 'equality' (the round sphere, to a relative 1e-9),
    or 'infeasible'.
    """
    if not (m > 0 and e > 0):
        raise NonPositiveTarget(f"need m, e > 0, got ({m}, {e})")
    lhs = (6.0 * np.sqrt(np.pi) * e) ** (1.0 / 3.0)
    rhs = np.sqrt(m)
    if abs(lhs - rhs) <= 1e-9 * rhs:
        return "equality"
    return "feasible" if lhs < rhs else "infeasible"


@dataclass(frozen=True)
class PhaseSupport:
    """Weighted point sampling of a phase measure.

    points : (N, 3) positions
    weights : (N,) nonnegative mass weights (mixed areas)
    resolution : mesh length scale below which the sampling is atomic
    """

    points: np.ndarray
    weights: np.ndarray
    resolution: float

    def __post_init__(self):
        object.__setattr__(self, "points", np.ascontiguousarray(self.points, dtype=np.float64))
        object.__setattr__(self, "weights", np.ascontiguousarray(self.weights, dtype=np.float64))
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights length mismatch")

    @property
    def mass(self):
        return float(self.weights.sum())


def phase_support(mesh, phases, phase_id):
    """Vertex sampling of one phase's area measure.

    Vertices receive their mixed area times the fraction of incident face
    area in the phase; zero-weight vertices are dropped.

    Raises
    ------
    UnknownPhase
        If ``phase_id`` lies outside 1..n_phases.
    """
    if not 1 <= phase_id <= phases.n_phases:
        raise UnknownPhase(f"phase {phase_id} is not in 1..{phases.n_phases}")
    w = vertex_phase_weights(mesh, phases)[:, phase_id - 1] * geometry(mesh).a
    keep = w > 0
    return PhaseSupport(mesh.vertices[keep], w[keep], mesh.mean_edge_length)


# Candidate pairs per chunk of the overlap scan: a chunk's temporaries
# take a few MiB, whatever the supports' sizes and pair count.
_CANDIDATE_CHUNK = 1 << 15


def _cell_keys(points, eps, origin):
    cells = np.floor((points - origin) / eps).astype(np.int64)
    if cells.max(initial=0) >= (1 << 20):
        raise ValueError("radius too small for the grid extent")
    # nonnegative by construction of origin; pack three ints into one key
    return ((cells[:, 0] << 42) | (cells[:, 1] << 21) | cells[:, 2], cells)


def _overlap_measures(support_a, support_b, radii):
    """m(eps) for every eps in ``radii``, from one spatial hash.

    Both supports are hashed with cell size max(radii) and sorted by cell
    key. Each occupied cell of A looks up its 27 neighbour cells in B once,
    as 9 key ranges of 3 cells stacked in z, and every point of the cell
    takes the same ranges as its candidates. B is held as (3, N_B) rows in
    cell order, so a range is a contiguous slice, and d^2 is formed
    component-major as (dx^2 + dy^2) + dz^2, the order in which
    ``np.sum(axis=1)`` adds the (n, 3) differences of the brute force.

    A is scanned in cell order, in chunks of about ``_CANDIDATE_CHUNK``
    candidate pairs; a chunk ends between two points, possibly inside a
    cell, and holds at least one point. A chunk's pairs closer than the
    largest radius are sorted by the single key a * N_B + b, unique since
    each (a, b) pair lies in exactly one column, and each radius writes its
    per-a sums of w_B (``np.add.reduceat``) into its row of an (R, N_A)
    array. Every a keeps the b-ascending run of the brute-force kernel, and
    the final sum is its sum, so every measure is bitwise equal to it.
    Time is O(candidates); memory is O(N_A + N_B + chunk) at any pair count.
    """
    radii = np.asarray(radii, dtype=np.float64)
    pa, wa = support_a.points, support_a.weights
    pb, wb = support_b.points, support_b.weights
    if len(pa) == 0 or len(pb) == 0:
        return np.zeros(len(radii))
    eps = float(radii.max())
    origin = np.minimum(pa.min(axis=0), pb.min(axis=0)) - eps
    keys_b, _ = _cell_keys(pb, eps, origin)
    order_b = np.argsort(keys_b, kind="stable")
    keys_b_sorted = keys_b[order_b]
    rows_b = np.ascontiguousarray(pb[order_b].T)
    keys_a, cells_a = _cell_keys(pa, eps, origin)
    order_a = np.argsort(keys_a, kind="stable")
    keys_a_sorted = keys_a[order_a]
    rows_a = np.ascontiguousarray(pa[order_a].T)
    # first point of each occupied A cell, in cell order
    first = np.flatnonzero(np.r_[True, keys_a_sorted[1:] != keys_a_sorted[:-1]])
    cell_of = np.repeat(np.arange(len(first)), np.diff(np.r_[first, len(pa)]))
    cells = cells_a[order_a[first]]
    # lo[j], count[j]: each A cell's range of cell-sorted B in column j
    lo = np.empty((9, len(first)), dtype=np.int64)
    count = np.empty_like(lo)
    for j, (dx, dy) in enumerate(itertools.product((-1, 0, 1), repeat=2)):
        # z is the low field of the key and every cell index lies in
        # [1, 2^20), so the cells z-1, z, z+1 of one column are one key range
        key = ((cells[:, 0] + dx) << 42) | ((cells[:, 1] + dy) << 21) | cells[:, 2]
        lo[j] = np.searchsorted(keys_b_sorted, key - 1, side="left")
        count[j] = np.searchsorted(keys_b_sorted, key + 1, side="right") - lo[j]
    per_point = count.sum(axis=0)[cell_of]
    starts = np.cumsum(per_point) - per_point
    # chunk k takes the points whose candidates start in [k, k + 1) budgets
    cuts = np.searchsorted(starts, np.arange(_CANDIDATE_CHUNK, starts[-1] + per_point[-1], _CANDIDATE_CHUNK))
    sums = np.zeros((len(radii), len(pa)))
    for i0, i1 in itertools.pairwise(np.unique(np.r_[0, cuts, len(pa)])):
        cell = cell_of[i0:i1]
        ai, bi, d2 = _near_pairs(rows_a[:, i0:i1], rows_b, lo[:, cell], count[:, cell], eps * eps)
        ai, bi = order_a[i0 + ai], order_b[bi]
        # ascending (a, b) order makes the segment sums bitwise equal to the
        # brute-force masked sums
        order = np.argsort(ai * len(pb) + bi)
        ai, wb_pair, d2 = ai[order], wb[bi[order]], d2[order]
        for row, e in zip(sums, radii):
            hit = d2 < e * e
            a_hit = ai[hit]
            if len(a_hit):
                seg_start = np.flatnonzero(np.r_[True, a_hit[1:] != a_hit[:-1]])
                row[a_hit[seg_start]] = np.add.reduceat(wb_pair[hit], seg_start)
    return np.array([np.sum(wa * row) for row in sums])


def _near_pairs(rows_a, rows_b, lo, count, eps2):
    """Pairs closer than sqrt(eps2) between points of A (3, n) and cell-sorted B rows.

    Point i of A takes the B ranges ``lo[j, i]`` .. ``lo[j, i] + count[j, i]``,
    one per column j. Returns (a, b, d2): a indexes ``rows_a``, b the
    columns of ``rows_b``, column by column and, within one, in point order.
    """
    pairs_a, pairs_b, pairs_d2 = [], [], []
    for lo_j, count_j in zip(lo, count):
        has = np.flatnonzero(count_j)
        sizes = count_j[has]
        start = np.cumsum(sizes) - sizes
        # each candidate's index in cell-sorted B: its range's start plus
        # its offset in the range
        bpos = np.repeat(lo_j[has] - start, sizes)
        bpos += np.arange(len(bpos))
        sq = np.repeat(rows_a[:, has], sizes, axis=1)
        sq -= np.take(rows_b, bpos, axis=1)
        sq *= sq
        # x plus y, then z: the order in which np.sum(axis=1) adds an (n, 3) row
        d2 = sq[0] + sq[1]
        d2 += sq[2]
        # filtering each column's candidates keeps the pair list at the
        # size of the hits, not of the 27-cell neighbourhoods
        near = np.flatnonzero(d2 < eps2)
        pairs_a.append(np.repeat(has, sizes)[near])
        pairs_b.append(bpos[near])
        pairs_d2.append(d2[near])
    return np.concatenate(pairs_a), np.concatenate(pairs_b), np.concatenate(pairs_d2)


def overlap_measure(support_a, support_b, eps):
    """Product-measure mass of the eps-neighborhood of the diagonal.

    The one-radius case of the spatial-hash kernel ``no_overlap_check``
    uses: time O(candidates), memory O(N_A + N_B + chunk); bitwise equal
    to the O(N*M) double loop.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    return float(_overlap_measures(support_a, support_b, [eps])[0])


@dataclass(frozen=True)
class OverlapVerdict:
    """Outcome of the no-overlap scaling gate."""

    passed: bool
    slope: float  # NaN when fewer than two nonzero samples
    eps0: float
    radii: np.ndarray
    measures: np.ndarray
    bounds: np.ndarray


def no_overlap_check(support_a, support_b, eps0, n_eps=6):
    """Gate m(eps) <= eps^3 / eps0 on sampled radii, plus a slope fit.

    Radii are log-spaced in (eps_min, eps0), where eps_min is 1.5 times the
    coarser support's sampling resolution: below it the discrete measure is
    atomic and the scaling law is meaningless.

    Returns an :class:`OverlapVerdict`; the fitted exponent is the
    least-squares slope of log(measure) against log(eps) over nonzero
    samples (NaN if fewer than two).
    """
    if n_eps < 4:
        raise InsufficientSamples(f"need at least 4 radii, got {n_eps}")
    if not np.isfinite(eps0):
        raise ValueError(f"eps0 must be finite, got {eps0}")
    eps_min = 1.5 * max(support_a.resolution, support_b.resolution)
    if not 0 < eps_min < eps0:
        raise InsufficientSamples(
            f"empty radius range ({eps_min:g}, {eps0:g}); refine the supports or raise eps0"
        )
    radii = np.geomspace(eps_min, 0.999 * eps0, n_eps)
    measures = _overlap_measures(support_a, support_b, radii)
    bounds = radii**3 / eps0
    passed = bool((measures <= bounds).all())
    nz = measures > 0
    if nz.sum() >= 2:
        slope = float(np.polyfit(np.log(radii[nz]), np.log(measures[nz]), 1)[0])
    else:
        slope = float("nan")
    return OverlapVerdict(passed, slope, float(eps0), radii, measures, bounds)


class _Constraints:
    """Relative area/volume (and per-phase area) constraints with gradients."""

    def __init__(self, phases, cs):
        self.cs = cs
        self.phases = phases
        self.per_phase = cs.phase_areas is not None

    def values(self, mesh):
        geo = geometry(mesh)
        vals = []
        if self.per_phase:
            per = np.bincount(self.phases.labels - 1, weights=geo.area, minlength=len(self.cs.phase_areas))
            vals.extend(
                (float(per[i]) - t) / t for i, t in enumerate(self.cs.phase_areas)
            )
        else:
            vals.append((float(geo.area.sum()) - self.cs.area) / self.cs.area)
        vals.append((geo.volume - self.cs.volume) / self.cs.volume)
        return np.array(vals)

    def residuals(self, mesh, values):
        """:class:`ConstraintResiduals` of ``mesh`` from its :meth:`values`.

        The total-area residual is read from the mesh's geometry record.
        """
        *per_phase, volume = values.tolist()
        return ConstraintResiduals(
            area=(float(geometry(mesh).area.sum()) - self.cs.area) / self.cs.area,
            volume=volume,
            phase_areas=tuple(per_phase) if self.per_phase else (),
        )

    def gradients(self, mesh):
        """List of (V, 3) gradients matching :meth:`values`, from the geometry record.

        Area: grad A = L / 2, L the record's cotangent vector (Meyer,
        Desbrun, Schroeder & Barr 2003). The identity holds face by face,
        so a phase's area gradient is L / 2 summed over that phase's faces
        only.

        Volume: grad vol = Nv / 3, Nv the sum of the area vectors of the
        faces around a vertex; exact because every vertex star is closed.
        """
        geo = geometry(mesh)
        if self.per_phase:
            V, P = mesh.n_vertices, len(self.cs.phase_areas)
            # phase p's faces scatter into bins p * V .. p * V + V - 1
            bins = mesh._face_rows + V * (self.phases.labels - 1)
            L = _cotan_vector(bins, geo.cot, geo.e, P * V)
            grads = [(L[:, i * V : (i + 1) * V], 2.0 * t) for i, t in enumerate(self.cs.phase_areas)]
        else:
            grads = [(geo.L, 2.0 * self.cs.area)]
        grads.append((geo.nu * geo.Nv_norm, 3.0 * self.cs.volume))
        return [_columns(g / scale) for g, scale in grads]


@dataclass(frozen=True)
class ConstraintResiduals:
    """Relative residuals against a :class:`ConstraintSet`."""

    area: float
    volume: float
    phase_areas: tuple


def constraint_residuals(mesh, phases, cs):
    """Relative area/volume residuals of the mesh against ``cs``.

    The per-phase area and volume residuals are the optimizer's own
    :meth:`_Constraints.values`.
    """
    cs.check_phases(mesh, phases)
    con = _Constraints(phases, cs)
    return con.residuals(mesh, con.values(mesh))
