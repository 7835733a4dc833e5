"""Constraint functionals: areas, volume, isoperimetric gate, phase overlap.

Phase measures are sampled at vertices with mixed-area weights. The
overlap between two phases is the weighted count of cross pairs closer
than epsilon,

    m(eps) = sum_{x in A} w_A(x) * sum_{y in B, |x-y| < eps} w_B(y),

accelerated by a uniform spatial hash. One hash of cell size max(eps)
collects the cross pairs closer than the largest radius once. B is
sorted by grid column, then by z. Each occupied cell of A queries its
neighbour columns once; only the live points of A, those of cells with
some B in reach, go on, and each narrows every column to the window of
B within max(eps) of it in z. The candidates are read component-major
from these contiguous windows, and the live points are scanned in cell
order in chunks of a fixed candidate budget, whose survivors are put in
(a, b) order by one integer key. The radii are then taken largest
first, each filtering the survivors of the one before. Time is
O(candidates) and memory O(N_A + N_B + n_live + chunk), so the candidate
count, which grows quadratically under refinement at a fixed eps0, sets
no memory. Every measure is bitwise equal to the brute-force double loop.
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
        finite and >= 0 with a finite cube; 0 disables the gate)
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
        _check_eps0(self.overlap_eps0)
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


def _check_eps0(eps0):
    """Raise ValueError naming overlap_eps0 unless ``eps0 ** 3`` is a finite float.

    The gate compares d^2 with eps^2 and m(eps) with eps^3 / eps0 for
    radii eps < eps0, so with a finite cube (eps0 below about 5.6e102)
    none of them overflows.
    """
    with np.errstate(over="ignore"):
        cube = np.float64(eps0) ** 3
    if not np.isfinite(cube):
        raise ValueError(f"overlap_eps0 must be finite with a finite cube, got {eps0}")


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

    points : (N, 3) finite positions
    weights : (N,) finite nonnegative mass weights (mixed areas)
    resolution : mesh length scale below which the sampling is atomic
        (finite, > 0)

    Input that breaks these raises ValueError naming the field.
    """

    points: np.ndarray
    weights: np.ndarray
    resolution: float

    def __post_init__(self):
        points = np.ascontiguousarray(self.points, dtype=np.float64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {points.shape}")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        if weights.shape != (len(points),):
            raise ValueError(f"weights must have shape ({len(points)},), got {weights.shape}")
        if not (np.isfinite(weights).all() and (weights >= 0).all()):
            raise ValueError("weights must be finite and >= 0")
        if not (np.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError(f"resolution must be finite and > 0, got {self.resolution}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

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
    return (cells[:, 0] << 42) | (cells[:, 1] << 21) | cells[:, 2]


def _overlap_measures(support_a, support_b, radii):
    """m(eps) for every eps in ``radii``, from one spatial hash.

    Both supports are hashed with cell size eps = max(radii). B is put in
    column-then-z order (``_column_z_order``) and held as (3, N_B) rows in
    that order, so that each live point of A takes, in each of the 9
    columns around its cell, one contiguous window of B: the points with
    |z_b - z_a| < eps (1 + 2^-30) among the column's 3 cells around the
    point's (``_z_windows``). d^2 is formed component-major as
    (dx^2 + dy^2) + dz^2, the order in which ``np.sum(axis=1)`` adds the
    (n, 3) differences of the brute force.

    The live points are scanned in cell order, in chunks of about
    ``_CANDIDATE_CHUNK`` candidate pairs; a chunk ends between two points,
    possibly inside a cell, and holds at least one point. A chunk's pairs
    closer than eps are sorted by the single key a * N_B + b, unique since
    each (a, b) pair lies in exactly one window. The radii are then taken
    largest first (``argsort(-radii)``, stable), each filtering the
    survivors of the one before, so each radius holds the pairs of its
    own mask, in the same order, and writes its per-a sums of w_B
    (``np.add.reduceat``) into its row of an (R, n_live) array. Every a
    keeps the b-ascending run of the brute-force kernel, and the final sum
    over the N_A points is its sum, so every measure is bitwise equal to
    it. Time is O(candidates); memory is O(N_A + N_B + n_live + chunk) at
    any pair count.
    """
    radii = np.asarray(radii, dtype=np.float64)
    pa, wa = support_a.points, support_a.weights
    pb, wb = support_b.points, support_b.weights
    if len(pa) == 0 or len(pb) == 0:
        return np.zeros(len(radii))
    eps = float(radii.max())
    # per column: an (N, 3) axis-0 reduction is ten times slower
    origin = np.array([min(pa[:, k].min(), pb[:, k].min()) for k in range(3)]) - eps
    order_b, keys_b, zkey, rank, scale = _column_z_order(pb, eps, origin)
    live, start, count = _z_windows(pa, eps, origin, keys_b, zkey, rank, scale)
    if len(live) == 0:
        return np.zeros(len(radii))
    rows_a = np.ascontiguousarray(pa[live].T)
    rows_b = np.ascontiguousarray(pb[order_b].T)
    wb = wb[order_b]
    per_point = count.sum(axis=0)
    starts = np.cumsum(per_point) - per_point
    # chunk k takes the points whose candidates start in [k, k + 1) budgets
    cuts = np.searchsorted(starts, np.arange(_CANDIDATE_CHUNK, starts[-1] + per_point[-1], _CANDIDATE_CHUNK))
    sums = np.zeros((len(radii), len(live)))
    largest_first = np.argsort(-radii, kind="stable")
    for i0, i1 in itertools.pairwise(np.unique(np.r_[0, cuts, len(live)])):
        ai, bi, d2 = _near_pairs(rows_a[:, i0:i1], rows_b, start[:, i0:i1], count[:, i0:i1], eps * eps)
        # ascending (a, b) order makes the segment sums bitwise equal to the
        # brute-force masked sums
        order = np.argsort(ai * len(pb) + order_b[bi])
        ai, wb_pair, d2 = ai[order], wb[bi[order]], d2[order]
        for r in largest_first:
            e = radii[r]
            # _near_pairs has already filtered at the largest radius
            if e < eps:
                hit = np.flatnonzero(d2 < e * e)
                ai, wb_pair, d2 = ai.take(hit), wb_pair.take(hit), d2.take(hit)
            if len(ai) == 0:
                break
            seg_start = np.flatnonzero(np.r_[True, ai[1:] != ai[:-1]])
            sums[r, i0 + ai[seg_start]] = np.add.reduceat(wb_pair, seg_start)
    row = np.zeros(len(pa))
    measures = np.empty(len(radii))
    for r, s in enumerate(sums):
        row[live] = s
        measures[r] = np.sum(wa * row)
    return measures


def _column_z_order(points, eps, origin):
    """Order of ``points`` by grid column, then z: (order, keys, zkey, rank, scale).

    The points are sorted by cell key, then stably by the float key
    ``zkey = rank * scale + (z - oz)``, where rank is the dense rank of
    the point's x/y column, oz the origin's z, and the power of two
    ``scale`` exceeds every z - oz plus 2 eps. The second sort moves
    points only within their column, so ``rank`` keeps its order, and the
    cell keys stay sorted: a point's z cell cannot fall while its z rises,
    and ties keep the cell order. ``keys`` and ``zkey`` are returned in
    the final order.
    """
    keys = _cell_keys(points, eps, origin)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    rank = np.cumsum(np.r_[0, (keys[1:] >> 21) != (keys[:-1] >> 21)])
    scale = 2.0 ** np.frexp(float(points[:, 2].max() - origin[2]) + 2 * eps)[1]
    zkey = rank * scale + (points[order, 2] - origin[2])
    by_z = np.argsort(zkey, kind="stable")
    return order[by_z], keys[by_z], zkey[by_z], rank, scale


def _z_windows(points, eps, origin, keys_b, zkey, rank, scale):
    """Live points of A and their windows in B in column-then-z order.

    Each occupied cell of A looks up its 27 neighbour cells in B once, as
    9 key ranges of 3 cells stacked in z. The live points, those of cells
    with at least one non-empty range, are the only ones that can have a
    partner. Each live point narrows each non-empty range to its z window
    |z_b - z_a| < eps (1 + 2^-30), by two ``searchsorted`` calls on
    ``zkey``, clipped to the range so that no (a, b) pair can appear
    twice. Returns (live, start, count): the live points' indices in A,
    in cell order, and their windows as (9, n_live) arrays.

    Margin: the window holds every b with float d^2 < fl(eps^2), d^2 as
    ``_near_pairs`` forms it. If fl(eps^2) = 0 there is no such b.
    Otherwise eps > 2^-538 is normal, and w = fl(eps (1 + 2^-30)) >
    eps (1 + 2^-31 + 2^-49). Such a pair has fl(dz^2) <= d^2, since adding
    a nonnegative float and rounding cannot lower a sum. fl(x^2) is
    monotone in |x|, so |fl(dz)| < eps, and the exact |dz| < eps
    (1 + 2^-50): a subnormal difference is exact. The grid check keeps
    every t = fl(z - oz) below 2^20 eps, so t is off by less than
    eps 2^-32, and |t_b - t_a| < eps (1 + 2^-50 + 2^-31) < w. Hence
    t_a - w <= t_b <= t_a + w exactly, and fl(t_a - w) <= t_b <=
    fl(t_a + w). Every key, of B and of a window end, is
    fl(rank * scale + t) with rank * scale exact, and rounding is
    monotone, so a window computed on rounded keys holds every b of the
    exact window.
    """
    keys = _cell_keys(points, eps, origin)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # first point of each occupied A cell, in cell order
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    cells = keys[first]
    # lo[j], hi[j]: each A cell's range of sorted B in column j
    lo = np.empty((9, len(first)), dtype=np.int64)
    hi = np.empty_like(lo)
    for j, (dx, dy) in enumerate(itertools.product((-1, 0, 1), repeat=2)):
        # cell indices lie in [0, 2^20): a field moved up by one stays in its
        # 21 bits, and one moved below 0 borrows into a key that sorts just
        # before the same B points, so the cells z-1, z, z+1 of one column
        # are one key range, and a column off the grid an empty one
        key = cells + ((dx << 42) + (dy << 21))
        lo[j] = np.searchsorted(keys_b, key - 1, side="left")
        hi[j] = np.searchsorted(keys_b, key + 1, side="right")
    live_cell = (hi > lo).any(axis=0)
    sizes = np.diff(np.r_[first, len(points)])
    live = order[np.repeat(live_cell, sizes)]
    cell = np.repeat(np.flatnonzero(live_cell), sizes[live_cell])
    lo, hi = lo[:, cell], hi[:, cell]
    # only non-empty ranges are searched; the others keep empty windows, and
    # a window found outside its range ends up with a count of 0
    has = hi > lo
    t = (points[live, 2] - origin[2])[np.nonzero(has)[1]]
    base = rank[lo[has]] * scale
    w = eps * (1 + 2.0**-30)
    start, end = lo.copy(), lo.copy()
    start[has] = np.maximum(np.searchsorted(zkey, base + (t - w), side="left"), lo[has])
    end[has] = np.minimum(np.searchsorted(zkey, base + (t + w), side="right"), hi[has])
    return live, start, np.maximum(end - start, 0)


def _near_pairs(rows_a, rows_b, lo, count, eps2):
    """Pairs closer than sqrt(eps2) between points of A (3, n) and sorted B rows.

    Point i of A takes the B windows ``lo[j, i]`` .. ``lo[j, i] + count[j, i]``,
    one per column j, (9, n) each. Returns (a, b, d2): a indexes
    ``rows_a``, ascending, and b the columns of ``rows_b``. Time and
    memory are O(n + sum of count).
    """
    per_point = count.sum(axis=0)
    # point-major windows: each point's candidates are contiguous
    lo, count = lo.T.ravel(), count.T.ravel()
    has = np.flatnonzero(count)
    sizes = count[has]
    # each candidate's index in sorted B: its window's start plus its
    # offset in the window
    bpos = np.repeat(lo[has] - (np.cumsum(sizes) - sizes), sizes)
    bpos += np.arange(len(bpos))
    # 0 + x^2 is exact, so this adds (x^2 + y^2) + z^2, the order in which
    # np.sum(axis=1) adds an (n, 3) row; one component is held at a time
    d2 = np.zeros(len(bpos))
    for k in range(3):
        d = np.repeat(rows_a[k], per_point)
        d -= rows_b[k].take(bpos)
        d *= d
        d2 += d
    near = np.flatnonzero(d2 < eps2)
    return np.repeat(np.arange(len(per_point)), per_point)[near], bpos[near], d2[near]


def overlap_measure(support_a, support_b, eps):
    """Product-measure mass of the eps-neighborhood of the diagonal.

    The one-radius case of the spatial-hash kernel ``no_overlap_check``
    uses: candidates are the B points in each live A point's z windows of
    its 9 neighbour columns; time O(candidates), memory
    O(N_A + N_B + n_live + chunk); bitwise equal to the O(N*M) double
    loop. ``eps`` must be finite and > 0 (ValueError).
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
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
    samples (NaN if fewer than two). An eps0 whose cube is not a finite
    float raises ValueError.
    """
    if n_eps < 4:
        raise InsufficientSamples(f"need at least 4 radii, got {n_eps}")
    _check_eps0(eps0)
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
