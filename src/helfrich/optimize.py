"""Constrained minimization of the discrete bending energy.

Area and enclosed-volume constraints (total or per-phase) are enforced by
an augmented Lagrangian on *relative* constraint values: an outer loop of
multiplier updates and penalty growth around an inner L-BFGS descent on
the augmented Lagrangian (Nocedal & Wright, *Numerical Optimization*,
ch. 7 and 17). The inner direction comes from the two-loop recursion over
the last ``_MEMORY`` pairs of position and gradient changes, a memory that
is cleared at every multiplier update. The run moves between evaluated
points: a ``_Point`` holds a mesh, its energy E, the energy-pass terms
(``gradient._energy_pass``) and its constraint values c. ``_trial``
builds a trial mesh, rejects it when it is degenerate or breaks the
mesh-quality guard, and evaluates it once as a ``_Point``; an accepted
point's terms feed the next gradient assembly, and its E and c the
multiplier update and the run's final energy and augmented Lagrangian.
``_inner_round`` runs one outer round's inner iterations from a point:
the gradient and constraint-gradient assembly, the L-BFGS pair update,
the trajectory row, the search and the step growth. ``_line_search``
backtracks (Armijo) along the L-BFGS direction from the unit step and,
when the memory is empty, the direction is not a descent direction or it
fails ``_LBFGS_TRIALS`` trials (the memory is then cleared), along
steepest descent from the last steepest step grown by ``_STEP_GROW``.
``minimize`` holds the outer loop: the input checks, the start point,
the multiplier and penalty update, the no-overlap gate and the end state.
Rigid translations are projected out of every descent direction;
rotations are left free. Phase labels never change during a run. The
gradient tolerances and the first steepest step are in units of
R = sqrt(target area / 4 pi), so a change of length unit changes nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from numbers import Real

import numpy as np

from .constraints import (
    _Constraints,
    isoperimetric_check,
    no_overlap_check,
    phase_support,
)
from .curvature import curvature_field, geometry
from .energy import _phase_terms, multiphase_energy
from .errors import (
    DegenerateConfiguration,
    DegenerateFace,
    Diverged,
    Infeasible,
    InsufficientSamples,
    QualityCollapse,
)
from .gradient import _energy_pass, _gradient
from .mesh import _check_face_areas, _vdot

__all__ = [
    "RunConfig",
    "OptimizerState",
    "TrajectoryPoint",
    "minimize",
]

# (s, y) pairs kept by the L-BFGS memory.
_MEMORY = 10
# Failed trials along an L-BFGS direction (s = 1, 1/2, 1/4 at the default
# shrink) before the line search clears the memory and goes on along -g.
# On a plateau where the energy is flat to rounding the memory fills with
# pairs from rounding-level steps; the fallback keeps them from steering.
_LBFGS_TRIALS = 3
# A pair enters the memory only when s.y > _PAIR_COSINE * |s| |y|.
_PAIR_COSINE = 1e-10
_OUTER_ITERATIONS = 60  # multiplier updates
_INNER_ITERATIONS = 60  # inner iterations per outer round
_SEARCH_TRIALS = 40  # trial meshes per line search
_PENALTY_MAX = 1e12  # cap on the penalty rho
_ARMIJO_C = 1e-4  # sufficient-decrease constant
_ARMIJO_SHRINK = 0.5  # backtracking factor
_STEP_GROW = 2.0  # steepest step growth after a steepest accept
_OVERLAP_SAMPLES = 6  # radii of each no-overlap gate
_MIN_ANGLE_DEG = 3.0  # quality guard: smallest corner angle
_MAX_EDGE_RATIO = 50.0  # quality guard: longest over shortest edge


@dataclass(frozen=True)
class RunConfig:
    """Tunables of the augmented-Lagrangian run."""

    max_iterations: int = 2000          # total inner-iteration budget
    grad_tol: float = 1e-4              # rms gradient target, times R = sqrt(area / 4 pi)
    constraint_tol: float = 1e-5        # relative residual target
    penalty_init: float = 10.0
    penalty_growth: float = 10.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        for name in ("grad_tol", "constraint_tol", "penalty_init", "penalty_growth"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if self.penalty_growth < 1:
            raise ValueError("penalty_growth must be >= 1")
        try:
            n = int(self.max_iterations)
        except (OverflowError, ValueError):  # inf, nan
            n = None
        if n is None or n != self.max_iterations:
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if n < 0:
            raise ValueError("max_iterations must be >= 0")
        object.__setattr__(self, "max_iterations", n)  # 3.0 is stored as 3


@dataclass
class TrajectoryPoint:
    """One inner iteration; its fields, in order, are the columns of trajectory.csv."""

    iteration: int
    outer: int
    energy: float
    augmented: float
    bending: float
    gauss: float
    spontaneous: float
    line_tension: float
    residual_area: float
    residual_volume: float
    residual_phase_max: float
    penalty: float
    step: float  # accepted step length along the direction; 0 when no step was taken
    grad_norm: float
    min_angle_deg: float
    max_edge_ratio: float
    iso_quotient: float  # 36 pi V^2 / A^3 of the mesh; 1 for a round sphere
    trials: int  # trial meshes the line search built
    memory: int  # L-BFGS pairs behind the searched direction; 0 for steepest descent
    clamped: int  # vertices where H was reconciled with K
    obtuse: int  # faces with an obtuse corner


@dataclass
class OptimizerState:
    """Snapshot of a run: final mesh, multipliers, residuals, trajectory.

    ``inner_stops`` has one entry per outer round, saying why its inner
    loop ended: 'grad_tol', 'inner_cap', 'stalled' (no acceptable step)
    or 'budget' (``max_iterations`` reached). ``termination`` says why
    the run ended: 'converged' (gradient and residuals within tolerance),
    'max_iterations' (budget spent), 'outer_limit' (every outer round ran
    before the budget was spent) or 'no_overlap_violation' (a no-overlap
    gate failed).

    ``grad_norm`` is the last rms gradient the run computed (inf when it
    ran no iteration). A round that ended 'grad_tol' or 'stalled' measured
    it at the end mesh; after 'inner_cap' or 'budget' it belongs to the
    point before the last accepted step, since no gradient is assembled
    at a point the run does not iterate from.
    """

    mesh: object
    iteration: int
    energy: float
    augmented: float
    residuals: object
    multipliers: dict
    penalty: float
    grad_norm: float
    termination: str
    energy_report: object = None
    trajectory: list = field(default_factory=list)
    overlap_verdicts: list = field(default_factory=list)
    inner_stops: list = field(default_factory=list)


def _quality_fault(geo):
    """What a geometry record breaks of the mesh-quality guard, or None."""
    if geo.edge_ratio > _MAX_EDGE_RATIO:
        return (f"edge ratio {geo.edge_ratio:.3g} > {_MAX_EDGE_RATIO} "
                f"(shortest edge in face {geo.short_edge_face})")
    min_deg = np.degrees(geo.min_angle)
    if min_deg < _MIN_ANGLE_DEG:
        return f"min angle {min_deg:.3g} deg < {_MIN_ANGLE_DEG} in face {geo.min_angle_face}"
    return None


def _diverged(iteration, phi, grad):
    """Diverged naming the iteration, phi and the vertex of the largest or a non-finite gradient."""
    norms = np.linalg.norm(grad, axis=1)
    v = int(np.argmax(np.where(np.isfinite(norms), norms, np.inf)))
    return Diverged(
        f"augmented Lagrangian {phi:.6g} at iteration {iteration}; "
        f"vertex {v} has gradient norm {norms[v]:.6g}"
    )


def _centre(x):
    """Subtract the mean row from a C-contiguous (V, 3) array in place.

    Bitwise ``x -= x.mean(axis=0)``: that mean adds the rows one after
    another, and einsum's ``"ij->j"`` adds them in the same order without a
    reduction's per-row overhead; the subtraction runs on component rows.
    """
    mean = np.einsum("ij->j", x) / len(x)
    for k in range(3):
        x[:, k] -= mean[k]


def _rms(x):
    """Root mean square row length of a (V, 3) array, bitwise ``sqrt(mean(sum(x**2, axis=1)))``.

    The squares are summed on component rows as (x0² + x1²) + x2², the
    order of the row sums.
    """
    sq = x[:, 0] * x[:, 0]
    sq += x[:, 1] * x[:, 1]
    sq += x[:, 2] * x[:, 2]
    return float(np.sqrt(np.mean(sq)))


def _augmented(E, c, lam, rho):
    """Augmented Lagrangian of energy E and constraint values c."""
    return E + lam @ c + 0.5 * rho * (c @ c)


@dataclass
class _Point:
    """An evaluated position: its mesh, energy, energy-pass terms and constraint values."""

    mesh: object
    E: float
    terms: tuple
    c: np.ndarray


def _trial(mesh, x, params_list, con):
    """(``_Point``, None) at positions x, or (None, guard fault or None) if rejected.

    The trial's phases are the run's, ``con.phases``.
    """
    try:
        trial = mesh.with_vertices(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            geo = geometry(trial)
        _check_face_areas(trial, geo.area)
    except DegenerateFace:  # non-finite positions or a degenerate face
        return None, None
    fault = _quality_fault(geo)
    if fault:
        return None, fault
    try:
        E, terms = _energy_pass(trial, con.phases, params_list)
    except DegenerateConfiguration:  # a vertex normal vanished
        return None, None
    return _Point(trial, E, terms, con.values(trial)), None


def _line_search(mesh, phi, searches, lam, rho, params_list, con):
    """Armijo backtracking from ``mesh``, whose augmented Lagrangian is phi.

    A trial is accepted when its augmented Lagrangian passes the Armijo
    test and is strictly below phi: once s * slope rounds away against
    phi, a trial that moves the vertices at rounding level would pass
    Armijo alone with phi unchanged.

    ``searches`` holds (direction, slope, first step, memory) tuples: the
    L-BFGS search, when there is one, and then steepest descent, which
    takes over after ``_LBFGS_TRIALS`` failed L-BFGS trials. Returns the
    accepted ``_Point`` (or None), its step, the trial count, the memory
    of the last search and the last guard fault among the trials.
    """
    (d, slope, s, memory), trials, guard = searches[0], 0, None
    while trials < _SEARCH_TRIALS:
        trials += 1
        point, fault = _trial(mesh, mesh.vertices + s * d, params_list, con)
        guard = fault or guard
        if point is not None:
            phi_trial = _augmented(point.E, point.c, lam, rho)
            if np.isfinite(phi_trial) and phi_trial <= phi + _ARMIJO_C * s * slope and phi_trial < phi:
                return point, s, trials, memory, guard
        if memory and trials == _LBFGS_TRIALS:
            d, slope, s, memory = searches[-1]
        else:
            s *= _ARMIJO_SHRINK
    return None, s, trials, memory, guard


def _two_loop(g, pairs):
    """L-BFGS direction -H g by the two-loop recursion (Nocedal & Wright, Alg. 7.4).

    ``pairs`` holds flat (s, y, 1 / s.y), oldest first; the initial
    inverse Hessian is (s.y / y.y) I of the newest pair.
    """
    q = g.ravel().copy()
    alphas = []
    for s, y, r in reversed(pairs):
        alpha = r * _vdot(s, q)
        q -= alpha * y
        alphas.append(alpha)
    _, y, r = pairs[-1]
    q *= 1.0 / (r * _vdot(y, y))
    for (s, y, r), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - r * _vdot(y, q)) * s
    return -q.reshape(g.shape)


def _inner_round(point, lam, rho, step, it, outer, inner_tol, budget, R,
                 params_list, con, trajectory):
    """One outer round's inner iterations from ``point`` at multipliers lam and penalty rho.

    Appends one trajectory row per iteration, built after its search.
    ``step`` is the steepest step carried over from the last round (None
    before the first search) and ``it`` the run's iteration count; the
    caller starts a round only with budget left. Returns the end point,
    the iteration count, the steepest step, the last rms gradient and the
    round's stop: 'grad_tol', 'inner_cap', 'stalled' or 'budget'.
    """
    pairs = deque(maxlen=_MEMORY)  # a round starts empty: lam or rho changed
    last = None  # positions and gradient before the last accepted step
    for _ in range(_INNER_ITERATIONS):
        if it >= budget:
            return point, it, step, grad_norm, "budget"
        mesh, c = point.mesh, point.c
        g = _gradient(mesh, con.phases, point.terms)
        for lam_i, rho_c, gc in zip(lam, rho * c, con.gradients(mesh)):
            g += (lam_i + rho_c) * gc
        phi = _augmented(point.E, c, lam, rho)
        if not (np.isfinite(phi) and np.isfinite(g).all()):
            raise _diverged(it, phi, g)
        _centre(g)  # translations are a null space
        grad_norm = _rms(g)
        if last is not None:
            s_k = (mesh.vertices - last[0]).ravel()
            y_k = (g - last[1]).ravel()
            sy = float(_vdot(s_k, y_k))
            if sy > _PAIR_COSINE * np.sqrt(_vdot(s_k, s_k)) * np.sqrt(_vdot(y_k, y_k)):
                pairs.append((s_k, y_k, 1.0 / sy))
        geo = geometry(mesh)  # the row's terms, formed before any trial is alive
        reports, line = _phase_terms(mesh, con.phases, params_list)
        accepted, s, trials, memory = None, 0.0, 0, 0
        at_tol = grad_norm * R < inner_tol
        if not at_tol:
            if step is None:
                step = R / max(grad_norm, 1e-30)
            gg = float(np.sum(g * g))
            searches = [(-g, -gg, step, 0)]
            if pairs:
                d_qn = _two_loop(g, pairs)
                _centre(d_qn)
                slope_qn = float(np.sum(g * d_qn))
                if slope_qn < 0:
                    searches.insert(0, (d_qn, slope_qn, 1.0, len(pairs)))
            accepted, s, trials, memory, guard = _line_search(
                mesh, phi, searches, lam, rho, params_list, con
            )
            if accepted is None and guard:
                raise QualityCollapse(f"{guard} at iteration {it}: no acceptable step in {trials} trials")
            if len(searches) > 1 and not memory:
                pairs.clear()  # the L-BFGS search fell back
        trajectory.append(TrajectoryPoint(
            it, outer, point.E, phi,
            *(sum(getattr(p, term) for p in reports) for term in ("bending", "gauss", "spontaneous")),
            line,
            float(c[0]) if not con.per_phase else float("nan"),
            float(c[-1]), float(np.abs(c[:-1]).max()) if con.per_phase else 0.0,
            rho, s if accepted is not None else 0.0, grad_norm,
            float(np.degrees(geo.min_angle)), geo.edge_ratio,
            36.0 * np.pi * geo.volume**2 / float(geo.area.sum()) ** 3,
            trials, memory, int(geo.clamped.sum()), int(geo.obtuse.any(axis=0).sum()),
        ))
        if at_tol:
            return point, it, step, grad_norm, "grad_tol"
        it += 1
        if accepted is None:
            return point, it, step, grad_norm, "stalled"
        if not memory:
            step = s * _STEP_GROW
        last = (mesh.vertices, g)
        point = accepted
    return point, it, step, grad_norm, "inner_cap"


def minimize(mesh0, phases, params_list, cs, cfg=RunConfig()):
    """Augmented-Lagrangian minimization of the (multi)phase energy.

    ``mesh0`` (TriMesh) is the start and is never mutated; ``phases`` is a
    PhaseField, or None for single-phase runs; ``params_list`` holds the
    MaterialParams, ``cs`` is the ConstraintSet and ``cfg`` the RunConfig.
    Returns an OptimizerState with the full scalar trajectory; its
    ``termination`` is 'converged', 'max_iterations' (the inner-iteration
    budget is spent), 'outer_limit' (all outer rounds ran with budget
    left) or 'no_overlap_violation'.

    Raises
    ------
    PhaseCountMismatch
        Phase labels, parameter sets and phase area targets disagree.
    Infeasible
        The targets break the isoperimetric inequality, a start phase
        area is more than 20% off its target, or a start relative
        residual has a square that overflows.
    QualityCollapse
        The start mesh breaks the quality guard, or a line search ran out
        of trials and the guard rejected at least one of them.
    Diverged
        The augmented Lagrangian or its gradient is not finite at an
        accepted mesh.
    """
    if isoperimetric_check(cs.area, cs.volume) == "infeasible":
        raise Infeasible(
            f"targets (m, e) = ({cs.area}, {cs.volume}) violate the isoperimetric inequality"
        )
    cs.check_phases(mesh0, phases)
    con = _Constraints(phases, cs)
    with np.errstate(over="ignore"):
        c0 = con.values(mesh0)
    if con.per_phase:
        targets = [(f"phase {i} area", t) for i, t in enumerate(cs.phase_areas, 1)]
    else:
        targets = [("area", cs.area)]
    targets.append(("volume", cs.volume))
    for (name, target), c in zip(targets, c0.tolist()):
        if not np.isfinite(c * c):  # the augmented Lagrangian squares c
            raise Infeasible(
                f"initial relative {name} residual {c:.3g} against the target {target} has a square that overflows"
            )
    if con.per_phase:
        for c in c0[:-1]:
            if abs(c) > 0.2:
                raise Infeasible(f"initial phase area off target by {100 * abs(c):.0f}% (> 20%)")
    fault = _quality_fault(geometry(mesh0))
    if fault:
        raise QualityCollapse(f"{fault} at iteration 0")
    point = _Point(mesh0, *_energy_pass(mesh0, phases, params_list), c0)
    R = float(np.sqrt(cs.area / (4.0 * np.pi)))  # radius of a sphere of the target area
    lam, rho = np.zeros(len(c0)), cfg.penalty_init
    step, it, grad_norm, prev_cnorm = None, 0, np.inf, np.inf
    trajectory, overlap_log, inner_stops = [], [], []
    termination = "max_iterations"
    for outer in range(_OUTER_ITERATIONS):
        if it >= cfg.max_iterations:
            break
        inner_tol = max(cfg.grad_tol, cfg.grad_tol * 100.0 * 0.25**outer)
        # the round holds its start point alone: its mesh and record go once it moves on
        held, point = [point], None
        point, it, step, grad_norm, stop = _inner_round(
            held.pop(), lam, rho, step, it, outer, inner_tol, cfg.max_iterations, R,
            params_list, con, trajectory,
        )
        inner_stops.append(stop)
        # multiplier update and penalty management
        cnorm = float(np.abs(point.c).max())
        lam = lam + rho * point.c
        if cnorm > 0.25 * prev_cnorm and rho < _PENALTY_MAX:
            rho = min(rho * cfg.penalty_growth, _PENALTY_MAX)
        prev_cnorm = cnorm
        if phases is not None and cs.overlap_eps0 > 0 and phases.n_phases >= 2:
            gates = []
            supports = [phase_support(point.mesh, phases, p) for p in range(1, phases.n_phases + 1)]
            for i, sa in enumerate(supports):
                for sb in supports[i + 1:]:
                    try:
                        gates.append(no_overlap_check(sa, sb, cs.overlap_eps0, n_eps=_OVERLAP_SAMPLES))
                    except InsufficientSamples:
                        # eps0 below mesh resolution: the scaling gate is
                        # meaningless at this refinement; recorded as None
                        gates.append(None)
            overlap_log.append(gates)
            if not all(gate is None or gate.passed for gate in gates):
                termination = "no_overlap_violation"
                break
        if grad_norm * R < cfg.grad_tol and cnorm < cfg.constraint_tol:
            termination = "converged"
            break
    else:
        if it < cfg.max_iterations:
            termination = "outer_limit"

    mesh, E, c = point.mesh, point.E, point.c
    area_mult = {"phase_areas": [float(x) for x in lam[:-1]]} if con.per_phase else {"area": float(lam[0])}
    return OptimizerState(
        mesh=mesh,
        iteration=it,
        energy=E,
        augmented=float(_augmented(E, c, lam, rho)),
        residuals=con.residuals(mesh, c),  # the kept values of the end point
        multipliers={"volume": float(lam[-1]), **area_mult},
        penalty=rho,
        grad_norm=grad_norm,
        termination=termination,
        energy_report=multiphase_energy(mesh, curvature_field(mesh), phases, params_list),
        trajectory=trajectory,
        overlap_verdicts=overlap_log,
        inner_stops=inner_stops,
    )
