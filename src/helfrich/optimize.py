"""Constrained minimization of the discrete bending energy.

Area and enclosed-volume constraints (total or per-phase) are enforced by
an augmented Lagrangian on *relative* constraint values: an outer loop of
multiplier updates and penalty growth around an inner L-BFGS descent on
the augmented Lagrangian (Nocedal & Wright, *Numerical Optimization*,
ch. 7 and 17). The inner direction comes from the two-loop recursion over
the last ``_MEMORY`` pairs of position and gradient changes, a memory that
is cleared at every multiplier update. Each direction is searched by
Armijo backtracking from the unit step. Steepest descent, from the last
steepest step grown by ``_STEP_GROW``, takes over when the memory is empty,
when the L-BFGS direction is not a descent direction, and when it fails
``_LBFGS_TRIALS`` trials (the memory is then cleared). A trial that is
degenerate, not finite or breaks the mesh-quality guard is rejected like
one that fails the Armijo test. Rigid translations are projected out of
every descent direction; rotations are left free. Phase labels never
change during a run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    _Constraints,
    constraint_residuals,
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
    NonPositiveTarget,
    QualityCollapse,
)
from .gradient import energy_and_gradient, total_energy

__all__ = [
    "RunConfig",
    "OptimizerState",
    "TrajectoryPoint",
    "minimize",
    "reduced_volume",
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
_PENALTY_MAX = 1e12  # cap on the penalty rho
_ARMIJO_C = 1e-4  # sufficient-decrease constant
_ARMIJO_SHRINK = 0.5  # backtracking factor
_STEP_GROW = 2.0  # steepest step growth after a steepest accept
_OVERLAP_SAMPLES = 6  # radii of each no-overlap gate


@dataclass(frozen=True)
class RunConfig:
    """Tunables of the augmented-Lagrangian run."""

    max_iterations: int = 2000          # total inner-iteration budget
    grad_tol: float = 1e-4              # rms gradient target (energy/length)
    constraint_tol: float = 1e-5        # relative residual target
    penalty_init: float = 10.0
    penalty_growth: float = 10.0
    inner_iterations: int = 60          # cap per outer round
    max_backtracks: int = 40
    min_angle_deg: float = 3.0
    max_edge_ratio: float = 50.0

    def __post_init__(self):
        for name in ("grad_tol", "constraint_tol", "penalty_init", "penalty_growth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("max_iterations", "inner_iterations", "max_backtracks"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


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


def reduced_volume(m, e):
    """Normalized volume v = 6 sqrt(pi) e / m^(3/2) and its feasibility verdict.

    v is in (0, 1] exactly when (m, e) is isoperimetrically admissible and
    1 exactly for the round sphere; infeasible pairs return v > 1 together
    with the 'infeasible' verdict.
    """
    if not (m > 0 and e > 0):
        raise NonPositiveTarget(f"need m, e > 0, got ({m}, {e})")
    v = 6.0 * np.sqrt(np.pi) * e / m**1.5
    return float(v), isoperimetric_check(m, e)


def _quality_fault(geo, cfg):
    """What a geometry record breaks of the mesh-quality guard, or None."""
    if geo.edge_ratio > cfg.max_edge_ratio:
        return (f"edge ratio {geo.edge_ratio:.3g} > {cfg.max_edge_ratio} "
                f"(shortest edge in face {geo.short_edge_face})")
    min_deg = np.degrees(geo.min_angle)
    if min_deg < cfg.min_angle_deg:
        return f"min angle {min_deg:.3g} deg < {cfg.min_angle_deg} in face {geo.min_angle_face}"
    return None


def _check_quality(mesh, cfg):
    """Raise QualityCollapse when a start mesh breaks the guard."""
    fault = _quality_fault(geometry(mesh), cfg)
    if fault:
        raise QualityCollapse(f"{fault} at iteration 0")


def _diverged(iteration, phi, grad):
    """Diverged naming the iteration, phi and the vertex of the largest or a non-finite gradient."""
    norms = np.linalg.norm(grad, axis=1)
    v = int(np.argmax(np.where(np.isfinite(norms), norms, np.inf)))
    return Diverged(
        f"augmented Lagrangian {phi:.6g} at iteration {iteration}; "
        f"vertex {v} has gradient norm {norms[v]:.6g}"
    )


def _two_loop(g, pairs):
    """L-BFGS direction -H g by the two-loop recursion (Nocedal & Wright, Alg. 7.4).

    ``pairs`` holds flat (s, y, 1 / s.y), oldest first; the initial
    inverse Hessian is (s.y / y.y) I of the newest pair.
    """
    q = g.ravel().copy()
    alphas = []
    for s, y, r in reversed(pairs):
        alpha = r * (s @ q)
        q -= alpha * y
        alphas.append(alpha)
    _, y, r = pairs[-1]
    q *= 1.0 / (r * (y @ y))
    for (s, y, r), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - r * (y @ q)) * s
    return -q.reshape(g.shape)


def minimize(mesh0, phases, params_list, cs, cfg=RunConfig()):
    """Augmented-Lagrangian minimization of the (multi)phase energy.

    Parameters
    ----------
    mesh0 : TriMesh
        Starting mesh; never mutated.
    phases : PhaseField or None
        None for single-phase runs.
    params_list : sequence of MaterialParams
    cs : ConstraintSet
    cfg : RunConfig

    Returns
    -------
    OptimizerState
        With the full scalar trajectory; ``termination`` is 'converged',
        'max_iterations' (the inner-iteration budget is spent),
        'outer_limit' (all outer rounds ran with budget left) or
        'no_overlap_violation'.

    Raises
    ------
    PhaseCountMismatch
        Phase labels, parameter sets and phase area targets disagree.
    Infeasible
    QualityCollapse
        The start mesh breaks the quality guard, or a line search ran out
        of trials and the guard rejected at least one of them.
    Diverged
        The augmented Lagrangian or its gradient is not finite at an
        accepted mesh.
    """
    verdict = isoperimetric_check(cs.area, cs.volume)
    if verdict == "infeasible":
        raise Infeasible(
            f"targets (m, e) = ({cs.area}, {cs.volume}) violate the isoperimetric inequality"
        )
    cs.check_phases(mesh0, phases)
    con = _Constraints(phases, cs)
    if con.per_phase:
        for c0, target in zip(con.values(mesh0)[:-1], cs.phase_areas):
            if abs(c0) > 0.2:
                raise Infeasible(
                    f"initial phase area off target by {100 * abs(c0):.0f}% (> 20%)"
                )
    _check_quality(mesh0, cfg)
    mesh = mesh0
    lam = np.zeros(len(con.values(mesh)))
    rho = cfg.penalty_init
    step = None  # steepest-descent step length, grown after each steepest accept
    pairs = deque(maxlen=_MEMORY)
    trajectory = []
    overlap_log = []
    inner_stops = []
    it = 0
    grad_norm = np.inf
    termination = "max_iterations"
    prev_cnorm = np.inf

    def augmented_lagrangian(E, c):  # at the current multipliers and penalty
        return E + lam @ c + 0.5 * rho * (c @ c)

    def try_step(x):
        """(trial mesh, phi, None) at positions x; (None, None, guard fault or None) if rejected."""
        try:
            trial = mesh.with_vertices(x)
        except DegenerateFace:  # non-finite positions
            return None, None, None
        with np.errstate(divide="ignore", invalid="ignore"):
            geo = geometry(trial)
        if geo.area.min() <= trial.area_floor:
            return None, None, None  # a degenerate face
        fault = _quality_fault(geo, cfg)
        if fault:
            return None, None, fault
        try:
            E_m = total_energy(trial, phases, params_list)
        except DegenerateConfiguration:  # a vertex normal vanished
            return None, None, None
        phi_m = augmented_lagrangian(E_m, con.values(trial))
        return (trial, phi_m, None) if np.isfinite(phi_m) else (None, None, None)

    for outer in range(_OUTER_ITERATIONS):
        if it >= cfg.max_iterations:
            break
        inner_tol = max(cfg.grad_tol, cfg.grad_tol * 100.0 * 0.25**outer)
        pairs.clear()  # the multipliers or rho changed since these pairs
        last = None  # positions and gradient before the last accepted step
        stop = "inner_cap"
        for _ in range(cfg.inner_iterations):
            if it >= cfg.max_iterations:
                stop = "budget"
                break
            E, gE = energy_and_gradient(mesh, phases, params_list)
            cvals = con.values(mesh)
            g = gE.copy()
            for lam_i, rho_c, gc in zip(lam, rho * cvals, con.gradients(mesh)):
                g += (lam_i + rho_c) * gc
            phi = augmented_lagrangian(E, cvals)
            if not (np.isfinite(phi) and np.isfinite(g).all()):
                raise _diverged(it, phi, g)
            g -= g.mean(axis=0)  # translations are a null space
            grad_norm = float(np.sqrt(np.mean(np.sum(g**2, axis=1))))
            if last is not None:
                s_k = (mesh.vertices - last[0]).ravel()
                y_k = (g - last[1]).ravel()
                sy = float(s_k @ y_k)
                if sy > _PAIR_COSINE * np.linalg.norm(s_k) * np.linalg.norm(y_k):
                    pairs.append((s_k, y_k, 1.0 / sy))
            res_phase = float(np.abs(cvals[:-1]).max()) if con.per_phase else 0.0
            geo = geometry(mesh)
            reports, line = _phase_terms(mesh, geo.a, geo.H, geo.K, phases, params_list)
            point = TrajectoryPoint(
                it, outer, E, phi,
                *(sum(getattr(p, term) for p in reports) for term in ("bending", "gauss", "spontaneous")),
                line,
                float(cvals[0]) if not con.per_phase else float("nan"),
                float(cvals[-1]), res_phase, rho, 0.0, grad_norm,
                float(np.degrees(geo.min_angle)), geo.edge_ratio,
                36.0 * np.pi * geo.volume**2 / float(geo.area.sum()) ** 3,
                0, 0, int(geo.clamped.sum()), int(geo.obtuse.any(axis=0).sum()),
            )
            trajectory.append(point)
            if grad_norm < inner_tol:
                stop = "grad_tol"
                break
            if step is None:
                step = 1.0 / max(grad_norm, 1e-30)
            gg = float(np.sum(g * g))
            d, slope, s, memory = -g, -gg, step, 0
            if pairs:
                d_qn = _two_loop(g, pairs)
                d_qn -= d_qn.mean(axis=0)
                slope_qn = float(np.sum(g * d_qn))
                if slope_qn < 0:
                    d, slope, s, memory = d_qn, slope_qn, 1.0, len(pairs)
            accepted = False
            guard = None  # the last guard fault among this search's trials
            trials = 0
            while trials < cfg.max_backtracks:
                trials += 1
                trial, phi_trial, fault = try_step(mesh.vertices + s * d)
                guard = fault or guard
                if trial is not None and phi_trial <= phi + _ARMIJO_C * s * slope:
                    accepted = True
                    break
                if memory and trials == _LBFGS_TRIALS:
                    pairs.clear()
                    d, slope, s, memory = -g, -gg, step, 0
                else:
                    s *= _ARMIJO_SHRINK
            point.trials, point.memory = trials, memory
            if not accepted and guard:
                raise QualityCollapse(f"{guard} at iteration {it}: no acceptable step in {trials} trials")
            it += 1
            if not accepted:
                stop = "stalled"
                break
            point.step = s
            if not memory:
                step = s * _STEP_GROW
            last = (mesh.vertices, g)
            mesh = trial
        inner_stops.append(stop)
        # multiplier update and penalty management
        cvals = con.values(mesh)
        cnorm = float(np.abs(cvals).max())
        lam = lam + rho * cvals
        if cnorm > 0.25 * prev_cnorm and rho < _PENALTY_MAX:
            rho = min(rho * cfg.penalty_growth, _PENALTY_MAX)
        prev_cnorm = cnorm
        if phases is not None and cs.overlap_eps0 > 0 and phases.n_phases >= 2:
            gates = []
            supports = [phase_support(mesh, phases, p) for p in range(1, phases.n_phases + 1)]
            for i, sa in enumerate(supports):
                for sb in supports[i + 1:]:
                    try:
                        gates.append(
                            no_overlap_check(sa, sb, cs.overlap_eps0, n_eps=_OVERLAP_SAMPLES)
                        )
                    except InsufficientSamples:
                        # eps0 below mesh resolution: the scaling gate is
                        # meaningless at this refinement; recorded as None
                        gates.append(None)
            overlap_log.append(gates)
            if not all(gate is None or gate.passed for gate in gates):
                termination = "no_overlap_violation"
                break
        if grad_norm < cfg.grad_tol and cnorm < cfg.constraint_tol:
            termination = "converged"
            break
    else:
        if it < cfg.max_iterations:
            termination = "outer_limit"

    E = total_energy(mesh, phases, params_list)
    cvals = con.values(mesh)
    res = constraint_residuals(mesh, phases, cs)
    mult = {"volume": float(lam[-1])}
    if con.per_phase:
        mult["phase_areas"] = [float(x) for x in lam[:-1]]
    else:
        mult["area"] = float(lam[0])
    report = multiphase_energy(mesh, curvature_field(mesh, tensors=False), phases, params_list)
    return OptimizerState(
        mesh=mesh,
        iteration=it,
        energy=E,
        augmented=float(augmented_lagrangian(E, cvals)),
        residuals=res,
        multipliers=mult,
        penalty=rho,
        grad_norm=grad_norm,
        termination=termination,
        energy_report=report,
        trajectory=trajectory,
        overlap_verdicts=overlap_log,
        inner_stops=inner_stops,
    )
