"""The benchmark's three workloads.

Each is a closed loop with one caller: the timed body is repeated back to
back, each time on inputs built afresh by ``setup`` outside the body's
timing, so no cache left on a mesh by one repetition serves the next.
Inputs come only from the seed.
Package functions are looked up through their modules at call time, so
the tracer's wrappers see every call the workload makes.

Why each workload exists, and which layers it loads (the layer -> metric
map is in README.md next to this file):

* ``sphere_minimize`` -- the optimizer loop at a size where per-call
  overhead matters: gradient, line-search energies, constraints and the
  quality guard run once or more per iteration; connectivity is reused
  through ``with_vertices`` and the mesh is built once per repetition.
* ``large_split_eval`` -- one evaluation pass at V=40962: mesh build and
  validation dominate set-up, arrays exceed L2, and a per-connectivity
  cache is built and used once, so a cache that pays off in
  ``sphere_minimize`` shows its cost here. The multiphase gradient terms
  and the overlap gate run only here.
* ``corpus_verify`` -- ``helfrich verify --corpus`` in-process: many small
  meshes built fresh per command, the curvature-tensor path, diagnostics,
  coercivity sampling, ``diameter`` and JSON output. No gradient or
  optimizer call, so work there must show no change here.
"""

from __future__ import annotations

import hashlib
import importlib
import json

import numpy as np

FOUR_PI = 4.0 * np.pi


def _mod(name):
    return importlib.import_module(f"helfrich.{name}")


class SphereMinimize:
    """Criterion 8: jittered icosphere(4) to the round sphere's (A, V)."""

    name = "sphere_minimize"
    default_seed = 11  # the jitter seed of criterion 8

    def __init__(self, tiny, workdir):
        self.level, self.budget = (2, 12) if tiny else (4, 150)

    def setup(self, seed):
        shapes = _mod("shapes")
        return shapes.jittered(shapes.icosphere(self.level), 0.01, seed)

    def _run(self, mesh0, budget):
        density, constraints, optimize = _mod("density"), _mod("constraints"), _mod("optimize")
        return optimize.minimize(
            mesh0, None, [density.MaterialParams(1.0, 0.0, 0.0)],
            constraints.ConstraintSet(area=FOUR_PI, volume=FOUR_PI / 3),
            optimize.RunConfig(max_iterations=budget),
        )

    def warmup(self, mesh0):
        self._run(mesh0, 2)

    def body(self, mesh0):
        return self._run(mesh0, self.budget)

    def units(self, mesh0, state):
        return state.iteration

    def signature(self, state):
        return state.energy, hashlib.sha256(state.mesh.vertices.tobytes()).hexdigest()

    def inspect(self, mesh0, state):
        """Output check, and the run's deterministic results.

        ``iters_to_target`` is the first trajectory iteration with
        Wq/4pi <= 1.002 (Wq = energy / 2 at beta = 1) and both relative
        residuals <= 3e-3; budget + 1 when the budget ends first.
        """
        curv = _mod("curvature").curvature_field(state.mesh, tensors=False)
        wq = _mod("energy").willmore(state.mesh, curv, "quarter")
        gauss = float(curv.K @ curv.mixed_area)
        problems = []
        if state.iteration != self.budget:
            problems.append(f"ran {state.iteration} iterations, budget {self.budget}")
        if not wq <= 1.02 * FOUR_PI:
            problems.append(f"Wq/4pi = {wq / FOUR_PI!r} > 1.02")
        if not abs(gauss - FOUR_PI) <= 1e-9:
            problems.append(f"sum K a - 4pi = {gauss - FOUR_PI!r}")
        target = next(
            (p.iteration for p in state.trajectory
             if p.energy / 2.0 <= 1.002 * FOUR_PI
             and abs(p.residual_area) <= 3e-3 and abs(p.residual_volume) <= 3e-3),
            self.budget + 1,
        )
        return problems, {
            "iterations": state.iteration,
            "termination": state.termination,
            "energy": state.energy,
            "iters_to_target": target,
            "willmore_excess": wq / FOUR_PI - 1.0,
        }


class LargeSplitEval:
    """One evaluation pass on a two-phase icosphere(6) (V=40962, F=81920).

    The seed jitters the vertices by iid normal noise of amplitude 1e-3
    (5% of an edge) after the equator labels are assigned. A rotation
    would also vary the input, but it tilts the phase interface against
    the overlap check's axis-aligned grid and so changes that check's
    work by up to ~1.5x from seed to seed; the jitter keeps it about even.
    """

    name = "large_split_eval"
    default_seed = 0

    def __init__(self, tiny, workdir):
        self.level = 5 if tiny else 6

    def setup(self, seed):
        shapes, energy, density = _mod("shapes"), _mod("energy"), _mod("density")
        mesh = shapes.icosphere(self.level)
        labels = shapes.equator_phase_labels(mesh)
        mesh = shapes.jittered(mesh, 1e-3, seed)
        phases = energy.PhaseField(labels)
        phases.check(mesh)
        # criterion 7's split-sphere material sets
        params = [density.MaterialParams(1.0, -0.3, 0.5, 0.8, 1),
                  density.MaterialParams(2.0, -1.0, -0.2, 0.4, 2)]
        return mesh, phases, params

    def warmup(self, inputs):
        self.body(inputs)

    def body(self, inputs):
        mesh, phases, params = inputs
        curvature, energy, gradient, constraints = (
            _mod("curvature"), _mod("energy"), _mod("gradient"), _mod("constraints"))
        curv = curvature.curvature_field(mesh)
        report = energy.multiphase_energy(mesh, curv, phases, params)
        total, grad = gradient.energy_and_gradient(mesh, phases, params)
        support_a = constraints.phase_support(mesh, phases, 1)
        support_b = constraints.phase_support(mesh, phases, 2)
        verdict = constraints.no_overlap_check(support_a, support_b, eps0=0.15)
        return curv, report, total, grad, verdict

    def units(self, inputs, out):
        return 1

    def signature(self, out):
        curv, report, total, grad, verdict = out
        return report.total, total, hashlib.sha256(grad.tobytes()).hexdigest(), verdict.slope

    def inspect(self, inputs, out):
        curv, report, total, grad, verdict = out
        problems = []
        gauss = float(curv.K @ curv.mixed_area)
        if not abs(gauss - FOUR_PI) <= 1e-9:
            problems.append(f"sum K a - 4pi = {gauss - FOUR_PI!r}")
        if not abs(report.total - total) <= 1e-9 * abs(total):
            problems.append(f"multiphase total {report.total!r} != gradient energy {total!r}")
        drift = float(np.abs(grad.sum(axis=0)).max())
        if not drift <= 1e-9 * float(np.abs(grad).max()):
            problems.append(f"|sum_v grad_v| = {drift!r}: gradient not translation invariant")
        if not (verdict.passed and 2.7 <= verdict.slope <= 3.3):
            problems.append(f"overlap gate passed={verdict.passed} slope={verdict.slope!r}")
        return problems, {"energy": total, "overlap_slope": verdict.slope}


class CorpusVerify:
    """``helfrich verify --corpus --seed <seed>`` through ``cli.main``.

    Set-up builds the corpus the way the command does, to time it; the
    command then builds its own, as every ``verify`` call does.
    """

    name = "corpus_verify"
    default_seed = 0  # the verify --seed default

    def __init__(self, tiny, workdir):
        self.out_path = workdir / "corpus_report.json"

    def setup(self, seed):
        return _mod("shapes").standard_corpus(), seed

    def warmup(self, inputs):
        self.body(inputs)

    def body(self, inputs):
        _, seed = inputs
        argv = ["verify", "--corpus", "--seed", str(seed), "--out", str(self.out_path)]
        code = _mod("cli").main(argv)
        return code, self.out_path.read_bytes()

    def units(self, inputs, out):
        return len(inputs[0])

    def signature(self, out):
        return out[0], hashlib.sha256(out[1]).hexdigest()

    def inspect(self, inputs, out):
        code, text = out
        problems = [] if code == 0 else [f"verify exited with {code}"]
        names = [r["mesh"]["name"] for r in json.loads(text)["reports"]]
        if names != list(inputs[0]):
            problems.append(f"report covers {names}, corpus is {list(inputs[0])}")
        return problems, {"exit_code": code, "report_bytes": len(text)}


WORKLOADS = {w.name: w for w in (SphereMinimize, LargeSplitEval, CorpusVerify)}
