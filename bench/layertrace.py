"""Outside-in layer tracing for the benchmark.

Spans are recorded by wrapping the package's entry points at run time;
nothing under ``src/`` is edited. A wrapper replaces every binding that
callers use: the defining module's attribute, every ``from ... import``
copy of it in the other ``helfrich`` modules (aliases included, found by
identity), and class attributes for methods. Entry points that no longer
exist are reported as absent, so the benchmark keeps running when a later
change deletes or renames one.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root). Roots are the benchmark's own set-up and
body spans; calls outside them (the output checks) are not recorded.
Spans live in memory until the run ends.
A span's self time is its duration minus the durations of its direct
children; in one single-threaded process nothing waits, so no wait time
is recorded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# (metric prefix, module under helfrich, attribute path). The TriMesh
# constructor is the build + validation of a mesh.
ENTRY_POINTS = (
    ("shapes.icosphere", "shapes", "icosphere"),
    ("shapes.octasphere", "shapes", "octasphere"),
    ("shapes.jittered", "shapes", "jittered"),
    ("shapes.standard_corpus", "shapes", "standard_corpus"),
    ("mesh.TriMesh", "mesh", "TriMesh.__init__"),
    ("mesh.TriMesh.with_vertices", "mesh", "TriMesh.with_vertices"),
    ("mesh.diameter", "mesh", "diameter"),
    ("mesh.enclosed_volume", "mesh", "enclosed_volume"),
    ("curvature.curvature_field", "curvature", "curvature_field"),
    ("curvature.scalar_curvatures", "curvature", "scalar_curvatures"),
    ("gradient.energy_and_gradient", "gradient", "energy_and_gradient"),
    ("gradient.total_energy", "gradient", "total_energy"),
    ("optimize.minimize", "optimize", "minimize"),
    ("optimize._energy_terms", "optimize", "_energy_terms"),
    ("optimize._check_quality", "optimize", "_check_quality"),
    ("optimize._Constraints.values", "optimize", "_Constraints.values"),
    ("optimize._Constraints.gradients", "optimize", "_Constraints.gradients"),
    ("energy.multiphase_energy", "energy", "multiphase_energy"),
    ("energy.canham_helfrich", "energy", "canham_helfrich"),
    ("energy.willmore", "energy", "willmore"),
    ("density.coercivity_constants", "density", "coercivity_constants"),
    ("density.f_ch", "density", "f_ch"),
    ("constraints.phase_support", "constraints", "phase_support"),
    ("constraints.no_overlap_check", "constraints", "no_overlap_check"),
    ("constraints.overlap_measure", "constraints", "overlap_measure"),
    ("diagnostics.standard_report", "diagnostics", "standard_report"),
    ("diagnostics.verify_pointwise", "diagnostics", "verify_pointwise"),
    ("diagnostics.verify_first_variation", "diagnostics", "verify_first_variation"),
    ("diagnostics.verify_energy_bounds", "diagnostics", "verify_energy_bounds"),
    ("diagnostics.verify_diameter", "diagnostics", "verify_diameter"),
    ("diagnostics.verify_li_yau", "diagnostics", "verify_li_yau"),
    ("serialize.dumps", "serialize", "dumps"),
    ("serialize.dump", "serialize", "dump"),
    ("cli.cmd_verify", "cli", "cmd_verify"),
)

# Root spans opened by the benchmark itself around set-up and the timed body.
SETUP, BODY = "bench.setup", "bench.body"

# Line-search counters: trial meshes and accepted steps inside minimize.
TRIAL, ACCEPT, MINIMIZE = "mesh.TriMesh.with_vertices", "optimize._check_quality", "optimize.minimize"


class Tracer:
    """In-memory span recorder; ``install`` wraps the entry points."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.absent = []

    @contextlib.contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside the benchmark's root spans: output checks
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def install(self):
        """Wrap every binding of every entry point that exists."""
        self.absent = []
        for _, module_name, _ in ENTRY_POINTS:
            try:
                importlib.import_module(f"helfrich.{module_name}")
            except ModuleNotFoundError:
                pass  # its entry points are reported absent below
        loaded = [m for key, m in list(sys.modules.items()) if key == "helfrich" or key.startswith("helfrich.")]
        for name, module_name, path in ENTRY_POINTS:
            owner = sys.modules.get(f"helfrich.{module_name}")
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if parents:
                self._patch(owner, attr, wrapper)
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self):
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, reps, iterations):
        """Per-layer metrics for one set-up plus one body repetition.

        The spans cover ``reps`` traced repetitions, each a set-up and a
        body, and are averaged over them. ``iterations`` is the total
        optimizer iteration count of the traced repetitions.
        """
        own = self.self_times()
        inside_min = [False] * len(self.spans)
        for i, (name, _, _, parent) in enumerate(self.spans):
            inside_min[i] = parent >= 0 and (inside_min[parent] or self.spans[parent][0] == MINIMIZE)
        self_s, calls = {}, {}
        trials = accepted = 0
        unattributed = wall = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                unattributed += own[i] / reps
                wall += (end - start) / reps
                continue
            self_s[name] = self_s.get(name, 0.0) + own[i] / reps
            calls[name] = calls.get(name, 0) + 1
            if inside_min[i]:
                trials += name == TRIAL
                accepted += name == ACCEPT
        metrics = {}
        for name, _, _ in ENTRY_POINTS:
            metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
            metrics[f"{name}.calls"] = (calls.get(name, 0) / reps, "count")
        metrics["optimize.line_search.trials_per_iter"] = (
            trials / iterations if iterations else 0.0, "count")
        metrics["optimize.line_search.accept_ratio"] = (accepted / trials if trials else 0.0, "ratio")
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.unattributed_s"] = (unattributed, "s")
        return metrics

