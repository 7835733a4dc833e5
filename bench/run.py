"""Benchmark of the helfrich engine: three workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload sphere_minimize --seed 11 --seconds 30 --trace 0

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics, scaled to a reference host speed by a probe that
samples the host all through the run (see ``calibration.py``);
``--trace 1`` times it untraced, then again with the entry points wrapped
(see ``layertrace.py``), and reports per-layer self times and call counts
plus the tracing overhead, in raw seconds. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run's provenance and
deterministic results, which are also written, with the spans of a traced
run, under ``.bench_results/`` in the checkout.

The package is imported from ``src/`` of this checkout and nowhere else;
without it the benchmark exits with status 2 and prints no result.
"""

import os

# One process, one thread: cap every BLAS/OpenMP pool before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import Probe  # noqa: E402
from layertrace import BODY, SETUP, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_SECONDS = 3.0  # back-to-back set-ups before the timed body, for setup_s
MIN_SETUPS = 5
EXIT_NO_PACKAGE = 2


def timed_loop(seconds, min_steps, step):
    """Call ``step`` back to back for about ``seconds``, at least ``min_steps`` times."""
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_steps and elapsed + statistics.median(durations) > seconds:
            return


class Repetitions:
    """Timed repetitions of one workload, each on freshly set-up inputs.

    Every repetition sets its inputs up anew, outside the body's timed
    window, so no cache an earlier repetition left on a mesh is reused;
    the set-up's (start, end) goes to ``setup_spans``. A repetition fails
    if it raises, fails its output check, or returns an output that
    differs from the first repetition's.
    """

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.setup_spans, self.failed, self.attempted = [], 0, 0
        self.reference, self.details = None, {}

    def set_up(self):
        t0 = time.perf_counter()
        inputs = self.workload.setup(self.seed)
        self.setup_spans.append((t0, time.perf_counter()))
        return inputs

    def run(self, tracer=None):
        """One repetition; returns the body's (start, end) and its units."""
        traced = tracer.span if tracer is not None else contextlib.nullcontext
        workload, n_units = self.workload, 0
        t0 = t1 = time.perf_counter()
        try:
            with traced(SETUP):
                inputs = self.set_up()
            t0 = time.perf_counter()
            with traced(BODY):
                out = workload.body(inputs)
            t1 = time.perf_counter()
            problems, details = workload.inspect(inputs, out)
            signature = workload.signature(out)
            if self.reference is None:
                self.reference = signature
            elif signature != self.reference:
                problems.append("output differs from the reference repetition")
            n_units = workload.units(inputs, out)
            if tracer is None:
                self.details = details
        except Exception:  # a failed repetition is counted, the run goes on
            t1 = time.perf_counter()
            problems = ["raised:\n" + traceback.format_exc()]
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"repetition {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        return (t0, t1), n_units


def measure_plain(reps, seconds, probe):
    """End-to-end metrics with tracing off; times in reference seconds."""
    bodies, units = [], []

    def step():
        span, n_units = reps.run()
        bodies.append(span)
        units.append(n_units)

    timed_loop(seconds, 2, step)
    setups = [probe.scale(*span) for span in reps.setup_spans]
    times = [probe.scale(*span) for span in bodies]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_norm_s": (statistics.median(times), "s"),
        "s_per_iter_norm": (statistics.median(t / max(u, 1) for t, u in zip(times, units)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    return metrics, {
        "setup_norm": setups,
        "body_norm": times,
        "setup": [probe.work_s(*span) for span in reps.setup_spans],
        "body": [probe.work_s(*span) for span in bodies],
        "probe_chunk": [end - start for start, end in probe.chunks],
    }


def measure_traced(reps, seconds, tracer):
    """Per-layer metrics from pairs of one untraced and one traced repetition.

    The order inside a pair alternates, and there are at least two pairs,
    so slow drift in machine speed cancels from the paired differences
    that make up the overhead. Times here are raw seconds: no probe runs,
    so none lands inside a span.
    """
    plain, traced = [], []

    def traced_run():
        tracer.install()
        try:
            t0, t1 = reps.run(tracer)[0]
            traced.append(t1 - t0)
        finally:
            tracer.uninstall()

    def plain_run():
        t0, t1 = reps.run()[0]
        plain.append(t1 - t0)

    def step():
        order = (plain_run, traced_run)
        for run in order if len(traced) % 2 == 0 else reversed(order):
            run()

    timed_loop(seconds, 2, step)
    # outputs are checked equal across repetitions, so every one ran as many iterations
    metrics = tracer.layer_metrics(len(traced), reps.details.get("iterations", 0) * len(traced))
    overhead = [t - p for t, p in zip(traced, plain)]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    metrics["wall_s"] = (statistics.median(plain), "s")
    metrics["iters_to_target"] = (reps.details.get("iters_to_target", 0), "count")
    metrics["willmore_excess"] = (reps.details.get("willmore_excess", 0.0), "fraction")
    return metrics, {"setup": [t1 - t0 for t0, t1 in reps.setup_spans],
                     "body": plain, "traced_body": traced}


def provenance(args, tracer=None):
    import numpy
    import scipy

    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, IndexError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "helfrich").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "absent_entry_points": tracer.absent if tracer else [],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: per workload)")
    parser.add_argument("--seconds", type=float, default=30.0, help="timed body length per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-check")
    args = parser.parse_args(argv)

    if not (SRC / "helfrich" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'helfrich'}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    sys.path.insert(0, str(SRC))
    import helfrich

    if Path(helfrich.__file__).resolve().parent != SRC / "helfrich":
        print(f"error: helfrich imported from {helfrich.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        workload = WORKLOADS[args.workload](args.tiny, Path(workdir))
        if args.seed is None:
            args.seed = workload.default_seed
        reps = Repetitions(workload, args.seed)
        if args.trace == 0:
            tracer, probe = None, Probe()
            with probe.sampling():
                timed_loop(SETUP_SECONDS, MIN_SETUPS, reps.set_up)
                workload.warmup(workload.setup(args.seed))
                metrics, times = measure_plain(reps, args.seconds, probe)
        else:
            tracer = Tracer()
            timed_loop(SETUP_SECONDS, MIN_SETUPS, reps.set_up)
            workload.warmup(workload.setup(args.seed))
            metrics, times = measure_traced(reps, args.seconds, tracer)
            with open(RESULTS / f"{args.workload}-seed{args.seed}.spans.json", "w") as fh:
                json.dump({"spans": tracer.spans, "absent": tracer.absent}, fh)

    failed, attempted, details = reps.failed, reps.attempted, reps.details
    details["error_rate"] = failed / attempted
    record = {"provenance": provenance(args, tracer), "details": details,
              "times": times}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
