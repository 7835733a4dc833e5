"""Self-check of the benchmark itself, at tiny sizes.

    python3 bench/selfcheck.py

For every workload it runs ``run.py --tiny`` with tracing off and on and
checks that:

* the last line of standard output is a JSON object with exactly
  ``correct``, ``attempted``, ``failed`` and ``metrics``, and the run is
  correct with no failed repetition;
* every metric ``BENCHMARK.json`` names for that mode is emitted, with
  its unit, as a finite number, and no other metric is;
* the traced run's spans are consistent: every span is closed, a parent
  precedes and encloses its children, roots are the benchmark's own
  set-up and body spans, other names are known entry points, self times
  are non-negative, and the layer self times plus the benchmark's own
  glue add up to the traced wall time.

It also runs the benchmark in a copy holding only ``BENCHMARK.json`` and
the benchmark's directory, where it must exit non-zero without a result.
Exits 0 when every check passes.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layertrace import BODY, ENTRY_POINTS, SETUP  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
TIMEOUT = 600


def run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_result(proc, expected):
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"], {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"run not correct: {[result.get(k) for k in ('correct', 'attempted', 'failed')]}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name}: value {value!r}")
    return problems, metrics


def check_spans(path, metrics):
    problems = []
    spans = json.loads(path.read_text())["spans"]
    known = {name for name, _, _ in ENTRY_POINTS}
    own = [end - start if end is not None else math.nan for _, start, end, _ in spans]
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} ({name}) not closed properly")
            continue
        if parent < 0:
            if name not in (SETUP, BODY):
                problems.append(f"root span {i} is {name!r}")
            continue
        if name not in known:
            problems.append(f"span {i} has unknown name {name!r}")
        if not parent < i:
            problems.append(f"span {i} ({name}) has parent {parent} after it")
            continue
        _, p_start, p_end, _ = spans[parent]
        if not (p_start <= start and end <= p_end):
            problems.append(f"span {i} ({name}) outside its parent {parent}")
        own[parent] -= end - start
    if any(t < -1e-9 for t in own):
        problems.append("negative self time")
    layers = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    total = layers + metrics["trace.unattributed_s"]["value"]
    wall = metrics["trace.wall_s"]["value"]
    if not abs(total - wall) <= 1e-6 * max(wall, 1e-9):
        problems.append(f"self times sum to {total!r}, traced wall time is {wall!r}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        print(f"FAIL BENCHMARK.json workloads differ from {sorted(WORKLOADS)}")
        return 1
    failures = 0
    for workload in WORKLOADS:
        for trace, expected in modes.items():
            proc = run(ROOT, workload, trace)
            problems, metrics = check_result(proc, expected)
            if not problems and trace == 1:
                problems = check_spans(ROOT / ".bench_results" / f"{workload}-seed{SEED}.spans.json", metrics)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}")
            for problem in problems:
                print(f"     {problem}")
    (ROOT / ".bench_results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_results") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, next(iter(WORKLOADS)), 0)
        printed = any(line.startswith("{") for line in proc.stdout.splitlines())
        bad = proc.returncode == 0 or printed
        failures += bad
        print(f"{'FAIL' if bad else 'ok  '} without the package: exit code {proc.returncode}, "
              f"result printed: {printed}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
