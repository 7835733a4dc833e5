"""Host-speed calibration for the benchmark's end-to-end times.

The benchmark runs on a few cores of a shared host whose speed moves by
up to ~1.5x from one second to the next and for spells that outlast a
run, so a raw time says as much about the host as about the program.
While the untraced workload runs, a probe interrupts it every
``PERIOD_S`` seconds (``SIGALRM``, handled between bytecodes of the main
thread) and times one chunk of fixed work that does not touch the
package. A measured interval is then reported as

    (interval - probe time inside it) * REFERENCE_CHUNK_S / mean chunk time

with the mean taken over the chunks run within ``PAD_S`` of the interval:
the time the work would take on a host where one chunk takes
``REFERENCE_CHUNK_S`` (about its median on a shared 2-vCPU Intel Xeon
VM at 2.1 GHz). Because the chunks sample the same seconds as the work, the
host's swings cancel. The chunk (~25 ms, so ~10% of a run) mixes what
the workloads do: numpy gathers, cross products and scatter-adds on
mesh-sized arrays larger than L2, and interpreted Python arithmetic and
dict work.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

PERIOD_S = 0.25
PAD_S = 1.0
REFERENCE_CHUNK_S = 0.022
N_VERTICES, N_FACES = 40000, 80000


class Probe:
    """Samples host speed with timed chunks; ``scale`` turns intervals into reference seconds."""

    def __init__(self):
        rng = np.random.default_rng(20191205)
        self._x = rng.standard_normal((N_VERTICES, 3))
        self._faces = rng.integers(0, N_VERTICES, size=(N_FACES, 3))
        self.chunks = []  # (start, end) of every chunk run

    def _chunk(self):
        x, f = self._x, self._faces
        normal = np.cross(x[f[:, 1]] - x[f[:, 0]], x[f[:, 2]] - x[f[:, 0]])
        area = np.sqrt(np.einsum("ij,ij->i", normal, normal))
        acc = np.zeros_like(x)
        for k in range(3):
            acc[:, k] = np.bincount(f[:, 0], weights=normal[:, k] / (1.0 + area), minlength=N_VERTICES)
        table, total = {}, 0.0
        for i in range(20000):
            key = i % 97
            table[key] = table.get(key, 0.0) + i * 0.5
            total += (i % 7) * 1.25 - table[key] * 1e-9
        return float(acc.sum()) + total

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._chunk()
        self.chunks.append((t0, time.perf_counter()))

    @contextlib.contextmanager
    def sampling(self):
        """Run a chunk every ``PERIOD_S`` seconds while the block runs."""
        self._on_alarm(None, None)  # so every run has a chunk to scale by
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def work_s(self, t0, t1):
        """Seconds of [t0, t1] not spent in chunks."""
        return (t1 - t0) - sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in self.chunks)

    def chunk_s(self, t0=-np.inf, t1=np.inf):
        """Mean chunk time within ``PAD_S`` of [t0, t1]; over all chunks if none."""
        near = [e - s for s, e in self.chunks if t0 - PAD_S <= s <= t1 + PAD_S]
        return float(np.mean(near or [e - s for s, e in self.chunks]))

    def scale(self, t0, t1):
        """Work time of [t0, t1] in reference seconds."""
        return self.work_s(t0, t1) * REFERENCE_CHUNK_S / self.chunk_s(t0, t1)
