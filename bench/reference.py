"""A fixed pure-Python computation that times the machine, not the program.

On a shared host the same work can take 10-30 % longer from one second,
or one minute, to the next (on a 2-vCPU virtual machine a fixed loop
timed in 10-second windows, and the benchmark's own passes from one run
to the next, varied that much), which is as large as the changes the
benchmark has to detect.  So while a worker runs, a probe
thread times a short slice of this kernel every ``PROBE_EVERY_S``.  Under
the interpreter lock the slices interleave with the program's work at a
few milliseconds' grain and meet the same machine speed.  A time measured
between ``start`` and ``end``, multiplied by ``Probe.factor(start, end)``
(the slice's CPU time at the reference speed over its mean CPU time
around that interval), is in reference seconds: what the work would
have taken had the machine run at the reference speed.

The kernel shares no code with the package, so no change to the program
can change it.  It does the kinds of work the workloads spend their time
on: Bron-Kerbosch on a fixed 22-vertex bitset graph, exact Gaussian
elimination over ``fractions.Fraction``, and building, sorting and
serialising small objects as the CLI does for its JSON output.  The probe
takes about 6 % of the process's time, the same share in every run.
"""

from __future__ import annotations

import json
import random
import threading
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter, thread_time

REFERENCE_S = 0.003  # CPU seconds of one slice at the reference speed
PROBE_EVERY_S = 0.05  # pause between two slices
WINDOW_S = 0.5  # slices this close to an interval time it
WARMUP_SLICES = 5  # timed when the probe starts, before any interval

_rng = random.Random(12345)
_N = 22
_ADJ = [0] * _N
for _u in range(_N):
    for _v in range(_u + 1, _N):
        if _rng.random() < 0.5:
            _ADJ[_u] |= 1 << _v
            _ADJ[_v] |= 1 << _u
_MATRIX = [[Fraction(_rng.randint(-9, 9)) for _ in range(9)]
           for _ in range(8)]


def _cliques(r: int, p: int, x: int, out: list):
    if not p and not x:
        out.append(r)
        return
    pivot = max((v for v in range(_N) if (p | x) >> v & 1),
                key=lambda v: (_ADJ[v] & p).bit_count())
    cand = p & ~_ADJ[pivot]
    while cand:
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        _cliques(r | 1 << v, p & _ADJ[v], x & _ADJ[v], out)
        p &= ~(1 << v)
        x |= 1 << v


def _eliminate():
    m = [row[:] for row in _MATRIX]
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[c], m[pivot] = m[pivot], m[c]
        for r in range(len(m)):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


def _churn():
    rows = [{"id": i, "set": list(range(i % 17)), "tag": f"v{i}"}
            for i in range(200)]
    rows.sort(key=lambda r: (len(r["set"]), r["tag"]))
    return json.dumps(rows)


def _slice() -> float:
    """CPU seconds of this thread spent on one slice of the kernel."""
    start = thread_time()
    _cliques(0, (1 << _N) - 1, 0, [])
    _cliques(0, (1 << _N) - 1, 0, [])
    _eliminate()
    _churn()
    return thread_time() - start


class Probe:
    """A daemon thread that times a slice every ``PROBE_EVERY_S`` from
    ``start()`` to ``stop()``."""

    def __init__(self):
        self.stamps = []  # perf_counter() at the end of each slice
        self.cpu = []     # CPU seconds of each slice
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        self.cpu.append(_slice())
        self.stamps.append(perf_counter())

    def _run(self):
        for _ in range(WARMUP_SLICES):
            self._sample()
        while not self._stop.wait(PROBE_EVERY_S):
            self._sample()

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second between ``start`` and
        ``end`` (``perf_counter()`` values), from the slices that ended
        within ``WINDOW_S`` of that interval; call after ``stop()``."""
        lo = bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect_right(self.stamps, end + WINDOW_S)
        cpu = self.cpu[lo:hi] or self.cpu
        return REFERENCE_S * len(cpu) / sum(cpu)
