"""In-run machine calibration: what makes wall clocks comparable here.

The boxes this benchmark runs on drift between a quiet and a contended
state every few tens of seconds (identical reps: 1.15 s, then 1.9 s for
twenty seconds, then 1.15 s again), which no statistic over one 10 s run
can average away: medians of eight identical reps spread 16-30 % (IQR over
median) across consecutive runs.  The drift is shared by everything the
process executes, so each timed rep is preceded by one sample of a fixed
kernel made of the operations the partitioner is made of -- stable argsort,
gather, segment reduce, prefix sum, and a Python heap loop -- on data the
benchmark owns, and the rep is reported as

    rep wall / calibration wall just before it * REFERENCE_S

that is, in seconds of a machine on which the kernel takes ``REFERENCE_S``.
On recorded traces of 72 identical reps this cut the run-to-run spread to
4-9 % (13 % on dist-x4).  Raw walls and the calibration samples are kept in
the document and in the per-layer metrics ``machine.*``.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

REFERENCE_S = 0.1


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 40, size=300_000)
        owners = np.sort(rng.integers(0, 30_000, size=300_000))
        self._starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])

    def sample(self) -> float:
        """Seconds the kernel takes right now."""
        t0 = time.perf_counter()
        order = np.argsort(self._keys, kind="stable")
        gathered = self._keys[order]
        np.add.reduceat(gathered, self._starts)
        np.cumsum(gathered)
        heap: list[tuple[int, int]] = []
        for i in range(40_000):
            heapq.heappush(heap, (-(i * 7919 % 1000), i))
        total = 0
        while heap:
            total += heapq.heappop(heap)[1]
        return time.perf_counter() - t0


def calibrated(wall: float, calibration: float) -> float:
    return wall / calibration * REFERENCE_S
