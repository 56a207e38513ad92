"""Wall-clock timing scaled to a reference machine speed.

On a shared host the same single-threaded code runs at visibly different
speeds from one minute to the next (on the 2-core Xeon this benchmark was
written on, by up to 1.8x for 20 s and longer), so raw times of one run
do not repeat in the next. A fixed pure-Python loop timed right next to
the work tracks that speed: the ratio of the work's time to the loop's
time stayed within about 2% while both moved by 50%, for interpreter-bound
work (hashing) and numpy-bound work (probes) alike.

So a unit of work is reported in reference seconds. The loop runs when
the unit starts, every ``PERIOD_S`` while it runs (from a SIGALRM handler,
which Python runs in the main thread between bytecodes) and when it ends.
Each stretch of work between two loop runs is scaled by
``REF_LOOP_S / loop_s``, with ``loop_s`` the mean of the loop times at its
two ends and ``REF_LOOP_S`` the loop's time on the reference machine at
full speed. Time spent in the loop itself is left out of both the raw
and the scaled time.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

_MASK64 = (1 << 64) - 1
LOOP_ITERATIONS = 10_000
LOOP_REPEATS = 3
PERIOD_S = 0.25
# The loop's time at full speed on the reference machine (Intel Xeon,
# 2 vCPUs under KVM, Python 3.11): the low tail of 3000 runs.
REF_LOOP_S = 1.5e-3


def _loop() -> int:
    h = 0xCBF29CE484222325
    for i in range(LOOP_ITERATIONS):
        h = ((h ^ (i & 255)) * 0x100000001B3) & _MASK64
    return h


def loop_seconds() -> float:
    """Median time of a few calibration loops: the machine's current speed."""
    times = []
    for _ in range(LOOP_REPEATS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[LOOP_REPEATS // 2]


class Clock:
    """Times named units of work; keeps (name, wall seconds, reference seconds)."""

    def __init__(self):
        self.samples: list[tuple[str, float, float]] = []
        self._marks: list[tuple[float, float, float]] = []

    def _calibrate(self, *_signal_args) -> None:
        start = time.perf_counter()
        loop_s = loop_seconds()
        self._marks.append((start, time.perf_counter(), loop_s))

    @contextmanager
    def unit(self, name: str):
        """Time the block; nothing is recorded if it raises."""
        self._marks = []
        self._calibrate()
        previous = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._calibrate()
        wall = ref = 0.0
        for (_, end0, loop0), (start1, _, loop1) in zip(self._marks, self._marks[1:]):
            stretch = start1 - end0
            wall += stretch
            ref += stretch * REF_LOOP_S * 2 / (loop0 + loop1)
        self.samples.append((name, wall, ref))

    def totals(self, start: int = 0) -> tuple[float, float]:
        """(wall, reference) seconds summed over samples[start:]."""
        picked = self.samples[start:]
        return sum(s[1] for s in picked), sum(s[2] for s in picked)
