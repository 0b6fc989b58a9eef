"""How fast the host runs this interpreter, moment by moment.

Other tenants of a shared host slow the benchmark down in spells that
last from under a second to many minutes, by up to half or more.  No
statistic over one run removes a spell that outlasts the run, so the
benchmark reports its times at the reference host speed: it scales each
stretch of time by ``REFERENCE_S`` over :func:`calibration_s` measured
at that moment.  The calibration loops share no code with the program,
so a change to the program never moves them.
"""

from __future__ import annotations

import random
import threading
import time
from typing import List, Tuple

#: The calibration time on the host the benchmark was tuned on (2-vCPU
#: Xeon at 2.0 GHz, Python 3.11.7) when it runs at full speed.
REFERENCE_S = 1.15e-4

#: Seconds between two calibrations of a :class:`SpeedSampler`.
INTERVAL_S = 0.05

_RANDOM = random.Random(0)
#: A table of a few megabytes and a list of about 32 MB, read at random:
#: contention for the host's caches and memory slows these reads, as it
#: slows the program, while it barely slows the integer loop.
_TABLE = {i: str(i) for i in range(1 << 16)}
_KEYS = [_RANDOM.randrange(1 << 16) for _ in range(1500)]
_FLOATS = [_RANDOM.random() for _ in range(1 << 20)]
_INDICES = [_RANDOM.randrange(1 << 20) for _ in range(1500)]


def _integer_loop() -> int:
    acc = 0
    for i in range(3000):
        acc = (acc * 31 + i * i) & 0xFFFFFFF
    return acc


def _dictionary_loop() -> int:
    table, total = _TABLE, 0
    for key in _KEYS:
        total += len(table[key])
    return total


def _memory_loop() -> float:
    floats, total = _FLOATS, 0.0
    for index in _INDICES:
        total += floats[index]
    return total


def _fastest(loop, clock=time.thread_time) -> float:
    best = float("inf")
    for _ in range(3):
        started = clock()
        loop()
        best = min(best, clock() - started)
    return best


def calibration_s() -> float:
    """The geometric mean of the fastest of three runs of each loop, in
    this thread's CPU seconds."""
    product = 1.0
    for loop in (_integer_loop, _dictionary_loop, _memory_loop):
        product *= _fastest(loop)
    return product ** (1 / 3)


class SpeedSampler:
    """Calibrates every :data:`INTERVAL_S` in a background thread.

    The thread takes the interpreter lock for about a millisecond each
    time; it measures CPU time, so waiting for the lock or for a core
    does not count.  In a forked pool worker the thread does not exist.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-calibration")

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            calibration = calibration_s()
            self.samples.append((time.perf_counter(), calibration))

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def scaled(self, started: float, ended: float) -> Tuple[float, float]:
        """The ``time.perf_counter`` interval from ``started`` to
        ``ended`` at the reference speed, and its median calibration.

        Each stretch up to a sample is scaled by that sample's
        calibration, and the stretch after the last one by the last.
        """
        inside = [s for s in self.samples if started < s[0] < ended]
        if not inside:  # shorter than an interval: calibrate now
            inside = [(ended, calibration_s())]
        points = [started] + [t for t, _ in inside] + [ended]
        calibrations = [c for _, c in inside] + [inside[-1][1]]
        scaled = sum((b - a) * REFERENCE_S / c for a, b, c in
                     zip(points, points[1:], calibrations))
        ordered = sorted(calibrations[:-1])
        return scaled, ordered[len(ordered) // 2]
