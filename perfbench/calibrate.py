"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent over seconds to minutes as neighbouring load comes and goes.
A fixed pass of interpreter work that does not use ``blockdag`` (tuple-keyed
dict updates, string formatting, pairwise frozenset checks, a sort) is timed
in processor seconds between consecutive timed operations. Its speed factor
for an operation is ``NOMINAL_S`` over the mean of the passes just before
and just after it, and the processor seconds the operation used (all its
threads) are scaled by that factor: they read as if the machine ran at the
speed where one pass takes ``NOMINAL_S``. A change to the program moves the
scaled value as it moves the raw one; a change in the machine's speed
mostly cancels.

Processor time, not wall time, because on a busy host the waits dominate
the noise: sleeping and lock-waiting threads wake late, and time the
hypervisor gives the virtual CPU to another tenant (steal) is wall time but
not processor time. Wall times are still recorded, unscaled, beside them.
"""

from __future__ import annotations

import gc
import random
import time

# About the median processor seconds of one pass on a 2-vCPU Xeon VM with
# Python 3.11 (16.6-18.2 ms over runs).
# Only a scale: it never changes, so values stay comparable across commits.
NOMINAL_S = 0.0175

_rng = random.Random(7)
_SETS = [frozenset(_rng.randrange(4000) for _ in range(4)) for _ in range(300)]
_ITEMS = [(_rng.randrange(10**6), _rng.random()) for _ in range(3000)]


def _work() -> int:
    counts: dict = {}
    acc = 0
    for i in range(10000):
        k = (i * 7919) % 1009
        key = (k, i & 7)
        counts[key] = counts.get(key, 0) + 1
        acc += len(str(k))
    for i, a in enumerate(_SETS):
        for b in _SETS[i + 1:]:
            if not a.isdisjoint(b):
                acc += 1
    sums: dict = {}
    for k, v in _ITEMS:
        sums[k] = sums.get(k, 0.0) + v
    return acc + len(sorted(sums))


def now() -> tuple[float, float]:
    """Wall and process (all threads) processor clocks, in seconds."""
    return time.perf_counter(), time.process_time()


def since(start: tuple[float, float]) -> tuple[float, float]:
    """Wall and processor seconds since ``start``, a value of ``now()``."""
    wall, cpu = now()
    return wall - start[0], cpu - start[1]


def scaled(took: tuple[float, float], factor: float) -> float:
    """Processor seconds of ``took``, a value of ``since()``, at the nominal speed."""
    return took[1] * factor


def pass_seconds() -> float:
    """Processor seconds of one calibration pass, with the cyclic collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        _work()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Scale factors for operations timed back to back, one pass between each two."""

    def __init__(self) -> None:
        self.before = pass_seconds()
        self.passes = [self.before]

    def factor(self) -> float:
        """Factor for the operation that has just ended; runs the pass after it."""
        after = pass_seconds()
        self.passes.append(after)
        factor = NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return factor

    def skip(self) -> None:
        """Re-time the machine after untimed work, before the next timed operation."""
        self.before = pass_seconds()
        self.passes.append(self.before)
