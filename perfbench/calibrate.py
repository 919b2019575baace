"""A fixed pure-Python loop that gauges how fast a CPU runs right now.

A shared host swings between speeds up to two times apart, for seconds
at a time and for each CPU on its own, and a run of tens of seconds
lands on whatever phases it meets.  The driver times this loop on the
service's CPU and on its own CPU just before and just after each timed
pass (and before each set-up), while the service is idle, and
:mod:`perfbench.report` scales that pass's times by
``REFERENCE_S / calibration``: every time metric is reported in
milliseconds (or seconds) *at the reference speed*, the speed at which
the loop takes ``REFERENCE_S``.

The loop imports nothing from ``repro``, so no change to the program
moves it; a change to the program moves every scaled figure by its own
ratio.  It exercises what the service spends its time on: bytecode,
small-object allocation, dict and frozenset hashing, sorting and JSON.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time

#: Seconds one loop takes at the reference speed (about the fast phase
#: of a 2-vCPU Xeon cloud VM under CPython 3.11): a scale, so only its
#: constancy across runs matters.
REFERENCE_S = 0.005

#: Loops per calibration; their median is kept.
REPEATS = 3

_ITERATIONS = 6000


def _loop() -> float:
    started = time.perf_counter()
    counts: dict[str, int] = {}
    mixed = 0
    pending: list[tuple[int, int]] = []
    for i in range(_ITERATIONS):
        key = f"k{i % 97}"
        counts[key] = counts.get(key, 0) + i
        mixed ^= hash(frozenset((i & 63, (i * 7) & 63, i % 5)))
        pending.append((i % 13, -i))
        if len(pending) > 50:
            pending.sort()
            del pending[10:]
    json.loads(json.dumps(counts, sort_keys=True))
    return time.perf_counter() - started


def cpus() -> tuple[int | None, int | None]:
    """The CPUs the service and the driver are pinned to.

    Each keeps its own CPU, so the calibration of that CPU speaks for
    it: on a shared host the two CPUs meet interference of their own.
    With a single CPU available nothing is pinned.
    """
    available = sorted(os.sched_getaffinity(0))
    if len(available) < 2:
        return None, None
    return available[0], available[1]


def calibrate(cpu: int | None = None) -> float:
    """The median time of ``REPEATS`` loops on ``cpu``, in seconds.

    The driver moves onto ``cpu`` for the loops (the service is idle
    then) and back; the collector is off throughout.
    """
    home = os.sched_getaffinity(0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        return statistics.median(_loop() for _ in range(REPEATS))
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, home)
        if enabled:
            gc.enable()


def factor(calibration_s: float) -> float:
    """What a time measured next to ``calibration_s`` is multiplied by."""
    return REFERENCE_S / calibration_s
