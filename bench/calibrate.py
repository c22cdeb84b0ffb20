"""Interpreter-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts: other tenants slow
both wall time and CPU time of a pure-Python process by up to 2x, for
seconds to minutes.  A fixed piece of pure-Python work, timed next to the
program's operations, measures that drift, and dividing by it removes it.

``calibration_s`` times ``reference_work`` once.  It uses the standard
library only and never imports jacstab, so no change to the program moves
it.  Its mix (permutations, tuple sorting, dict and frozenset hashing,
``Fraction`` arithmetic) is the kind of work jacstab does.

A time t measured next to a calibration that took c seconds is reported as
``t * REFERENCE_S / c``: the time the operation would have taken on the
reference machine, where one calibration takes REFERENCE_S seconds.
REFERENCE_S is a fixed constant; it must not change between two commits
that are compared, and then the reported times compare the program's own
costs.
"""

from __future__ import annotations

import gc
import itertools
from fractions import Fraction
from time import perf_counter

# seconds one calibration took on a 2-vCPU shared x86-64 host, Python 3.11
REFERENCE_S = 0.015
REFERENCE_CHECK = (5040, 27720, 143)


def reference_work() -> tuple[int, int, int]:
    """Fixed pure-Python work; returns a checksum that never varies."""
    seen: dict[tuple, int] = {}
    for perm in itertools.permutations(range(7)):
        key = tuple(sorted(zip(perm, perm[1:])))
        seen[key] = seen.get(key, 0) + 1
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i % 7 - 3, i % 11 + 1)
    sets = set()
    for i in range(8000):
        sets.add(frozenset((i % 13, i % 17)))
    return len(seen), total.denominator, len(sets)


def calibration_s() -> float:
    """Duration of one ``reference_work`` call, in seconds.

    The garbage collector is off meanwhile.  A collection would scan the
    objects the workload holds, so the calibration would slow as the
    program's heap grows, and a program that holds more would read faster.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        check = reference_work()
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if check != REFERENCE_CHECK:
        raise RuntimeError(f"calibration checksum {check} != {REFERENCE_CHECK}")
    return elapsed
