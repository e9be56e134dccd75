"""Interleaved median timing shared by the ratio gates.

A gate that compares two contenders times each in samples of at least
``MIN_SAMPLE_S`` (its call repeated until the sample is that long),
alternates the contenders' samples ``SAMPLES`` times, and compares the
medians of seconds per call, with no absolute slack: a slow phase of a
shared host then hits every contender alike instead of biasing one.
"""

from __future__ import annotations

import statistics
import time

#: Shortest timed sample, per contender (its call repeated to fill it).
MIN_SAMPLE_S = 0.2
#: Interleaved samples per contender; a gate compares their medians.
SAMPLES = 5


def _sample(func):
    """One timed sample: ``func`` called until the sample has lasted at
    least ``MIN_SAMPLE_S``.  Returns (seconds per call, calls, last
    result)."""
    calls = 0
    start = time.perf_counter()
    while True:
        result = func()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_SAMPLE_S:
            return elapsed / calls, calls, result


def interleaved_medians(*funcs):
    """Median seconds per call of each contender, its last result, and
    its median calls per sample.

    Each contender is called once untimed first, which keeps allocator
    growth and lazily-initialised machinery out of the samples.
    """
    for func in funcs:
        func()
    seconds = [[] for _ in funcs]
    calls = [[] for _ in funcs]
    results = [None] * len(funcs)
    for _ in range(SAMPLES):
        for index, func in enumerate(funcs):
            per_call, count, results[index] = _sample(func)
            seconds[index].append(per_call)
            calls[index].append(count)
    return ([statistics.median(series) for series in seconds], results,
            [int(statistics.median(counts)) for counts in calls])
