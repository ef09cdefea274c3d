"""The process-pool sharding shared by the parallel subset sums.  It is
the one place that decides how a sum is split into work units and how
many processes it gets."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Sequence

# Below this size the per-process overhead dwarfs the sum itself.
PARALLEL_THRESHOLD = 16


def prefix_bits(n: int) -> int:
    """How many leading choices of a walk over 2**n leaves make one work
    unit: 2**5 units give four ranges each for up to 8 processes."""
    return min(n, 5)


def shard_bits(n: int) -> int:
    """The prefix width k a route passes its kernel, which sum_histograms
    then splits as 2**k work units: prefix_bits(n) where the sum goes to
    a pool, and 0 where it runs in this process, so that the walk is one
    tree instead of 2**prefix_bits(n) walks that each repeat its first
    levels."""
    return 0 if _in_place(n, available_parallelism()) else prefix_bits(n)


def _in_place(n: int, procs: int) -> bool:
    return procs <= 1 or n < PARALLEL_THRESHOLD


def available_parallelism() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the CPU count."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def sum_histograms(kernel: Callable[..., List[int]], args: Sequence,
                   units: int, n: int) -> List[int]:
    """Elementwise sum of kernel(*args, start, stop) over ranges that
    split the work units [0, units), for a problem of size n.

    In this process below PARALLEL_THRESHOLD or with one CPU available;
    else about four ranges per CPU, since unit costs vary along the
    range.  The pool starts all its processes at the first submit, so it
    starts min(available parallelism, ranges) of them."""
    procs = available_parallelism()
    if _in_place(n, procs):
        return kernel(*args, 0, units)
    step = max(1, units // (procs * 4))
    ranges = [(start, min(start + step, units)) for start in range(0, units, step)]
    with ProcessPoolExecutor(min(procs, len(ranges))) as pool:
        jobs = [pool.submit(kernel, *args, start, stop) for start, stop in ranges]
        return [sum(col) for col in zip(*(job.result() for job in jobs))]
