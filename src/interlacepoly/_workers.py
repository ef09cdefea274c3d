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


def available_parallelism() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the CPU count."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def sum_histograms(kernel: Callable[..., List[int]], args: Sequence,
                   n: int) -> List[int]:
    """Elementwise sum of kernel(*args, k, start, stop), which walks the
    prefixes in [start, stop) of the first k of n decisions: in this
    process below PARALLEL_THRESHOLD or with one CPU, as one walk (k = 0);
    else k = prefix_bits(n), in about four ranges per CPU, since unit
    costs vary along the range.  The pool starts all its processes at
    the first submit, so min(available parallelism, ranges) of them."""
    procs = available_parallelism()
    if procs <= 1 or n < PARALLEL_THRESHOLD:
        return kernel(*args, 0, 0, 1)
    k = prefix_bits(n)
    units = 1 << k
    step = max(1, units // (procs * 4))
    ranges = [(start, min(start + step, units)) for start in range(0, units, step)]
    with ProcessPoolExecutor(min(procs, len(ranges))) as pool:
        jobs = [pool.submit(kernel, *args, k, start, stop) for start, stop in ranges]
        return [sum(col) for col in zip(*(job.result() for job in jobs))]
