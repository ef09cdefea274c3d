"""The process-pool sharding shared by the parallel subset sums.  It is
the one place that decides how a sum is split into work units and how
many processes it gets."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Sequence

# Below this size the per-process overhead dwarfs the sum itself.
PARALLEL_THRESHOLD = 16


def available_parallelism() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the CPU count."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def sum_histograms(kernel: Callable[..., List[int]], args: Sequence,
                   n: int) -> List[int]:
    """Elementwise sum of kernel(*args, k, prefix) over the 2**k prefixes,
    where the kernel walks the leaves whose first k of n decisions, read
    as bits, are the prefix: in this process below PARALLEL_THRESHOLD or
    with one CPU, as one walk (k = 0); else in a pool of 2**k processes,
    the largest power of two the available parallelism holds, one prefix
    each, so that each process warms one memo for one subtree."""
    procs = available_parallelism()
    if procs <= 1 or n < PARALLEL_THRESHOLD:
        return kernel(*args, 0, 0)
    k = procs.bit_length() - 1
    with ProcessPoolExecutor(1 << k) as pool:
        jobs = [pool.submit(kernel, *args, k, prefix) for prefix in range(1 << k)]
        return [sum(col) for col in zip(*(job.result() for job in jobs))]
