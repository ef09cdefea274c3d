"""Worker-count resolution and the process-pool sharding shared by the
parallel subset sums."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence

WORKERS_ENV = "INTERLACEPOLY_WORKERS"

# Below this size the per-process overhead dwarfs the sum itself.
PARALLEL_THRESHOLD = 16


def available_parallelism() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers: Optional[int]) -> int:
    """Explicit argument, else the INTERLACEPOLY_WORKERS environment
    variable, else the machine's available parallelism."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return available_parallelism()
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def sum_histograms(kernel: Callable[..., List[int]], args: Sequence,
                   units: int, n: int, workers: Optional[int]) -> List[int]:
    """Elementwise sum of kernel(*args, start, stop) over ranges that
    split the work units [0, units), for a problem of size n.

    In this process below PARALLEL_THRESHOLD or with one process; else
    about four ranges per process, since unit costs vary along the range.
    The pool starts all its processes at the first submit, so it starts
    min(requested workers, available parallelism, ranges) of them."""
    procs = min(resolve_workers(workers), available_parallelism())
    if procs <= 1 or n < PARALLEL_THRESHOLD:
        return kernel(*args, 0, units)
    step = max(1, units // (procs * 4))
    ranges = [(start, min(start + step, units)) for start in range(0, units, step)]
    with ProcessPoolExecutor(max_workers=min(procs, len(ranges))) as pool:
        jobs = [pool.submit(kernel, *args, start, stop) for start, stop in ranges]
        return [sum(col) for col in zip(*(job.result() for job in jobs))]
