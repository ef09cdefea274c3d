"""The process-pool sharding helper: the prefix width it gives a
kernel, one prefix per process, the processes a pool starts, the CPU
affinity that sets their number, and a worker that dies."""

import os
import random
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from interlacepoly import _workers
from interlacepoly.eulerian import (chord_diagram_from_circuit, circle_graph,
                                    circuit_partition_poly, euler_circuit,
                                    random_eulerian_digraph)
from interlacepoly.interlace import q2_closed, qn_closed, qn_recursive
from interlacepoly.isotropic import tutte_martin_canonical
from interlacepoly.poly import UniPoly
from interlacepoly.verify import random_simple_graph

N = _workers.PARALLEL_THRESHOLD


def unit_hits(k, prefix):
    """One count at the prefix, of the 2**k."""
    return [int(u == prefix) for u in range(1 << k)]


def exit_at_once(k, prefix):
    os._exit(1)


@pytest.fixture
def inline_pool(monkeypatch):
    """Puts a pool in place that records its max_workers and runs each
    task when it is submitted; returns the recorded sizes."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(_workers, "ProcessPoolExecutor", InlinePool)
    return sizes


class TestRangeSplit:
    @pytest.mark.parametrize("n", [1, 7, 1000, 1027])
    @pytest.mark.parametrize("cpus", [2, 3, 5])
    def test_every_unit_counted_once(self, monkeypatch, pin_cpus, n, cpus):
        monkeypatch.setattr(_workers, "ProcessPoolExecutor", ThreadPoolExecutor)
        pin_cpus(cpus)
        units = (2 if cpus < 4 else 4) if n >= N else 1
        assert _workers.sum_histograms(unit_hits, (), n) == [1] * units


class TestProcessCap:
    def test_capped_at_available_parallelism(self, pin_cpus, inline_pool):
        pin_cpus(3)
        assert _workers.sum_histograms(unit_hits, (), N) == [1, 1]
        assert inline_pool == [2]

    @pytest.mark.parametrize("cpus, procs", [(2, 2), (3, 2), (4, 4), (5, 4), (7, 4)])
    def test_one_prefix_per_process(self, pin_cpus, inline_pool, cpus, procs):
        # The largest power of two the CPUs hold, so that each process
        # walks one prefix.
        pin_cpus(cpus)
        assert _workers.sum_histograms(unit_hits, (), N) == [1] * procs
        assert inline_pool == [procs]

    @pytest.mark.parametrize("n, cpus", [(N - 1, 4), (N, 1)])
    def test_one_process_runs_in_place(self, pin_cpus, inline_pool, n, cpus):
        pin_cpus(cpus)
        assert _workers.sum_histograms(unit_hits, (), n) == [1]
        assert inline_pool == []

    def test_routes_start_capped_pools(self, pin_cpus, inline_pool):
        pin_cpus(4)
        g = random_simple_graph(N, random.Random(3))
        d = random_eulerian_digraph(N, 3)
        h = circle_graph(chord_diagram_from_circuit(euler_circuit(d)))
        assert qn_closed(g) == tutte_martin_canonical(g) == qn_recursive(g)
        assert q2_closed(g).eval_at(2) == qn_recursive(g).with_var("y")
        assert circuit_partition_poly(d) == (UniPoly.variable()
                                             * qn_recursive(h).substitute(1))
        assert inline_pool == [4, 4, 4, 4]


class TestShardBits:
    """In this process the kernel walks one tree, k = 0, instead of 2**k
    walks that each repeat its first levels."""

    @pytest.mark.parametrize("n, cpus, k", [(N - 1, 4, 0), (N, 1, 0), (N, 2, 1)])
    def test_prefixes_only_where_the_sum_pools(self, pin_cpus, inline_pool,
                                               n, cpus, k):
        pin_cpus(cpus)
        widths = set()

        def width(bits, prefix):
            widths.add(bits)
            return [1]

        assert _workers.sum_histograms(width, (), n) == [1 << k]
        assert widths == {k}


class TestAffinity:
    """The affinity mask is read for real here; the tests above pin
    available_parallelism instead."""

    @pytest.mark.parametrize("cpus, pools", [({0}, []), ({0, 1, 2}, [2])],
                             ids=["one-cpu", "three-cpus"])
    def test_pool_size_follows_the_affinity_mask(self, monkeypatch, inline_pool,
                                                 cpus, pools):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        units = pools[0] if pools else 1
        assert _workers.sum_histograms(unit_hits, (), N) == [1] * units
        assert inline_pool == pools

    @pytest.mark.parametrize("count, pools", [(5, [4]), (None, [])],
                             ids=["five-cpus", "count-unknown"])
    def test_cpu_count_without_an_affinity_mask(self, monkeypatch, inline_pool,
                                                count, pools):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        units = pools[0] if pools else 1
        assert _workers.sum_histograms(unit_hits, (), N) == [1] * units
        assert inline_pool == pools


def test_dead_worker_raises_broken_process_pool(pin_cpus):
    pin_cpus(2)
    with pytest.raises(BrokenProcessPool):
        _workers.sum_histograms(exit_at_once, (), N)
