"""The process-pool sharding helper: the range split, the processes a
pool starts, the CPU affinity that sets their number, and a worker that
dies."""

import os
import random
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from interlacepoly import _workers
from interlacepoly.eulerian import (chord_diagram_from_circuit, circle_graph,
                                    circuit_partition_poly, euler_circuit,
                                    random_eulerian_digraph)
from interlacepoly.interlace import qn_closed, qn_recursive
from interlacepoly.isotropic import tutte_martin_canonical
from interlacepoly.poly import UniPoly
from interlacepoly.verify import random_simple_graph

N = _workers.PARALLEL_THRESHOLD


def unit_hits(units, start, stop):
    """One count at each unit of [start, stop)."""
    return [int(start <= u < stop) for u in range(units)]


def exit_at_once(start, stop):
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
    @pytest.mark.parametrize("units", [1, 7, 1000, 1027])
    @pytest.mark.parametrize("cpus", [2, 3, 5])
    def test_every_unit_counted_once(self, monkeypatch, pin_cpus, units, cpus):
        monkeypatch.setattr(_workers, "ProcessPoolExecutor", ThreadPoolExecutor)
        pin_cpus(cpus)
        got = _workers.sum_histograms(unit_hits, (units,), units, N)
        assert got == unit_hits(units, 0, units) == [1] * units


class TestProcessCap:
    def test_capped_at_available_parallelism(self, pin_cpus, inline_pool):
        pin_cpus(3)
        assert _workers.sum_histograms(unit_hits, (1000,), 1000, N) == [1] * 1000
        assert inline_pool == [3]

    def test_capped_at_range_count(self, pin_cpus, inline_pool):
        pin_cpus(8)
        assert _workers.sum_histograms(unit_hits, (2,), 2, N) == [1, 1]
        assert inline_pool == [2]

    @pytest.mark.parametrize("n, cpus", [(N - 1, 4), (N, 1)])
    def test_one_process_runs_in_place(self, pin_cpus, inline_pool, n, cpus):
        pin_cpus(cpus)
        assert _workers.sum_histograms(unit_hits, (7,), 7, n) == [1] * 7
        assert inline_pool == []

    def test_routes_start_capped_pools(self, pin_cpus, inline_pool):
        pin_cpus(4)
        g = random_simple_graph(N, random.Random(3))
        d = random_eulerian_digraph(N, 3)
        h = circle_graph(chord_diagram_from_circuit(euler_circuit(d)))
        assert qn_closed(g) == tutte_martin_canonical(g) == qn_recursive(g)
        assert circuit_partition_poly(d) == (UniPoly.variable()
                                             * qn_recursive(h).substitute(1))
        assert inline_pool == [4, 4, 4]


class TestAffinity:
    """The affinity mask is read for real here; the tests above pin
    available_parallelism instead."""

    @pytest.mark.parametrize("cpus, pools", [({0}, []), ({0, 1, 2}, [3])],
                             ids=["one-cpu", "three-cpus"])
    def test_pool_size_follows_the_affinity_mask(self, monkeypatch, inline_pool,
                                                 cpus, pools):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert _workers.sum_histograms(unit_hits, (1000,), 1000, N) == [1] * 1000
        assert inline_pool == pools

    @pytest.mark.parametrize("count, pools", [(5, [5]), (None, [])],
                             ids=["five-cpus", "count-unknown"])
    def test_cpu_count_without_an_affinity_mask(self, monkeypatch, inline_pool,
                                                count, pools):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert _workers.sum_histograms(unit_hits, (1000,), 1000, N) == [1] * 1000
        assert inline_pool == pools


def test_dead_worker_raises_broken_process_pool(pin_cpus):
    pin_cpus(2)
    with pytest.raises(BrokenProcessPool):
        _workers.sum_histograms(exit_at_once, (), 8, N)
