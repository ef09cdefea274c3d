"""The memo budget's charge, pinned per route: what one call of each
charged memo stores, to the byte, so that a change to a memo's keys,
its per-level prices or the levels it memoizes shows here; and the
profile bound of the q2 reduction at its edge."""

import random
import tracemalloc

import pytest

from interlacepoly import _limits, gf2
from interlacepoly.eulerian import (EulerianDigraph, circuit_partition_poly,
                                    martin_poly, random_eulerian_digraph)
from interlacepoly.graph import SimpleGraph
from interlacepoly.interlace import (q2_closed, q2_reduction, qn_avdh,
                                     qn_bouchet, qn_closed, qn_recursive)
from interlacepoly.isotropic import tutte_martin_canonical
from interlacepoly.verify import random_graph_with_loops, random_simple_graph

SIMPLE_12 = random_simple_graph(12, random.Random(1))
LOOPED_10 = random_graph_with_loops(10, random.Random(1))
SIMPLE_14 = random_simple_graph(14, random.Random(1))
DIGRAPH_16 = random_eulerian_digraph(16, 1)
SIMPLE_20 = random_simple_graph(20, random.Random(1))
LOOPED_20 = random_graph_with_loops(20, random.Random(1))


class TestMemoCharge:
    @pytest.mark.parametrize("route,arg,charged", [
        (qn_recursive, SIMPLE_12, 52_911),
        (qn_bouchet, SIMPLE_12, 48_169),
        (q2_reduction, LOOPED_10, 46_015),
        (qn_avdh, SIMPLE_14, 706_442),
        (tutte_martin_canonical, SIMPLE_14, 403_176),
        (qn_closed, SIMPLE_14, 349_328),
        (q2_closed, LOOPED_10, 37_902),
        (circuit_partition_poly, DIGRAPH_16, 27_894),
        (martin_poly, DIGRAPH_16, 35_741),
    ], ids=["recursive", "bouchet", "reduction", "avdh", "tm", "qn_closed",
            "q2_closed", "cpp", "martin"])
    def test_a_call_charges_its_exact_total(self, monkeypatch, pin_cpus,
                                            route, arg, charged):
        pin_cpus(1)
        monkeypatch.setattr(_limits, "MEMO_BUDGET_BYTES", charged)
        route(arg)
        monkeypatch.setattr(_limits, "MEMO_BUDGET_BYTES", charged - 1)
        with pytest.raises(ValueError, match="memo budget"):
            route(arg)

    def test_the_choice_walk_prices_keys_at_the_width_the_base_leaves(
            self, monkeypatch):
        # The base row clears bit 4 from every pair row, so the keys hold
        # rows of 4 bits and are priced at that width, not at 5.
        widths = []
        price = gf2.store_bytes
        monkeypatch.setattr(gf2, "store_bytes", lambda m, width, bits:
                            widths.append(width) or price(m, width, bits))
        pairs = tuple((1 << 4 | 1 << i, 1 << 4 | 1 << (i + 1) % 4) for i in range(4))
        gf2.choice_ranks((1 << 4,), pairs, 0, 0)
        assert set(widths) == {4}

    def test_cpp_is_refused_before_it_holds_its_budget(self, monkeypatch,
                                                       pin_cpus):
        # 300 looped vertices in a ring, which the narrow order decides
        # first, and a random 28-vertex part: each ring vertex can close a
        # cycle, so the many states of the part carry histograms of about
        # 300 fields.  A price of the fields still to close, not of those
        # closed so far, let this call hold 9.4 MiB against 8 MiB.
        pin_cpus(1)
        part = random_eulerian_digraph(28, 1)
        edges = [(u + 300, v + 300) for u, v in part.edges]
        u, v = edges.pop()
        edges += [(u, 0), (299, v)] + [(i, i) for i in range(300)]
        edges += [(i, i + 1) for i in range(299)]
        d = EulerianDigraph(328, edges)
        budget = 8 << 20
        monkeypatch.setattr(_limits, "MEMO_BUDGET_BYTES", budget)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="memo budget"):
                circuit_partition_poly(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget

    @pytest.mark.parametrize("route,arg", [(q2_closed, LOOPED_20), (qn_avdh, SIMPLE_20)],
                             ids=["closed", "avdh"])
    def test_a_forward_walk_is_refused_before_it_holds_its_budget(
            self, monkeypatch, pin_cpus, route, arg):
        # These walks hold two levels at a time and are refunded each
        # level they clear, so the charge must still cover what the two
        # live levels hold.
        pin_cpus(1)
        budget = 4 << 20
        monkeypatch.setattr(_limits, "MEMO_BUDGET_BYTES", budget)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="memo budget"):
                route(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget


class TestProfileBound:
    def test_the_reduction_runs_up_to_the_bound(self, monkeypatch):
        monkeypatch.setattr(_limits, "PROFILE_MAX_BITS", 4 ** 3)
        path = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        assert q2_reduction(path).eval_at(2) == qn_recursive(path).with_var("y")
        with pytest.raises(ValueError, match="profile bound"):
            q2_reduction(SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))

    def test_the_bound_admits_every_vertex_count_up_to_321(self):
        _limits.check_profile_bits(321)
        with pytest.raises(ValueError, match="profile bound"):
            _limits.check_profile_bits(322)
