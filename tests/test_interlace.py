"""Interlace polynomial tests: golden values, agreement of the five
independent routes, the two-variable forms, caps, and the process pool."""

import copy
import random

import pytest

from interlacepoly import _workers, interlace
from interlacepoly.graph import SimpleGraph, parse_graph
from interlacepoly.interlace import (QN_METHODS, SUBSET_SUM_CAP, q2_closed,
                                     q2_reduction, qn, qn_avdh,
                                     qn_bouchet, qn_closed,
                                     qn_closed_reference, qn_from_q2,
                                     qn_isotropic, qn_recursive)
from interlacepoly.poly import BiPoly, UniPoly
from interlacepoly.verify import (all_graphs_with_loops, all_simple_graphs,
                                  random_simple_graph)

E = SimpleGraph
K2 = SimpleGraph.from_edges(2, [(0, 1)])
P3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
K3 = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])

ALL_METHODS = (qn_recursive, qn_closed, qn_bouchet, qn_avdh, qn_isotropic)


class TestGoldenValues:
    @pytest.mark.parametrize("n", range(9))
    def test_edgeless_is_a_power(self, n):
        want = UniPoly((0,) * n + (1,))
        for fn in ALL_METHODS:
            assert fn(E(n)) == want

    @pytest.mark.parametrize("g,text", [
        (K2, "2*x"),
        (P3, "x^2 + 2*x"),
        (K3, "4*x"),
    ])
    def test_small_graphs(self, g, text):
        for fn in ALL_METHODS:
            assert str(fn(g)) == text

    def test_five_cycle(self):
        # C5 from the closed sum; a fixture for the other four routes
        c5 = SimpleGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        want = qn_closed(c5)
        assert want.evaluate(2) == 2 ** 5  # every subset contributes 1 at x=2
        for fn in ALL_METHODS:
            assert fn(c5) == want


class TestDispatchAndValidation:
    def test_method_dispatch(self):
        for method in QN_METHODS:
            assert qn(P3, method=method) == UniPoly((0, 2, 1))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            qn(P3, method="fast")

    def test_loops_rejected_by_every_route(self):
        g = SimpleGraph.from_edges(2, [(0, 0), (0, 1)])
        for fn in ALL_METHODS + (qn_from_q2, qn_closed_reference):
            with pytest.raises(ValueError, match="loopless"):
                fn(g)

    def test_subset_sum_cap(self):
        big = E(SUBSET_SUM_CAP + 1)
        for fn in (qn_closed, qn_closed_reference, qn_avdh, q2_closed):
            with pytest.raises(ValueError, match="capped"):
                fn(big)

    def test_repeated_calls_agree_and_leave_no_module_state(self):
        def containers():
            return {k: copy.copy(v) for k, v in vars(interlace).items()
                    if not k.startswith("__") and isinstance(v, (dict, list, set))}

        before = containers()
        g = random_simple_graph(9, random.Random(2))
        first = qn_recursive(g)
        for _ in range(2):
            assert qn_recursive(g) == first
            assert qn_bouchet(g) == first
            assert q2_reduction(g) == q2_closed(g)
        assert containers() == before


class TestClosedForm:
    def test_reference_path_agrees(self):
        for n in range(5):
            for g in all_simple_graphs(n):
                assert qn_closed(g) == qn_closed_reference(g)

    def test_coefficients_are_nonnegative(self):
        rng = random.Random(12)
        for _ in range(20):
            g = random_simple_graph(rng.randrange(1, 9), rng)
            assert all(c >= 0 for c in qn_closed(g).coeffs)

    def test_evaluation_at_two_counts_subsets(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randrange(9)
            assert qn_closed(random_simple_graph(n, rng)).evaluate(2) == 2 ** n

    def test_worker_pool_matches_serial(self, pin_cpus):
        g = random_simple_graph(16, random.Random(3))
        pin_cpus(2)
        pooled = qn_closed(g)
        pin_cpus(1)
        assert qn_closed(g) == pooled


class TestColumnChoiceSum:
    def test_worker_pool_matches_serial(self, pin_cpus):
        g = random_simple_graph(16, random.Random(5))
        pin_cpus(2)
        pooled = qn_avdh(g)
        pin_cpus(1)
        assert qn_avdh(g) == pooled


class TestTwoVariable:
    def test_closed_golden_values(self):
        assert q2_closed(E(1)) == BiPoly({(0, 1): 1})
        assert str(q2_closed(K2)) == "x^2 - 2*x + 2*y"
        loop = SimpleGraph(1, [1], loops_allowed=True)
        assert str(q2_closed(loop)) == "x"

    def test_reduction_golden_values(self):
        assert q2_reduction(K2) == q2_closed(K2)
        loop = SimpleGraph(1, [1], loops_allowed=True)
        assert q2_reduction(loop) == q2_closed(loop)

    def test_reduction_matches_closed_on_all_loop_patterns(self):
        for n in range(4):
            for g in all_graphs_with_loops(n):
                assert q2_reduction(g) == q2_closed(g)

    def test_reduction_prefers_loopless_edges(self):
        # edge 12 is the least edge with loop-free endpoints; the looped
        # vertex 0 must not be reduced first, and the result must still
        # match the closed sum
        g = SimpleGraph.from_edges(3, [(0, 0), (0, 1), (1, 2)])
        assert q2_reduction(g) == q2_closed(g)

    def test_specialization_returns_y(self):
        assert qn_from_q2(K2) == UniPoly((0, 2), var="y")
        assert qn_from_q2(E(3)) == UniPoly((0, 0, 0, 1), var="y")

    def test_specialization_equals_qn(self):
        for n in range(5):
            for g in all_simple_graphs(n):
                assert qn_from_q2(g) == qn_closed(g).with_var("y")

    def test_q2_serial_and_qn_pooled_share_the_kernel(self, pin_cpus):
        pin_cpus(2)
        g = random_simple_graph(_workers.PARALLEL_THRESHOLD, random.Random(4))
        assert q2_closed(g).eval_at(2) == qn_closed(g).with_var("y")


class TestParsedInputs:
    def test_qn_accepts_parsed_graphs(self):
        assert qn(parse_graph("3 2\n0 1\n1 2\n")) == UniPoly((0, 2, 1))

    def test_bigger_instance_cross_check(self):
        g = random_simple_graph(12, random.Random(21))
        assert qn_closed(g) == qn_avdh(g)
        assert qn_closed(g) == qn_recursive(g)
