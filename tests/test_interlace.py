"""Interlace polynomial tests: golden values, agreement of the five
independent routes, the two-variable forms, the enumeration bound, the
process pool, and closed forms past 63 vertices."""

import copy
import random

import pytest

from interlacepoly import _limits, _workers, interlace
from interlacepoly.graph import SimpleGraph, parse_graph
from interlacepoly.interlace import (QN_METHODS, q2_closed,
                                     q2_reduction, qn, qn_avdh,
                                     qn_bouchet, qn_closed,
                                     qn_closed_reference, qn_from_q2,
                                     qn_isotropic, qn_recursive)
from interlacepoly.isotropic import tutte_martin_canonical
from interlacepoly.poly import BiPoly, UniPoly
from interlacepoly.verify import (all_graphs_with_loops, all_simple_graphs,
                                  random_graph_with_loops, random_simple_graph)

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
        # The reference, which the command line does not reach, follows
        # the enumeration bound; the closed walk it checks follows the
        # memo budget instead.
        with pytest.raises(ValueError, match="enumeration bound"):
            qn_closed_reference(E(25))

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

    @pytest.mark.parametrize("g", [
        random_simple_graph(14, random.Random(6)),
        SimpleGraph.from_edges(14, random.Random(7).sample(
            [(u, v) for u in range(14) for v in range(u + 1, 14)], 18)),
        SimpleGraph.from_edges(14, [(u, v) for u in range(7) for v in range(7, 14)]),
    ], ids=["dense", "sparse", "K7,7"])
    def test_memoized_walk_matches_the_reference(self, g):
        assert qn_closed(g) == qn_closed_reference(g)

    def test_a_sparse_24_vertex_walk_fits_a_12_mib_budget(self, monkeypatch,
                                                          pin_cpus):
        # The tables merge the subsets of a sparse graph into few states:
        # this walk's levels charge 10.1 MiB in all.
        pin_cpus(1)
        monkeypatch.setattr(_limits, "MEMO_BUDGET_BYTES", 12 << 20)
        g = SimpleGraph.from_edges(24, random.Random(1).sample(
            [(u, v) for u in range(24) for v in range(u + 1, 24)], 41))
        assert qn_closed(g) == qn_recursive(g)

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

    def test_memo_budget(self, monkeypatch):
        g = random_simple_graph(14, random.Random(1))
        assert qn_avdh(g) == qn_closed(g)
        monkeypatch.setattr(_limits, "MEMO_BUDGET_BYTES", 1000)
        with pytest.raises(ValueError, match="memo budget"):
            qn_avdh(g)


DENSE_15 = random_simple_graph(15, random.Random(3))
PERM_15 = random.Random(4).sample(range(15), 15)


class TestMemoizedChoiceWalk:
    """avdh and the canonical Tutte-Martin sum, whose walks fill one
    table per level, against the per-subset reference at n = 14-16."""

    @pytest.mark.parametrize("g, reference", [
        (DENSE_15, DENSE_15),
        (SimpleGraph.from_edges(15, [(PERM_15[u], PERM_15[v])
                                     for u, v in DENSE_15.edges()]), DENSE_15),
        (SimpleGraph.from_edges(16, random.Random(5).sample(
            [(u, v) for u in range(16) for v in range(u + 1, 16)], 20)), None),
        (SimpleGraph.from_edges(14, [(u, v) for u in range(7) for v in range(7, 14)]),
         None),
    ], ids=["dense", "dense-relabelled", "sparse", "K7,7"])
    def test_matches_the_reference(self, g, reference):
        want = qn_closed_reference(reference or g)
        assert qn_avdh(g) == want
        assert tutte_martin_canonical(g) == want


class TestTwoVariable:
    def test_closed_golden_values(self):
        assert q2_closed(E(1)) == BiPoly({(0, 1): 1})
        assert str(q2_closed(K2)) == "x^2 - 2*x + 2*y"
        loop = SimpleGraph(1, [1], loops_allowed=True)
        assert str(q2_closed(loop)) == "x"

    def test_reduction_golden_values(self):
        assert q2_reduction(K2) == q2_closed(K2)
        assert str(q2_reduction(K2)) == "x^2 - 2*x + 2*y"
        loop = SimpleGraph(1, [1], loops_allowed=True)
        assert q2_reduction(loop) == q2_closed(loop)
        assert str(q2_reduction(loop)) == "x"

    def test_reduction_matches_closed_on_all_loop_patterns(self):
        for n in range(4):
            for g in all_graphs_with_loops(n):
                assert q2_reduction(g) == q2_closed(g)

    def test_memoized_walk_matches_the_reduction_with_loops(self):
        g = random_graph_with_loops(14, random.Random(8))
        assert q2_closed(g) == q2_reduction(g)

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
        # Against the recursion: qn_closed expands the same rank profile
        # as q2_closed, so it would agree with a corrupted one.
        for n in range(5):
            for g in all_simple_graphs(n):
                assert qn_from_q2(g) == qn_recursive(g).with_var("y")

    def test_q2_and_qn_share_the_pooled_kernel(self, pin_cpus):
        pin_cpus(2)
        g = random_simple_graph(_workers.PARALLEL_THRESHOLD, random.Random(4))
        assert q2_closed(g).eval_at(2) == qn_closed(g).with_var("y")


class TestComponentSplit:
    """The recursions take a lone loopless vertex as a factor and reduce
    every other component on its own; here the lone vertices 0, 3 and 6
    sit between the vertices of a triangle and of an edge."""

    G = SimpleGraph.from_edges(8, [(1, 4), (4, 7), (1, 7), (2, 5)])

    def test_qn_recursions_match_the_closed_sum(self):
        # x**3 * qn(K3) * qn(K2) = x**3 * 4x * 2x
        assert qn_closed(self.G) == UniPoly((0,) * 5 + (8,))
        assert qn_recursive(self.G) == qn_closed(self.G)
        assert qn_bouchet(self.G) == qn_closed(self.G)

    def test_q2_reduction_matches_the_closed_sum_with_a_looped_vertex(self):
        looped = SimpleGraph.from_edges(9, self.G.edges() + [(8, 8)],
                                        loops_allowed=True)
        for g in (self.G, looped):
            assert q2_reduction(g) == q2_closed(g)
        assert q2_closed(looped) == q2_closed(self.G) * BiPoly({(1, 0): 1})


class TestFieldWidth:
    """The recursions pack a polynomial into one int with (n+1)-bit
    fields; at n = 63 the fields are 64 bits wide and a coefficient or
    count reaches 2**62."""

    N = 63
    K = SimpleGraph.from_edges(N, [(u, v) for u in range(N) for v in range(u)])

    def test_qn_of_the_complete_graph(self):
        # A subset of K_n has nullity 1 if its size is odd and 0 if it is
        # even, so qn(K_n) = 2**(n-1) + 2**(n-1) * (x-1) = 2**(n-1) * x.
        expected = UniPoly((0, 1 << self.N - 1))
        assert qn_recursive(self.K) == expected
        assert qn_bouchet(self.K) == expected

    def test_q2_of_the_complete_graph_at_x_2(self):
        assert q2_reduction(self.K).eval_at(2) == UniPoly((0, 1 << self.N - 1), var="y")

    def test_q2_of_looped_and_edgeless_graphs(self):
        looped = SimpleGraph(self.N, [1 << v for v in range(self.N)], loops_allowed=True)
        assert q2_reduction(looped) == BiPoly({(self.N, 0): 1})
        assert q2_reduction(SimpleGraph(self.N)) == BiPoly({(0, self.N): 1})


class TestParsedInputs:
    def test_qn_accepts_parsed_graphs(self):
        assert qn(parse_graph("3 2\n0 1\n1 2\n")) == UniPoly((0, 2, 1))

    def test_bigger_instance_cross_check(self):
        g = random_simple_graph(12, random.Random(21))
        assert qn_closed(g) == qn_avdh(g)
        assert qn_closed(g) == qn_recursive(g)


def path(n):
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return SimpleGraph.from_edges(rows * cols, edges)


class TestPastSixtyThree:
    """The recursions on graphs of 64 to 200 vertices, against closed
    forms and against each other."""

    @staticmethod
    def path_qn(n):
        """qn(P_n) = qn(P_(n-1)) + x * qn(P_(n-2)), qn(P_0) = 1 and
        qn(P_1) = x.  Def 1 on the edge (0, 1) of the path 0-1-...-(n-1)
        gives qn(P_n) = qn(P_n - 0) + qn(P_n^01 - 1).  The pivot toggles
        the pairs across the classes N(0) - {1} = {}, N(1) - {0} = {2}
        and N(0) & N(1) = {}, two of which are empty, so it toggles
        nothing.  P_n - 0 is P_(n-1), and deleting 1 leaves 0 isolated
        beside the path 2-...-(n-1), so qn(P_n^01 - 1) = x * qn(P_(n-2))."""
        x = UniPoly.variable()
        polys = [UniPoly((1,)), x]
        for _ in range(n - 1):
            polys.append(polys[-1] + x * polys[-2])
        return polys[n]

    def test_path_recurrence_on_small_paths(self):
        for n in range(9):
            assert qn_closed(path(n)) == self.path_qn(n)

    # At 1,100 vertices the recursions go deeper than the interpreter's
    # default recursion limit: they walk an explicit stack.
    @pytest.mark.parametrize("n", [64, 100, 200, 1100])
    def test_paths(self, n):
        want = self.path_qn(n)
        assert qn_recursive(path(n)) == want
        assert qn_bouchet(path(n)) == want

    @pytest.mark.parametrize("g", [cycle(64), cycle(200), grid(50, 3), grid(25, 4)],
                             ids=["C64", "C200", "grid50x3", "grid25x4"])
    def test_recursions_agree(self, g):
        got = qn_recursive(g)
        assert got == qn_bouchet(g)
        assert got.evaluate(2) == 2 ** g.n

    @pytest.mark.parametrize("n", [64, 100])
    def test_complete_graph(self, n):
        k = SimpleGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u)])
        assert qn_recursive(k) == qn_bouchet(k) == UniPoly((0, 1 << n - 1))

    @pytest.mark.parametrize("n", [64, 100])
    def test_q2_reduction_at_x_2(self, n):
        assert q2_reduction(cycle(n)).eval_at(2) == qn_recursive(cycle(n)).with_var("y")
