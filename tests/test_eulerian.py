"""Eulerian digraph tests: validation, state enumeration, circuit
partition and Martin polynomials, Euler circuits, chord diagrams, and
circle graphs."""

import random

import pytest

from interlacepoly import _limits, eulerian
from interlacepoly.eulerian import (ChordDiagram, EulerianDigraph, GraphState,
                                    _component_histogram, _incidence,
                                    _narrow_order,
                                    chord_diagram_from_circuit, circle_graph,
                                    circuit_partition_poly,
                                    enumerate_euler_circuits, enumerate_states,
                                    euler_circuit, martin_poly,
                                    parse_chord_word, parse_digraph,
                                    random_eulerian_digraph, state_successors,
                                    verify_theorem_A,
                                    verify_theorem_A_all_circuits)
from interlacepoly.graph import SimpleGraph
from interlacepoly.interlace import qn_closed
from interlacepoly.poly import UniPoly

TWO_LOOPS = EulerianDigraph(1, [(0, 0), (0, 0)])
DOUBLED_2CYCLE = EulerianDigraph(2, [(0, 1), (0, 1), (1, 0), (1, 0)])


class TestDigraph:
    def test_edge_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            EulerianDigraph(1, [(0, 1)])

    def test_vertex_count_bounds(self):
        with pytest.raises(ValueError, match="vertex count"):
            EulerianDigraph(-1, [])

    def test_hand_instances_are_valid(self):
        assert TWO_LOOPS.is_valid()
        assert DOUBLED_2CYCLE.is_valid()

    def test_degree_violation_reported(self):
        d = EulerianDigraph(2, [(0, 1), (1, 0)])
        assert "in-degree 1" in d.validation_error()
        assert not d.is_valid()

    def test_isolated_vertex_is_a_degree_violation(self):
        d = EulerianDigraph(2, [(0, 0), (0, 0)])
        assert "in-degree 0" in d.validation_error()

    def test_disconnected_reported(self):
        d = EulerianDigraph(2, [(0, 0), (0, 0), (1, 1), (1, 1)])
        assert "not connected" in d.validation_error()

    def test_empty_digraph_is_valid(self):
        assert EulerianDigraph(0, []).is_valid()

    def test_to_text_and_parse_round_trip(self):
        for d in (TWO_LOOPS, DOUBLED_2CYCLE, EulerianDigraph(0, [])):
            got = parse_digraph(d.to_text())
            assert got == d

    def test_parse_keeps_edge_order_and_duplicates(self):
        d = parse_digraph("2 4\n0 1\n0 1\n1 0\n1 0\n")
        assert d.edges == ((0, 1), (0, 1), (1, 0), (1, 0))

    def test_parse_inline_literal(self):
        assert parse_digraph("1 2 0 0 0 0") == TWO_LOOPS


class TestStates:
    def test_state_count_is_two_per_vertex(self):
        states = list(enumerate_states(DOUBLED_2CYCLE))
        assert len(states) == 4
        assert len({s.choices for s, _ in states}) == 4

    def test_two_loop_counts(self):
        counts = [comps for _, comps in enumerate_states(TWO_LOOPS)]
        assert counts == [2, 1]

    def test_doubled_cycle_counts(self):
        counts = [comps for _, comps in enumerate_states(DOUBLED_2CYCLE)]
        assert counts == [2, 1, 1, 2]

    def test_empty_digraph_has_one_empty_state(self):
        assert list(enumerate_states(EulerianDigraph(0, []))) == [
            (GraphState(()), 0)]

    def test_invalid_digraph_rejected(self):
        with pytest.raises(ValueError, match="in-degree"):
            list(enumerate_states(EulerianDigraph(1, [(0, 0)])))

    def test_successors_form_a_permutation(self):
        for d in (TWO_LOOPS, DOUBLED_2CYCLE, random_eulerian_digraph(5, 1)):
            for state, _ in enumerate_states(d):
                succ = state_successors(d, state)
                assert sorted(succ) == list(range(d.edge_count()))

    def test_successor_pairing_is_the_documented_one(self):
        # equal-slot pairing: in-edge 0 continues on out-edge 0
        succ = state_successors(DOUBLED_2CYCLE, GraphState((0, 0)))
        assert succ == (2, 3, 0, 1)
        succ = state_successors(DOUBLED_2CYCLE, GraphState((1, 0)))
        assert succ == (2, 3, 1, 0)

    def test_successor_state_length_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            state_successors(TWO_LOOPS, GraphState((0, 0)))


class TestCircuitPartition:
    def test_two_loop_golden(self):
        assert str(circuit_partition_poly(TWO_LOOPS)) == "x^2 + x"

    def test_doubled_cycle_golden(self):
        assert str(circuit_partition_poly(DOUBLED_2CYCLE)) == "2*x^2 + 2*x"

    def test_edgeless_convention(self):
        assert circuit_partition_poly(EulerianDigraph(0, [])) == UniPoly((1,))
        assert circuit_partition_poly(EulerianDigraph(3, [])) == UniPoly((1,))

    def test_state_count_at_one(self):
        rng = random.Random(19)
        for _ in range(10):
            n = rng.randrange(1, 8)
            d = random_eulerian_digraph(n, rng.getrandbits(32))
            assert circuit_partition_poly(d).evaluate(1) == 2 ** n

    def test_invalid_digraph_rejected(self):
        with pytest.raises(ValueError, match="in-degree"):
            circuit_partition_poly(EulerianDigraph(2, [(0, 1), (1, 0)]))

    def test_state_cap(self):
        # The per-state reference follows the enumeration bound; the
        # memoized walk follows the memo budget instead.
        d = random_eulerian_digraph(25, 0)
        with pytest.raises(ValueError, match="enumeration bound"):
            next(enumerate_states(d))
        assert circuit_partition_poly(d).evaluate(1) == 2 ** 25

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_walk_reaches_the_cap(self, seed):
        # 2**24 states, so this passes only through the open-end memo.
        d = random_eulerian_digraph(24, seed)
        f = circuit_partition_poly(d)
        assert f == UniPoly.variable() * martin_poly(d).substitute(1)
        assert f.evaluate(1) == 2 ** 24

    def test_ranges_with_their_own_memos_sum_to_the_whole(self):
        # The pool's split on 2 CPUs: the two halves, each walked with a
        # memo of its own.
        d = random_eulerian_digraph(20, 1)
        ins, outs = _incidence(d)
        halves = [_component_histogram(ins, outs, 1, p) for p in (0, 1)]
        assert ([sum(col) for col in zip(*halves)]
                == _component_histogram(ins, outs, 0, 0))

    def test_worker_pool_matches_serial(self, pin_cpus):
        d = random_eulerian_digraph(16, 44)
        pin_cpus(2)
        pooled = circuit_partition_poly(d)
        pin_cpus(1)
        assert circuit_partition_poly(d) == pooled


class TestNarrowOrder:
    def test_a_looped_vertex_goes_first_then_the_lower_label(self):
        # Placing 2 opens two edges, 0 or 1 four; then 0 and 1 each have
        # one edge to 2.
        d = EulerianDigraph(3, [(2, 2), (2, 0), (0, 1), (0, 1), (1, 2), (1, 0)])
        assert _narrow_order(d) == [2, 0, 1]

    def test_ties_go_to_more_edges_to_placed_vertices(self):
        # Once 0 is placed, 1 (a loop) and 2 (an edge to 0) would each
        # open two edges; 2 closes one, so it goes first.
        d = EulerianDigraph(4, [(0, 0), (1, 1), (0, 2), (2, 1), (1, 3), (3, 0),
                                (2, 3), (3, 2)])
        assert _narrow_order(d) == [0, 2, 3, 1]

    def test_matches_martin_at_32_vertices(self):
        # In label order the walk spent the memo budget on this digraph.
        d = random_eulerian_digraph(32, 2)
        assert (circuit_partition_poly(d)
                == UniPoly.variable() * martin_poly(d).substitute(1))

    def test_finishes_where_martin_spends_the_budget(self):
        # The circle graph of this digraph's Euler circuit is past what
        # martin's recursion holds in its memo budget.
        assert circuit_partition_poly(random_eulerian_digraph(32, 3)).evaluate(1) == 2 ** 32


def necklace(n):
    """Edges i -> i+1 mod n, each twice.  Its Euler circuit reads
    0, ..., n-1 twice, so its circle graph is K_n, and qn(K_n) = 2**(n-1)*x."""
    return EulerianDigraph(n, [(i, (i + 1) % n) for i in range(n) for _ in range(2)])


class TestMartin:
    def test_goldens(self):
        assert str(martin_poly(TWO_LOOPS)) == "x"
        assert str(martin_poly(DOUBLED_2CYCLE)) == "2*x"

    def test_past_the_interpreters_recursion_limit(self):
        # The recursion on K_1100 is 1,100 levels deep.
        assert martin_poly(necklace(1100)) == UniPoly((0, 1 << 1099))

    @pytest.mark.parametrize("n", [400, 1100])
    def test_cpp_on_a_necklace(self, n):
        # The state walk fills one table per level, n levels deep.  f =
        # x*m(x+1) with m = qn(K_n) = 2**(n-1)*x, so f = 2**(n-1)*(x^2 + x).
        c = 1 << (n - 1)
        assert circuit_partition_poly(necklace(n)) == UniPoly((0, c, c))

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError, match="at least one edge"):
            martin_poly(EulerianDigraph(0, []))

    def test_invalid_digraph_rejected(self):
        with pytest.raises(ValueError, match="in-degree"):
            martin_poly(EulerianDigraph(2, [(0, 1), (1, 0)]))

    def test_cap(self, monkeypatch):
        # martin is bounded by the memo budget of its recursion, not by
        # a count of transition states.
        d = random_eulerian_digraph(16, 0)
        monkeypatch.setattr(_limits, "MEMO_BUDGET_BYTES", 1000)
        with pytest.raises(ValueError, match="memo budget") as info:
            martin_poly(d)
        assert "state" not in str(info.value)

    def test_does_not_enumerate_states(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("martin_poly enumerated the states")
        monkeypatch.setattr(eulerian, "circuit_partition_poly", fail)
        monkeypatch.setattr(eulerian, "_component_histogram", fail)
        assert str(martin_poly(DOUBLED_2CYCLE)) == "2*x"

    def test_is_qn_of_the_circle_graph(self):
        d = random_eulerian_digraph(12, 3)
        h = circle_graph(chord_diagram_from_circuit(euler_circuit(d)))
        assert eulerian.digraph_circle_graph(d) == h
        assert martin_poly(d) == qn_closed(h)

    def test_round_trip_recovers_the_partition_polynomial(self):
        rng = random.Random(20)
        for _ in range(15):
            d = random_eulerian_digraph(rng.randrange(1, 8), rng.getrandbits(32))
            f = circuit_partition_poly(d)
            m = martin_poly(d)
            assert UniPoly.variable() * m.substitute(1) == f


class TestEulerCircuit:
    def test_two_loop_visits(self):
        assert euler_circuit(TWO_LOOPS) == (0, 0)

    def test_doubled_cycle_visits(self):
        assert euler_circuit(DOUBLED_2CYCLE) == (0, 1, 0, 1)

    def test_stuck_walk_is_spliced(self):
        # greedy from 0 closes early; the loop at 1 must be spliced in
        d = EulerianDigraph(2, [(0, 1), (1, 0), (0, 0), (1, 1)])
        assert euler_circuit(d) == (0, 1, 1, 0)

    def test_circuit_traverses_every_edge_once(self):
        rng = random.Random(22)
        for _ in range(25):
            d = random_eulerian_digraph(rng.randrange(1, 9), rng.getrandbits(32))
            visits = euler_circuit(d)
            m = d.edge_count()
            walked = sorted((visits[i], visits[(i + 1) % m]) for i in range(m))
            assert walked == sorted(d.edges)

    def test_each_vertex_visited_twice(self):
        d = random_eulerian_digraph(6, 9)
        visits = euler_circuit(d)
        assert sorted(visits) == sorted(list(range(6)) * 2)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError, match="at least one edge"):
            euler_circuit(EulerianDigraph(0, []))

    def test_enumeration_covers_the_doubled_cycle(self):
        circuits = list(enumerate_euler_circuits(DOUBLED_2CYCLE))
        assert len(circuits) == 4
        assert set(circuits) == {(0, 1, 0, 1)}

    def test_enumeration_contains_the_deterministic_circuit(self):
        for seed in range(5):
            d = random_eulerian_digraph(3, seed)
            assert euler_circuit(d) in set(enumerate_euler_circuits(d))


class TestChordDiagrams:
    def test_word_must_be_double_occurrence(self):
        with pytest.raises(ValueError, match="occurs 1"):
            ChordDiagram((0, 1, 0))
        with pytest.raises(ValueError, match="occurs 3"):
            ChordDiagram((0, 0, 0, 1, 1))

    def test_symbols_in_first_occurrence_order(self):
        cd = ChordDiagram(("b", "a", "b", "a"))
        assert cd.symbols() == ["b", "a"]

    def test_text_round_trip(self):
        cd = parse_chord_word("0 1 0 1")
        assert cd.word == ("0", "1", "0", "1")
        assert cd.to_text() == "0 1 0 1\n"

    def test_from_circuit(self):
        assert chord_diagram_from_circuit((0, 1, 0, 1)).word == (0, 1, 0, 1)


class TestCircleGraph:
    def test_interlaced_pair_crosses(self):
        assert circle_graph(parse_chord_word("0 1 0 1")) == SimpleGraph.from_edges(
            2, [(0, 1)])

    def test_nested_pair_does_not_cross(self):
        assert circle_graph(parse_chord_word("0 1 1 0")) == SimpleGraph(2)
        assert circle_graph(parse_chord_word("0 0 1 1")) == SimpleGraph(2)

    def test_three_mutually_interlaced_chords(self):
        got = circle_graph(parse_chord_word("0 1 2 0 1 2"))
        assert got == SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])

    def test_mixed_pattern(self):
        # chord 1 nests inside 0; chord 2 crosses 0 only
        got = circle_graph(parse_chord_word("0 1 1 2 0 2"))
        assert got == SimpleGraph.from_edges(3, [(0, 2)])

    def test_vertices_follow_first_occurrence_order(self):
        got = circle_graph(ChordDiagram(("b", "a", "b", "a")))
        assert got.n == 2 and got.has_edge(0, 1)


class TestCircuitIdentity:
    def test_hand_instances(self):
        assert verify_theorem_A(TWO_LOOPS)
        assert verify_theorem_A(DOUBLED_2CYCLE)

    def test_all_circuits_on_hand_instances(self):
        assert verify_theorem_A_all_circuits(TWO_LOOPS)
        assert verify_theorem_A_all_circuits(DOUBLED_2CYCLE)

    def test_all_circuits_size_cap(self):
        d = random_eulerian_digraph(5, 3)
        with pytest.raises(ValueError, match="capped at 4"):
            verify_theorem_A_all_circuits(d)

    def test_seeded_random_instances(self):
        rng = random.Random(24)
        for _ in range(20):
            d = random_eulerian_digraph(rng.randrange(1, 7), rng.getrandbits(32))
            assert verify_theorem_A(d)


class TestRandomDigraphs:
    def test_deterministic_in_the_seed(self):
        assert random_eulerian_digraph(5, 42) == random_eulerian_digraph(5, 42)
        assert random_eulerian_digraph(5, 42) != random_eulerian_digraph(5, 43)

    def test_always_valid(self):
        for n in range(1, 10):
            for seed in range(5):
                assert random_eulerian_digraph(n, seed).is_valid()

    def test_needs_a_vertex(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            random_eulerian_digraph(0, 1)
