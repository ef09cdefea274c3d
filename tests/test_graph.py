"""Graph structure tests: validation, the pivot and local
complementation moves, deletion re-indexing, and the text format."""

import random
import tracemalloc

import pytest

from interlacepoly.eulerian import parse_digraph
from interlacepoly.gf2 import rank
from interlacepoly.graph import MAX_VERTICES, SimpleGraph, parse_graph


def path(n):
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


K3 = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


class TestConstruction:
    def test_empty_graph(self):
        g = SimpleGraph(0)
        assert g.n == 0 and g.adj == () and g.edges() == []

    def test_default_adjacency_is_edgeless(self):
        assert SimpleGraph(4).edge_count() == 0

    def test_vertex_count_bounds(self):
        SimpleGraph(MAX_VERTICES)
        with pytest.raises(ValueError, match="vertex count"):
            SimpleGraph(MAX_VERTICES + 1)
        with pytest.raises(ValueError, match="vertex count"):
            SimpleGraph(-1)

    def test_row_count_must_match(self):
        with pytest.raises(ValueError, match="adjacency rows"):
            SimpleGraph(2, [0])

    def test_bits_outside_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            SimpleGraph(2, [4, 0])

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SimpleGraph(2, [2, 0])

    def test_loops_need_permission(self):
        with pytest.raises(ValueError, match="loop"):
            SimpleGraph(1, [1])
        assert SimpleGraph(1, [1], loops_allowed=True).has_loops()

    def test_from_edges_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SimpleGraph.from_edges(2, [(0, 2)])

    def test_from_edges_allows_loops_implicitly(self):
        g = SimpleGraph.from_edges(2, [(0, 0), (0, 1)])
        assert g.has_loops() and g.loops_allowed

    def test_equality_and_hash(self):
        assert path(3) == SimpleGraph.from_edges(3, [(1, 2), (0, 1)])
        assert path(3) != path(2)
        assert hash(path(3)) == hash(path(3))


class TestAccessors:
    def test_has_edge_is_symmetric(self):
        g = path(3)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        with pytest.raises(ValueError, match="out of range"):
            g.has_edge(0, 3)

    def test_edges_sorted_with_loops(self):
        g = SimpleGraph.from_edges(3, [(2, 1), (0, 0), (0, 2)])
        assert g.edges() == [(0, 0), (0, 2), (1, 2)]

    def test_edge_count_counts_loops_once(self):
        g = SimpleGraph.from_edges(2, [(0, 0), (0, 1), (1, 1)])
        assert g.edge_count() == 3

    def test_neighborhood(self):
        assert path(3).neighborhood(1) == {0, 2}
        assert path(3).neighborhood(0) == {1}

    def test_neighborhood_set_is_odd_membership(self):
        # in P3 both endpoints see the middle, so their joint count is even
        assert path(3).neighborhood_set([0, 2]) == set()
        assert path(3).neighborhood_set([0, 1]) == {0, 1, 2}

    def test_neighborhood_set_linearity(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randrange(1, 8)
            g = SimpleGraph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n)
                    if rng.getrandbits(1)])
            p = {v for v in range(n) if rng.getrandbits(1)}
            q = {v for v in range(n) if rng.getrandbits(1)}
            assert (g.neighborhood_set(p ^ q)
                    == g.neighborhood_set(p) ^ g.neighborhood_set(q))

    def test_neighborhood_mask_matches_set(self):
        g = path(4)
        mask = g.neighborhood_mask(0b0110)
        assert {v for v in range(4) if (mask >> v) & 1} == g.neighborhood_set([1, 2])


class TestPivot:
    def test_path_end_edge_fixed(self):
        # both neighbor classes on one side are empty: nothing toggles
        assert path(3).pivot(0, 1) == path(3)

    def test_triangle_fixed(self):
        assert K3.pivot(1, 2) == K3

    def test_path_middle_edge_toggles_across_classes(self):
        got = path(4).pivot(1, 2)
        assert got == SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

    def test_involution_and_symmetry(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randrange(2, 8)
            g = SimpleGraph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n)
                    if rng.getrandbits(1)])
            for v, w in g.edges():
                assert g.pivot(v, w).pivot(v, w) == g
                assert g.pivot(v, w) == g.pivot(w, v)

    def test_keeps_the_pivot_edge(self):
        g = path(4).pivot(1, 2)
        assert g.has_edge(1, 2)

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            path(3).pivot(0, 2)
        with pytest.raises(ValueError, match="not an edge"):
            path(3).pivot(1, 1)

    def test_loopy_graph_rejected(self):
        g = SimpleGraph.from_edges(2, [(0, 1), (1, 1)])
        with pytest.raises(ValueError, match="loopless"):
            g.pivot(0, 1)


class TestLocalComplement:
    def test_complements_the_neighborhood(self):
        # star center: neighbors 0,2 gain their missing edge
        assert path(3).local_complement(1) == K3
        assert K3.local_complement(1) == path(3)

    def test_involution(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randrange(1, 8)
            g = SimpleGraph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n)
                    if rng.getrandbits(1)])
            v = rng.randrange(n)
            assert g.local_complement(v).local_complement(v) == g

    def test_looped_vertex_toggles_loops_too(self):
        # a lone looped vertex: the only neighborhood pair is (v, v)
        g = SimpleGraph(1, [1], loops_allowed=True)
        assert g.local_complement(0) == SimpleGraph(1, [0], loops_allowed=True)

    def test_looped_vertex_moves_its_loop_to_the_neighbor(self):
        g = SimpleGraph.from_edges(2, [(0, 0), (0, 1)])
        got = g.local_complement(0)
        assert got.edges() == [(1, 1)]
        assert got.local_complement(0) != g  # not an involution once the loop left

    def test_unlooped_vertex_never_creates_loops(self):
        g = path(4).local_complement(1)
        assert not g.has_loops()


class TestDeletionAndSubgraphs:
    def test_delete_reindexes_downward(self):
        # deleting the middle of 0-1-2-3 leaves 0 | 1-2 relabeled
        assert path(4).delete_vertex(1) == SimpleGraph.from_edges(3, [(1, 2)])

    def test_delete_endpoint(self):
        assert path(3).delete_vertex(2) == path(2)

    def test_delete_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            path(2).delete_vertex(2)

    def test_induced_subgraph(self):
        assert K3.induced_subgraph([0, 2]) == SimpleGraph.from_edges(2, [(0, 1)])
        assert K3.induced_subgraph([]) == SimpleGraph(0)

    def test_components_in_order_of_least_vertex(self):
        g = SimpleGraph.from_edges(6, [(0, 4), (1, 2), (2, 5), (1, 5)])
        assert g.components() == [path(2), K3, SimpleGraph(1)]
        assert SimpleGraph(0).components() == []

    def test_adjacency_matrix_has_loop_diagonal(self):
        g = SimpleGraph.from_edges(2, [(0, 0), (0, 1)])
        rows = g.induced_subgraph([0, 1]).adj
        assert rows == (0b11, 0b01)
        assert rank(rows) == 2

    def test_is_even_subgraph(self):
        assert K3.is_even_subgraph([])
        assert K3.is_even_subgraph([0, 1, 2])  # every degree is 2
        assert not K3.is_even_subgraph([0, 1])  # one edge, odd degrees
        assert path(3).is_even_subgraph([0, 2])


class TestKeysAndText:
    def test_to_text_golden(self):
        assert path(3).to_text() == "3 2\n0 1\n1 2\n"
        assert SimpleGraph(0).to_text() == "0 0\n"

    def test_parse_round_trip(self):
        for g in (path(4), K3, SimpleGraph(2),
                  SimpleGraph.from_edges(3, [(0, 0), (1, 2)])):
            assert parse_graph(g.to_text()) == g

    def test_parse_inline_single_line(self):
        assert parse_graph("3 2 0 1 1 2") == path(3)
        assert parse_graph("2 1 0 0") == SimpleGraph(2, [1, 0], loops_allowed=True)

    def test_parse_header_only(self):
        assert parse_graph("4 0") == SimpleGraph(4)
        assert parse_graph("0 0") == SimpleGraph(0)

    @pytest.mark.parametrize("text,message", [
        ("", "empty graph input"),
        ("3", "header must be 'n m'"),
        ("a b", "header must be 'n m'"),
        ("-1 0", "nonnegative"),
        ("2 2\n0 1", "expected 2 edge lines"),
        ("2 1\n0 1 1", "edge line must be"),
        ("2 1\n0 x", "edge line must be"),
        ("2 1\n0 2", "out of range"),
        ("2 2\n0 1\n1 0", "duplicate edge"),
        ("3 2 0 1 1", "even token count"),
    ])
    def test_parse_rejects_malformed_input(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_graph(text)

    def test_parse_ignores_blank_lines(self):
        assert parse_graph("3 2\n\n0 1\n\n1 2\n") == path(3)

    @pytest.mark.parametrize("build", [
        lambda n: parse_graph(f"{n} 0"),
        lambda n: SimpleGraph.from_edges(n, []),
        lambda n: parse_digraph(f"{n} 0"),
    ], ids=["parse_graph", "from_edges", "parse_digraph"])
    def test_oversized_vertex_count_rejected_before_allocation(self, build):
        # a row list for 10**7 vertices alone would take 80 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="vertex count"):
                build(10_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
