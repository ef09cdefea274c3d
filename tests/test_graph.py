"""Graph structure tests: validation, the pivot and local
complementation moves, deletion re-indexing, the cut-rank vertex order
and relabeling, and the text format."""

import random
import tracemalloc

import pytest

from interlacepoly import _limits
from interlacepoly._limits import ENTRY_BYTES, MAX_INPUT_VERTICES
from interlacepoly.eulerian import parse_digraph
from interlacepoly.gf2 import rank
from interlacepoly.graph import (SimpleGraph, cut_rank_order, parse_graph,
                                 relabel_rows)


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
        SimpleGraph(MAX_INPUT_VERTICES)
        with pytest.raises(ValueError, match="vertex count"):
            SimpleGraph(MAX_INPUT_VERTICES + 1)
        with pytest.raises(ValueError, match="vertex count"):
            SimpleGraph(-1)

    def test_row_count_must_match(self):
        with pytest.raises(ValueError, match="adjacency rows"):
            SimpleGraph(2, [0])

    def test_bits_outside_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            SimpleGraph(2, [4, 0])

    def test_asymmetry_rejected(self):
        # a bit above the diagonal without its mirror, and one below
        for rows in ([2, 0], [0, 1]):
            with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(0, 1\)$"):
                SimpleGraph(2, rows)

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


def cycle(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return SimpleGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u)])


def shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return SimpleGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()],
                                  loops_allowed=g.loops_allowed)


def random_graph(n, seed, loops=False):
    rng = random.Random(seed)
    return SimpleGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u if loops else u + 1, n)
            if rng.random() < 0.3], loops_allowed=loops)


def cut_ranks(g, order):
    """rank(A[S, V - S]) over GF(2) for each prefix S of the order."""
    out, ranks = (1 << g.n) - 1, []
    for i, v in enumerate(order):
        out &= ~(1 << v)
        ranks.append(rank(g.adj[u] & out for u in order[:i + 1]))
    return ranks


def greedy_by_definition(g):
    """The cut-rank order as its docstring defines it, one GF(2) rank
    per candidate, with no cap."""
    full, order, placed = (1 << g.n) - 1, [], 0
    while len(order) < g.n:
        rest = [v for v in range(g.n) if not placed >> v & 1]
        frontier = [v for v in rest if any(g.adj[u] >> v & 1 for u in order)]
        if frontier:
            def key(v):
                s = placed | 1 << v
                return (rank(g.adj[u] & full & ~s for u in order + [v]),
                        (g.adj[v] & full & ~s).bit_count(), v)
            v = min(frontier, key=key)
        else:
            v = min(rest, key=lambda v: ((g.adj[v] & ~(1 << v)).bit_count(), v))
        order.append(v)
        placed |= 1 << v
    return order


class TestCutRankOrder:
    GRAPHS = [SimpleGraph(0), SimpleGraph(1), SimpleGraph(5), path(2), K3,
              shuffled(cycle(9), 1), random_graph(12, 2),
              random_graph(14, 3, loops=True),
              SimpleGraph.from_edges(7, [(0, 1), (2, 2), (3, 4), (4, 5), (3, 5)])]

    @pytest.mark.parametrize("g", GRAPHS, ids=range(len(GRAPHS)))
    def test_a_deterministic_permutation(self, g):
        order = cut_rank_order(g.adj)
        assert sorted(order) == list(range(g.n))
        assert cut_rank_order(g.adj) == order

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_greedy_by_its_definition(self, seed):
        rng = random.Random(seed)
        n, p = rng.randint(0, 18), rng.choice([0.1, 0.2, 0.4, 0.7])
        g = SimpleGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u, n)
                                       if rng.random() < (p if u != v else 0.3)],
                                   loops_allowed=True)
        assert cut_rank_order(g.adj) == greedy_by_definition(g)

    @pytest.mark.parametrize("n", [2, 3, 10, 40])
    def test_largest_cut_rank_on_paths_cycles_complete_and_edgeless(self, n):
        # Labels shuffled, so that the order has to find the path's end.
        for seed in range(3):
            for g, most in ((shuffled(path(n), seed), 1), (complete(n), 1),
                            (SimpleGraph(n), 0)):
                assert max(cut_ranks(g, cut_rank_order(g.adj))) == most
            if n > 3:
                g = shuffled(cycle(n), seed)
                assert max(cut_ranks(g, cut_rank_order(g.adj))) == 2

    def test_components_take_runs_from_their_least_degree_vertex(self):
        # The path 3-2-5 starts at its end of lower label, before the
        # triangle on 0, 1 and 4, whose vertices have degree 2.
        g = SimpleGraph.from_edges(6, [(0, 1), (1, 4), (0, 4), (2, 3), (2, 5)])
        assert cut_rank_order(g.adj) == [3, 2, 5, 0, 1, 4]

    def test_past_the_cap_the_rest_keep_their_labels(self, monkeypatch):
        monkeypatch.setattr(_limits, "MEMO_BUDGET_BYTES", ENTRY_BYTES << 2)
        assert _limits.max_cut_rank() == 2
        g = random_graph(30, 4)
        order = cut_rank_order(g.adj)
        ranks = cut_ranks(g, order)
        past = next(i for i, r in enumerate(ranks) if r > 2)
        assert past < g.n - 2
        assert order[past + 1:] == sorted(order[past + 1:])
        assert sorted(order) == list(range(g.n))

    @pytest.mark.parametrize("parts", [2048, 20], ids=["K2048", "20-partite"])
    def test_past_the_candidate_bound_the_rest_keep_their_labels(self, parts):
        # Every vertex left is on the frontier, so each step scores them
        # all; the bound cuts the n**2/2 candidates to
        # ORDER_CANDIDATES_PER_VERTEX * n.
        n = MAX_INPUT_VERTICES
        full = (1 << n) - 1
        part = [sum(1 << u for u in range(p, n, parts)) for p in range(parts)]
        order = cut_rank_order(tuple(full & ~part[v % parts] for v in range(n)))
        assert sorted(order) == list(range(n))
        rest = order[2 * _limits.ORDER_CANDIDATES_PER_VERTEX:]
        assert rest == sorted(rest)

    @pytest.mark.parametrize("g", GRAPHS, ids=range(len(GRAPHS)))
    def test_relabeling_by_the_inverse_gives_the_rows_back(self, g):
        order = cut_rank_order(g.adj)
        inverse = sorted(range(g.n), key=order.__getitem__)
        rows = relabel_rows(g.adj, order)
        assert SimpleGraph(g.n, rows, g.loops_allowed).edge_count() == g.edge_count()
        assert relabel_rows(rows, inverse) == g.adj

    def test_relabeling_moves_loops_with_their_vertex(self):
        g = SimpleGraph.from_edges(3, [(0, 0), (0, 1), (2, 2)])
        assert relabel_rows(g.adj, [2, 1, 0]) == SimpleGraph.from_edges(
            3, [(2, 2), (2, 1), (0, 0)]).adj


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


# Each fault as parse_graph and parse_digraph report it, word for word;
# None where the digraph text is valid.
PARSE_MESSAGES = [
    ("", "empty graph input", "empty digraph input"),
    (" \n\t\n", "empty graph input", "empty digraph input"),
    ("2049 0", "vertex count must be in 0..2048, got 2049",
     "vertex count must be in 0..2048, got 2049"),
    ("2049 1 0 5000", "vertex count must be in 0..2048, got 2049",
     "vertex count must be in 0..2048, got 2049"),
    ("2 1\n0 2", "edge (0, 2) out of range for n=2", "edge (0, 2) out of range for n=2"),
    ("2 1\n-1 0", "edge (-1, 0) out of range for n=2", "edge (-1, 0) out of range for n=2"),
    ("3 2\n0 1\n0 1", "duplicate edge (0, 1)", None),
    ("3 2\n0 1\n1 0", "duplicate edge (1, 0)", None),
    ("1 2\n0 0\n0 0", "duplicate edge (0, 0)", None),
    ("2 3  0 5  0 1  1 0", "edge (0, 5) out of range for n=2",
     "edge (0, 5) out of range for n=2"),
    ("2 3  0 1  1 0  0 5", "duplicate edge (1, 0)", "edge (0, 5) out of range for n=2"),
    ("2 2\n0 x\n0 5", "edge line must be 'u v', got '0 x'",
     "edge line must be 'u v', got '0 x'"),
    ("2 2\n0 5\n0 x", "edge line must be 'u v', got '0 x'",
     "edge line must be 'u v', got '0 x'"),
    ("2 2\n0 1 1\n0 x", "edge line must be 'u v', got '0 1 1'",
     "edge line must be 'u v', got '0 1 1'"),
    ("3", "graph header must be 'n m', got '3'", "digraph header must be 'n m', got '3'"),
    ("a b", "graph header must be 'n m', got 'a b'", "digraph header must be 'n m', got 'a b'"),
    ("a 0", "graph header must be 'n m', got 'a 0'", "digraph header must be 'n m', got 'a 0'"),
    ("2 x", "graph header must be 'n m', got '2 x'", "digraph header must be 'n m', got '2 x'"),
    ("2 1.0\n0 1", "graph header must be 'n m', got '2 1.0'",
     "digraph header must be 'n m', got '2 1.0'"),
    ("-1 0", "graph header values must be nonnegative",
     "digraph header values must be nonnegative"),
    ("2 -1", "graph header values must be nonnegative",
     "digraph header values must be nonnegative"),
    ("3 2 x\n0 1", "graph header must be 'n m', got '3 2 x'",
     "digraph header must be 'n m', got '3 2 x'"),
    ("3\t2 x\n0 1", "graph header must be 'n m', got '3\\t2 x'",
     "digraph header must be 'n m', got '3\\t2 x'"),
    ("2 1 0", "graph literal needs an even token count, got 3",
     "digraph literal needs an even token count, got 3"),
    ("3 2 0 1 1", "graph literal needs an even token count, got 5",
     "digraph literal needs an even token count, got 5"),
    ("3 1\n0 x", "edge line must be 'u v', got '0 x'", "edge line must be 'u v', got '0 x'"),
    ("3 1 0 x", "edge line must be 'u v', got '0 x'", "edge line must be 'u v', got '0 x'"),
    ("3 1\n0", "edge line must be 'u v', got '0'", "edge line must be 'u v', got '0'"),
    ("3 1\n0\t\t1 2", "edge line must be 'u v', got '0\\t\\t1 2'",
     "edge line must be 'u v', got '0\\t\\t1 2'"),
    ("3 1\n0  1  2", "edge line must be 'u v', got '0  1  2'",
     "edge line must be 'u v', got '0  1  2'"),
    ("3 2\n0\t1 2\n1 2", "edge line must be 'u v', got '0\\t1 2'",
     "edge line must be 'u v', got '0\\t1 2'"),
    ("3 1\n  0\t x  ", "edge line must be 'u v', got '0\\t x'",
     "edge line must be 'u v', got '0\\t x'"),
    ("3 2\n0 1", "expected 2 edge lines, got 1", "expected 2 edge lines, got 1"),
    ("3 1\n0 1\n1 2", "expected 1 edge lines, got 2", "expected 1 edge lines, got 2"),
    ("3 2 0 1 1 2 2 0", "expected 2 edge lines, got 3", "expected 2 edge lines, got 3"),
]


def error_of(parse, text):
    try:
        parse(text)
    except ValueError as exc:
        return str(exc)
    return None


class TestParseMessages:
    @pytest.mark.parametrize("text,graph_message,digraph_message", PARSE_MESSAGES)
    def test_exact_message(self, text, graph_message, digraph_message):
        assert error_of(parse_graph, text) == graph_message
        assert error_of(parse_digraph, text) == digraph_message


def fully_checked(n, edges, loops_allowed):
    """The graph with the given edges, its rows built here and passed
    through the constructor's checks."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return SimpleGraph(n, rows, loops_allowed)


class TestOneBuilder:
    @pytest.mark.parametrize("n,edges", [
        (0, []),
        (1, []),
        (1, [(0, 0)]),
        (4, [(0, 1), (1, 2)]),
        (5, [(3, 3), (0, 4), (4, 4), (1, 0)]),
        (6, [(5, 0), (2, 2)]),
    ])
    def test_parse_and_from_edges_match_the_checked_constructor(self, n, edges):
        loops = any(u == v for u, v in edges)
        text = f"{n} {len(edges)}" + "".join(f"\n{u} {v}" for u, v in edges)
        want = fully_checked(n, edges, loops)
        for g in (parse_graph(text), SimpleGraph.from_edges(n, edges)):
            assert g == want
            assert type(g.adj) is tuple
            assert g.loops_allowed == loops

    def test_from_edges_keeps_loops_allowed_without_loops(self):
        g = SimpleGraph.from_edges(3, [(0, 1)], loops_allowed=True)
        assert g == fully_checked(3, [(0, 1)], True) and g.loops_allowed
