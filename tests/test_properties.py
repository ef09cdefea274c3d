"""Property tests of the recursion kernel: multiplicativity over disjoint
unions and invariance under relabeling for every recursive route and
the closed forms, the recursions that split components at every node
against the closed forms, the row-level moves against set-based versions, the
closed form's rank-profile walk against per-subset ranks, the GF(2)
choice walk behind avdh and tm against per-choice ranks, the
transition-state walk against per-state cycle counts and, on larger
digraphs, against the circle graph, and the Martin polynomial through
the circle graph against the states."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interlacepoly.eulerian import (EulerianDigraph, _component_histogram,
                                    _incidence, circuit_partition_poly,
                                    digraph_circle_graph, enumerate_states,
                                    martin_poly)
from interlacepoly.gf2 import choice_ranks, rank
from interlacepoly.graph import (SimpleGraph, component_masks,
                                 delete_vertex_rows, local_complement_rows,
                                 pivot_rows)
from interlacepoly.interlace import (_rank_profile, q2_closed, q2_reduction,
                                     qn_bouchet, qn_closed, qn_recursive)
from interlacepoly.poly import UniPoly
from interlacepoly.verify import random_graph_with_loops, random_simple_graph

# derandomize keeps the suite deterministic, so no example database is
# kept between runs.
PROPERTY = settings(derandomize=True, database=None, max_examples=60,
                    deadline=None)

QN_ROUTES = (qn_recursive, qn_bouchet, qn_closed)


@st.composite
def graphs(draw, max_n=6, loops=False):
    n = draw(st.integers(0, max_n))
    slots = [(u, v) for u in range(n) for v in range(u if loops else u + 1, n)]
    picked = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    return SimpleGraph.from_edges(n, [s for s, p in zip(slots, picked) if p],
                                  loops_allowed=loops)


def disjoint_union(g, h):
    return SimpleGraph(g.n + h.n, g.adj + tuple(row << g.n for row in h.adj),
                       g.loops_allowed or h.loops_allowed)


def relabel(g, perm):
    return SimpleGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()],
                                  loops_allowed=g.loops_allowed)


def graph_and_permutation(loops=False):
    return graphs(max_n=12, loops=loops).flatmap(
        lambda g: st.tuples(st.just(g), st.permutations(range(g.n))))


EMPTY = SimpleGraph(0)
ISOLATED = SimpleGraph(3)
K2 = SimpleGraph.from_edges(2, [(0, 1)])


class TestMultiplicativity:
    @PROPERTY
    @given(graphs(), graphs())
    @example(EMPTY, EMPTY)
    @example(EMPTY, K2)
    @example(ISOLATED, K2)
    @example(K2, ISOLATED)
    def test_qn(self, g, h):
        union = disjoint_union(g, h)
        for fn in QN_ROUTES:
            assert fn(union) == fn(g) * fn(h), fn.__name__
        assert qn_recursive(union) == qn_closed(union)

    @PROPERTY
    @given(graphs(loops=True), graphs(loops=True))
    @example(EMPTY, EMPTY)
    @example(EMPTY, SimpleGraph(1, [1], loops_allowed=True))
    @example(ISOLATED, SimpleGraph.from_edges(2, [(0, 0), (0, 1)]))
    def test_q2(self, g, h):
        union = disjoint_union(g, h)
        for fn in (q2_reduction, q2_closed):
            assert fn(union) == fn(g) * fn(h), fn.__name__
        assert q2_reduction(union) == q2_closed(union)


class TestRelabeling:
    # A permutation changes the labels the closed sums walk and the ties
    # of the cut-rank order the recursions relabel their input by.
    @PROPERTY
    @given(graph_and_permutation())
    def test_qn(self, gp):
        g, perm = gp
        h = relabel(g, perm)
        want = qn_closed(g)
        for fn in QN_ROUTES:
            assert fn(h) == fn(g) == want, fn.__name__

    @PROPERTY
    @given(graph_and_permutation(loops=True))
    def test_q2(self, gp):
        g, perm = gp
        h = relabel(g, perm)
        assert q2_reduction(h) == q2_reduction(g) == q2_closed(h) == q2_closed(g)


@st.composite
def scattered_unions(draw, max_n, loops=False):
    """A disjoint union of random graphs and isolated vertices, at most
    max_n vertices in all, relabeled by a random permutation; the
    recursions split such graphs at their root and again below it."""
    g = SimpleGraph(0)
    while g.n < max_n and draw(st.booleans()):
        g = disjoint_union(g, draw(graphs(max_n=min(7, max_n - g.n), loops=loops)))
    g = disjoint_union(g, SimpleGraph(draw(st.integers(0, min(3, max_n - g.n)))))
    return relabel(g, draw(st.permutations(range(g.n))))


def sparse_graph(n, seed):
    """A seeded random graph with average degree 2.6."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return SimpleGraph.from_edges(n, random.Random(seed).sample(pairs, round(1.3 * n)))


class TestSplitAtEveryNode:
    @PROPERTY
    @given(scattered_unions(14))
    def test_qn_recursive_matches_closed(self, g):
        assert qn_recursive(g) == qn_closed(g)

    @PROPERTY
    @given(scattered_unions(12, loops=True))
    def test_q2_reduction_matches_closed(self, g):
        assert q2_reduction(g) == q2_closed(g)

    @PROPERTY
    @given(scattered_unions(14))
    def test_qn_bouchet_matches_closed(self, g):
        # bouchet multiplies its components' packed ints at the top.
        assert qn_bouchet(g) == qn_closed(g)

    def test_qn_recursive_matches_bouchet_on_a_sparse_graph(self):
        g = sparse_graph(30, 1)
        assert qn_recursive(g) == qn_bouchet(g)


@st.composite
def forests(draw, min_n=64, max_n=150):
    """A random forest, grown by hanging each vertex v from one of
    0..v-1 or from none, and labeled either in the order it was grown,
    parents below their children, or in postorder: children before
    their parent, and each subtree a run of labels.

    In the grown labels a random tree of 64 vertices took seconds by
    recursive and passed the memo budget by bouchet while the
    recursions took the lex-least edge of the input as given; in
    postorder both took milliseconds at n = 150.  Relabeled by its
    cut-rank order, either takes milliseconds (see grown_tree)."""
    n = draw(st.integers(min_n, max_n))
    draws = draw(st.lists(st.integers(0, 1 << 16), min_size=n, max_size=n))
    kids = [[] for _ in range(n + 1)]  # kids[n]: the roots
    for v, r in enumerate(draws):
        kids[r % (v + 1) if r % (v + 1) != v else n].append(v)
    if draw(st.booleans()):
        return SimpleGraph.from_edges(n, [(v, c) for v in range(n) for c in kids[v]])
    label = {}

    def visit(v):
        for c in kids[v]:
            visit(c)
        label[v] = len(label)

    for root in kids[n]:
        visit(root)
    return SimpleGraph.from_edges(n, [(label[c], label[v])
                                      for v in range(n) for c in kids[v]])


def grown_tree(n, seed):
    """A random tree grown by hanging each vertex v from a random one of
    0..v-1, labeled parents below their children."""
    rng = random.Random(seed)
    return SimpleGraph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


class TestPastSixtyThree:
    @settings(PROPERTY, max_examples=10)
    @given(forests())
    @example(grown_tree(64, 3))
    @example(grown_tree(64, 4))
    @example(grown_tree(200, 1))
    def test_recursions_agree_on_forests(self, g):
        got = qn_recursive(g)
        assert got == qn_bouchet(g)
        assert got.evaluate(2) == 2 ** g.n

    def test_recursions_agree_on_a_sparse_graph(self):
        pairs = [(u, v) for u in range(100) for v in range(u + 1, 100)]
        g = SimpleGraph.from_edges(100, random.Random(1).sample(pairs, 70))
        assert qn_recursive(g) == qn_bouchet(g)


# -- row-level moves against set-based versions ---------------------------


def edge_set(g):
    return {frozenset(e) for e in g.edges()}


def rows_edge_set(adj):
    return edge_set(SimpleGraph(len(adj), adj, loops_allowed=True))


def neighbors(edges, v):
    return {u for e in edges if v in e for u in e if u != v or len(e) == 1}


def set_pivot(edges, v, w):
    nv, nw = neighbors(edges, v) - {v, w}, neighbors(edges, w) - {v, w}
    classes = (nv - nw, nw - nv, nv & nw)
    out = set(edges)
    for i, a in enumerate(classes):
        for b in classes[i + 1:]:
            out ^= {frozenset((x, y)) for x in a for y in b}
    return out


def set_local_complement(edges, v):
    nv = neighbors(edges, v)
    out = set(edges) ^ {frozenset((x, y)) for x in nv for y in nv if x != y}
    if v in nv:  # a looped v flips every neighbor's loop, its own included
        out ^= {frozenset((x,)) for x in nv}
    return out


class TestRowMoves:
    @PROPERTY
    @given(graphs(max_n=8, loops=True), st.data())
    def test_pivot_matches_set_version(self, g, data):
        unlooped = [(u, v) for u, v in g.edges() if u != v
                    and not g.has_edge(u, u) and not g.has_edge(v, v)]
        if not unlooped:
            return
        v, w = data.draw(st.sampled_from(unlooped))
        assert rows_edge_set(pivot_rows(g.adj, v, w)) == set_pivot(edge_set(g), v, w)

    @PROPERTY
    @given(graphs(max_n=8, loops=True))
    @example(SimpleGraph(1, [1], loops_allowed=True))
    @example(SimpleGraph.from_edges(3, [(0, 0), (0, 1), (0, 2), (1, 1)]))
    def test_local_complement_matches_set_version(self, g):
        for v in range(g.n):
            assert (rows_edge_set(local_complement_rows(g.adj, v))
                    == set_local_complement(edge_set(g), v))

    @PROPERTY
    @given(graphs(max_n=8, loops=True), st.data())
    def test_delete_matches_set_version(self, g, data):
        if not g.n:
            return
        v = data.draw(st.integers(0, g.n - 1))
        shift = {u: u - (u > v) for u in range(g.n) if u != v}
        want = {frozenset(shift[u] for u in e) for e in edge_set(g) if v not in e}
        assert rows_edge_set(delete_vertex_rows(g.adj, v)) == want

    @PROPERTY
    @given(graphs(max_n=8, loops=True))
    def test_components_partition_the_vertices(self, g):
        masks = component_masks(g.adj)
        assert sum(masks) == (1 << g.n) - 1
        assert all(a & b == 0 for i, a in enumerate(masks) for b in masks[i + 1:])
        for m in masks:
            # closed under adjacency, and connected: grown from its least
            # vertex through edges inside it, it reaches all of itself
            assert all(g.adj[v] & ~m == 0 for v in range(g.n) if (m >> v) & 1)
            reach = m & -m
            for _ in range(g.n):
                for v in range(g.n):
                    if (reach >> v) & 1:
                        reach |= g.adj[v]
            assert reach == m


class TestDerivedGraphs:
    @PROPERTY
    @given(graphs(max_n=8, loops=True))
    @example(SimpleGraph.from_edges(3, [(0, 0), (0, 1), (0, 2), (1, 1)]))
    def test_moves_yield_graphs_that_pass_the_constructor_checks(self, g):
        # The moves build their results without the constructor's checks.
        derived = [g.delete_vertex(v) for v in range(g.n)]
        derived += [g.local_complement(v) for v in range(g.n)]
        derived += [g._pivot_unchecked(u, v) for u, v in g.edges() if u != v
                    and not g.has_edge(u, u) and not g.has_edge(v, v)]
        derived += g.components()
        for h in derived:
            assert type(h.adj) is tuple
            assert SimpleGraph(h.n, h.adj, h.loops_allowed) == h


def all_pairs_check(n, rows, loops_allowed):
    """The constructor's symmetry and loop checks as a loop over every
    pair: the message for the first fault found, or None."""
    for v in range(n):
        for w in range(v + 1, n):
            if (rows[v] >> w & 1) != (rows[w] >> v & 1):
                return f"adjacency not symmetric at ({v}, {w})"
    if not loops_allowed:
        for v in range(n):
            if rows[v] >> v & 1:
                return f"loop at vertex {v} but loops are not allowed"
    return None


@st.composite
def rows_with_flips(draw):
    """The rows of a random graph with loops, 0-3 bits of them flipped,
    and a loops_allowed flag."""
    g = draw(graphs(max_n=8, loops=True))
    rows = list(g.adj)
    if g.n:
        cells = st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1))
        for v, w in draw(st.lists(cells, max_size=3)):
            rows[v] ^= 1 << w
    return g.n, rows, draw(st.booleans())


class TestSymmetryCheck:
    @PROPERTY
    @given(rows_with_flips())
    @example((2, [0, 1], False))
    @example((4, [0b0010, 0b1001, 0b1000, 0b0000], True))
    def test_agrees_with_the_all_pairs_check(self, case):
        n, rows, loops_allowed = case
        try:
            SimpleGraph(n, rows, loops_allowed)
            message = None
        except ValueError as exc:
            message = str(exc)
        assert message == all_pairs_check(n, rows, loops_allowed)


# -- the closed form: the rank-profile walk against per-subset ranks ---------


def subsets(n):
    return ([v for v in range(n) if (m >> v) & 1] for m in range(1 << n))


def brute_rank_profile(g):
    hist = [0] * (g.n + 1) ** 2
    for w in subsets(g.n):
        r = rank(g.induced_subgraph(w).adj)
        hist[r * (g.n + 1) + len(w) - r] += 1
    return hist


@st.composite
def graph_and_shards(draw):
    """A graph with loops and a prefix width k."""
    g = draw(graphs(max_n=9, loops=True))
    return g, draw(st.integers(0, min(g.n, 5)))


class TestRankProfile:
    @PROPERTY
    @given(graphs(max_n=9, loops=True))
    @example(EMPTY)
    @example(SimpleGraph(1, [1], loops_allowed=True))
    @example(SimpleGraph.from_edges(3, [(0, 0), (0, 1), (1, 2), (2, 2)]))
    def test_matches_per_subset_ranks(self, g):
        assert _rank_profile(g.adj, g.n, 0, 0) == brute_rank_profile(g)

    @pytest.mark.parametrize("g", [
        SimpleGraph.from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8)]),
        SimpleGraph.from_edges(8, [(u, v) for u in range(8) for v in range(u, 8)],
                               loops_allowed=True),
        SimpleGraph.from_edges(8, [(u, v) for u in range(3) for v in range(3, 8)]),
        SimpleGraph.from_edges(8, [(u, v) for u in range(3) for v in range(3, 8)]
                               + [(u, u) for u in range(3)], loops_allowed=True),
        SimpleGraph.from_edges(8, [(v, v) for v in range(8)], loops_allowed=True),
        SimpleGraph.from_edges(8, [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2),
                                   (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)],
                               loops_allowed=True),
        SimpleGraph.from_edges(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4)
                                   if u < u ^ b]),
    ], ids=["complete", "complete-looped", "complete-bipartite",
            "complete-bipartite-looped-side", "edgeless-looped",
            "looped-triangle-and-path", "cube"])
    def test_structured_graphs(self, g):
        # Each elimination case; in the cube some pivots also change
        # another pending row.
        assert _rank_profile(g.adj, g.n, 0, 0) == brute_rank_profile(g)

    # In each, vertex 0 is loopless and adjacent to vertex 1 and to the
    # last vertex, so including 0 and then 1 pivots on a pending row whose
    # live bits above 1 reach past the first byte of the spread table
    # (the seeds are the first that do).  A random graph on 10 vertices
    # cannot: only a pivot at vertex 0 could, and nothing is pending there.
    @pytest.mark.parametrize("g", [
        random_simple_graph(11, random.Random(5)),
        random_simple_graph(12, random.Random(2)),
        random_graph_with_loops(11, random.Random(9)),
        random_graph_with_loops(12, random.Random(3)),
        SimpleGraph.from_edges(12, [(u, v) for u in range(0, 12, 2) for v in range(1, 12, 2)]),
        SimpleGraph.from_edges(12, [(u, v) for u in range(0, 12, 2) for v in range(1, 12, 2)]
                               + [(v, v) for v in range(1, 12, 4)], loops_allowed=True),
    ], ids=["dense-11", "dense-12", "looped-11", "looped-12", "complete-bipartite-12",
            "complete-bipartite-looped-side-12"])
    def test_rows_past_one_byte(self, g):
        whole = _rank_profile(g.adj, g.n, 0, 0)
        assert whole == brute_rank_profile(g)
        shards = [_rank_profile(g.adj, g.n, 2, p) for p in range(4)]
        assert [sum(col) for col in zip(*shards)] == whole

    @PROPERTY
    @given(graph_and_shards())
    def test_prefix_ranges_sum_to_the_whole(self, gk):
        # Every prefix walked alone sums to the whole walk.
        g, k = gk
        shards = [_rank_profile(g.adj, g.n, k, p) for p in range(1 << k)]
        assert ([sum(col) for col in zip(*shards)]
                == _rank_profile(g.adj, g.n, 0, 0))


class TestClosedForm:
    @PROPERTY
    @given(graphs(max_n=9))
    def test_qn_at_one_counts_nonsingular_induced_subgraphs(self, g):
        nonsingular = sum(rank(g.induced_subgraph(w).adj) == len(w)
                          for w in subsets(g.n))
        assert qn_closed(g).evaluate(1) == nonsingular

    @PROPERTY
    @given(graphs(max_n=9), st.data())
    def test_pivot_invariance(self, g, data):
        edges = list(g.edges())
        if not edges:
            return
        v, w = data.draw(st.sampled_from(edges))
        assert qn_closed(g.pivot(v, w)) == qn_closed(g)


# -- the choice walk behind avdh and tm against per-choice ranks -------------


@st.composite
def choice_problems(draw, min_pairs=0, max_pairs=10, max_cols=9):
    """Independent base rows and pairs of rows, all in max_cols columns;
    rows may repeat, lie in the base's span or be zero.  Up to 10 pairs
    make levels of up to 2**10 picks, whose tables merge the picks that
    leave the same rows."""
    cols = draw(st.integers(0, max_cols))
    row = st.integers(0, (1 << cols) - 1)
    base = []
    for r in draw(st.lists(row, max_size=cols)):
        if rank(base + [r]) > len(base):
            base.append(r)
    pairs = draw(st.lists(st.tuples(row, row), min_size=min_pairs,
                          max_size=max_pairs))
    return tuple(base), tuple(pairs)


def brute_choice_ranks(base, pairs):
    n = len(pairs)
    hist = [0] * (n + 1)
    for mask in range(1 << n):
        picks = [pair[(mask >> i) & 1] for i, pair in enumerate(pairs)]
        hist[n - (rank(base + tuple(picks)) - rank(base))] += 1
    return hist


@st.composite
def choices_and_shards(draw):
    """A choice problem and a prefix width k."""
    # Half the problems have at least 8 pairs, so that below the widest
    # prefix (k = 5) three levels still branch.
    base, pairs = draw(st.one_of(choice_problems(), choice_problems(min_pairs=8)))
    return base, pairs, draw(st.integers(0, min(len(pairs), 5)))


class TestChoiceWalk:
    @PROPERTY
    @given(choice_problems())
    @example(((), ()))
    @example(((), ((0, 0),)))
    @example(((0b11,), ((0b01, 0b10), (0b11, 0b01))))
    @example(((0b101,), ((0b101, 0b010), (0b001, 0b100))))  # base spans a row
    @example(((), ((0, 0), (0b01, 0b10), (0, 0), (0b11, 0b01))))  # zero pairs
    @example(((), ((0b11, 0b01), (0b01, 0b10))))  # zero after the first pick
    @example(((), ((0b011, 0b100), (0b101, 0b001), (0b110, 0b111))))  # zero after two
    # Both picks of the first pair leave the same rows, so the second
    # subtree is a memo hit: a zero pair, a repeated row, a pair the base
    # spans.
    @example(((), ((0, 0), (0b011, 0b101), (0b110, 0b011), (0b101, 0b111),
                   (0b001, 0b100))))
    @example(((), ((0b1011, 0b1011), (0b0110, 0b1100), (0b0011, 0b1001),
                   (0b1110, 0b0101), (0b1000, 0b0001))))
    @example(((0b010, 0b100), ((0b110, 0b010), (0b011, 0b101), (0b001, 0b111),
                               (0b100, 0b011), (0b111, 0b110))))
    # Ten pairs in four columns: the span fills early, and every memoized
    # level is hit with losses above it.
    @example(((), tuple((1 << i % 4, 1 << (i + 1) % 4 | 1 << (i + 3) % 4)
                        for i in range(10))))
    def test_matches_per_choice_ranks(self, problem):
        base, pairs = problem
        assert choice_ranks(base, pairs, 0, 0) == brute_choice_ranks(base, pairs)

    @pytest.mark.parametrize("cols,n,seed", [(17, 10, 1), (20, 12, 2), (24, 11, 3)])
    def test_rows_wider_than_two_bytes(self, cols, n, seed):
        # Sparse rows in 17 to 24 columns and a few base rows, so that the
        # span fills slowly and every memoized level sees wide keys.
        rng = random.Random(seed)
        sparse = [rng.getrandbits(cols) & rng.getrandbits(cols) for _ in range(2 * n + 4)]
        base = []
        for r in sparse[2 * n:]:
            if rank(base + [r]) > len(base):
                base.append(r)
        base = tuple(base)
        pairs = tuple(zip(sparse[:n], sparse[n:2 * n]))
        assert choice_ranks(base, pairs, 0, 0) == brute_choice_ranks(base, pairs)

    @PROPERTY
    @given(choices_and_shards())
    @example(((0b1,), ((0b1, 0b10),), 1))
    @example(((), ((0, 0b1),), 1))  # n = 1, k = 1
    @example(((0b110,), ((0b010, 0b100), (0b011, 0b001), (0b111, 0b101)), 2))
    @example(((), tuple((1 << i % 5, 1 << (i + 2) % 5) for i in range(10)), 3))
    def test_prefix_ranges_sum_to_the_whole(self, bpk):
        # Every prefix walked alone sums to the whole walk.
        base, pairs, k = bpk
        shards = [choice_ranks(base, pairs, k, p) for p in range(1 << k)]
        assert ([sum(col) for col in zip(*shards)]
                == choice_ranks(base, pairs, 0, 0))


# -- the Martin polynomial: circle graph against transition states -----------


@st.composite
def walk_digraphs(draw, max_n=9):
    """The 2-in-2-out digraph of a closed walk that visits each of n
    vertices twice; repeated steps give loops and parallel edges."""
    n = draw(st.integers(1, max_n))
    walk = draw(st.permutations(list(range(n)) * 2))
    return EulerianDigraph(n, [(walk[i], walk[(i + 1) % len(walk)])
                               for i in range(len(walk))])


TWO_LOOPS = EulerianDigraph(1, [(0, 0), (0, 0)])
DOUBLED_2CYCLE = EulerianDigraph(2, [(0, 1), (0, 1), (1, 0), (1, 0)])


def state_walk(d, k=0, prefix=0):
    return _component_histogram(*_incidence(d), k, prefix)


@st.composite
def digraph_and_shards(draw):
    """A digraph and a prefix width k."""
    d = draw(walk_digraphs())
    return d, draw(st.integers(0, min(d.n, 5)))


class TestStateWalk:
    @PROPERTY
    @given(walk_digraphs())
    @example(TWO_LOOPS)
    @example(DOUBLED_2CYCLE)
    def test_matches_per_state_cycle_counts(self, d):
        hist = [0] * (len(d.edges) + 1)
        for _, cycles in enumerate_states(d):
            hist[cycles] += 1
        assert state_walk(d) == hist

    @PROPERTY
    @given(digraph_and_shards())
    @example((TWO_LOOPS, 1))
    @example((DOUBLED_2CYCLE, 2))
    def test_prefix_ranges_sum_to_the_whole(self, dk):
        # Every prefix walked alone sums to the whole walk.
        d, k = dk
        shards = [state_walk(d, k, p) for p in range(1 << k)]
        assert [sum(col) for col in zip(*shards)] == state_walk(d)

    @PROPERTY
    @given(walk_digraphs().flatmap(lambda d: st.tuples(
        st.just(d), st.permutations(range(len(d.edges))))))
    @example((TWO_LOOPS, [1, 0]))
    @example((DOUBLED_2CYCLE, [2, 0, 3, 1]))
    def test_edge_order_invariance(self, dq):
        # Reordering the edges relabels every in- and out-slot.
        d, order = dq
        h = EulerianDigraph(d.n, [d.edges[e] for e in order])
        assert circuit_partition_poly(h) == circuit_partition_poly(d)

    @PROPERTY
    @given(walk_digraphs(max_n=8).flatmap(lambda d: st.tuples(
        st.just(d), st.permutations(range(d.n)))))
    @example((TWO_LOOPS, [0]))
    @example((DOUBLED_2CYCLE, [1, 0]))
    @example((EulerianDigraph(3, [(2, 2), (2, 0), (0, 1), (0, 1), (1, 2), (1, 0)]),
              [1, 2, 0]))
    def test_vertex_relabeling_invariance(self, dp):
        # The walk runs in its own vertex order, which the labels decide
        # only through ties; the states are traced in label order.
        d, perm = dp
        h = EulerianDigraph(d.n, [(perm[t], perm[u]) for t, u in d.edges])
        hist = [0] * (len(d.edges) + 1)
        for _, cycles in enumerate_states(d):
            hist[cycles] += 1
        assert circuit_partition_poly(h) == UniPoly(hist)


class TestMartinBridge:
    @PROPERTY
    @given(walk_digraphs(max_n=14))
    @example(TWO_LOOPS)
    @example(DOUBLED_2CYCLE)
    def test_walk_matches_the_circle_graph(self, d):
        # Past the reach of enumerate_states, the memoized walk against
        # f(D;x) = x * qn(H;x+1) on the circle graph H.
        h = digraph_circle_graph(d)
        assert UniPoly(state_walk(d)) == (UniPoly.variable()
                                          * qn_recursive(h).substitute(1))

    @PROPERTY
    @given(walk_digraphs())
    @example(TWO_LOOPS)
    @example(DOUBLED_2CYCLE)
    def test_matches_the_state_enumeration(self, d):
        f = circuit_partition_poly(d)
        assert martin_poly(d) == f.divide_by_var().substitute(-1)

    @PROPERTY
    @given(walk_digraphs().flatmap(lambda d: st.tuples(
        st.just(d), st.permutations(range(d.n)),
        st.permutations(range(len(d.edges))))))
    def test_relabeling_invariance(self, dpq):
        # Relabeling the vertices and reordering the edges changes the
        # Euler circuit, and so the circle graph, but not m.
        d, perm, order = dpq
        h = EulerianDigraph(d.n, [(perm[d.edges[e][0]], perm[d.edges[e][1]])
                                  for e in order])
        assert martin_poly(h) == martin_poly(d)
