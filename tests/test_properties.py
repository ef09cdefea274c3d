"""Property tests of the recursion kernel: multiplicativity over disjoint
unions and invariance under relabeling for every recursive route and
the closed forms, the row-level moves against set-based versions, the
closed form's rank-profile walk against per-subset ranks, the GF(2)
choice walk behind avdh and tm against per-choice ranks, the
transition-state walk against per-state cycle counts, and the Martin
polynomial through the circle graph against the states."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from interlacepoly._workers import prefix_bits
from interlacepoly.eulerian import (EulerianDigraph, _component_histogram,
                                    _incidence, circuit_partition_poly,
                                    enumerate_states, martin_poly)
from interlacepoly.gf2 import choice_ranks, rank
from interlacepoly.graph import (SimpleGraph, component_masks,
                                 delete_vertex_rows, local_complement_rows,
                                 pivot_rows)
from interlacepoly.interlace import (_rank_profile, q2_closed, q2_reduction,
                                     qn_bouchet, qn_closed, qn_recursive)

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
    return graphs(max_n=8, loops=loops).flatmap(
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
    @PROPERTY
    @given(graph_and_permutation())
    def test_qn(self, gp):
        g, perm = gp
        h = relabel(g, perm)
        for fn in QN_ROUTES:
            assert fn(h) == fn(g), fn.__name__

    @PROPERTY
    @given(graph_and_permutation(loops=True))
    def test_q2(self, gp):
        g, perm = gp
        h = relabel(g, perm)
        assert q2_reduction(h) == q2_reduction(g) == q2_closed(h)


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


# -- the closed form: the rank-profile walk against per-subset ranks ---------


def subsets(n):
    return ([v for v in range(n) if (m >> v) & 1] for m in range(1 << n))


def brute_rank_profile(g):
    hist = [0] * (g.n + 1) ** 2
    for w in subsets(g.n):
        hist[rank(g.induced_subgraph(w).adj) * (g.n + 1) + len(w)] += 1
    return hist


@st.composite
def graph_and_shards(draw):
    """A graph with loops, a prefix width k and cut points that split the
    2**k prefixes into ranges."""
    g = draw(graphs(max_n=9, loops=True))
    k = draw(st.integers(0, min(g.n, 5)))
    cuts = draw(st.lists(st.integers(0, 1 << k), max_size=4))
    bounds = [0] + sorted(cuts) + [1 << k]
    return g, k, list(zip(bounds, bounds[1:]))


class TestRankProfile:
    @PROPERTY
    @given(graphs(max_n=9, loops=True))
    @example(EMPTY)
    @example(SimpleGraph(1, [1], loops_allowed=True))
    @example(SimpleGraph.from_edges(3, [(0, 0), (0, 1), (1, 2), (2, 2)]))
    def test_matches_per_subset_ranks(self, g):
        assert _rank_profile(g.adj, g.n, 0, 0, 1) == brute_rank_profile(g)

    @PROPERTY
    @given(graph_and_shards())
    def test_prefix_ranges_sum_to_the_whole(self, gks):
        g, k, ranges = gks
        shards = [_rank_profile(g.adj, g.n, k, a, b) for a, b in ranges]
        assert ([sum(col) for col in zip(*shards)]
                == _rank_profile(g.adj, g.n, 0, 0, 1))


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
def choice_problems(draw, max_pairs=7, max_cols=9):
    """Independent base rows and pairs of rows, all in max_cols columns;
    rows may repeat, lie in the base's span or be zero."""
    cols = draw(st.integers(0, max_cols))
    row = st.integers(0, (1 << cols) - 1)
    base = []
    for r in draw(st.lists(row, max_size=cols)):
        if rank(base + [r]) > len(base):
            base.append(r)
    pairs = draw(st.lists(st.tuples(row, row), max_size=max_pairs))
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
    """A choice problem, a prefix width k and cut points that split the
    2**k prefixes into ranges."""
    base, pairs = draw(choice_problems())
    k = draw(st.integers(0, prefix_bits(len(pairs))))
    cuts = draw(st.lists(st.integers(0, 1 << k), max_size=4))
    bounds = [0] + sorted(cuts) + [1 << k]
    return base, pairs, k, list(zip(bounds, bounds[1:]))


class TestChoiceWalk:
    @PROPERTY
    @given(choice_problems())
    @example(((), ()))
    @example(((), ((0, 0),)))
    @example(((0b11,), ((0b01, 0b10), (0b11, 0b01))))
    def test_matches_per_choice_ranks(self, problem):
        base, pairs = problem
        assert choice_ranks(base, pairs, 0, 0, 1) == brute_choice_ranks(base, pairs)

    @PROPERTY
    @given(choices_and_shards())
    @example(((0b1,), ((0b1, 0b10),), 1, [(0, 1), (1, 2)]))
    def test_prefix_ranges_sum_to_the_whole(self, bpkr):
        base, pairs, k, ranges = bpkr
        shards = [choice_ranks(base, pairs, k, a, b) for a, b in ranges]
        assert ([sum(col) for col in zip(*shards)]
                == choice_ranks(base, pairs, 0, 0, 1))


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


def state_walk(d, k=0, start=0, stop=1):
    return _component_histogram(*_incidence(d), k, start, stop)


@st.composite
def digraph_and_shards(draw):
    """A digraph, a prefix width k and cut points that split the 2**k
    prefixes into ranges."""
    d = draw(walk_digraphs())
    k = draw(st.integers(0, prefix_bits(d.n)))
    cuts = draw(st.lists(st.integers(0, 1 << k), max_size=4))
    bounds = [0] + sorted(cuts) + [1 << k]
    return d, k, list(zip(bounds, bounds[1:]))


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
    @example((TWO_LOOPS, 1, [(0, 1), (1, 2)]))
    @example((DOUBLED_2CYCLE, 2, [(0, 1), (1, 3), (3, 4)]))
    def test_prefix_ranges_sum_to_the_whole(self, dkr):
        d, k, ranges = dkr
        shards = [state_walk(d, k, a, b) for a, b in ranges]
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


class TestMartinBridge:
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
