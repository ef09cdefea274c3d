"""4-regular Eulerian digraphs and their circuit-partition polynomials.

A valid digraph here has in-degree 2 and out-degree 2 at every vertex
(loops count once in and once out) and is connected, so an Euler
circuit exists.  A graph state picks, at every vertex, one of the two
ways to pair the incoming edges with the outgoing ones; following the
pairings decomposes the edge set into closed oriented cycles.  f_k
counts states with exactly k cycles, and f(x) = sum f_k x^k is the
circuit partition polynomial, related to the Martin polynomial by
f(x) = x * m(x+1).

An Euler circuit visits every vertex exactly twice, so writing the
visit order around a circle gives a chord diagram; its circle graph
(chords as vertices, crossings as edges) carries the interlace
polynomial that the circuit partition polynomial factors through.
circuit_partition_poly sums over the states with one depth-first walk
that links each vertex's pairing into strands of edges, counts the
cycles they close, and memoizes on the strands left open;
enumerate_states traces each state on its own, as the reference.
martin_poly takes the interlace polynomial of the circle graph instead.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import (Callable, Dict, Hashable, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from . import _limits
from ._limits import budget_spent, check_enumeration, check_vertex_count, store_bytes
from ._workers import sum_histograms
from .graph import SimpleGraph, _header_and_pairs
from .poly import UniPoly, unpack_fields


class EulerianDigraph:
    """Directed multigraph with stable edge indices; loops and parallel
    edges permitted."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Sequence[Tuple[int, int]]):
        check_vertex_count(n)
        edges = tuple((int(t), int(h)) for t, h in edges)
        for t, h in edges:
            if not (0 <= t < n and 0 <= h < n):
                raise ValueError(f"edge ({t}, {h}) out of range for n={n}")
        self.n = n
        self.edges = edges

    def edge_count(self) -> int:
        return len(self.edges)

    def validation_error(self) -> Optional[str]:
        """None if 2-in-2-out and connected; otherwise a message
        describing the first violation."""
        ins, outs = _incidence(self)
        for v in range(self.n):
            if len(ins[v]) != 2 or len(outs[v]) != 2:
                return (f"vertex {v} has in-degree {len(ins[v])} and "
                        f"out-degree {len(outs[v])}; need 2 and 2")
        if self.n:
            seen = {0}
            stack = [0]
            while stack:
                v = stack.pop()
                for e in ins[v] + outs[v]:
                    for w in self.edges[e]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
            if len(seen) != self.n:
                return "digraph is not connected"
        return None

    def is_valid(self) -> bool:
        return self.validation_error() is None

    def to_text(self) -> str:
        """Serialize as 'n m' plus one 'u v' line per edge, in index order."""
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{t} {h}" for t, h in self.edges)
        return "\n".join(lines) + "\n"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EulerianDigraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __repr__(self) -> str:
        return f"EulerianDigraph(n={self.n}, edges={list(self.edges)!r})"


def parse_digraph(text: str) -> EulerianDigraph:
    """Parse the text digraph format: 'n m' then m lines 'u v' (tail
    head); duplicates and loops are allowed."""
    (n, _), pairs = _header_and_pairs(text, "digraph")
    return EulerianDigraph(n, pairs)


class GraphState(NamedTuple):
    """One pairing choice per vertex: with a vertex's in-edges and
    out-edges listed in ascending index order, choice 0 pairs equal
    slots (in[0]->out[0], in[1]->out[1]) and choice 1 crosses them."""

    choices: Tuple[int, ...]


def _incidence(d: EulerianDigraph) -> Tuple[Tuple[Tuple[int, ...], ...],
                                            Tuple[Tuple[int, ...], ...]]:
    """ins[v] and outs[v]: the in-edge and out-edge indices of v, ascending."""
    ins: List[List[int]] = [[] for _ in range(d.n)]
    outs: List[List[int]] = [[] for _ in range(d.n)]
    for e, (t, h) in enumerate(d.edges):
        outs[t].append(e)
        ins[h].append(e)
    return tuple(map(tuple, ins)), tuple(map(tuple, outs))


def _transition_tables(d: EulerianDigraph) -> Tuple[Tuple[int, ...], Tuple[int, ...],
                                                    Tuple[Tuple[int, ...], ...]]:
    """heads[e], in_slot[e] (position of e among its head's in-edges),
    and outs[v] (out-edge indices ascending)."""
    ins, outs = _incidence(d)
    in_slot = [0] * len(d.edges)
    for v_ins in ins:
        for s, e in enumerate(v_ins):
            in_slot[e] = s
    heads = tuple(h for _, h in d.edges)
    return heads, tuple(in_slot), outs


def state_successors(d: EulerianDigraph, state: GraphState) -> Tuple[int, ...]:
    """The permutation of edge indices a state induces: each edge is
    followed by the out-edge its pairing selects at its head."""
    if len(state.choices) != d.n:
        raise ValueError("state length does not match vertex count")
    heads, in_slot, outs = _transition_tables(d)
    return tuple(outs[heads[e]][in_slot[e] ^ state.choices[heads[e]]]
                 for e in range(len(d.edges)))


def enumerate_states(d: EulerianDigraph) -> Iterator[Tuple[GraphState, int]]:
    """All 2**n graph states with their cycle counts, each traced on its
    own.  Slow; kept as the per-state reference the walk behind
    circuit_partition_poly is tested against.

    Raises:
        ValueError: if the digraph is not valid.
    """
    _require_valid(d)
    check_enumeration(d.n)
    heads, in_slot, outs = _transition_tables(d)
    m = len(d.edges)
    for mask in range(1 << d.n):
        comps = _cycle_count(heads, in_slot, outs, m, mask)
        yield GraphState(tuple((mask >> v) & 1 for v in range(d.n))), comps


def _cycle_count(heads, in_slot, outs, m, mask) -> int:
    seen = 0
    comps = 0
    for e0 in range(m):
        if (seen >> e0) & 1:
            continue
        comps += 1
        e = e0
        while not (seen >> e) & 1:
            seen |= 1 << e
            v = heads[e]
            e = outs[v][in_slot[e] ^ ((mask >> v) & 1)]
    return comps


def _component_histogram(ins: Tuple[Tuple[int, ...], ...],
                          outs: Tuple[Tuple[int, ...], ...], k: int,
                          prefix: int) -> List[int]:
    """Histogram of cycle counts over the states whose choices at the
    first k vertices, read as bits, are `prefix`.

    A depth-first walk decides vertex 0, 1, ..., n-1 in turn; choice c at
    v links each in-edge ins[v][s] to the out-edge outs[v][s ^ c] that
    follows it.  Linked edges form strands: first[a] is the start of the
    strand that ends with edge a, last[b] the end of the strand that
    starts with edge b (entries of edges inside a strand are stale).
    Linking end a to start b closes a cycle when first[a] == b; otherwise
    it joins the two strands with two writes, which the way back undoes
    from a and b alone.

    Once vertices 0..v-1 are decided, the rest of the walk depends only
    on the strand starts first[a] of the open ends a, the edges with
    tail < v <= head; every other edge whose head is undecided is a
    strand of its own.  So the walk is memoized at each level v >= k on
    those starts, as in the frontier search of Sekine, Imai and Tani
    (ISAAC 1995).  A node returns the histogram of the cycles closed from
    its level on, at most 2 * (n - v): the sum of its children's
    histograms, each shifted by the 0-2 cycles its own links close.  A
    histogram is packed into one int, count i in bits [i * w, (i + 1) * w)
    with w = n + 1 bits, enough for 2**n states, so a shift and a sum are
    one big-int operation each.  A store at level v is charged the memo
    budget's price (see _limits) of the level's key and 2 * (n - v) + 1
    fields.
    """
    n = len(ins)
    tail = [0] * (2 * n)
    head = [0] * (2 * n)
    for v in range(n):
        for e in outs[v]:
            tail[e] = v
        for e in ins[v]:
            head[e] = v
    w = n + 1
    frontier = []
    charge = []
    for v in range(n):
        ends = [e for e in range(2 * n) if tail[e] < v <= head[e]]
        frontier.append(itemgetter(*ends) if ends else lambda first: ())
        charge.append(store_bytes(len(ends), (2 * n - 1).bit_length(), w * (2 * (n - v) + 1)))
    memo: List[Dict[object, int]] = [{} for _ in range(n)]
    left = _limits.MEMO_BUDGET_BYTES
    first = list(range(2 * n))
    last = list(range(2 * n))
    final = n - 1
    one = 1 << w  # one state with one cycle
    two = one << w  # one state with two cycles

    # The first k levels take only the choice the prefix names.
    def go(v: int) -> int:
        nonlocal left
        a0, a1 = ins[v]
        b = outs[v]
        if v == final:
            # Two strands run from b[0], b[1] to a0, a1.  The choice that
            # links a0 to its own strand's start closes both; the other
            # joins them and closes one.
            if v >= k:
                return one | two
            return two if first[a0] == b[(prefix >> v) & 1] else one
        if v >= k:
            key = frontier[v](first)
            hist = memo[v].get(key)
            if hist is not None:
                return hist
        hist = 0
        for c in (0, 1) if v >= k else ((prefix >> v) & 1,):
            b0 = b[c]
            b1 = b[c ^ 1]
            s0 = first[a0]
            t0 = last[b0]
            join0 = s0 != b0
            if join0:
                last[s0] = t0
                first[t0] = s0
            s1 = first[a1]
            t1 = last[b1]
            join1 = s1 != b1
            if join1:
                last[s1] = t1
                first[t1] = s1
            hist += go(v + 1) << (w * (2 - join0 - join1))
            if join1:
                last[s1] = a1
                first[t1] = b1
            if join0:
                last[s0] = a0
                first[t0] = b0
        if v >= k:
            left -= charge[v]
            if left < 0:
                raise budget_spent()
            memo[v][key] = hist
        return hist

    return unpack_fields(go(0), w, 2 * n + 1)


def circuit_partition_poly(d: EulerianDigraph) -> UniPoly:
    """f(d;x) = sum over k of (number of states with k cycles) * x^k.
    The edgeless digraph yields the constant 1 by convention.

    One depth-first walk over the states counts their cycles
    (_component_histogram), memoized on the strand starts of the edges
    open at each level; enumerate_states, which traces each state on its
    own, is its reference.  Under the pool (see _workers.sum_histograms)
    each process walks the states of one prefix with a memo of its
    own."""
    if not d.edges:
        return UniPoly((1,))
    _require_valid(d)
    return UniPoly(sum_histograms(_component_histogram, _incidence(d), d.n))


def martin_poly(d: EulerianDigraph) -> UniPoly:
    """m(d;x) = qn(H;x), H the circle graph of an Euler circuit of d.

    Theorem A gives f(d;x) = x * qn(H;x+1), and f(d;x) = x * m(d;x+1)
    defines m, so m is the interlace polynomial of H, computed here by
    the pivot-and-delete recursion in one process.  It does not touch
    the 2**n transition states, so circuit_partition_poly stays an
    independent route to the same polynomial.

    Raises:
        ValueError: if the digraph is invalid or has no edges, or if the
            recursion needs more than the memo budget (see _limits).
    """
    if not d.edges:
        raise ValueError("the Martin polynomial needs at least one edge")
    # Imported here, so that cpp and circle load neither interlace nor gf2.
    from . import interlace
    return interlace.qn_recursive(digraph_circle_graph(d))


# -- Euler circuits and chord diagrams ---------------------------------------


def euler_circuit(d: EulerianDigraph) -> Tuple[int, ...]:
    """A closed walk using every edge once, as the sequence of visited
    vertices (one per edge traversed; each vertex appears twice).

    Deterministic: starts at the least vertex, always follows the
    least-index unused out-edge, and splices stuck sub-tours in at the
    first position (in visit order) with an unused out-edge.
    """
    _require_valid(d)
    if not d.edges:
        raise ValueError("Euler circuit needs at least one edge")
    _, outs = _incidence(d)
    cursor = [0] * d.n  # per-vertex index of the next unused out-edge
    heads = [h for _, h in d.edges]

    def walk(v: int) -> List[int]:
        seq = []
        cur = v
        while cursor[cur] < len(outs[cur]):
            e = outs[cur][cursor[cur]]
            cursor[cur] += 1
            seq.append(e)
            cur = heads[e]
        return seq  # stuck only back at v, by degree balance

    tour = walk(min(v for v in range(d.n) if outs[v]))
    i = 0
    while i < len(tour):
        v = d.edges[tour[i]][0]
        if cursor[v] < len(outs[v]):
            tour[i:i] = walk(v)
        else:
            i += 1
    return tuple(d.edges[e][0] for e in tour)


class ChordDiagram:
    """A double occurrence word: every symbol appears exactly twice."""

    __slots__ = ("word",)

    def __init__(self, word: Sequence[Hashable]):
        word = tuple(word)
        counts: Dict[Hashable, int] = {}
        for s in word:
            counts[s] = counts.get(s, 0) + 1
        for s, c in counts.items():
            if c != 2:
                raise ValueError(f"symbol {s!r} occurs {c} times; need exactly 2")
        self.word = word

    def symbols(self) -> List[Hashable]:
        """Symbols in order of first occurrence."""
        seen = set()
        out = []
        for s in self.word:
            if s not in seen:
                seen.add(s)
                out.append(s)
        return out

    def to_text(self) -> str:
        return " ".join(str(s) for s in self.word) + "\n"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChordDiagram):
            return NotImplemented
        return self.word == other.word

    def __repr__(self) -> str:
        return f"ChordDiagram({list(self.word)!r})"


def chord_diagram_from_circuit(visits: Sequence[Hashable]) -> ChordDiagram:
    """The visit sequence of an Euler circuit read as a double
    occurrence word."""
    return ChordDiagram(visits)


def parse_chord_word(text: str) -> ChordDiagram:
    """One line of whitespace-separated symbols, each appearing twice."""
    return ChordDiagram(text.split())


def circle_graph(cd: ChordDiagram) -> SimpleGraph:
    """The interlacement graph of the chords: one vertex per symbol (in
    first-occurrence order), an edge where the occurrences alternate
    s..t..s..t along the word.  Alternation is rotation-invariant, so
    the linear word is checked directly."""
    order = cd.symbols()
    index = {s: i for i, s in enumerate(order)}
    pos: Dict[Hashable, List[int]] = {}
    for p, s in enumerate(cd.word):
        pos.setdefault(s, []).append(p)
    edges = []
    for i, s in enumerate(order):
        a1, a2 = pos[s]
        for t in order[i + 1:]:
            b1, b2 = pos[t]
            if (a1 < b1 < a2) != (a1 < b2 < a2):
                edges.append((i, index[t]))
    return SimpleGraph.from_edges(len(order), edges)


def digraph_circle_graph(d: EulerianDigraph) -> SimpleGraph:
    """The circle graph of the chord diagram of euler_circuit(d).

    Raises:
        ValueError: if the digraph is invalid or has no edges.
    """
    return circle_graph(chord_diagram_from_circuit(euler_circuit(d)))


# -- the bridge to the interlace polynomial ----------------------------------


def verify_theorem_A(d: EulerianDigraph) -> bool:
    """Whether f(d;x) equals x * qn(H; x+1) for H the circle graph of
    the chord diagram of an Euler circuit of d."""
    return _theorem_A_holds(d, lambda d: [euler_circuit(d)])


def _theorem_A_holds(d: EulerianDigraph,
                     circuits: Callable[[EulerianDigraph], Iterable[Tuple[int, ...]]]) -> bool:
    """Whether f(d;x) equals x * qn(H; x+1) for H the circle graph of
    each Euler circuit that circuits(d) yields, once d is checked."""
    _require_valid(d)
    if not d.edges:
        raise ValueError("the identity needs at least one edge")
    from . import interlace
    f = circuit_partition_poly(d)
    x = UniPoly.variable()
    for visits in circuits(d):
        h = circle_graph(chord_diagram_from_circuit(visits))
        if f != x * interlace.qn_closed(h).substitute(1):
            return False
    return True


def enumerate_euler_circuits(d: EulerianDigraph) -> Iterator[Tuple[int, ...]]:
    """All Euler circuits from the least vertex, by backtracking over
    out-edge choices.  Counts grow factorially; intended for small
    instances only."""
    _require_valid(d)
    if not d.edges:
        raise ValueError("Euler circuit needs at least one edge")
    m = len(d.edges)
    _, outs = _incidence(d)
    start = min(v for v in range(d.n) if outs[v])
    used = [False] * m
    trail: List[int] = []

    def backtrack(v: int) -> Iterator[Tuple[int, ...]]:
        if len(trail) == m:
            if v == start:
                yield tuple(d.edges[e][0] for e in trail)
            return
        for e in outs[v]:
            if not used[e]:
                used[e] = True
                trail.append(e)
                yield from backtrack(d.edges[e][1])
                trail.pop()
                used[e] = False

    yield from backtrack(start)


def verify_theorem_A_all_circuits(d: EulerianDigraph) -> bool:
    """The identity of verify_theorem_A checked against every Euler
    circuit, not just the deterministic one.  Capped at 4 vertices."""
    if d.n > 4:
        raise ValueError("all-circuits verification is capped at 4 vertices")
    return _theorem_A_holds(d, enumerate_euler_circuits)


def random_eulerian_digraph(n: int, seed: int) -> EulerianDigraph:
    """A connected 2-in-2-out multidigraph on n vertices, deterministic
    in the seed: a random closed walk visiting every vertex exactly
    twice, read off as consecutive pairs."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    rng = random.Random(seed)
    walk = list(range(n)) * 2
    rng.shuffle(walk)
    return EulerianDigraph(
        n, [(walk[i], walk[(i + 1) % len(walk)]) for i in range(len(walk))])


def _require_valid(d: EulerianDigraph) -> None:
    err = d.validation_error()
    if err is not None:
        raise ValueError(err)
