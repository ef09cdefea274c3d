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
circuit_partition_poly enumerates the states; martin_poly takes the
interlace polynomial of the circle graph instead.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import interlace
from ._workers import sum_histograms
from .graph import SimpleGraph, _check_vertex_count, _header_and_pairs
from .poly import UniPoly

# State enumeration visits 2**n pairing choices.
EULERIAN_STATE_CAP = 24
# The Martin polynomial recurses on a circle graph with one vertex per
# digraph vertex; a vertex-count bound until routes are capped by cost.
MARTIN_CAP = 24


class EulerianDigraph:
    """Directed multigraph with stable edge indices; loops and parallel
    edges permitted."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Sequence[Tuple[int, int]]):
        _check_vertex_count(n)
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
        indeg = [0] * self.n
        outdeg = [0] * self.n
        for t, h in self.edges:
            outdeg[t] += 1
            indeg[h] += 1
        for v in range(self.n):
            if indeg[v] != 2 or outdeg[v] != 2:
                return (f"vertex {v} has in-degree {indeg[v]} and "
                        f"out-degree {outdeg[v]}; need 2 and 2")
        if self.n:
            neighbors: List[set] = [set() for _ in range(self.n)]
            for t, h in self.edges:
                neighbors[t].add(h)
                neighbors[h].add(t)
            seen = {0}
            stack = [0]
            while stack:
                for w in neighbors[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != self.n:
                return "digraph is not connected on its non-isolated vertices"
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


def _transition_tables(d: EulerianDigraph) -> Tuple[Tuple[int, ...], Tuple[int, ...],
                                                    Tuple[Tuple[int, ...], ...]]:
    """heads[e], in_slot[e] (position of e among its head's in-edges),
    and outs[v] (out-edge indices ascending)."""
    ins: List[List[int]] = [[] for _ in range(d.n)]
    outs: List[List[int]] = [[] for _ in range(d.n)]
    for e, (t, h) in enumerate(d.edges):
        outs[t].append(e)
        ins[h].append(e)
    in_slot = [0] * len(d.edges)
    for v in range(d.n):
        for s, e in enumerate(ins[v]):
            in_slot[e] = s
    heads = tuple(h for _, h in d.edges)
    return heads, tuple(in_slot), tuple(tuple(o) for o in outs)


def state_successors(d: EulerianDigraph, state: GraphState) -> Tuple[int, ...]:
    """The permutation of edge indices a state induces: each edge is
    followed by the out-edge its pairing selects at its head."""
    if len(state.choices) != d.n:
        raise ValueError("state length does not match vertex count")
    heads, in_slot, outs = _transition_tables(d)
    return tuple(outs[heads[e]][in_slot[e] ^ state.choices[heads[e]]]
                 for e in range(len(d.edges)))


def enumerate_states(d: EulerianDigraph) -> Iterator[Tuple[GraphState, int]]:
    """All 2**n graph states with their cycle counts.

    Raises:
        ValueError: if the digraph is not valid.
    """
    _require_valid(d)
    _require_state_size(d.n)
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


def _component_histogram(heads, in_slot, outs, m, start, stop) -> List[int]:
    hist = [0] * (m + 1)
    for mask in range(start, stop):
        hist[_cycle_count(heads, in_slot, outs, m, mask)] += 1
    return hist


def circuit_partition_poly(d: EulerianDigraph) -> UniPoly:
    """f(d;x) = sum over k of (number of states with k cycles) * x^k.
    The edgeless digraph yields the constant 1 by convention.  From n = 16
    on it runs in a process pool with one process per available CPU."""
    if not d.edges:
        return UniPoly((1,))
    _require_valid(d)
    _require_state_size(d.n)
    heads, in_slot, outs = _transition_tables(d)
    m = len(d.edges)
    return UniPoly(sum_histograms(_component_histogram, (heads, in_slot, outs, m),
                                  1 << d.n, d.n))


def martin_poly(d: EulerianDigraph) -> UniPoly:
    """m(d;x) = qn(H;x), H the circle graph of an Euler circuit of d.

    Theorem A gives f(d;x) = x * qn(H;x+1), and f(d;x) = x * m(d;x+1)
    defines m, so m is the interlace polynomial of H, computed here by
    the pivot-and-delete recursion in one process.  It does not touch
    the 2**n transition states, so circuit_partition_poly stays an
    independent route to the same polynomial.

    Raises:
        ValueError: if the digraph is invalid, has no edges, or has more
            than MARTIN_CAP vertices.
    """
    if not d.edges:
        raise ValueError("the Martin polynomial needs at least one edge")
    h = digraph_circle_graph(d)
    if d.n > MARTIN_CAP:
        raise ValueError(
            f"the Martin polynomial is capped at {MARTIN_CAP} vertices, got {d.n}")
    return interlace.qn_recursive(h)


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
    outs: List[List[int]] = [[] for _ in range(d.n)]
    for e, (t, _) in enumerate(d.edges):
        outs[t].append(e)
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
    _require_valid(d)
    if not d.edges:
        raise ValueError("the identity needs at least one edge")
    f = circuit_partition_poly(d)
    h = digraph_circle_graph(d)
    return f == UniPoly.variable() * interlace.qn_closed(h).substitute(1)


def enumerate_euler_circuits(d: EulerianDigraph) -> Iterator[Tuple[int, ...]]:
    """All Euler circuits from the least vertex, by backtracking over
    out-edge choices.  Counts grow factorially; intended for small
    instances only."""
    _require_valid(d)
    if not d.edges:
        raise ValueError("Euler circuit needs at least one edge")
    m = len(d.edges)
    outs: List[List[int]] = [[] for _ in range(d.n)]
    for e, (t, _) in enumerate(d.edges):
        outs[t].append(e)
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
    _require_valid(d)
    if not d.edges:
        raise ValueError("the identity needs at least one edge")
    f = circuit_partition_poly(d)
    x = UniPoly.variable()
    for visits in enumerate_euler_circuits(d):
        h = circle_graph(chord_diagram_from_circuit(visits))
        if f != x * interlace.qn_closed(h).substitute(1):
            return False
    return True


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


def _require_state_size(n: int) -> None:
    if n > EULERIAN_STATE_CAP:
        raise ValueError(
            f"state enumeration is capped at {EULERIAN_STATE_CAP} vertices, got {n}")
