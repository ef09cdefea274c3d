"""Undirected labeled graphs with the pivot and local complementation moves.

Adjacency is one bit row per vertex (bit w of row v set iff vw is an
edge); a loop is a set diagonal bit.  Vertex sets passed to operations
are iterables of vertex indices.  Graphs are immutable: every operation
returns a fresh instance.

Each move is written once, on bare rows (the *_rows functions below);
the SimpleGraph methods validate their arguments and delegate to them.
A graph built from outside data is checked when it is constructed; a
graph a move derives from a valid graph is valid by construction and is
not checked again.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

MAX_VERTICES = 63  # a vertex set must fit one machine word

Rows = Tuple[int, ...]  # adjacency rows, one bitmask per vertex


def _check_vertex_count(n: int) -> None:
    """Rejects n outside 0..MAX_VERTICES; called before anything of
    size n is allocated."""
    if n < 0 or n > MAX_VERTICES:
        raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")


class SimpleGraph:
    __slots__ = ("n", "adj", "loops_allowed")

    def __init__(self, n: int, adj: Sequence[int] | None = None,
                 loops_allowed: bool = False, *, _valid: bool = False):
        # _valid is for the moves below: their rows come from a valid
        # graph, so the O(n^2) checks would only repeat what holds.
        if _valid:
            self.n = n
            self.adj = adj
            self.loops_allowed = loops_allowed
            return
        _check_vertex_count(n)
        adj = list(adj) if adj is not None else [0] * n
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
        mask = (1 << n) - 1
        for v, row in enumerate(adj):
            if row < 0 or row & ~mask:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
        for v in range(n):
            for w in range(v + 1, n):
                if ((adj[v] >> w) & 1) != ((adj[w] >> v) & 1):
                    raise ValueError(f"adjacency not symmetric at ({v}, {w})")
        if not loops_allowed:
            for v in range(n):
                if (adj[v] >> v) & 1:
                    raise ValueError(f"loop at vertex {v} but loops are not allowed")
        self.n = n
        self.adj = tuple(adj)
        self.loops_allowed = loops_allowed

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]],
                   loops_allowed: bool = False) -> "SimpleGraph":
        _check_vertex_count(n)
        adj = [0] * n
        loops = False
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            loops = loops or u == v
        return cls(n, adj, loops_allowed or loops)

    # -- basic accessors ------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.adj[u] >> v) & 1)

    def has_loops(self) -> bool:
        return any((row >> v) & 1 for v, row in enumerate(self.adj))

    def edge_count(self) -> int:
        total = sum(row.bit_count() for row in self.adj)
        loops = sum((row >> v) & 1 for v, row in enumerate(self.adj))
        return (total - loops) // 2 + loops

    def edges(self) -> List[Tuple[int, int]]:
        """All edges as (u, v) with u <= v, sorted; loops as (u, u)."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> u
            while row:
                v = u + (row & -row).bit_length() - 1
                row &= row - 1
                out.append((u, v))
        return out

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def _mask(self, vertices: Iterable[int]) -> int:
        m = 0
        for v in vertices:
            self._check_vertex(v)
            m |= 1 << v
        return m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={self.edges()!r})"

    # -- neighborhood algebra -------------------------------------------

    def neighborhood(self, v: int) -> set:
        self._check_vertex(v)
        return _bits_to_set(self.adj[v])

    def neighborhood_set(self, vertices: Iterable[int]) -> set:
        """Vertices adjacent to an odd number of members of the given set.

        This is the GF(2) sum of the individual neighborhoods, so it is
        linear: N(P symdiff Q) = N(P) symdiff N(Q).
        """
        acc = 0
        for v in vertices:
            self._check_vertex(v)
            acc ^= self.adj[v]
        return _bits_to_set(acc)

    def neighborhood_mask(self, mask: int) -> int:
        """Bitmask variant of neighborhood_set for hot loops."""
        acc = 0
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            acc ^= self.adj[v]
        return acc

    # -- structural operations -------------------------------------------

    def pivot(self, v: int, w: int) -> "SimpleGraph":
        """Toggle all pairs across the three neighbor classes of edge vw.

        The classes are: adjacent to v only, adjacent to w only, adjacent
        to both (v and w themselves excluded).  Pairs inside one class and
        all edges at v and w are untouched, so vw stays an edge and the
        operation is an involution.

        Raises:
            ValueError: if v or w is out of range, vw is not an edge or
                the graph has loops.
        """
        if self.has_loops():
            raise ValueError("pivot is defined on loopless graphs only")
        # has_edge range-checks v and w; a loopless graph has no edge vv.
        if not self.has_edge(v, w):
            raise ValueError(f"({v}, {w}) is not an edge")
        return self._pivot_unchecked(v, w)

    def _pivot_unchecked(self, v: int, w: int) -> "SimpleGraph":
        # Used directly by the recursions, whose callers pick an edge vw
        # with both endpoints loopless (other vertices may carry loops in
        # the two-variable reduction), so nothing is checked here.
        return SimpleGraph(self.n, pivot_rows(self.adj, v, w),
                           self.loops_allowed, _valid=True)

    def local_complement(self, v: int) -> "SimpleGraph":
        """Complement the subgraph induced by the neighborhood of v.

        Every pair of distinct neighbors of v has its edge toggled.  When v
        itself is looped (so v is its own neighbor), the toggle extends over
        the diagonal: each neighbor's loop flips too, v included.
        """
        self._check_vertex(v)
        looped = bool((self.adj[v] >> v) & 1)
        return SimpleGraph(self.n, local_complement_rows(self.adj, v),
                           self.loops_allowed or looped, _valid=True)

    def delete_vertex(self, v: int) -> "SimpleGraph":
        """Remove v and its incident edges, re-indexing the rest in order."""
        self._check_vertex(v)
        return SimpleGraph(self.n - 1, delete_vertex_rows(self.adj, v),
                           self.loops_allowed, _valid=True)

    def induced_subgraph(self, vertices: Iterable[int]) -> "SimpleGraph":
        mask = self._mask(vertices)
        return SimpleGraph(mask.bit_count(), restrict_rows(self.adj, mask),
                           self.loops_allowed, _valid=True)

    def components(self) -> List["SimpleGraph"]:
        """The connected components as graphs of their own, in order of
        least vertex, each relabeled 0, 1, ... in increasing order; an
        isolated vertex is a component of its own."""
        return [SimpleGraph(mask.bit_count(), restrict_rows(self.adj, mask),
                            self.loops_allowed, _valid=True)
                for mask in component_masks(self.adj)]

    def is_even_subgraph(self, vertices: Iterable[int]) -> bool:
        """True iff every vertex of the induced subgraph has even degree
        inside it.  The empty set induces an even subgraph."""
        mask = self._mask(vertices)
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if (self.adj[v] & mask).bit_count() & 1:
                return False
        return True

    # -- text format ------------------------------------------------------

    def to_text(self) -> str:
        """Serialize as 'n m' plus one 'u v' line per edge, sorted."""
        lines = [f"{self.n} {self.edge_count()}"]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"


def parse_graph(text: str) -> SimpleGraph:
    """Parse the text graph format: 'n m' then m lines 'u v'.

    'u u' denotes a loop; duplicate undirected edges are rejected.

    Raises:
        ValueError: on any malformed input.
    """
    tokens = _header_and_pairs(text, "graph")
    (n, m), pairs = tokens
    _check_vertex_count(n)
    adj = [0] * n
    loops = False
    seen = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        loops = loops or u == v
    return SimpleGraph(n, adj, loops_allowed=loops)


def _header_and_pairs(text: str, what: str) -> Tuple[Tuple[int, int], List[Tuple[int, int]]]:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError(f"empty {what} input")
    if len(lines) == 1 and len(lines[0].split()) > 2:
        # inline literal: one whitespace-separated token stream
        toks = lines[0].split()
        if len(toks) % 2:
            raise ValueError(f"{what} literal needs an even token count, got {len(toks)}")
        lines = [" ".join(toks[i:i + 2]) for i in range(0, len(toks), 2)]
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{what} header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"{what} header must be 'n m', got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise ValueError(f"{what} header values must be nonnegative")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"edge line must be 'u v', got {ln!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"edge line must be 'u v', got {ln!r}") from None
    return (n, m), pairs


# -- row-level moves ------------------------------------------------------
#
# The same moves on bare adjacency rows, with no argument checks: callers
# pass rows of a valid graph and in-range vertices.  The SimpleGraph
# methods check their arguments and delegate here.


def delete_vertex_rows(adj: Rows, v: int) -> Rows:
    """Rows with vertex v removed and the vertices above it shifted down."""
    low = (1 << v) - 1
    s = v + 1
    return tuple([(row & low) | (row >> s << v) for row in adj[:v] + adj[s:]])


def pivot_rows(adj: Rows, v: int, w: int) -> Rows:
    """Pivot on the edge vw, whose endpoints must be loopless; loops
    elsewhere are untouched, since only pairs of distinct classes flip."""
    av, aw = adj[v], adj[w]
    ends = (1 << v) | (1 << w)
    only_v = av & ~aw & ~ends
    only_w = aw & ~av & ~ends
    both = av & aw & ~ends
    out = list(adj)
    for cls, rest in ((only_v, only_w | both),
                      (only_w, only_v | both),
                      (both, only_v | only_w)):
        m = cls
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            out[u] ^= rest
    return tuple(out)


def local_complement_rows(adj: Rows, v: int) -> Rows:
    """Local complementation at v; at a looped v the neighbors' loops
    flip as well."""
    nv = adj[v]
    looped = (nv >> v) & 1
    out = list(adj)
    m = nv
    while m:
        low = m & -m
        m ^= low
        u = low.bit_length() - 1
        out[u] ^= nv if looped else nv ^ low
    return tuple(out)


def component_masks(adj: Rows) -> List[int]:
    """Vertex masks of the connected components, in order of their least
    vertex; an isolated vertex is a component of its own."""
    out = []
    left = (1 << len(adj)) - 1
    while left:
        comp = frontier = left & -left
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = adj[v] & ~comp
            comp |= new
            frontier |= new
        out.append(comp)
        left &= ~comp
    return out


def restrict_rows(adj: Rows, mask: int) -> Rows:
    """Rows of the subgraph induced by mask, its vertices relabeled
    0, 1, ... in increasing order."""
    order = sorted(_bits_to_set(mask))
    index = {u: i for i, u in enumerate(order)}
    out = []
    for u in order:
        row = 0
        r = adj[u] & mask
        while r:
            low = r & -r
            r ^= low
            row |= 1 << index[low.bit_length() - 1]
        out.append(row)
    return tuple(out)


def _bits_to_set(mask: int) -> set:
    out = set()
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.add(v)
    return out
