"""Undirected labeled graphs with the pivot and local complementation moves.

Adjacency is one bit row per vertex (bit w of row v set iff vw is an
edge); a loop is a set diagonal bit.  Vertex sets passed to operations
are iterables of vertex indices.  Graphs are immutable: every operation
returns a fresh instance.

Each move is written once, on bare rows (the *_rows functions below);
the SimpleGraph methods validate their arguments and delegate to them.
An edge list becomes rows in one place, SimpleGraph.from_edges, which
parse_graph also uses; rows given from outside are checked, in
O(n + m) row operations, when the graph is constructed.  A graph that
from_edges or a move builds is valid by construction and not checked.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ._limits import ORDER_CANDIDATES_PER_VERTEX, check_vertex_count, max_cut_rank

Rows = Tuple[int, ...]  # adjacency rows, one bitmask per vertex


class SimpleGraph:
    __slots__ = ("n", "adj", "loops_allowed")

    def __init__(self, n: int, adj: Sequence[int] | None = None,
                 loops_allowed: bool = False, *, _valid: bool = False):
        # _valid is for from_edges and the moves below: their rows are
        # symmetric by construction, so the checks would repeat what holds.
        if not _valid:
            check_vertex_count(n)
            adj = tuple(adj) if adj is not None else (0,) * n
            if len(adj) != n:
                raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
            cols = [0] * n  # the transposed rows, built by walking set bits
            for v, row in enumerate(adj):
                if row < 0 or row >> n:
                    raise ValueError(f"row {v} has bits outside 0..{n - 1}")
                bit = 1 << v
                while row:
                    low = row & -row
                    row ^= low
                    cols[low.bit_length() - 1] |= bit
            for v in range(n):
                # Bit w of diff marks an asymmetric pair vw; as the marks
                # are symmetric, at the first v with any, all lie above v.
                diff = adj[v] ^ cols[v]
                if diff:
                    w = (diff & -diff).bit_length() - 1
                    raise ValueError(f"adjacency not symmetric at ({v}, {w})")
            if not loops_allowed:
                for v in range(n):
                    if (adj[v] >> v) & 1:
                        raise ValueError(f"loop at vertex {v} but loops are not allowed")
        self.n = n
        self.adj = adj
        self.loops_allowed = loops_allowed

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]],
                   loops_allowed: bool = False) -> "SimpleGraph":
        """The graph on 0..n-1 with the given edges (u, v), each in range;
        (u, u) is a loop, and a loop edge sets loops_allowed.  The rows it
        builds are symmetric by construction, so they are not checked."""
        check_vertex_count(n)
        adj = [0] * n
        loops = False
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            loops = loops or u == v
        return cls(n, tuple(adj), loops_allowed or loops, _valid=True)

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
    (n, _), pairs = _header_and_pairs(text, "graph")
    check_vertex_count(n)
    seen = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
    return SimpleGraph.from_edges(n, pairs)


def _header_and_pairs(text: str, what: str) -> Tuple[Tuple[int, int], List[Tuple[int, int]]]:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError(f"empty {what} input")
    fields = [ln.split() for ln in lines]
    if len(fields) == 1 and len(fields[0]) > 2:
        # inline literal: one whitespace-separated token stream, in pairs
        toks = fields[0]
        if len(toks) % 2:
            raise ValueError(f"{what} literal needs an even token count, got {len(toks)}")
        fields = [toks[i:i + 2] for i in range(0, len(toks), 2)]
        lines = [" ".join(pair) for pair in fields]
    head = fields[0]
    if len(head) != 2:
        raise ValueError(f"{what} header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"{what} header must be 'n m', got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise ValueError(f"{what} header values must be nonnegative")
    if len(fields) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(fields) - 1}")
    pairs = []
    for i in range(1, len(fields)):
        try:
            u, v = fields[i]
            pairs.append((int(u), int(v)))
        except ValueError:
            raise ValueError(f"edge line must be 'u v', got {lines[i]!r}") from None
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
    0, 1, ... in increasing order: a vertex's new label is the number of
    mask vertices below it."""
    out = []
    left = mask
    while left:
        low = left & -left
        left ^= low
        r = adj[low.bit_length() - 1] & mask
        row = 0
        while r:
            b = r & -r
            r ^= b
            row |= 1 << (mask & (b - 1)).bit_count()
        out.append(row)
    return tuple(out)


def cut_rank_order(adj: Rows) -> List[int]:
    """A vertex order whose prefixes S keep the cut-rank
    rank(A[S, V - S]) over GF(2) low, grown greedily: each step places
    the frontier vertex (a neighbor of S outside S) that gives the least
    cut-rank, ties going to fewer neighbors outside S, then to the lower
    label.  With no frontier a new component starts at its least-degree
    vertex.  Once the cut-rank passes _limits.max_cut_rank(), or the
    candidates scored pass ORDER_CANDIDATES_PER_VERTEX * n, the rest
    keep their label order.  Loops play no part.

    The cut space, spanned by the rows of S restricted to V - S, is kept
    in reduced echelon form, each vector in `basis` under its lowest bit.
    Placing c drops column c and adds c's row, so the cut-rank moves by
    at most one each way: it falls iff the unit vector at c is in the
    space, and it rises iff c's row r is in neither the space nor its
    sum with that unit vector.  The space lies on the frontier's columns,
    so r is outside it if it reaches past the frontier; otherwise one
    reduction by the basis decides, O(cut-rank) per candidate."""
    n = len(adj)
    cap = max_cut_rank()
    scores_left = ORDER_CANDIDATES_PER_VERTEX * n
    shift = n.bit_length()
    starts = iter(sorted(range(n), key=lambda v: ((adj[v] & ~(1 << v)).bit_count(), v)))
    order: List[int] = []
    out = (1 << n) - 1  # the vertices outside S
    frontier = 0
    basis: Dict[int, int] = {}
    while out:
        if frontier:
            scores_left -= frontier.bit_count()
            now = len(basis)
            best = (n + 2) << shift
            m = frontier
            while m:
                bit = m & -m
                m ^= bit
                r = adj[bit.bit_length() - 1] & out & ~bit
                rank = now
                led = basis.get(bit)
                if led == bit:
                    rank -= 1
                    unit = 0  # what the unit vector at c reduces to
                else:
                    unit = bit if led is None else bit ^ led
                if r & ~frontier:
                    rank += 1
                else:
                    y = r
                    for p, b in basis.items():
                        if y & p:
                            y ^= b
                    if y and y != unit:
                        rank += 1
                score = rank << shift | r.bit_count()
                if score < best:
                    best, pick = score, bit
            bit = pick
        else:
            bit = 1 << next(v for v in starts if out >> v & 1)
        c = bit.bit_length() - 1
        order.append(c)
        out ^= bit
        row = adj[c] & out
        frontier = (frontier | row) & out
        # Drop column c: a vector led by c comes back without it, led by
        # its next bit; any other vector loses its bit c.
        led = basis.pop(bit, 0)
        if not led:
            for p, b in basis.items():
                if b & bit:
                    basis[p] = b ^ bit
        for y in (led and led ^ bit, row):
            for p, b in basis.items():
                if y & p:
                    y ^= b
            if y:
                low = y & -y
                for p, b in basis.items():
                    if b & low:
                        basis[p] = b ^ y
                basis[low] = y
        if len(basis) > cap or scores_left < 0:
            order.extend(v for v in range(n) if out >> v & 1)
            break
    return order


def relabel_rows(adj: Rows, order: Sequence[int]) -> Rows:
    """Rows of the same graph with vertex order[i] relabeled i; a loop
    stays with its vertex."""
    new = [0] * len(adj)
    for i, v in enumerate(order):
        new[v] = 1 << i
    out = []
    for v in order:
        r = adj[v]
        row = 0
        while r:
            b = r & -r
            r ^= b
            row |= new[b.bit_length() - 1]
        out.append(row)
    return tuple(out)


def _bits_to_set(mask: int) -> set:
    out = set()
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.add(v)
    return out
