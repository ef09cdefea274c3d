"""Interlace polynomials of graphs.

The single-variable polynomial qn comes in five independent
implementations that must agree:

  recursive  pivot-and-delete recursion on edges
  closed     subset sum of (x-1)**nullity over all induced subgraphs
  bouchet    local-complementation recursion (three relations)
  avdh       column-choice sum over the [A | I] matrix
  isotropic  restricted Tutte-Martin polynomial of the graphic system

The two-variable polynomial q2 has a closed subset-sum form and an
independent reduction that moves through graphs with loops; qn is its
x=2 specialization.
"""

from __future__ import annotations

from math import comb, prod
from operator import add
from typing import Dict, Iterator, List, Optional, Tuple

from ._workers import prefix_bits, sum_histograms
from .gf2 import choice_ranks, rank
from .graph import Rows, SimpleGraph, component_masks, restrict_rows
from .poly import BiPoly, UniPoly, poly_from_shift_counts

QN_METHODS = ("recursive", "closed", "bouchet", "avdh", "isotropic")

# Subset-sum methods enumerate 2**n induced subgraphs.
SUBSET_SUM_CAP = 24

# Entries one call of a memoized recursion (recursive, bouchet,
# reduction) may store.  An entry of the two-variable reduction takes
# about 1.7 kB at 22 vertices and one of qn about 0.4 kB, so a capped
# call stays under about 1 GB.
RECURSION_MEMO_CAP = 400_000


def qn(g: SimpleGraph, method: str = "closed") -> UniPoly:
    """Single-variable interlace polynomial of a loopless graph.

    Args:
        g: loopless graph.
        method: one of QN_METHODS.

    Returns:
        UniPoly in x with nonnegative integer coefficients.
    """
    if method == "recursive":
        return qn_recursive(g)
    if method == "closed":
        return qn_closed(g)
    if method == "bouchet":
        return qn_bouchet(g)
    if method == "avdh":
        return qn_avdh(g)
    if method == "isotropic":
        return qn_isotropic(g)
    raise ValueError(f"unknown method {method!r}; expected one of {QN_METHODS}")


# -- recursive ----------------------------------------------------------


def qn_recursive(g: SimpleGraph) -> UniPoly:
    """Pivot-and-delete recursion: on the lexicographically least edge vw,
    qn(G) = qn(G - v) + qn(pivot(G, v, w) - w); qn of n isolated vertices
    is x**n.

    qn is multiplicative over disjoint unions, so every node of the
    recursion that is not connected is the product of its components,
    each reduced on its own; an isolated vertex is a factor x.  The graph
    is checked once, here; the graphs the moves derive from it are not
    checked again.  The recursion is memoized on adjacency rows, the
    components' as well as the nodes', in a memo that lives for this call
    only and holds at most RECURSION_MEMO_CAP entries."""
    _require_loopless(g)
    return UniPoly(_qn_recursive_rec(g, {}))


def _qn_recursive_rec(g: SimpleGraph, memo: Dict[Rows, Tuple[int, ...]]) -> Tuple[int, ...]:
    adj = g.adj
    hit = memo.get(adj)
    if hit is not None:
        return hit
    masks = component_masks(adj)
    if len(masks) > 1:
        parts = _edged_components(adj, masks)
        coeffs = (0,) * (len(masks) - len(parts)) + (1,)
        for m in parts:
            coeffs = _mul_coeffs(coeffs, _qn_recursive_rec(
                SimpleGraph(m.bit_count(), restrict_rows(adj, m),
                            g.loops_allowed, _valid=True), memo))
    elif len(adj) > 1:
        # Connected, so vertex 0 has a neighbor; its least neighbor w
        # makes (0, w) the lex-least edge.
        row = adj[0]
        w = (row & -row).bit_length() - 1
        a = _qn_recursive_rec(g.delete_vertex(0), memo)
        b = _qn_recursive_rec(g._pivot_unchecked(0, w).delete_vertex(w), memo)
        coeffs = _add_coeffs(a, b)
    else:
        coeffs = (0,) * len(adj) + (1,)
    _check_memo_size(memo)
    memo[adj] = coeffs
    return coeffs


def _add_coeffs(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + a[len(b):]


def _mul_coeffs(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b, i):
                out[j] += c * d
    return tuple(out)


def _edged_components(adj: Rows, masks: List[int]) -> List[int]:
    """The component masks that are not a lone loopless vertex.  A
    component's highest vertex has a zero row iff it is such a vertex."""
    return [m for m in masks if adj[m.bit_length() - 1]]


def _check_memo_size(memo: dict) -> None:
    """Called before a recursion stores a memo entry."""
    if len(memo) >= RECURSION_MEMO_CAP:
        raise ValueError(
            f"the recursion memo is capped at {RECURSION_MEMO_CAP} graphs; "
            "this graph needs more")


# -- closed subset sum --------------------------------------------------


def qn_closed(g: SimpleGraph) -> UniPoly:
    """Sum of (x-1)**(|W| - rank(A[W])) over all vertex subsets W, the
    rank taken over GF(2) of the induced adjacency submatrix: the nullity
    marginal of the rank profile (see _closed_profile)."""
    _require_loopless(g)
    _require_subset_size(g.n)
    n = g.n
    profile = _closed_profile(g.adj, n)
    counts = [0] * (n + 1)
    for _, nullity, c in _profile_entries(profile, n):
        counts[nullity] += c
    return poly_from_shift_counts(counts)


def qn_closed_reference(g: SimpleGraph) -> UniPoly:
    """The same subset sum with one GF(2) rank per subset instead of the
    shared walk: a histogram of |W| - rank(A[W]), expanded like the fast
    routes'.  Slow; kept as the reference the fast path is tested
    against."""
    _require_loopless(g)
    _require_subset_size(g.n)
    counts = [0] * (g.n + 1)
    for mask in range(1 << g.n):
        sub = g.induced_subgraph(v for v in range(g.n) if (mask >> v) & 1)
        counts[sub.n - rank(sub.adj)] += 1
    return poly_from_shift_counts(counts)


def _closed_profile(adj: Tuple[int, ...], n: int) -> List[int]:
    """The rank profile of all 2**n vertex subsets (see _rank_profile),
    which one depth-first walk over the subsets computes with a shared
    elimination.  From n = 16 on the walk's prefixes are split across a
    process pool with one process per available CPU."""
    k = prefix_bits(n)
    return sum_histograms(_rank_profile, (adj, n, k), 1 << k, n)


def _rank_profile(adj: Tuple[int, ...], n: int, k: int,
                  start: int, stop: int) -> List[int]:
    """Histogram of (rank of A[W] over GF(2), |W|) over the vertex
    subsets W whose first k vertices, read as the bits of a prefix, lie
    in [start, stop); flat at rank*(n+1) + |W|.  Loops are diagonal ones.

    A depth-first walk decides vertex 0, 1, ..., n-1 in turn and keeps
    one echelon form of the chosen vertices' rows, restricted to the
    columns C that can still be in W: the chosen and the undecided
    vertices.  A row's pivot is its lowest bit in C.  Including v
    reduces adj[v] & C against the pivots; excluding v drops column v,
    and only the row whose pivot is v is reduced again.  At a leaf C = W.
    Each node costs one reduction instead of one elimination per subset.
    """
    if n == 0:
        return [stop - start]
    step = n + 1
    hist = [0] * (step * step)
    last = n - 1
    piv: Dict[int, int] = {}  # pivot bit -> row; keys outside C are stale

    # at is the histogram index of the subset chosen so far: a vertex
    # adds 1 to it, a row step.  The first k levels take only the branch
    # the current prefix names; the last level counts its leaves in place.
    def go(v: int, cols: int, at: int) -> None:
        bit = 1 << v
        if v >= k or prefix & bit:  # include v
            r = adj[v] & cols
            while r:
                low = r & -r
                p = piv.get(low)
                if p is None:
                    break
                r = (r ^ p) & cols
            if v == last:
                hist[at + step + 1 if r else at + 1] += 1
            elif r:
                piv[low] = r
                go(v + 1, cols, at + step + 1)
                del piv[low]
            else:
                go(v + 1, cols, at + 1)
        if v >= k or not prefix & bit:  # exclude v
            cols ^= bit
            # The row with pivot v keeps its key: below here v is out of
            # C, so no reduction looks it up, and above it is valid again.
            r = piv.get(bit)
            if r is None:
                if v == last:
                    hist[at] += 1
                else:
                    go(v + 1, cols, at)
                return
            # Without column v its bits, and those of every row it meets,
            # lie above v, where no column has been dropped: no mask needed.
            r ^= bit
            while r:
                low = r & -r
                p = piv.get(low)
                if p is None:
                    break
                r ^= p
            if v == last:
                hist[at if r else at - step] += 1
            elif r:
                piv[low] = r
                go(v + 1, cols, at)
                del piv[low]
            else:
                go(v + 1, cols, at - step)

    for prefix in range(start, stop):
        go(0, (1 << n) - 1, 0)
    return hist


def _profile_entries(profile: List[int], n: int) -> Iterator[Tuple[int, int, int]]:
    """(rank, nullity, count) for each nonzero entry of a rank profile."""
    for i, c in enumerate(profile):
        if c:
            r, size = divmod(i, n + 1)
            yield r, size - r, c


# -- column-choice sum --------------------------------------------------


def qn_avdh(g: SimpleGraph) -> UniPoly:
    """Sum of (x-1)**corank over the 2**n admissible column choices from
    the n x 2n matrix [A | I]: for each index i take either the i-th
    adjacency column or the i-th identity column.

    gf2.choice_ranks walks the choices, keeping the columns still to be
    chosen reduced modulo those taken, and histograms them by corank.
    From n = 16 on the walk's prefixes are split across a process pool
    with one process per available CPU.
    """
    _require_loopless(g)
    _require_subset_size(g.n)
    n = g.n
    k = prefix_bits(n)
    pairs = tuple((row, 1 << i) for i, row in enumerate(g.adj))
    counts = sum_histograms(choice_ranks, ((), pairs, k), 1 << k, n)
    return poly_from_shift_counts(counts)


# -- local-complementation recursion --------------------------------------


def qn_bouchet(g: SimpleGraph) -> UniPoly:
    """Recursion by local complementations: qn of the empty graph is 1;
    for isolated v, qn(G) = x * qn(G - v); for an edge vw,
    qn(G) = qn(G - v) + qn(lc(lc(lc(G, v), w), v) - v), where lc is
    local complementation.

    The graph is checked once, on entry, and split into its connected
    components, which are reduced one at a time and multiplied; unlike
    qn_recursive the recursion does not split again below the top, since
    that made it slower.  It is memoized on adjacency rows in one memo
    for this call, shared by the components and capped like
    qn_recursive's."""
    _require_loopless(g)
    memo: Dict[Rows, Tuple[int, ...]] = {}
    return prod((UniPoly(_qn_bouchet_rec(c, memo)) for c in g.components()),
                start=UniPoly.constant(1))


def _qn_bouchet_rec(g: SimpleGraph, memo: Dict[Rows, Tuple[int, ...]]) -> Tuple[int, ...]:
    adj = g.adj
    if not adj:
        return (1,)
    hit = memo.get(adj)
    if hit is not None:
        return hit
    row = adj[0]
    if row == 0:
        coeffs: Tuple[int, ...] = (0,) + _qn_bouchet_rec(g.delete_vertex(0), memo)
    else:
        w = (row & -row).bit_length() - 1
        a = _qn_bouchet_rec(g.delete_vertex(0), memo)
        flipped = g.local_complement(0).local_complement(w).local_complement(0)
        b = _qn_bouchet_rec(flipped.delete_vertex(0), memo)
        coeffs = _add_coeffs(a, b)
    _check_memo_size(memo)
    memo[adj] = coeffs
    return coeffs


# -- isotropic-system route -----------------------------------------------


def qn_isotropic(g: SimpleGraph) -> UniPoly:
    """qn via the restricted Tutte-Martin polynomial of the graphic
    isotropic system of g, with the canonical presentation."""
    from .isotropic import tutte_martin_canonical
    return tutte_martin_canonical(g)


# -- two-variable polynomial ----------------------------------------------


def q2_closed(g: SimpleGraph) -> BiPoly:
    """Sum of (x-1)**rank * (y-1)**nullity over all vertex subsets W,
    rank and nullity of the induced adjacency submatrix over GF(2).
    Loops contribute diagonal ones.  Expands the rank profile whose
    nullity marginal is qn_closed, pooled from n = 16 on like it (see
    _closed_profile)."""
    _require_subset_size(g.n)
    return _bipoly_from_rank_counts(_closed_profile(g.adj, g.n), g.n)


def q2_reduction(g: SimpleGraph) -> BiPoly:
    """q2 by reduction.  On the least edge ab whose endpoints both lack
    loops (other vertices may be looped):
    q2(G) = q2(G - a) + q2(G' - b) + ((x-1)**2 - 1) * q2(G' - a - b)
    with G' = pivot(G, a, b).  With no such edge, the least looped
    vertex a gives q2(G) = q2(G - a) + (x-1) * q2(lc(G, a) - a); local
    complementation at a looped vertex flips loops as well.  A graph
    with neither (edgeless) is the base case y**n.

    q2 is multiplicative over disjoint unions, so every node of the
    reduction that is not connected is the product of its components,
    each reduced on its own; an isolated loopless vertex is a factor y.
    The graphs the moves derive are not checked again, and the reduction
    is memoized on adjacency rows, the components' as well as the
    nodes', in a memo that lives for this call only and holds at most
    RECURSION_MEMO_CAP entries."""
    return _q2_reduction_rec(g, {})


_X_MINUS_1 = BiPoly({(1, 0): 1, (0, 0): -1})
_X_MINUS_1_SQ_MINUS_1 = BiPoly({(2, 0): 1, (1, 0): -2})


def _q2_reduction_rec(g: SimpleGraph, memo: Dict[Rows, BiPoly]) -> BiPoly:
    adj = g.adj
    hit = memo.get(adj)
    if hit is not None:
        return hit
    masks = component_masks(adj)
    if len(masks) > 1:
        parts = _edged_components(adj, masks)
        res = BiPoly({(0, len(masks) - len(parts)): 1})
        for m in parts:
            res = res * _q2_reduction_rec(
                SimpleGraph(m.bit_count(), restrict_rows(adj, m),
                            g.loops_allowed, _valid=True), memo)
    elif (edge := _least_loopless_edge(adj)) is not None:
        a, b = edge
        # a < b, so deleting b leaves a's index unchanged.
        minus_b = g._pivot_unchecked(a, b).delete_vertex(b)
        res = (_q2_reduction_rec(g.delete_vertex(a), memo)
               + _q2_reduction_rec(minus_b, memo)
               + _X_MINUS_1_SQ_MINUS_1 * _q2_reduction_rec(
                   minus_b.delete_vertex(a), memo))
    else:
        looped = None
        for v, row in enumerate(adj):
            if (row >> v) & 1:
                looped = v
                break
        if looped is not None:
            a = looped
            res = (_q2_reduction_rec(g.delete_vertex(a), memo)
                   + _X_MINUS_1 * _q2_reduction_rec(
                       g.local_complement(a).delete_vertex(a), memo))
        else:
            res = BiPoly({(0, len(adj)): 1})
    _check_memo_size(memo)
    memo[adj] = res
    return res


def _least_loopless_edge(adj: Rows) -> Optional[Tuple[int, int]]:
    """Lex-least edge ab with neither endpoint looped, as (a, b), a < b."""
    unlooped = 0
    for v, row in enumerate(adj):
        if not (row >> v) & 1:
            unlooped |= 1 << v
    for a, row in enumerate(adj):
        if not (unlooped >> a) & 1:
            continue
        row &= unlooped
        if row:
            # Any qualifying neighbor below a would have been found first.
            return a, (row & -row).bit_length() - 1
    return None


def qn_from_q2(g: SimpleGraph) -> UniPoly:
    """The x=2 specialization of q2, which equals qn for loopless graphs;
    returned in the variable y that the specialization leaves free."""
    _require_loopless(g)
    return q2_closed(g).eval_at(2)


# -- shared helpers -------------------------------------------------------


def _require_loopless(g: SimpleGraph) -> None:
    if g.has_loops():
        raise ValueError("qn is defined for loopless graphs only")


def _require_subset_size(n: int) -> None:
    if n > SUBSET_SUM_CAP:
        raise ValueError(
            f"subset-sum methods are capped at {SUBSET_SUM_CAP} vertices, got {n}")


def _bipoly_from_rank_counts(profile: List[int], n: int) -> BiPoly:
    """Expand the sum over the profile's (rank r, nullity u, count c) of
    c * (x-1)**r * (y-1)**u."""
    terms: Dict[Tuple[int, int], int] = {}
    for r, u, c in _profile_entries(profile, n):
        for i in range(r + 1):
            ci = c * comb(r, i) * (-1) ** (r - i)
            for j in range(u + 1):
                cij = ci * comb(u, j) * (-1) ** (u - j)
                if cij:
                    terms[(i, j)] = terms.get((i, j), 0) + cij
    return BiPoly(terms)
