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

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ._limits import Memo, check_enumeration
from ._workers import sum_histograms
from .graph import Rows, SimpleGraph, component_masks, restrict_rows
from .poly import BiPoly, UniPoly, poly_from_shift_counts, unpack_fields

QN_METHODS = ("recursive", "closed", "bouchet", "avdh", "isotropic")

# The closed rank profile memoizes the levels with at most this many
# undecided vertices, which bounds its memo whatever n (see _rank_profile).
MEMO_LEVELS = 4


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
    only and is held to the memo budget (see _limits).

    A node's polynomial is one int, coefficient k in bits [k*w, (k+1)*w)
    with w = n + 1 for the input's n.  qn(G; 2) = 2**m on m vertices and
    no coefficient is negative, so every coefficient of every node is at
    most 2**n and fits its field.  A sum is +, the factor x is << w and a
    product of components is *."""
    _require_loopless(g)
    w = g.n + 1
    return UniPoly(unpack_fields(_qn_recursive_rec(g, w, Memo()), w, w))


def _qn_recursive_rec(g: SimpleGraph, w: int, memo: Memo) -> int:
    adj = g.adj
    hit = memo.get(adj)
    if hit is not None:
        return hit
    masks = component_masks(adj)
    if len(masks) > 1:
        packed = _component_product(g, masks, w, memo, _qn_recursive_rec, 1 << w)
    elif len(adj) > 1:
        # Connected, so vertex 0 has a neighbor; its least neighbor v
        # makes (0, v) the lex-least edge.
        row = adj[0]
        v = (row & -row).bit_length() - 1
        packed = (_qn_recursive_rec(g.delete_vertex(0), w, memo)
                  + _qn_recursive_rec(g._pivot_unchecked(0, v).delete_vertex(v), w, memo))
    else:
        packed = 1 << w * len(adj)
    memo.store(adj, packed)
    return packed


def _component_product(g: SimpleGraph, masks: List[int], w: int, memo: Memo,
                       rec: Callable[[SimpleGraph, int, Memo], int],
                       lone: int) -> int:
    """The product over the components of g, given as vertex masks, of
    rec on each, looked up in the memo first; a lone loopless vertex is
    the factor `lone` instead.  A component's highest vertex has a zero
    row iff it is such a vertex."""
    adj = g.adj
    parts = [m for m in masks if adj[m.bit_length() - 1]]
    packed = lone ** (len(masks) - len(parts))
    for m in parts:
        rows = restrict_rows(adj, m)
        part = memo.get(rows)
        if part is None:
            part = rec(SimpleGraph(m.bit_count(), rows, g.loops_allowed, _valid=True),
                       w, memo)
        packed *= part
    return packed


# -- closed subset sum --------------------------------------------------


def qn_closed(g: SimpleGraph) -> UniPoly:
    """Sum of (x-1)**(|W| - rank(A[W])) over all vertex subsets W, the
    rank taken over GF(2) of the induced adjacency submatrix: the nullity
    marginal of the rank profile, which a walk by symmetric elimination
    computes, memoized over its last levels (see _rank_profile), pooled
    from n = 16 on (see _closed_profile)."""
    _require_loopless(g)
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
    from .gf2 import rank
    _require_loopless(g)
    check_enumeration(g.n)
    counts = [0] * (g.n + 1)
    for mask in range(1 << g.n):
        sub = g.induced_subgraph(v for v in range(g.n) if (mask >> v) & 1)
        counts[sub.n - rank(sub.adj)] += 1
    return poly_from_shift_counts(counts)


def _closed_profile(adj: Tuple[int, ...], n: int) -> List[int]:
    """The rank profile of all 2**n vertex subsets (see _rank_profile),
    which one depth-first walk over the subsets computes by symmetric
    elimination, memoized over its last levels; under the pool (see
    _workers.sum_histograms) each process walks the subtree of one
    prefix with a memo of its own."""
    check_enumeration(n)
    return sum_histograms(_rank_profile, (adj, n), n)


def _rank_profile(adj: Tuple[int, ...], n: int, k: int,
                  prefix: int) -> List[int]:
    """Histogram of (rank of A[W] over GF(2), |W|) over the vertex
    subsets W whose first k vertices, read as bits, are `prefix`; flat
    at rank*(n+1) + |W|.  Loops are diagonal ones.

    A depth-first walk decides vertex 0, 1, ..., n-1 in turn and carries
    a Schur complement of A instead of an echelon form.  At level v the
    chosen vertices W1 split into eliminated ones E, whose block A[E, E]
    is nonsingular of rank r, and pending ones P; U = {v, ..., n-1} is
    undecided.  M is the Schur complement of A[E, E] on P and U, so that
    rank(A[W1 u W2]) = r + rank(M[P u W2]) for every W2 in U.  The walk
    keeps M[P, P] = 0.  It carries the rows of M on U as `rows`, rows[i]
    the row of vertex v + i with its columns keeping their labels, and
    the rows of M[P, U] as `pend`, described below; bits below v are
    stale and never read.  Excluding v costs nothing.  Including v
    eliminates what it can:

      a pending row rp has bit v: pivot on the block of p and v, which
        is [[0, 1], [1, c]] with c = M[v, v] and so nonsingular; rank + 2.
        An undecided row x becomes
        x ^ (x_p ? rv ^ (c ? rp : 0) : 0) ^ (x_v ? rp : 0), with
        x_p = M[x, p] read from bit x of rp; every other pending row q
        with bit v becomes q ^ rp (its q_p is 0, since M[P, P] = 0);
      else v is looped: pivot on v; rank + 1.  An undecided row x
        becomes x ^ (x_v ? rv : 0), and no pending row has bit v;
      else v joins P, which keeps M[P, P] = 0.

    Why the last levels can be memoized: write B = M[P, W2] and
    C = M[W2, W2].  With M[P, P] = 0, M[P u W2] = [[0, B], [B^T, C]].  For
    an invertible T on P, the congruence by T + I keeps the rank and the
    zero block and turns B into T B, so the rank depends on B only
    through its row space, the row space of M[P, U] restricted to W2.
    So below level v the walk depends only on M[U, U] and on D, the row
    space of M[P, U].  The same congruence lets the walk carry P as D
    itself: `pend` is D's basis in reduced echelon form, each row led
    by its highest live bit (a column >= v), no two by the same bit and
    no leading bit set in another row, sorted by that bit.  A vertex
    that joins P enters as its row reduced by that basis, and not at
    all if that leaves no live bit; deciding v drops the row led by v,
    which has no live bit left; a pivot takes rp as the pending row of
    least leading bit that has bit v, so that q ^ rp keeps q's leading
    bit.

    A node returns the histogram of its subtree relative to its own
    rank and size, packed into one int with (n+1)-bit fields at the
    flat index: each subtree holds at most 2**n subsets, so a count
    fits its field.  Including v shifts the child's histogram by one
    index, plus n+1 per rank gained.  Each level v with
    max(k, n - MEMO_LEVELS) <= v < n-1 is memoized on
    (x >> v for the rows of U, D in reduced echelon form shifted to
    start at v); the last level counts its two leaves in place, since
    its key would cost more than its count.  With u = n - v <= 4
    undecided vertices there are at most 2**(u(u+1)/2) residuals, or
    2**(u(u-1)/2) on loopless inputs, whose residuals stay loopless,
    times 67 subspaces of GF(2)**4 or fewer: at most 4,426 keys on
    loopless inputs and 69,672 on looped ones, whatever n.
    """
    if n == 0:
        return [1]
    w = n + 1
    last = n - 1
    lo = max(k, n - MEMO_LEVELS)
    # The shifts of a histogram by one more vertex, with 0, 1 or 2 more
    # rank: 1, n + 2 and 2n + 3 indices of w bits.
    grow = w
    rank1 = w * (w + 1)
    rank2 = w * (2 * w + 1)
    memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}

    # The first k levels take only the branch the prefix names.
    def go(v: int, rows: List[int], pend: List[int]) -> int:
        rv = rows[0]
        if v == last:
            hist = 1 if v >= k or not prefix >> v & 1 else 0
            if v >= k or prefix >> v & 1:
                # Only a row led by v can have bit v; it comes first.
                if pend and pend[0] >> v & 1:
                    hist += 1 << rank2
                else:
                    hist += 1 << (rank1 if rv >> v & 1 else grow)
            return hist
        if v >= lo:
            key = (tuple([x >> v for x in rows]), tuple([q >> v for q in pend]))
            hit = memo.get(key)
            if hit is not None:
                return hit
        rest = rows[1:]
        hist = 0
        if v >= k or prefix >> v & 1:  # include v
            for i, rp in enumerate(pend):
                if rp >> v & 1:
                    a = rv ^ rp if rv >> v & 1 else rv
                    below = [x ^ (a if rp >> j & 1 else 0) ^ (rp if x >> v & 1 else 0)
                             for j, x in enumerate(rest, v + 1)]
                    kept = pend[:i] + [q ^ rp if q >> v & 1 else q for q in pend[i + 1:]]
                    hist = go(v + 1, below, kept) << rank2
                    break
            else:
                if rv >> v & 1:
                    below = [x ^ rv if x >> v & 1 else x for x in rest]
                    hist = go(v + 1, below, pend) << rank1
                else:
                    r = rv
                    for q in pend:
                        r = min(r, r ^ q)  # clears q's leading bit from r
                    if r >> v:
                        kept = [min(q, q ^ r) for q in pend]
                        kept.append(r)
                        kept.sort()
                    else:
                        kept = pend
                    hist = go(v + 1, rest, kept) << grow
        if v >= k or not prefix >> v & 1:  # exclude v
            hist += go(v + 1, rest, pend[1:] if pend and pend[0] >> v == 1 else pend)
        if v >= lo:
            memo[key] = hist
        return hist

    return unpack_fields(go(0, list(adj), []), w, w * w)


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
    chosen reduced modulo those taken, memoized over its last levels,
    and histograms them by corank, pooled by _workers.sum_histograms.

    Raises:
        ValueError: if n is past the enumeration bound, or if the walk's
            memo needs more than the memo budget (see _limits).
    """
    from .gf2 import choice_ranks
    _require_loopless(g)
    check_enumeration(g.n)
    pairs = tuple((row, 1 << i) for i, row in enumerate(g.adj))
    counts = sum_histograms(choice_ranks, ((), pairs), g.n)
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
    for this call, shared by the components and held to the memo budget
    like qn_recursive's.  Polynomials are packed ints with qn_recursive's
    field width w = n + 1, so the product over the components is an int
    product."""
    _require_loopless(g)
    w = g.n + 1
    packed = _component_product(g, component_masks(g.adj), w, Memo(),
                                _qn_bouchet_rec, 1 << w)
    return UniPoly(unpack_fields(packed, w, w))


def _qn_bouchet_rec(g: SimpleGraph, w: int, memo: Memo) -> int:
    adj = g.adj
    if not adj:
        return 1
    hit = memo.get(adj)
    if hit is not None:
        return hit
    row = adj[0]
    if row == 0:
        packed = _qn_bouchet_rec(g.delete_vertex(0), w, memo) << w
    else:
        v = (row & -row).bit_length() - 1
        flipped = g.local_complement(0).local_complement(v).local_complement(0)
        packed = (_qn_bouchet_rec(g.delete_vertex(0), w, memo)
                  + _qn_bouchet_rec(flipped.delete_vertex(0), w, memo))
    memo.store(adj, packed)
    return packed


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
    Loops contribute diagonal ones, which the walk behind the rank
    profile eliminates as 1 x 1 pivots (see _rank_profile).  Expands the
    rank profile whose nullity marginal is qn_closed, pooled from n = 16
    on like it (see _closed_profile)."""
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
    nodes', in a memo that lives for this call only and is held to the
    memo budget (see _limits).

    A node carries its rank profile (see _rank_profile) as the polynomial
    in u = x-1 and v = y-1 it stands for, packed into one int: the count
    of index i = rank*(n+1) + |W| in bits [i*w, (i+1)*w), with w = n + 1
    for the input's n, so v is 1 << w and u is 1 << w*(w+1).  The edge
    step is A + B + C*u**2 - C, the looped step A + C*u and an isolated
    loopless vertex a factor 1 + v.  The term -C borrows across fields,
    but every stored value is a profile of at most 2**n subsets, whose
    counts fit their fields.  The final profile is expanded like
    q2_closed's."""
    n = g.n
    w = n + 1
    packed = _q2_reduction_rec(g, w, Memo())
    return _bipoly_from_rank_counts(unpack_fields(packed, w, w * w), n)


def _q2_reduction_rec(g: SimpleGraph, w: int, memo: Memo) -> int:
    adj = g.adj
    hit = memo.get(adj)
    if hit is not None:
        return hit
    masks = component_masks(adj)
    if len(masks) > 1:
        packed = _component_product(g, masks, w, memo, _q2_reduction_rec, (1 << w) + 1)
    elif (edge := _least_loopless_edge(adj)) is not None:
        a, b = edge
        # a < b, so deleting b leaves a's index unchanged.
        minus_b = g._pivot_unchecked(a, b).delete_vertex(b)
        # C first, so that no partial sum waits while a child recurses.
        c = _q2_reduction_rec(minus_b.delete_vertex(a), w, memo)
        packed = (_q2_reduction_rec(g.delete_vertex(a), w, memo)
                  + _q2_reduction_rec(minus_b, w, memo)
                  + (c << 2 * w * (w + 1)) - c)  # C*u**2 - C
    else:
        looped = None
        for v, row in enumerate(adj):
            if (row >> v) & 1:
                looped = v
                break
        if looped is not None:
            a = looped
            packed = (_q2_reduction_rec(g.delete_vertex(a), w, memo)
                      + (_q2_reduction_rec(g.local_complement(a).delete_vertex(a),
                                           w, memo) << w * (w + 1)))  # + C*u
        else:
            packed = ((1 << w) + 1) ** len(adj)
    memo.store(adj, packed)
    return packed


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


def _bipoly_from_rank_counts(profile: List[int], n: int) -> BiPoly:
    """Expand the sum over the profile's (rank r, nullity u, count c) of
    c * (x-1)**r * (y-1)**u: shift each rank's nullity histogram in y,
    then each power of y's coefficients over the ranks in x."""
    by_rank = [[0] * (n + 1) for _ in range(n + 1)]
    for r, u, c in _profile_entries(profile, n):
        by_rank[r][u] = c
    in_y = [poly_from_shift_counts(row).coeffs for row in by_rank]
    terms: Dict[Tuple[int, int], int] = {}
    for j in range(n + 1):
        in_x = poly_from_shift_counts([ys[j] if j < len(ys) else 0 for ys in in_y])
        for i, c in enumerate(in_x.coeffs):
            terms[(i, j)] = c
    return BiPoly(terms)
