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

from typing import Callable, Dict, List, Tuple, Union

from ._limits import Memo, check_enumeration, check_profile_bits, store_bytes
from ._workers import sum_histograms
from .graph import (Rows, SimpleGraph, component_masks, cut_rank_order,
                    relabel_rows, restrict_rows)
from .poly import (BiPoly, UniPoly, clear_bit, pack_fields,
                   poly_from_shift_counts, unpack_fields)

QN_METHODS = ("recursive", "closed", "bouchet", "avdh", "isotropic")


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
    """Pivot-and-delete recursion: on an edge vw,
    qn(G) = qn(G - v) + qn(pivot(G, v, w) - w); qn of n isolated vertices
    is x**n.

    qn does not depend on the edge taken (Arratia, Bollobas and Sorkin)
    nor on the labels, but the cost does: the recursion takes the least
    edge (0, v), so it deletes vertices about in label order, and the
    graphs it meets below a prefix S of that order are governed by the
    cut-rank rank(A[S, V - S]) over GF(2) (Oum, 2005).  So the input is
    relabeled once, on entry, by graph.cut_rank_order, which keeps those
    cut-ranks low.

    qn is multiplicative over disjoint unions, so every node of the
    recursion that is not connected is the product of its components
    (see _split); an isolated vertex is a factor x.  The graph is checked
    once, here; the graphs the moves derive from it are not checked
    again.  _reduce walks the recursion and memoizes it.

    A node's polynomial is one int, coefficient k in bits [k*w, (k+1)*w)
    with w = n + 1 for the input's n.  qn(G; 2) = 2**m on m vertices and
    no coefficient is negative, so every coefficient of every node is at
    most 2**n and fits its field.  A sum is +, the factor x is << w and a
    product of components is *."""
    _require_loopless(g)
    w = g.n + 1

    def step(h: SimpleGraph) -> Step:
        adj = h.adj
        masks = component_masks(adj)
        if len(masks) > 1:
            return _split(adj, masks, 1 << w)
        if len(adj) > 1:
            # Connected: (0, v), v the least neighbor of 0, is the least edge.
            row = adj[0]
            v = (row & -row).bit_length() - 1
            return [h.delete_vertex(0), h._pivot_unchecked(0, v).delete_vertex(v)], sum
        return 1 << w * len(adj)

    return UniPoly(unpack_fields(_reduce(_relabeled(g), Memo(w), step), w, w))


Step = Union[int, Tuple[List[Union[SimpleGraph, Rows]], Callable[[List[int]], int]]]


def _reduce(g: SimpleGraph, memo: Memo, step: Callable[[SimpleGraph], Step]) -> int:
    """The value of g by the recursion whose step gives a graph's value or
    its children and their combine, memoized on rows at level len(rows)
    (rule 2, see _limits) and walked on a stack of frames (graph, children,
    combine, index of the next child), so no interpreter limit bounds its
    depth.  A child, a graph or a component's rows (see _split), is looked
    up once its older siblings are done, so no key is computed twice, and
    built only on a miss; its value replaces it in the list."""
    graph, children, combine, i = g, [g], None, 0
    frames = []
    while True:
        if i < len(children):
            child = children[i]
            rows = child if type(child) is tuple else child.adj
            size = len(rows)
            value = memo[size].get(rows)
            if value is not None:
                children[i] = value
                i += 1
                continue
            if type(child) is tuple:
                child = SimpleGraph(size, rows, graph.loops_allowed, _valid=True)
            value = step(child)
            if type(value) is tuple:
                frames.append((graph, children, combine, i))
                graph, (children, combine), i = child, value, 0
                continue
        else:
            if not frames:
                return children[0]
            rows, value = graph.adj, combine(children)
            size = len(rows)
            graph, children, combine, i = frames.pop()
        memo.store(size, rows, value, store_bytes(size, size, value.bit_length()))
        children[i] = value
        i += 1


def _split(adj: Rows, masks: List[int],
           lone: int) -> Tuple[List[Rows], Callable[[List[int]], int]]:
    """The components of adj, given as vertex masks: the rows of those
    that are not a lone loopless vertex (whose highest vertex has a zero
    row), and the product of their values and of `lone` per lone vertex,
    two factors at a time from the front to the back: one factor at a
    time into a running product is quadratic in its size."""
    parts = [restrict_rows(adj, m) for m in masks if adj[m.bit_length() - 1]]
    lones = lone ** (len(masks) - len(parts))

    def product(values: List[int]) -> int:
        factors = [lones, *values]
        while len(factors) > 1:
            factors.append(factors.pop(0) * factors.pop(0))
        return factors[0]

    return parts, product


# -- closed subset sum --------------------------------------------------


def qn_closed(g: SimpleGraph) -> UniPoly:
    """Sum of (x-1)**(|W| - rank(A[W])) over all vertex subsets W, the
    rank taken over GF(2) of the induced adjacency submatrix: the nullity
    marginal of the rank profile, the sum of its columns, which a walk by
    symmetric elimination computes, one table per level (see
    _rank_profile), pooled from n = 16 on (see _closed_profile).

    Raises:
        ValueError: if n is past the enumeration bound, or if the walk's
            tables need more than the memo budget (see _limits).
    """
    _require_loopless(g)
    w = g.n + 1
    profile = _closed_profile(g.adj, g.n)
    return poly_from_shift_counts([sum(profile[j::w]) for j in range(w)])


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
    which one walk over the subsets computes by symmetric elimination,
    one table per level, in the graph's own labels.  Under the pool (see
    _workers.sum_histograms) each process walks the subsets of one
    prefix with a memo of its own."""
    check_enumeration(n)
    return sum_histograms(_rank_profile, (adj, n), n)


def _rank_profile(adj: Tuple[int, ...], n: int, k: int,
                  prefix: int) -> List[int]:
    """Histogram of (rank, nullity) of A[W] over GF(2) over the vertex
    subsets W whose first k vertices, read as bits, are `prefix`; flat
    at rank*(n+1) + nullity.  Loops are diagonal ones.

    The walk decides vertex 0, 1, ..., n-1 in turn and carries a Schur
    complement of A instead of an echelon form.  At level v the
    chosen vertices W1 split into eliminated ones E, whose block A[E, E]
    is nonsingular of rank r, and pending ones P; U = {v, ..., n-1} is
    undecided.  M is the Schur complement of A[E, E] on P and U, so that
    rank(A[W1 u W2]) = r + rank(M[P u W2]) for every W2 in U.  The walk
    keeps M[P, P] = 0.  It carries the rows of M on U packed into one int
    `rows`, field i of n bits the row of vertex v + i with its columns
    keeping their labels, and the rows of M[P, U] as the tuple `pend`,
    described below; bits below v are stale and cleared.  Excluding v
    drops field 0, a shift by n.  Including v eliminates what it can:

      a pending row rp has bit v: pivot on the block of p and v, which
        is [[0, 1], [1, c]] with c = M[v, v] and so nonsingular; rank + 2.
        An undecided row x becomes
        x ^ (x_p ? rv ^ (c ? rp : 0) : 0) ^ (x_v ? rp : 0), with
        x_p = M[x, p] read from bit x of rp; every other pending row q
        with bit v becomes q ^ rp (its q_p is 0, since M[P, P] = 0);
      else v is looped: pivot on v; rank + 1.  An undecided row x
        becomes x ^ (x_v ? rv : 0), and no pending row has bit v;
      else v joins P, which keeps M[P, P] = 0.

    Each update of the undecided rows is a few operations on `rows`:
    XORing rv or rp into the rows x with x_v set is poly.clear_bit, and
    the marks x_p of a pair pivot are the bits of rp above v, which
    spread moves to the foot of the fields, a byte at a time through a
    table.

    Why a level's state is its key: write B = M[P, W2] and
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

    The nullities follow the same key.  A[W1] has nullity |P|, since
    A[E, E] is nonsingular and M[P, P] = 0.  With D's basis in place of
    P, A[W1 u W2] has nullity phi + dim D + |W2| - rank(M[D u W2]),
    where phi = |P| - dim D and the rest depends only on the key.  So
    the walk counts phi, not the nullity; at level n, where D is empty,
    phi is the nullity.  Each step adds 0 or 1 to phi:

      a pair pivot: p leaves P and rp leaves D's basis; 0;
      a looped pivot changes neither P nor D; 0;
      v joins P: 0 if its reduced row has a live bit and so joins D's
        basis, else 1;
      excluding v: 1 if it drops the row led by v, else 0.

    So level v holds one table, as eulerian._component_histogram does,
    from each key (rows, D's basis) to the histogram of (rank, phi) over
    the subsets of the first v vertices that reach it, packed into one
    int with (n+1)-bit fields at phi*(n+1) + rank: at most 2**n subsets,
    so a count fits its field.  phi is at most the nullity of every
    subset the state reaches, which is small on a dense graph, while
    the rank grows with v; so phi, not the rank, takes the stride, and
    a dense graph's histograms stay a few rows of fields long.  The walk
    fills the tables forward: it expands each state of level v once,
    only by the prefix's branch below level k, shifts its histogram by
    one field per rank the step gains and by n+1 more if it adds 1 to
    phi, and adds it into level v + 1's table; then it releases level
    v.  Level n holds one key, (0, ()), whose histogram is the profile,
    returned at rank*(n+1) + nullity.  Each entry is charged to the memo
    budget (see _limits.Memo.add): its key as 2 + dim D ints of
    (n - v) * n bits, and its value's digits as they grow.
    """
    w = n + 1
    # The shifts of a histogram by one more rank, two more ranks or one
    # more phi: 1, 2 and n + 1 fields of w bits.
    rank1 = w
    rank2 = 2 * w
    phi = w * w
    mask = (1 << n) - 1
    rows, ones = pack_fields(adj, n)
    # spread[y] has a 1 at the foot of field i for each bit i of y < 256.
    # A row pends from level 1 on, so a pivot spreads at most n - 2 bits.
    spread = [0]
    for i in range(min(8, n - 2)):
        spread += [s | 1 << i * n for s in spread]
    byte_fields = 8 * n
    memo = Memo(n + 1)
    memo.add(0, (rows, ()), 1, store_bytes(2, n * n, 0))
    add = memo.add
    for v in range(n):
        # Level v + 1 keeps the bits above v of every row.
        live = ones * (mask >> v + 1 << v + 1)
        stale = ~(1 << v)
        u = n - v - 1
        price = [store_bytes(2 + d, u * n, 0) for d in range(u + 1)]
        choices = (1, 0) if v >= k else (prefix >> v & 1,)
        for (rows, pend), hist in memo[v].items():
            rv = rows & mask
            rest = rows >> n
            for include in choices:
                below = rest
                kept = pend
                shift = 0
                if include:
                    for i, rp in enumerate(pend):
                        if rp >> v & 1:
                            a = rv ^ rp if rv >> v & 1 else rv
                            below = clear_bit(rest, ones, v, rp)
                            y = rp >> v + 1
                            t = 0
                            while y:
                                below ^= spread[y & 255] * a << t
                                y >>= 8
                                t += byte_fields
                            kept = pend[:i] + tuple([q ^ rp if q >> v & 1 else q
                                                     for q in pend[i + 1:]])
                            shift = rank2
                            break
                    else:
                        if rv >> v & 1:
                            below = clear_bit(rest, ones, v, rv)
                            shift = rank1
                        else:
                            r = rv
                            for q in pend:
                                r = min(r, r ^ q)  # clears q's leading bit from r
                            if r >> v:
                                kept = tuple(sorted([min(q, q ^ r) for q in pend] + [r]))
                            else:
                                shift = phi
                elif pend and pend[0] >> v == 1:
                    kept = pend[1:]
                    shift = phi
                else:
                    kept = tuple([q & stale for q in pend])
                add(v + 1, (below & live, kept), hist << shift, price[len(kept)])
        memo.release(v)
    flat = unpack_fields(memo[n][0, ()], w, w * w)
    return [flat[j * w + r] for r in range(w) for j in range(w)]


# -- column-choice sum --------------------------------------------------


def qn_avdh(g: SimpleGraph) -> UniPoly:
    """Sum of (x-1)**corank over the 2**n admissible column choices from
    the n x 2n matrix [A | I]: for each index i take either the i-th
    adjacency column or the i-th identity column.

    gf2.choice_ranks walks the choices, keeping the columns still to be
    chosen reduced modulo those taken, one table per level, and
    histograms them by corank, pooled by _workers.sum_histograms.

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
    local complementation.  The recursion takes v = 0 and w its least
    neighbor, so it deletes the vertices in label order, and the input
    is relabeled once, on entry, by graph.cut_rank_order (see
    qn_recursive).

    The graph is checked, relabeled and split into its components (see
    _split) once, on entry; _reduce walks each in one shared memo, and
    their product is not stored.  Below the top the recursion does not
    split, since that made it slower.  Values are packed as in qn_recursive."""
    _require_loopless(g)
    w = g.n + 1
    g = _relabeled(g)
    memo = Memo(w)

    def step(h: SimpleGraph) -> Step:
        adj = h.adj
        if len(adj) == 1:
            return 1 << w
        row = adj[0]
        if row == 0:
            return [h.delete_vertex(0)], lambda values: values[0] << w
        v = (row & -row).bit_length() - 1
        flipped = h.local_complement(0).local_complement(v).local_complement(0)
        return [h.delete_vertex(0), flipped.delete_vertex(0)], sum

    parts, product = _split(g.adj, component_masks(g.adj), 1 << w)
    values = [_reduce(SimpleGraph(len(rows), rows, _valid=True), memo, step) for rows in parts]
    return UniPoly(unpack_fields(product(values), w, w))


# -- isotropic-system route -----------------------------------------------


def qn_isotropic(g: SimpleGraph) -> UniPoly:
    """qn via the restricted Tutte-Martin polynomial of the graphic
    isotropic system of g, with the canonical presentation."""
    _require_loopless(g)
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
    """q2 by reduction.  On an edge ab whose endpoints both lack loops
    (other vertices may be looped):
    q2(G) = q2(G - a) + q2(G' - b) + ((x-1)**2 - 1) * q2(G' - a - b)
    with G' = pivot(G, a, b).  At a looped vertex a,
    q2(G) = q2(G - a) + (x-1) * q2(lc(G, a) - a); local complementation
    at a looped vertex flips loops as well.  An edgeless loopless graph
    is the base case y**n.

    Either step holds at any such edge or vertex, and the reduction
    takes vertex 0 first (see _first_step), so that, like qn_bouchet, it
    deletes the vertices about in label order; its input is relabeled
    once, on entry, by graph.cut_rank_order (see qn_recursive).  The
    least loopless edge would leave the looped vertices to the end
    whatever their labels.

    q2 is multiplicative over disjoint unions, so a node that is not
    connected is the product of its components (see _split); an isolated
    loopless vertex is a factor y.  _reduce walks the reduction and
    memoizes it; the graphs the moves derive are not checked again.

    A node carries its rank profile (see _rank_profile) as the polynomial
    in u = x-1 and v = y-1 it stands for, packed into one int: the count
    of index i = rank*(n+1) + nullity in bits [i*w, (i+1)*w), with
    w = n + 1 for the input's n, so v is 1 << w and u is 1 << w*w.  The
    edge step is A + B + C*u**2 - C, the looped step A + C*u and an
    isolated loopless vertex a factor 1 + v.  The term -C borrows across
    fields, but every stored value is a profile of at most 2**n subsets,
    whose counts fit their fields.  The final profile is expanded like
    q2_closed's; its (n + 1)**3 bits are held to the profile bound (see
    _limits) before the reduction starts."""
    n = g.n
    check_profile_bits(n)
    w = n + 1
    u = w * w

    def step(h: SimpleGraph) -> Step:
        adj = h.adj
        masks = component_masks(adj)
        if len(masks) > 1:
            return _split(adj, masks, (1 << w) + 1)
        if not (adj and adj[0]):
            return ((1 << w) + 1) ** len(adj)
        a, b = _first_step(adj)
        if b:
            # a = 0 < b, so deleting b leaves a's index unchanged.
            minus_b = h._pivot_unchecked(a, b).delete_vertex(b)
            return ([minus_b.delete_vertex(a), h.delete_vertex(a), minus_b],
                    lambda cab: cab[1] + cab[2] + (cab[0] << 2 * u) - cab[0])  # C*u**2 - C
        return ([h.delete_vertex(a), h.local_complement(a).delete_vertex(a)],
                lambda ac: ac[0] + (ac[1] << u))  # A + C*u

    packed = _reduce(_relabeled(g), Memo(w), step)
    return _bipoly_from_rank_counts(unpack_fields(packed, w, w * w), n)


def _first_step(adj: Rows) -> Tuple[int, int]:
    """The step of the reduction at a connected graph, which takes
    vertex 0 first: (0, 0), the looped step at 0, if 0 is looped; else
    (0, b), the edge step, for its least loopless neighbor b; else
    (a, 0), the looped step at its least neighbor a, which is looped."""
    row = adj[0]
    if row & 1:
        return 0, 0
    m = row
    while m:
        low = m & -m
        b = low.bit_length() - 1
        if not adj[b] & low:
            return 0, b
        m ^= low
    return (row & -row).bit_length() - 1, 0


def qn_from_q2(g: SimpleGraph) -> UniPoly:
    """The x=2 specialization of q2, which equals qn for loopless graphs;
    returned in the variable y that the specialization leaves free."""
    _require_loopless(g)
    return q2_closed(g).eval_at(2)


# -- shared helpers -------------------------------------------------------


def _relabeled(g: SimpleGraph) -> SimpleGraph:
    adj = g.adj
    return SimpleGraph(g.n, relabel_rows(adj, cut_rank_order(adj)),
                       g.loops_allowed, _valid=True)


def _require_loopless(g: SimpleGraph) -> None:
    if g.has_loops():
        raise ValueError("qn is defined for loopless graphs only")


def _bipoly_from_rank_counts(profile: List[int], n: int) -> BiPoly:
    """Expand the sum over the profile's (rank r, nullity u, count c),
    flat at r*(n+1) + u, of c * (x-1)**r * (y-1)**u: shift each rank's
    nullity histogram in y, then each power of y's coefficients over the
    ranks in x."""
    w = n + 1
    in_y = [poly_from_shift_counts(profile[i:i + w]).coeffs
            for i in range(0, w * w, w)]
    terms: Dict[Tuple[int, int], int] = {}
    for j in range(n + 1):
        in_x = poly_from_shift_counts([ys[j] if j < len(ys) else 0 for ys in in_y])
        for i, c in enumerate(in_x.coeffs):
            terms[(i, j)] = c
    return BiPoly(terms)
