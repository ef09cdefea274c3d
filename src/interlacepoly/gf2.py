"""Linear algebra over GF(2) on bit-packed rows.

A row is one Python int, bit j being the entry in column j.  XOR on
ints gives word-parallel row operations, which is what makes rank
computation cheap enough to sit inside 2^n sums.  One row reduction,
against a pivot dictionary, serves `rank` and the isotropic-system
basis check.  `choice_ranks`, the one walk over the ways of picking a
row from each of n pairs, which the `avdh` and `tm` sums both run,
needs no pivots: it keeps the rows still to be picked reduced modulo
those taken, so a pick adds rank iff its row is nonzero.  Those rows
alone decide the rest of the walk, so its last levels are memoized on
them, each node's histogram packed into one int; the memo is charged
to the memo budget (see _limits).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ._limits import Memo, store_bytes
from .poly import unpack_fields

# The choice walk memoizes the levels with at most this many pairs left
# (see choice_ranks).
MEMO_LEVELS = 6


def rank(rows: Iterable[int]) -> int:
    """Dimension of the span of `rows` over GF(2): the number of pivots
    reduce_by_pivots builds from them.  `rows` is not changed."""
    piv: Dict[int, int] = {}
    for row in rows:
        r = reduce_by_pivots(row, piv)
        if r:
            piv[r.bit_length()] = r
    return len(piv)


def reduce_by_pivots(row: int, piv: Dict[int, int]) -> int:
    """Reduce `row` against an echelon basis kept as a map from leading
    bit position (`bit_length()`) to the basis row that leads there.

    Returns 0 if `row` lies in the span of the basis; otherwise a
    nonzero remainder whose leading bit no basis row has, so that
    `piv[r.bit_length()] = r` extends the basis.  `piv` is not changed.
    """
    while row:
        p = piv.get(row.bit_length())
        if p is None:
            return row
        row ^= p
    return 0


def choice_ranks(base: Sequence[int], pairs: Sequence[Tuple[int, int]],
                 k: int, prefix: int) -> List[int]:
    """Histogram of the rank gained when one row picked from each pair
    joins the independent rows `base`, indexed by len(pairs) - gain.  It
    counts the picks whose first k choices, read as bits (bit i set: the
    second row of pair i), are `prefix`.

    A depth-first walk picks from pair 0, 1, ... in turn and carries the
    rows still to be decided, [a_i, b_i, a_i+1, b_i+1, ...], reduced
    modulo the span of the rows taken so far, so a later row is zero
    exactly when the span holds it.  A pick adds rank iff its row is
    nonzero, and taking it clears its lowest set bit from the rows below;
    the base rows are taken first and the prefix's picks next, by the
    same step, and the last two levels are counted in place.

    A node returns the histogram of the picks lost below it, the ones
    the span already holds, relative to those lost above it, packed into
    one int: count i in bits [i * w, (i + 1) * w) with w = n + 1, enough
    for the 2**n picks; a lost pick shifts its child's histogram by w,
    and the walk's total is unpacked once (poly.unpack_fields).  The
    subtree below a node is a function of its rows alone, so tuple(rows)
    is an exact key, and the levels with 3 to MEMO_LEVELS pairs left are
    memoized on it.

    How many keys a level holds depends on the rows.  A reduced row is
    the one member of its coset modulo the span taken that is zero in
    the span's pivot columns, the lowest bits its members reach.  For
    tm the rows of the positions >= v sit in bits >= 2v, and so do
    their reduced forms, so with u = n - v pairs left a key is a
    function of the subspace of the span that lives in those 2u bits,
    whatever n.  On random graphs of density 1/2 the levels with u = 3
    and 4 hold 30 and 270 keys at n = 20 and at n = 24; at u = 5 and 6
    that bound is past the levels' 2**(n - u) nodes, and their keys grow
    from 12,371 to 70,996.  For avdh the adjacency rows keep their bits
    below v, and the keys grow with n: 27,448 at u <= 4 for n = 20 and
    198,377 for n = 24, where all four levels hold 562,670.  So every
    store is charged to the memo budget (see _limits) at a price fixed
    per level: its key of 2u rows as wide as the widest row, and u + 1
    fields of value.
    """
    n = len(pairs)
    w = n + 1
    top = list(base) + [row for pair in pairs for row in pair]
    for _ in base:
        top = _take(top[0], top[1:])
    # The histogram of one pick with 0, 1 or 2 picks lost.
    lost = (1, 1 << w, 1 << 2 * w)
    memo_rows = 2 * MEMO_LEVELS
    width = max(top, default=0).bit_length()
    charge = [store_bytes(m, width, w * (m // 2 + 1)) for m in range(memo_rows + 1)]
    memo = Memo(memo_rows + 1)

    def count(rows: List[int]) -> int:
        m = len(rows)
        if m > 4:
            if m <= memo_rows:
                key = tuple(rows)
                hist = memo[m].get(key)
                if hist is not None:
                    return hist
            rest = rows[2:]
            hist = 0
            for r in (rows[0], rows[1]):
                if r:
                    # _take, inlined: a call per node costs avdh about 20%.
                    low = r & -r
                    hist += count([x ^ r if x & low else x for x in rest])
                else:
                    hist += count(rest) << w
            if m <= memo_rows:
                memo.store(m, key, hist, charge[m])
            return hist
        if m == 4:
            a, b = rows[2], rows[3]
            hist = 0
            for r in (rows[0], rows[1]):
                # Below a nonzero r, a reduces to zero iff a is 0 or r.
                if r:
                    hist += lost[a == 0 or a == r] + lost[b == 0 or b == r]
                else:
                    hist += lost[1 + (a == 0)] + lost[1 + (b == 0)]
            return hist
        if rows:
            return lost[rows[0] == 0] + lost[rows[1] == 0]
        return 1

    shift = 0
    for i in range(k):
        r = top[(prefix >> i) & 1]
        top = _take(r, top[2:])
        shift += w if r == 0 else 0
    # count refers to itself, so the cycle collector, not the return,
    # frees its closure; the memo is freed here.
    try:
        return unpack_fields(count(top) << shift, w, n + 1)
    finally:
        memo.clear()


def _take(row: int, rows: List[int]) -> List[int]:
    """`rows` reduced modulo `row` as well: the lowest set bit of `row`
    cleared from each, so that with a zero `row` nothing changes.  Rows
    already reduced modulo the earlier picks stay so, since `row` is
    zero in their pivot columns."""
    low = row & -row
    return [x ^ row if x & low else x for x in rows]
