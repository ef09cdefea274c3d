"""Linear algebra over GF(2) on bit-packed rows.

A row is one Python int, bit j being the entry in column j.  XOR on
ints gives word-parallel row operations, which is what makes rank
computation cheap enough to sit inside 2^n sums.  One row reduction,
against a pivot dictionary, serves `rank` and the isotropic-system
basis check.  `choice_ranks`, the one walk over the ways of picking a
row from each of n pairs, which the `avdh` and `tm` sums both run,
needs no pivots: it keeps the rows still to be picked reduced modulo
those taken, so a pick adds rank iff its row is nonzero.  It carries
those rows packed into one int, a field per row, so a pick reduces
all of them in a few big-int operations (poly.clear_bit), as the
closed walk of interlace._rank_profile does too.  They alone decide
the rest of the walk, so its last levels are memoized on that int,
each node's histogram packed into one int as well; the memo is charged
to the memo budget (see _limits).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ._limits import Memo, store_bytes
from .poly import clear_bit, pack_fields, unpack_fields

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

    The m rows left are one int (poly.pack_fields), row i in bits [i * W,
    (i + 1) * W) with W the width of the widest row, so dropping the
    first pair is a shift by 2W, and taking row r, whose lowest set bit
    is b, clears b from every row below in three big-int operations
    (poly.clear_bit).

    A node returns the histogram of the picks lost below it, the ones
    the span already holds, relative to those lost above it, packed into
    one int: count i in bits [i * w, (i + 1) * w) with w = n + 1, enough
    for the 2**n picks; a lost pick shifts its child's histogram by w,
    and the walk's total is unpacked once (poly.unpack_fields).  The
    subtree below a node is a function of its rows alone, so their int
    is an exact key at its level, and the levels with 3 to MEMO_LEVELS
    pairs left are memoized on it.

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
    per level: its key as a tuple of 2u rows as wide as the widest pair
    row once the base is taken, which bounds the int of those rows, and
    u + 1 fields of value.
    """
    n = len(pairs)
    w = n + 1
    top = list(base) + [row for pair in pairs for row in pair]
    field = max(max(top, default=0).bit_length(), 1)
    mask = (1 << field) - 1
    # The rows left never reach past their own fields, so one mask of
    # field feet serves every level.
    rows, ones = pack_fields(top, field)
    # The base rows, each its own pick; a key is priced at the width of
    # the pair rows they leave.
    for _ in base:
        r = rows & mask
        rows >>= field
        if r:
            rows = clear_bit(rows, ones, (r & -r).bit_length() - 1, r)
    width = max(unpack_fields(rows, field, 2 * n), default=0).bit_length()
    pair_bits = 2 * field
    # The histogram of one pick with 0, 1 or 2 picks lost.
    lost = (1, 1 << w, 1 << 2 * w)
    memo_rows = 2 * MEMO_LEVELS
    charge = [store_bytes(m, width, w * (m // 2 + 1)) for m in range(memo_rows + 1)]
    memo = Memo(memo_rows + 1)

    def count(rows: int, m: int) -> int:
        if m > 4:
            if m <= memo_rows:
                hist = memo[m].get(rows)
                if hist is not None:
                    return hist
            rest = rows >> pair_bits
            hist = 0
            for r in (rows & mask, rows >> field & mask):
                if r:
                    b = (r & -r).bit_length() - 1
                    hist += count(clear_bit(rest, ones, b, r), m - 2)
                else:
                    hist += count(rest, m - 2) << w
            if m <= memo_rows:
                memo.store(m, rows, hist, charge[m])
            return hist
        if m == 4:
            a, b = rows >> pair_bits & mask, rows >> 3 * field
            hist = 0
            for r in (rows & mask, rows >> field & mask):
                # Below a nonzero r, a reduces to zero iff a is 0 or r.
                if r:
                    hist += lost[a == 0 or a == r] + lost[b == 0 or b == r]
                else:
                    hist += lost[1 + (a == 0)] + lost[1 + (b == 0)]
            return hist
        if m:
            return lost[rows & mask == 0] + lost[rows >> field == 0]
        return 1

    # The prefix's picks.
    m = 2 * (n - k)
    shift = 0
    for i in range(k):
        r = rows >> (prefix >> i & 1) * field & mask
        rows >>= pair_bits
        if r:
            rows = clear_bit(rows, ones, (r & -r).bit_length() - 1, r)
        else:
            shift += w
    # count refers to itself, so the cycle collector, not the return,
    # frees its closure; the memo is freed here.
    try:
        return unpack_fields(count(rows, m) << shift, w, n + 1)
    finally:
        memo.clear()
