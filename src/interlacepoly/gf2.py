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
the rest of the walk, so it fills one table per level keyed on that
int, each state's histogram packed into one int as well; the tables
are charged to the memo budget (see _limits).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ._limits import Memo, store_bytes
from .poly import clear_bit, pack_fields, unpack_fields


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

    The walk picks from pair 0, 1, ... in turn and carries the rows
    still to be decided, [a_i, b_i, a_i+1, b_i+1, ...], reduced modulo
    the span of the rows taken so far, so a later row is zero exactly
    when the span holds it.  A pick adds rank iff its row is nonzero,
    and taking it clears its lowest set bit from the rows below.  The
    base rows are taken first, each a level of the walk with one pick,
    so that their reduction is charged like any other level.

    The m rows left are one int (poly.pack_fields), row i in bits [i * W,
    (i + 1) * W) with W the width of the widest row, so dropping the
    first pair is a shift by 2W and a base row one by W, and taking row
    r, whose lowest set bit is b, clears b from every row below in three
    big-int operations (poly.clear_bit).

    The rest of the walk is a function of the rows left alone, so level
    v holds one table, as eulerian._component_histogram does, from their
    int to the histogram of the picks lost so far, the ones the span
    already held, packed into one int: count i in bits [i * w,
    (i + 1) * w) with w = n + 1, enough for the 2**n picks.  The walk
    fills the tables forward: it expands each state of level v once,
    only by the prefix's pick for the first k pairs, shifts its
    histogram by w if the pick is lost, and adds it into level v + 1's
    table; then it clears level v.  The last level holds one key, 0,
    whose histogram is the walk's total, unpacked once
    (poly.unpack_fields).

    How many keys a level holds depends on the rows.  A reduced row is
    the one member of its coset modulo the span taken that is zero in
    the span's pivot columns, the lowest bits its members reach.  For
    tm the rows of the positions >= v sit in bits >= 2v, and so do
    their reduced forms, so with u = n - v pairs left a key is a
    function of the subspace of the span that lives in those 2u bits,
    whatever n.  On random graphs of density 1/2 the levels with u = 3
    and 4 hold 30 and 270 keys at n = 20 and at n = 24, and the widest
    level 8,453 and 90,191 (26,353 and 284,042 keys in all).  For avdh
    the adjacency rows keep their bits below v, and the keys grow with
    n: the widest level holds 17,937 at n = 20 and 195,699 at n = 24
    (76,678 and 819,528 in all).  So every entry is charged to the memo
    budget (see _limits.Memo.add): its key as the one int of the fields
    left it is, and its value's digits as they grow.  A cleared level is
    not refunded, since the budget is the walk's only bound on time
    (rule 2, see _limits).
    """
    n = len(pairs)
    w = n + 1
    top = list(base) + [row for pair in pairs for row in pair]
    field = max(max(top, default=0).bit_length(), 1)
    mask = (1 << field) - 1
    # The rows left never reach past their own fields, so one mask of
    # field feet serves every level.
    rows, ones = pack_fields(top, field)
    # Each level's rows taken and picks: the base rows singly, then pairs.
    steps = [(1, (0,))] * len(base) + [
        (2, (0, 1) if i >= k else (prefix >> i & 1,)) for i in range(n)]
    fields = len(top)
    memo = Memo(len(steps) + 1)
    add = memo.add
    add(0, rows, 1, store_bytes(1, fields * field))
    for v, (taken, picks) in enumerate(steps):
        fields -= taken
        price = store_bytes(1, fields * field)
        for rows, hist in memo[v].items():
            rest = rows >> taken * field
            for c in picks:
                r = rows >> c * field & mask
                if r:
                    add(v + 1, clear_bit(rest, ones, (r & -r).bit_length() - 1, r), hist, price)
                else:
                    add(v + 1, rest, hist << w, price)
        memo[v].clear()
    return unpack_fields(memo[-1][0], w, n + 1)
