"""Linear algebra over GF(2) on bit-packed rows.

A row is one Python int, bit j being the entry in column j.  XOR on
ints gives word-parallel row operations, which is what makes rank
computation cheap enough to sit inside 2^n sums.  One row reduction,
against a pivot dictionary, serves `rank` and the isotropic-system
basis check.  `choice_ranks`, the one walk over the ways of picking a
row from each of n pairs, which the `avdh` and `tm` sums both run,
needs no pivots: it keeps the rows still to be picked reduced modulo
those taken, so a pick adds rank iff its row is nonzero.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


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
                 k: int, start: int, stop: int) -> List[int]:
    """Histogram of the rank gained when one row picked from each pair
    joins the independent rows `base`, indexed by len(pairs) - gain.  It
    counts the picks whose first k choices, read as the bits of a prefix
    (bit i set: the second row of pair i), lie in [start, stop).

    A depth-first walk picks from pair 0, 1, ... in turn and carries the
    rows still to be decided, [a_i, b_i, a_i+1, b_i+1, ...], reduced
    modulo the span of the rows taken so far, so a later row is zero
    exactly when the span holds it.  A pick adds rank iff its row is
    nonzero, and taking it clears its lowest set bit from the rows below;
    the base rows are taken first and the prefix's picks next, by the
    same step, and the last two levels are counted in place.
    """
    n = len(pairs)
    hist = [0] * (n + 1)
    top = list(base) + [row for pair in pairs for row in pair]
    for _ in base:
        top = _take(top[0], top[1:])

    # lost counts the picks so far that the span already held.
    def count(rows: List[int], lost: int) -> None:
        if len(rows) > 4:
            rest = rows[2:]
            for r in (rows[0], rows[1]):
                if r:
                    count(_take(r, rest), lost)
                else:
                    count(rest, lost + 1)
        elif len(rows) == 4:
            a, b = rows[2], rows[3]
            for r in (rows[0], rows[1]):
                # Below a nonzero r, a reduces to zero iff a is 0 or r.
                if r:
                    hist[lost + (a == 0 or a == r)] += 1
                    hist[lost + (b == 0 or b == r)] += 1
                else:
                    hist[lost + 1 + (a == 0)] += 1
                    hist[lost + 1 + (b == 0)] += 1
        elif rows:
            hist[lost + (rows[0] == 0)] += 1
            hist[lost + (rows[1] == 0)] += 1
        else:
            hist[lost] += 1

    for prefix in range(start, stop):
        rows, lost = top, 0
        for i in range(k):
            r = rows[(prefix >> i) & 1]
            rows = _take(r, rows[2:])
            lost += r == 0
        count(rows, lost)
    return hist


def _take(row: int, rows: List[int]) -> List[int]:
    """`rows` reduced modulo `row` as well: the lowest set bit of `row`
    cleared from each, so that with a zero `row` nothing changes.  Rows
    already reduced modulo the earlier picks stay so, since `row` is
    zero in their pivot columns."""
    low = row & -row
    return [x ^ row if x & low else x for x in rows]
