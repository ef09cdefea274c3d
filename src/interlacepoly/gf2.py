"""Linear algebra over GF(2) on bit-packed rows.

A row is one Python int, bit j being the entry in column j.  XOR on
ints gives word-parallel row operations, which is what makes rank
computation cheap enough to sit inside 2^n sums.  One row reduction,
against a pivot dictionary, serves every caller: `rank`, the
isotropic-system basis check, and `choice_ranks`, the one walk over the
ways of picking a row from each of n pairs, which the `avdh` and `tm`
sums both run.
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

    A depth-first walk picks from pair 0, 1, ... in turn and keeps one
    echelon form of `base` and the rows picked so far, extended on the
    way down and undone on the way back, so each pick costs one
    reduction instead of one elimination per choice of all n rows.
    """
    piv: Dict[int, int] = {}
    for row in base:
        r = reduce_by_pivots(row, piv)
        piv[r.bit_length()] = r  # base is independent
    n = len(pairs)
    if n == 0:
        return [stop - start]
    hist = [0] * (n + 1)
    last = n - 1

    # lost counts the picks so far that the span already held; the last
    # level counts its leaves in place.
    def go(i: int, lost: int) -> None:
        for row in walk[i]:
            r = reduce_by_pivots(row, piv)
            if i == last:
                hist[lost if r else lost + 1] += 1
            elif r:
                h = r.bit_length()
                piv[h] = r
                go(i + 1, lost)
                del piv[h]
            else:
                go(i + 1, lost + 1)

    # The first k pairs admit only the row the current prefix names.
    for prefix in range(start, stop):
        walk = tuple((pair[(prefix >> i) & 1],) for i, pair in enumerate(pairs[:k]))
        walk += tuple(pairs[k:])
        go(0, 0)
    return hist
