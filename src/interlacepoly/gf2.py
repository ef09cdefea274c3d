"""Linear algebra over GF(2) on bit-packed rows.

A row is one Python int, bit j being the entry in column j.  XOR on
ints gives word-parallel row operations, which is what makes rank
computation cheap enough to sit inside 2^n subset sums.  One row
reduction, against a pivot dictionary, serves every caller: the `avdh`
and `tm` sums, the isotropic-system basis check, and `rank` itself.
"""

from __future__ import annotations

from typing import Dict, Iterable


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
