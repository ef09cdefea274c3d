"""Dense linear algebra over GF(2) with bit-packed rows.

Each matrix row is stored as one Python int, bit j being the entry in
column j.  XOR on ints gives word-parallel row operations, which is what
makes rank computation cheap enough to sit inside 2^n subset sums.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence


class GF2Matrix:
    """An immutable rows x cols matrix over the two-element field.

    Rows are bit-packed ints; bits at positions >= cols are kept zero.
    The 0x0 matrix is valid.  All operations work on scratch copies, so
    values can be shared freely between threads.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[int] = ()):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = list(data) if data else [0] * rows
        if len(data) != rows:
            raise ValueError(f"expected {rows} rows, got {len(data)}")
        mask = (1 << cols) - 1
        for r in data:
            if r < 0:
                raise ValueError("rows must be nonnegative ints")
            if r & ~mask:
                raise ValueError(f"row has bits beyond column {cols - 1}")
        self.rows = rows
        self.cols = cols
        self.data = tuple(data)

    @classmethod
    def from_bits(cls, bits: Sequence[Sequence[int]], cols: int | None = None) -> "GF2Matrix":
        """Build a matrix from nested 0/1 sequences (row major)."""
        rows = len(bits)
        if cols is None:
            cols = len(bits[0]) if rows else 0
        data = []
        for row in bits:
            if len(row) != cols:
                raise ValueError("ragged rows")
            acc = 0
            for j, b in enumerate(row):
                if b not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                acc |= b << j
            data.append(acc)
        return cls(rows, cols, data)

    def bit(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        body = ", ".join(format(r, f"0{self.cols}b")[::-1] if self.cols else "" for r in self.data)
        return f"GF2Matrix({self.rows}x{self.cols}: [{body}])"


def _eliminate(data: Iterable[int], cols: int) -> int:
    """Row count of an echelon form of `data`, i.e. the GF(2) rank.

    Pivot selection is deterministic: columns in increasing order, first
    row with a nonzero bit scanning top-down.
    """
    work = list(data)
    m = len(work)
    pivot_row = 0
    for col in range(cols):
        if pivot_row == m:
            break
        bit = 1 << col
        found = -1
        for i in range(pivot_row, m):
            if work[i] & bit:
                found = i
                break
        if found < 0:
            continue
        work[pivot_row], work[found] = work[found], work[pivot_row]
        piv = work[pivot_row]
        for i in range(pivot_row + 1, m):
            if work[i] & bit:
                work[i] ^= piv
        pivot_row += 1
    return pivot_row


def rank(m: GF2Matrix) -> int:
    """Dimension of the row space of `m` over GF(2)."""
    return _eliminate(m.data, m.cols)


def nullity(m: GF2Matrix) -> int:
    """cols - rank: the kernel dimension of `m` acting on column vectors."""
    return m.cols - rank(m)


def corank(m: GF2Matrix) -> int:
    """n - rank for a square n x n matrix.

    Raises:
        ValueError: if `m` is not square.
    """
    if m.rows != m.cols:
        raise ValueError(f"corank needs a square matrix, got {m.rows}x{m.cols}")
    return m.cols - rank(m)


def stack_rank(a: GF2Matrix, b: GF2Matrix) -> int:
    """Rank of the matrix whose rows are the rows of `a` followed by `b`.

    Raises:
        ValueError: if the column counts differ.
    """
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.cols} vs {b.cols}")
    return _eliminate(a.data + b.data, a.cols)


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
