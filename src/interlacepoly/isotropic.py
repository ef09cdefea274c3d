"""Isotropic systems over the Klein four-group.

Klein elements are the codes 0..3: 0 the identity and x=1, y=2, z=3 the
involutions, written as bit pairs (b1, b2) with b1 the low bit, so that
x=(1,0), y=(0,1), z=(1,1) and addition is XOR.  The bilinear form
<a,b> = a1*b2 + a2*b1 over GF(2) is 1 exactly when a and b are distinct
and both nonzero.

A KVector assigns a Klein element to each of n positions, stored as two
bit rows (first components, second components).  An IsotropicSystem is
an n-dimensional self-orthogonal subspace L of K^V given by a basis of
n KVectors; the graphic system of a graph is the one spanned by
L_v = A({v}) + B(N(v)) for a presentation pair (A, B).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ._limits import check_vertex_count
from ._workers import sum_histograms
from .gf2 import choice_ranks, rank, reduce_by_pivots
from .graph import SimpleGraph
from .poly import UniPoly, poly_from_shift_counts

K_ZERO, K_X, K_Y, K_Z = 0, 1, 2, 3
KLEIN_CHARS = "0xyz"


def klein_add(a: int, b: int) -> int:
    _check_code(a)
    _check_code(b)
    return a ^ b


def klein_form(a: int, b: int) -> int:
    """<a,b> = a1*b2 + a2*b1 over GF(2): 1 iff a != b and both nonzero."""
    _check_code(a)
    _check_code(b)
    return ((a & (b >> 1)) ^ ((a >> 1) & b)) & 1


def _check_code(a: int) -> None:
    if not 0 <= a <= 3:
        raise ValueError(f"Klein element code must be 0..3, got {a}")


class KVector:
    """A map from n positions to Klein elements, as two parallel bit rows."""

    __slots__ = ("n", "row1", "row2")

    def __init__(self, n: int, row1: int = 0, row2: int = 0):
        check_vertex_count(n, "length")
        mask = (1 << n) - 1
        if row1 < 0 or row1 & ~mask or row2 < 0 or row2 & ~mask:
            raise ValueError(f"rows have bits outside 0..{n - 1}")
        self.n = n
        self.row1 = row1
        self.row2 = row2

    @classmethod
    def from_codes(cls, codes: Sequence[int]) -> "KVector":
        row1 = row2 = 0
        for v, c in enumerate(codes):
            _check_code(c)
            row1 |= (c & 1) << v
            row2 |= ((c >> 1) & 1) << v
        return cls(len(codes), row1, row2)

    @classmethod
    def constant(cls, n: int, code: int) -> "KVector":
        return cls.from_codes([code] * n)

    @classmethod
    def parse(cls, word: str) -> "KVector":
        """Parse a string over {0,x,y,z}, one character per position."""
        try:
            return cls.from_codes([KLEIN_CHARS.index(ch) for ch in word.strip()])
        except ValueError:
            raise ValueError(
                f"vector word must use characters 0, x, y, z only: {word!r}") from None

    def code(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"position {v} out of range for n={self.n}")
        return ((self.row1 >> v) & 1) | (((self.row2 >> v) & 1) << 1)

    def codes(self) -> Tuple[int, ...]:
        return tuple(self.code(v) for v in range(self.n))

    def is_complete(self) -> bool:
        """True iff no position holds the zero element."""
        return (self.row1 | self.row2) == (1 << self.n) - 1 or self.n == 0

    def __add__(self, other: "KVector") -> "KVector":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return KVector(self.n, self.row1 ^ other.row1, self.row2 ^ other.row2)

    def flattened(self) -> int:
        """2n-bit row, position-major: bits 2v and 2v+1 hold position v."""
        out = 0
        r = self.row1
        while r:
            v = (r & -r).bit_length() - 1
            r &= r - 1
            out |= 1 << (2 * v)
        r = self.row2
        while r:
            v = (r & -r).bit_length() - 1
            r &= r - 1
            out |= 1 << (2 * v + 1)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KVector):
            return NotImplemented
        return (self.n, self.row1, self.row2) == (other.n, other.row1, other.row2)

    def __hash__(self) -> int:
        return hash((self.n, self.row1, self.row2))

    def __str__(self) -> str:
        return "".join(KLEIN_CHARS[self.code(v)] for v in range(self.n))

    def __repr__(self) -> str:
        return f"KVector({str(self)!r})"


def kv_form(a: KVector, b: KVector) -> int:
    """The form summed over positions, word-parallel via popcount."""
    if a.n != b.n:
        raise ValueError("length mismatch")
    return ((a.row1 & b.row2) ^ (a.row2 & b.row1)).bit_count() & 1


def kv_in_f_hat(vec: KVector, f: KVector) -> bool:
    """Membership of vec in the space F-hat spanned by f_hat_basis(f):
    every coordinate must be 0 or equal to f there."""
    if vec.n != f.n:
        raise ValueError("length mismatch")
    if not f.is_complete():
        raise ValueError("F must be nonzero everywhere")
    return all(vec.code(v) in (K_ZERO, f.code(v)) for v in range(vec.n))


class IsotropicSystem:
    """A totally isotropic subspace L of K^V of dimension n = |V|,
    carried by an explicit basis (one KVector per vertex)."""

    __slots__ = ("n", "basis")

    def __init__(self, basis: Sequence[KVector]):
        basis = tuple(basis)
        n = len(basis)
        for vec in basis:
            if vec.n != n:
                raise ValueError(
                    f"basis vector length {vec.n} does not match dimension {n}")
        for i in range(n):
            for j in range(i, n):
                if kv_form(basis[i], basis[j]):
                    raise ValueError(f"basis vectors {i} and {j} are not orthogonal")
        piv: Dict[int, int] = {}
        for i, vec in enumerate(basis):
            r = reduce_by_pivots(vec.flattened(), piv)
            if not r:
                raise ValueError(f"basis vector {i} is dependent on the others")
            piv[r.bit_length()] = r
        self.n = n
        self.basis = basis

    def flattened_basis(self) -> Tuple[int, ...]:
        return tuple(vec.flattened() for vec in self.basis)

    def __repr__(self) -> str:
        return f"IsotropicSystem([{', '.join(str(v) for v in self.basis)}])"


# -- graphic systems --------------------------------------------------------


def _check_presentation(g: SimpleGraph, a: KVector, b: KVector) -> None:
    if g.has_loops():
        raise ValueError("graphic systems are defined for loopless graphs")
    if a.n != g.n or b.n != g.n:
        raise ValueError("presentation vectors must have one entry per vertex")
    if not a.is_complete() or not b.is_complete():
        raise ValueError("presentation vectors must be nonzero everywhere")
    if (a.row1 ^ b.row1) | (a.row2 ^ b.row2) != (1 << g.n) - 1:
        raise ValueError("presentation vectors must differ at every vertex")


def vector_LP(g: SimpleGraph, a: KVector, b: KVector,
              vertices: Iterable[int]) -> KVector:
    """The member of L indexed by a vertex set P: a restricted to P plus
    b restricted to the odd neighborhood of P.  Linear in P."""
    _check_presentation(g, a, b)
    pmask = g._mask(vertices)
    nmask = g.neighborhood_mask(pmask)
    return KVector(g.n,
                   (a.row1 & pmask) ^ (b.row1 & nmask),
                   (a.row2 & pmask) ^ (b.row2 & nmask))


def graphic_system(g: SimpleGraph, a: Optional[KVector] = None,
                   b: Optional[KVector] = None) -> IsotropicSystem:
    """The isotropic system presented by (g, a, b), spanned by the
    vectors for the singleton sets.  Defaults to the all-x / all-y
    presentation."""
    if a is None:
        a = KVector.constant(g.n, K_X)
    if b is None:
        b = KVector.constant(g.n, K_Y)
    _check_presentation(g, a, b)
    return IsotropicSystem([vector_LP(g, a, b, [v]) for v in range(g.n)])


def f_hat_basis(f: KVector) -> List[KVector]:
    """The n vectors placing f's value at one position and 0 elsewhere."""
    if not f.is_complete():
        raise ValueError("F must be nonzero everywhere")
    return [KVector(f.n, f.row1 & (1 << v), f.row2 & (1 << v))
            for v in range(f.n)]


def dim_intersection(system: IsotropicSystem, f: KVector) -> int:
    """dim(L meet F-hat) = dim L + dim F-hat - dim(L + F-hat), the last
    term the rank of the two bases' flattened 2n-bit rows together."""
    if f.n != system.n:
        raise ValueError("length mismatch")
    f_hat_rows = tuple(v.flattened() for v in f_hat_basis(f))
    return 2 * system.n - rank(system.flattened_basis() + f_hat_rows)


def dim_via_rank_formula(g: SimpleGraph, f: KVector) -> int:
    """For F over {x,y} only: |F_x| - rank(adjacency of g restricted to
    F_x), an independent route to dim_intersection for graphic systems."""
    if f.n != g.n:
        raise ValueError("length mismatch")
    fx = []
    for v in range(g.n):
        c = f.code(v)
        if c == K_X:
            fx.append(v)
        elif c != K_Y:
            raise ValueError("F must take values x and y only")
    return len(fx) - rank(g.induced_subgraph(fx).adj)


# -- restricted Tutte-Martin polynomial --------------------------------------


def tutte_martin_restricted(system: IsotropicSystem, comp: KVector) -> UniPoly:
    """Sum of (x-1)**dim(L meet F-hat) over the 2**n complete vectors F
    with F(v) != comp(v) everywhere.

    F-hat is spanned by one vector at each position, a choice between
    the two admitted Klein values (smaller code first).  gf2.choice_ranks
    takes the L-basis first, then walks the choices with the vectors
    still to be chosen reduced modulo the span so far, one table per
    level, and histograms the rank they add: L and F-hat have
    dimension n each in a space of dimension 2n, so dim(L meet F-hat) =
    n - gain, the index of the histogram, pooled by
    _workers.sum_histograms.

    Raises:
        ValueError: if the walk's memo needs more than the memo budget
            (see _limits).
    """
    if comp.n != system.n:
        raise ValueError("length mismatch")
    if not comp.is_complete():
        raise ValueError("the excluded vector must be nonzero everywhere")
    n = system.n
    pairs = tuple(
        tuple(c << (2 * v) for c in (K_X, K_Y, K_Z) if c != comp.code(v))
        for v in range(n))
    counts = sum_histograms(choice_ranks, (system.flattened_basis(), pairs), n)
    return poly_from_shift_counts(counts)


def tutte_martin_presented(g: SimpleGraph, a: KVector, b: KVector) -> UniPoly:
    """tutte_martin_restricted of the graphic system presented by (g, a,
    b), excluding a + b."""
    return tutte_martin_restricted(graphic_system(g, a, b), a + b)


def tutte_martin_canonical(g: SimpleGraph) -> UniPoly:
    """The restricted Tutte-Martin polynomial of the graphic system of g
    under the all-x / all-y presentation, excluding their sum all-z.
    Equals qn(g) and is the isotropic qn method."""
    return tutte_martin_presented(g, KVector.constant(g.n, K_X), KVector.constant(g.n, K_Y))
