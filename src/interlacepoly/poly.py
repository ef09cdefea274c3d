"""Exact integer polynomials, univariate and bivariate.

Every invariant in this package is carried by one of these two types.
Coefficients are arbitrary-precision ints; no floats anywhere, since the
identity checks demand bit-exact equality.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def _trim(coeffs: Sequence[int]) -> Tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class UniPoly:
    """Univariate polynomial; coeffs[k] is the coefficient of var^k.

    Trailing zero coefficients are trimmed, so the zero polynomial has an
    empty coefficient tuple.  Instances are immutable.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, coeffs: Sequence[int] = (), var: str = "x"):
        self.var = var
        self.coeffs = _trim(coeffs)

    @classmethod
    def zero(cls, var: str = "x") -> "UniPoly":
        return cls((), var)

    @classmethod
    def constant(cls, c: int, var: str = "x") -> "UniPoly":
        return cls((c,), var)

    @classmethod
    def variable(cls, var: str = "x") -> "UniPoly":
        return cls((0, 1), var)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_var(self, other: "UniPoly") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check_var(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out, self.var)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check_var(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.var)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out, self.var)

    def scale(self, c: int) -> "UniPoly":
        return UniPoly([c * a for a in self.coeffs], self.var)

    def substitute(self, shift: int) -> "UniPoly":
        """Evaluate at (var + shift): the variable change x -> x + shift."""
        # Horner: fold coefficients from the top, multiplying by (x + shift).
        out = [0] * max(1, len(self.coeffs))
        for c in reversed(self.coeffs):
            carry = 0
            for i in range(len(out)):
                out[i], carry = carry + shift * out[i], out[i]
            out[0] += c
        return UniPoly(out, self.var)

    def divide_by_var(self) -> "UniPoly":
        """Exact division by the variable.

        Raises:
            ValueError: if the constant term is nonzero.
        """
        if self.coeffs and self.coeffs[0] != 0:
            raise ValueError("constant term is nonzero; division by the variable is undefined")
        return UniPoly(self.coeffs[1:], self.var)

    def evaluate(self, x0: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def with_var(self, var: str) -> "UniPoly":
        return UniPoly(self.coeffs, var)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.var, self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            parts.append((c, _monomial(abs(c), ((self.var, e),))))
        return _join_signed(parts)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r}, var={self.var!r})"

    def to_json(self) -> str:
        import json
        return json.dumps({"var": self.var, "coeffs": list(self.coeffs)})


class BiPoly:
    """Bivariate polynomial: sparse map from exponent pairs to coefficients.

    terms[(i, j)] is the coefficient of var1^i * var2^j; zero coefficients
    are never stored.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, terms: Dict[Tuple[int, int], int] | None = None,
                 vars: Tuple[str, str] = ("x", "y")):
        self.vars = (vars[0], vars[1])
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls, vars: Tuple[str, str] = ("x", "y")) -> "BiPoly":
        return cls({}, vars)

    @classmethod
    def constant(cls, c: int, vars: Tuple[str, str] = ("x", "y")) -> "BiPoly":
        return cls({(0, 0): c}, vars)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_vars(self, other: "BiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars!r} vs {other.vars!r}")

    def __add__(self, other: "BiPoly") -> "BiPoly":
        self._check_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return BiPoly(out, self.vars)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        self._check_vars(other)
        out: Dict[Tuple[int, int], int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, 0) + c1 * c2
        return BiPoly(out, self.vars)

    def scale(self, c: int) -> "BiPoly":
        return BiPoly({e: c * v for e, v in self.terms.items()}, self.vars)

    def eval_at(self, x0: int) -> UniPoly:
        """Partially evaluate the first variable at x0.

        Returns a univariate polynomial in the second variable.
        """
        out: Dict[int, int] = {}
        for (i, j), c in self.terms.items():
            out[j] = out.get(j, 0) + c * x0 ** i
        coeffs = [0] * (max(out) + 1 if out else 0)
        for j, c in out.items():
            coeffs[j] = c
        return UniPoly(coeffs, self.vars[1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, reverse=True):
            c = self.terms[(i, j)]
            parts.append((c, _monomial(abs(c), ((self.vars[0], i), (self.vars[1], j)))))
        return _join_signed(parts)

    def __repr__(self) -> str:
        return f"BiPoly({self.terms!r}, vars={self.vars!r})"

    def to_json(self) -> str:
        import json
        terms = [[i, j, self.terms[(i, j)]] for (i, j) in sorted(self.terms)]
        return json.dumps({"vars": list(self.vars), "terms": terms})


def _monomial(mag: int, powers: Tuple[Tuple[str, int], ...]) -> str:
    """Render mag * prod(var^e), mag > 0, omitting unit factors."""
    factors = []
    for var, e in powers:
        if e == 0:
            continue
        factors.append(var if e == 1 else f"{var}^{e}")
    if not factors:
        return str(mag)
    if mag != 1:
        factors.insert(0, str(mag))
    return "*".join(factors)


def _join_signed(parts: Sequence[Tuple[int, str]]) -> str:
    out = []
    for k, (c, body) in enumerate(parts):
        if k == 0:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(out)


def poly_from_shift_counts(counts: Sequence[int]) -> UniPoly:
    """Expand sum over k of counts[k] * (x - 1)**k.

    This is the common final step of the subset sums: a histogram of
    exponents becomes a polynomial in the shifted variable.
    """
    return UniPoly(counts).substitute(-1)


def unpack_fields(packed: int, width: int, count: int) -> List[int]:
    """The count width-bit fields of a nonnegative int, lowest first.

    The recursions and the state walk carry a histogram or a polynomial
    as one int, entry i in bits [i * width, (i + 1) * width), so that a
    sum, a shift or a product is one big-int operation (Kronecker
    substitution); this reads the entries back.
    """
    mask = (1 << width) - 1
    return [(packed >> (width * i)) & mask for i in range(count)]
