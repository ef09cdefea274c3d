"""Exact polynomial arithmetic: golden renderings, arithmetic against
pointwise evaluation, and the expansion in powers of x - 1."""

import random

import pytest

from interlacepoly.poly import (BiPoly, UniPoly, pack_fields, poly_from_shift_counts,
                               unpack_fields)


class TestUniPolyBasics:
    def test_trailing_zeros_trimmed(self):
        assert UniPoly((1, 2, 0, 0)).coeffs == (1, 2)

    def test_zero_polynomial(self):
        z = UniPoly.zero()
        assert z.coeffs == () and z.is_zero() and z.degree == -1

    def test_constant_and_variable(self):
        assert UniPoly.constant(5).coeffs == (5,)
        assert UniPoly.variable().coeffs == (0, 1)
        assert UniPoly.variable("y").var == "y"

    def test_equality_includes_variable(self):
        assert UniPoly((0, 2)) == UniPoly((0, 2))
        assert UniPoly((0, 2)) != UniPoly((0, 2), var="y")
        assert hash(UniPoly((0, 2))) == hash(UniPoly((0, 2)))

    def test_with_var_renames_only(self):
        p = UniPoly((1, 1)).with_var("y")
        assert p.var == "y" and p.coeffs == (1, 1)


class TestUniPolyArithmetic:
    def test_addition(self):
        assert UniPoly((1, 2)) + UniPoly((0, 0, 3)) == UniPoly((1, 2, 3))

    def test_addition_cancels_to_zero(self):
        assert (UniPoly((0, 1)) + UniPoly((0, -1))).is_zero()

    def test_multiplication(self):
        # (x + 1)(x - 1) = x^2 - 1
        assert UniPoly((1, 1)) * UniPoly((-1, 1)) == UniPoly((-1, 0, 1))
        assert (UniPoly.zero() * UniPoly((1, 2))).is_zero()

    def test_variable_mismatch_rejected(self):
        with pytest.raises(ValueError, match="variable mismatch"):
            UniPoly((1,)) + UniPoly((1,), var="y")
        with pytest.raises(ValueError, match="variable mismatch"):
            UniPoly((1,)) * UniPoly((1,), var="y")

    def test_scale(self):
        assert UniPoly((1, 2)).scale(-3) == UniPoly((-3, -6))
        assert UniPoly((1, 2)).scale(0).is_zero()

    def test_arithmetic_agrees_with_pointwise_evaluation(self):
        rng = random.Random(2)
        for _ in range(100):
            a = UniPoly([rng.randrange(-5, 6) for _ in range(rng.randrange(5))])
            b = UniPoly([rng.randrange(-5, 6) for _ in range(rng.randrange(5))])
            for t in range(-3, 4):
                assert (a + b).evaluate(t) == a.evaluate(t) + b.evaluate(t)
                assert (a * b).evaluate(t) == a.evaluate(t) * b.evaluate(t)


class TestUniPolyTransforms:
    def test_substitute_shifts_the_argument(self):
        rng = random.Random(3)
        for _ in range(60):
            p = UniPoly([rng.randrange(-4, 5) for _ in range(rng.randrange(6))])
            s = rng.randrange(-3, 4)
            q = p.substitute(s)
            for t in range(-3, 4):
                assert q.evaluate(t) == p.evaluate(t + s)

    def test_substitute_zero_polynomial(self):
        assert UniPoly.zero().substitute(5).is_zero()

    def test_divide_by_var(self):
        assert UniPoly((0, 1, 1)).divide_by_var() == UniPoly((1, 1))
        assert UniPoly.zero().divide_by_var().is_zero()

    def test_divide_by_var_rejects_nonzero_constant_term(self):
        with pytest.raises(ValueError, match="constant term"):
            UniPoly((1, 1)).divide_by_var()

    def test_evaluate(self):
        p = UniPoly((1, -2, 1))  # (x-1)^2
        assert [p.evaluate(t) for t in (-1, 0, 1, 2, 3)] == [4, 1, 0, 1, 4]


class TestUniPolyRendering:
    @pytest.mark.parametrize("coeffs,text", [
        ((), "0"),
        ((1,), "1"),
        ((-1,), "-1"),
        ((0, 1), "x"),
        ((0, 2), "2*x"),
        ((0, 2, 1), "x^2 + 2*x"),
        ((2, -2, 1), "x^2 - 2*x + 2"),
        ((1, -1), "-x + 1"),
        ((0, 0, -3), "-3*x^2"),
    ])
    def test_str_golden(self, coeffs, text):
        assert str(UniPoly(coeffs)) == text

    def test_str_uses_the_variable_name(self):
        assert str(UniPoly((0, 2), var="y")) == "2*y"

    def test_json_golden(self):
        assert UniPoly((0, 2, 1)).to_json() == '{"var": "x", "coeffs": [0, 2, 1]}'
        assert UniPoly.zero("y").to_json() == '{"var": "y", "coeffs": []}'

    def test_repr_round_trips_the_data(self):
        assert repr(UniPoly((0, 1))) == "UniPoly([0, 1], var='x')"


class TestBiPoly:
    def test_zero_coefficients_never_stored(self):
        assert BiPoly({(1, 0): 0}).is_zero()
        assert BiPoly({(1, 0): 1, (0, 0): 0}).terms == {(1, 0): 1}

    def test_constant_and_zero(self):
        assert BiPoly.constant(3).terms == {(0, 0): 3}
        assert BiPoly.zero().is_zero()

    def test_addition_and_cancellation(self):
        a = BiPoly({(1, 0): 1, (0, 1): 2})
        b = BiPoly({(1, 0): -1, (1, 1): 1})
        assert (a + b).terms == {(0, 1): 2, (1, 1): 1}

    def test_multiplication(self):
        # (x + y)^2 = x^2 + 2xy + y^2
        s = BiPoly({(1, 0): 1, (0, 1): 1})
        assert (s * s).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_scale(self):
        assert BiPoly({(1, 1): 2}).scale(3).terms == {(1, 1): 6}

    def test_variable_mismatch_rejected(self):
        with pytest.raises(ValueError, match="variable mismatch"):
            BiPoly({(0, 0): 1}) + BiPoly({(0, 0): 1}, vars=("s", "t"))

    def test_eval_at_fixes_the_first_variable(self):
        p = BiPoly({(2, 0): 1, (1, 0): -2, (0, 1): 2})
        q = p.eval_at(2)
        assert q == UniPoly((0, 2), var="y")

    def test_eval_at_of_zero(self):
        assert BiPoly.zero().eval_at(7) == UniPoly.zero("y")

    def test_str_golden(self):
        p = BiPoly({(2, 0): 1, (1, 0): -2, (0, 1): 2})
        assert str(p) == "x^2 - 2*x + 2*y"
        assert str(BiPoly.zero()) == "0"
        assert str(BiPoly({(1, 1): 1, (0, 0): -1})) == "x*y - 1"

    def test_json_golden(self):
        p = BiPoly({(0, 1): 2, (2, 0): 1, (1, 0): -2})
        assert p.to_json() == '{"vars": ["x", "y"], "terms": [[0, 1, 2], [1, 0, -2], [2, 0, 1]]}'

    def test_equality_includes_variables(self):
        assert BiPoly({(1, 0): 1}) != BiPoly({(1, 0): 1}, vars=("s", "t"))


class TestShiftedPowers:
    def test_poly_from_shift_counts_matches_term_by_term_sum(self):
        # (x - 1)^3 = x^3 - 3x^2 + 3x - 1
        assert poly_from_shift_counts([0, 0, 0, 1]) == UniPoly((-1, 3, -3, 1))
        rng = random.Random(9)
        for _ in range(50):
            counts = [rng.randrange(4) for _ in range(rng.randrange(1, 7))]
            p = poly_from_shift_counts(counts)
            # deg + 1 points fix a polynomial of degree at most deg
            for t in range(len(counts)):
                assert p.evaluate(t) == sum(c * (t - 1) ** k
                                            for k, c in enumerate(counts))

    def test_poly_from_shift_counts_empty(self):
        assert poly_from_shift_counts([]).is_zero()
        assert poly_from_shift_counts([0, 0]).is_zero()


class TestPackedFields:
    def test_fields_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            width = rng.randrange(1, 70)
            fields = [rng.randrange(1 << width) for _ in range(rng.randrange(1, 9))]
            packed = sum(f << width * i for i, f in enumerate(fields))
            assert pack_fields(fields, width)[0] == packed
            assert unpack_fields(packed, width, len(fields)) == fields

    @pytest.mark.parametrize("width", [1, 7, 64, 301])
    def test_thousands_of_fields_match_the_per_field_definition(self, width):
        rng = random.Random(width)
        full = (1 << width) - 1
        fields = [rng.choice((0, full, rng.randrange(1 << width))) for _ in range(3001)]
        packed = sum(f << width * i for i, f in enumerate(fields))
        ones = sum(1 << width * i for i in range(len(fields)))
        assert pack_fields(fields, width) == (packed, ones)
        for count in (3001, 2000, 1):
            want = [(packed >> width * i) & full for i in range(count)]
            assert unpack_fields(packed, width, count) == want == fields[:count]

    def test_zero_fields_are_kept(self):
        assert unpack_fields(0, 3, 4) == [0, 0, 0, 0]
        assert unpack_fields(1 << 64, 64, 3) == [0, 1, 0]
