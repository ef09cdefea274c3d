"""GF(2) matrix tests: construction contracts and rank against a
brute-force row-space oracle."""

import random

import pytest

from interlacepoly.gf2 import (GF2Matrix, corank, nullity, rank,
                               reduce_by_pivots, stack_rank)


def span(rows):
    """All XOR combinations of the given rows."""
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return out


def rank_oracle(rows):
    return (len(span(rows)) - 1).bit_length()


class TestConstruction:
    def test_zero_by_zero_is_valid(self):
        m = GF2Matrix(0, 0)
        assert m.rows == 0 and m.cols == 0 and m.data == ()

    def test_default_data_is_zero(self):
        m = GF2Matrix(2, 3)
        assert m.data == (0, 0)

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            GF2Matrix(-1, 2)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected 2 rows"):
            GF2Matrix(2, 2, [1])

    def test_bits_beyond_cols_rejected(self):
        with pytest.raises(ValueError, match="beyond column"):
            GF2Matrix(1, 2, [4])

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError, match="nonnegative ints"):
            GF2Matrix(1, 2, [-1])

    def test_from_bits_round_trip(self):
        m = GF2Matrix.from_bits([[0, 1, 1], [1, 0, 0]])
        assert m.rows == 2 and m.cols == 3
        assert m.bit(0, 1) == 1 and m.bit(0, 0) == 0 and m.bit(1, 0) == 1
        assert m.data == (0b110, 0b001)

    def test_from_bits_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            GF2Matrix.from_bits([[0, 1], [1]])

    def test_from_bits_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            GF2Matrix.from_bits([[0, 2]])

    def test_equality_and_hash(self):
        a = GF2Matrix.from_bits([[1, 0], [0, 1]])
        b = GF2Matrix(2, 2, [1, 2])
        assert a == b and hash(a) == hash(b)
        assert a != GF2Matrix(2, 2, [1, 3])


class TestRank:
    def test_empty_matrix(self):
        assert rank(GF2Matrix(0, 0)) == 0

    def test_permutation_matrix_is_full_rank(self):
        assert rank(GF2Matrix.from_bits([[0, 1], [1, 0]])) == 2

    def test_triangle_adjacency_has_rank_two(self):
        m = GF2Matrix.from_bits([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert rank(m) == 2

    def test_matches_row_space_oracle_on_random_matrices(self):
        rng = random.Random(11)
        for _ in range(300):
            rows_n = rng.randrange(0, 6)
            cols = rng.randrange(0, 7)
            data = [rng.getrandbits(cols) for _ in range(rows_n)]
            m = GF2Matrix(rows_n, cols, data)
            assert rank(m) == rank_oracle(data)
            assert rank(m) <= min(rows_n, cols)

    def test_invariant_under_row_operations(self):
        rng = random.Random(5)
        for _ in range(100):
            data = [rng.getrandbits(5) for _ in range(4)]
            base = rank(GF2Matrix(4, 5, data))
            shuffled = data[:]
            rng.shuffle(shuffled)
            assert rank(GF2Matrix(4, 5, shuffled)) == base
            i, j = rng.randrange(4), rng.randrange(4)
            if i != j:
                added = data[:]
                added[i] ^= added[j]
                assert rank(GF2Matrix(4, 5, added)) == base

    def test_does_not_mutate_input(self):
        m = GF2Matrix.from_bits([[1, 1], [1, 0]])
        before = m.data
        rank(m)
        assert m.data == before


class TestDerivedCounts:
    def test_nullity_is_cols_minus_rank(self):
        assert nullity(GF2Matrix(0, 0)) == 0
        assert nullity(GF2Matrix(1, 1, [0])) == 1
        k3 = GF2Matrix.from_bits([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert nullity(k3) == 1

    def test_corank_of_identity_is_zero(self):
        ident = GF2Matrix(3, 3, [1, 2, 4])
        assert corank(ident) == 0

    def test_corank_of_zero_square(self):
        assert corank(GF2Matrix(2, 2)) == 2
        assert corank(GF2Matrix(1, 1, [0])) == 1

    def test_corank_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            corank(GF2Matrix(1, 2, [1]))


class TestStackRank:
    def test_duplicate_row_counts_once(self):
        a = GF2Matrix(1, 2, [1])
        assert stack_rank(a, a) == 1

    def test_independent_rows_add(self):
        assert stack_rank(GF2Matrix(1, 2, [1]), GF2Matrix(1, 2, [2])) == 2

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError, match="column mismatch"):
            stack_rank(GF2Matrix(1, 2, [1]), GF2Matrix(1, 3, [1]))

    def test_against_subspace_intersection_oracle(self):
        # rank(a stacked on b) = rank a + rank b - dim(rowspace meet)
        rng = random.Random(23)
        for _ in range(200):
            cols = rng.randrange(1, 8)
            da = [rng.getrandbits(cols) for _ in range(rng.randrange(0, 5))]
            db = [rng.getrandbits(cols) for _ in range(rng.randrange(0, 5))]
            a = GF2Matrix(len(da), cols, da)
            b = GF2Matrix(len(db), cols, db)
            meet = span(da) & span(db)
            expected = rank(a) + rank(b) - (len(meet) - 1).bit_length()
            assert stack_rank(a, b) == expected


class TestReduceByPivots:
    BASIS = {4: 0b1011, 3: 0b0110, 1: 0b0001}

    def test_row_in_span_reduces_to_zero(self):
        assert reduce_by_pivots(0b1011 ^ 0b0110 ^ 0b0001, self.BASIS) == 0

    def test_independent_row_keeps_leading_bit(self):
        assert reduce_by_pivots(0b0010, self.BASIS) == 0b0010
        # Leading bit 4 is taken, so the remainder leads at a free bit.
        assert reduce_by_pivots(0b1001, self.BASIS) == 0b0010

    def test_builds_a_basis_of_the_span(self):
        rng = random.Random(11)
        for _ in range(100):
            rows = [rng.randrange(1 << 8) for _ in range(rng.randrange(8))]
            piv = {}
            for row in rows:
                r = reduce_by_pivots(row, piv)
                assert (r == 0) == (row in span(piv.values()))
                if r:
                    assert r.bit_length() not in piv
                    piv[r.bit_length()] = r
            assert len(piv) == rank_oracle(rows)
