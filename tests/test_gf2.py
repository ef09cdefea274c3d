"""GF(2) tests: the rank of bit rows and the pivot-dictionary
reduction, both against a brute-force row-space oracle."""

import random

from interlacepoly.gf2 import rank, reduce_by_pivots


def span(rows):
    """All XOR combinations of the given rows."""
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return out


def rank_oracle(rows):
    return (len(span(rows)) - 1).bit_length()


class TestRank:
    def test_empty_matrix(self):
        assert rank([]) == 0

    def test_permutation_matrix_is_full_rank(self):
        assert rank([0b10, 0b01]) == 2

    def test_triangle_adjacency_has_rank_two(self):
        assert rank([0b110, 0b101, 0b011]) == 2

    def test_matches_row_space_oracle_on_random_matrices(self):
        rng = random.Random(11)
        for _ in range(300):
            rows_n = rng.randrange(0, 6)
            cols = rng.randrange(0, 7)
            data = [rng.getrandbits(cols) for _ in range(rows_n)]
            assert rank(data) == rank_oracle(data)
            assert rank(data) <= min(rows_n, cols)

    def test_invariant_under_row_operations(self):
        rng = random.Random(5)
        for _ in range(100):
            data = [rng.getrandbits(5) for _ in range(4)]
            base = rank(data)
            shuffled = data[:]
            rng.shuffle(shuffled)
            assert rank(shuffled) == base
            i, j = rng.randrange(4), rng.randrange(4)
            if i != j:
                added = data[:]
                added[i] ^= added[j]
                assert rank(added) == base

    def test_does_not_mutate_input(self):
        rows = [0b11, 0b01]
        rank(rows)
        assert rows == [0b11, 0b01]


class TestStackRank:
    """The rank of two row lists stacked, as dim_intersection takes it."""

    def test_duplicate_row_counts_once(self):
        assert rank([1] + [1]) == 1

    def test_independent_rows_add(self):
        assert rank([1] + [2]) == 2

    def test_against_subspace_intersection_oracle(self):
        # rank(a stacked on b) = rank a + rank b - dim(rowspace meet)
        rng = random.Random(23)
        for _ in range(200):
            cols = rng.randrange(1, 8)
            a = [rng.getrandbits(cols) for _ in range(rng.randrange(0, 5))]
            b = [rng.getrandbits(cols) for _ in range(rng.randrange(0, 5))]
            meet = span(a) & span(b)
            expected = rank(a) + rank(b) - (len(meet) - 1).bit_length()
            assert rank(a + b) == expected


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
