"""Isotropic system tests: Klein arithmetic, vector encoding, graphic
systems, intersection dimensions against a brute-force span oracle, and
the restricted Tutte-Martin sum."""

import itertools
import random

import pytest

from interlacepoly import _limits
from interlacepoly._limits import MAX_INPUT_VERTICES
from interlacepoly.graph import SimpleGraph
from interlacepoly.interlace import qn_recursive
from interlacepoly.isotropic import (K_X, K_Y, K_Z, K_ZERO,
                                     IsotropicSystem, KVector,
                                     dim_intersection, dim_via_rank_formula,
                                     f_hat_basis, graphic_system, klein_add,
                                     klein_form, kv_form, kv_in_f_hat,
                                     tutte_martin_canonical,
                                     tutte_martin_presented,
                                     tutte_martin_restricted, vector_LP)
from interlacepoly.poly import UniPoly
from interlacepoly.verify import all_simple_graphs, random_simple_graph

K2 = SimpleGraph.from_edges(2, [(0, 1)])
P3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])


def span_members(system):
    """All 2**n members of L, by XOR over basis subsets."""
    members = {KVector(system.n)}
    for vec in system.basis:
        members |= {m + vec for m in members}
    return members


class TestKleinArithmetic:
    def test_addition_is_xor(self):
        for a in range(4):
            assert klein_add(a, a) == K_ZERO
            assert klein_add(a, K_ZERO) == a
        assert klein_add(K_X, K_Y) == K_Z
        assert klein_add(K_X, K_Z) == K_Y

    def test_form_table(self):
        for a in range(4):
            for b in range(4):
                expected = 1 if (a != b and a != K_ZERO and b != K_ZERO) else 0
                assert klein_form(a, b) == expected

    def test_code_range_checked(self):
        with pytest.raises(ValueError, match="0..3"):
            klein_add(4, 0)
        with pytest.raises(ValueError, match="0..3"):
            klein_form(0, -1)


class TestKVector:
    def test_codes_round_trip(self):
        codes = (K_X, K_ZERO, K_Z, K_Y)
        assert KVector.from_codes(codes).codes() == codes

    def test_parse_and_str(self):
        v = KVector.parse("x0zy")
        assert str(v) == "x0zy"
        assert v.code(0) == K_X and v.code(1) == K_ZERO

    def test_parse_rejects_other_characters(self):
        with pytest.raises(ValueError, match="0, x, y, z"):
            KVector.parse("xw")

    def test_constant(self):
        assert KVector.constant(3, K_Y).codes() == (K_Y, K_Y, K_Y)

    def test_code_position_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            KVector.parse("x").code(1)

    def test_is_complete(self):
        assert KVector.parse("xyz").is_complete()
        assert not KVector.parse("x0z").is_complete()
        assert KVector(0).is_complete()

    def test_addition_is_positionwise(self):
        assert KVector.parse("xy") + KVector.parse("yy") == KVector.parse("z0")

    def test_addition_length_checked(self):
        with pytest.raises(ValueError, match="length mismatch"):
            KVector.parse("x") + KVector.parse("xy")

    def test_flattened_is_position_major(self):
        # position 0 holds bits 0..1, position 1 holds bits 2..3
        assert KVector.parse("xy").flattened() == 0b1001
        assert KVector.parse("z0").flattened() == 0b0011

    def test_equality_and_hash(self):
        assert KVector.parse("xy") == KVector.from_codes((K_X, K_Y))
        assert hash(KVector.parse("xy")) == hash(KVector.from_codes((K_X, K_Y)))
        assert KVector.parse("xy") != KVector.parse("yx")

    def test_length_bounds(self):
        KVector(MAX_INPUT_VERTICES)
        with pytest.raises(ValueError, match="length"):
            KVector(MAX_INPUT_VERTICES + 1)
        with pytest.raises(ValueError, match="bits outside"):
            KVector(1, row1=2)


class TestForms:
    def test_kv_form_sums_positionwise(self):
        assert kv_form(KVector.parse("xy"), KVector.parse("yx")) == 0  # 1+1
        assert kv_form(KVector.parse("x0"), KVector.parse("y0")) == 1
        assert kv_form(KVector.parse("xx"), KVector.parse("xx")) == 0

    def test_kv_form_length_checked(self):
        with pytest.raises(ValueError, match="length mismatch"):
            kv_form(KVector.parse("x"), KVector.parse("xy"))

    def test_membership_in_f_hat(self):
        f = KVector.parse("xy")
        assert kv_in_f_hat(KVector.parse("00"), f)
        assert kv_in_f_hat(KVector.parse("x0"), f)
        assert kv_in_f_hat(KVector.parse("xy"), f)
        assert not kv_in_f_hat(KVector.parse("y0"), f)

    def test_membership_needs_complete_f(self):
        with pytest.raises(ValueError, match="nonzero everywhere"):
            kv_in_f_hat(KVector.parse("00"), KVector.parse("x0"))

    def test_f_hat_basis_golden(self):
        assert f_hat_basis(KVector.parse("xy")) == [KVector.parse("x0"),
                                                    KVector.parse("0y")]

    def test_f_hat_spans_exactly_the_agreeing_vectors(self):
        f = KVector.parse("xzy")
        members = {KVector(3)}
        for vec in f_hat_basis(f):
            members |= {m + vec for m in members}
        for codes in ((a, b, c) for a in range(4) for b in range(4)
                      for c in range(4)):
            v = KVector.from_codes(codes)
            assert (v in members) == kv_in_f_hat(v, f)


class TestSystemConstruction:
    def test_basis_length_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            IsotropicSystem([KVector.parse("x0"), KVector.parse("0y0")])

    def test_non_orthogonal_basis_rejected(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            IsotropicSystem([KVector.parse("x0"), KVector.parse("y0")])

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            IsotropicSystem([KVector.parse("x0"), KVector.parse("x0")])

    def test_graphic_system_of_an_edge(self):
        system = graphic_system(K2)
        assert system.basis == (KVector.parse("xy"), KVector.parse("yx"))

    def test_graphic_system_rejects_loops(self):
        g = SimpleGraph(1, [1], loops_allowed=True)
        with pytest.raises(ValueError, match="loopless"):
            graphic_system(g)

    def test_presentation_must_differ_everywhere(self):
        with pytest.raises(ValueError, match="differ"):
            graphic_system(K2, KVector.parse("xx"), KVector.parse("xy"))

    def test_presentation_must_be_complete(self):
        with pytest.raises(ValueError, match="nonzero everywhere"):
            graphic_system(K2, KVector.parse("x0"), KVector.parse("yx"))

    def test_presentation_length_checked(self):
        with pytest.raises(ValueError, match="one entry per vertex"):
            graphic_system(K2, KVector.parse("x"), KVector.parse("y"))

    def test_every_graphic_basis_is_self_orthogonal(self):
        rng = random.Random(14)
        for _ in range(20):
            g = random_simple_graph(rng.randrange(1, 8), rng)
            system = graphic_system(g)
            for i in range(g.n):
                for j in range(g.n):
                    assert kv_form(system.basis[i], system.basis[j]) == 0


class TestVectorLP:
    def test_empty_set_gives_zero(self):
        a = KVector.constant(3, K_X)
        b = KVector.constant(3, K_Y)
        assert vector_LP(P3, a, b, []) == KVector(3)

    def test_singleton_golden(self):
        a = KVector.constant(3, K_X)
        b = KVector.constant(3, K_Y)
        assert vector_LP(P3, a, b, [0]) == KVector.parse("xy0")
        assert vector_LP(P3, a, b, [1]) == KVector.parse("yxy")

    def test_overlap_adds_in_the_klein_group(self):
        a = KVector.constant(2, K_X)
        b = KVector.constant(2, K_Y)
        # both vertices of the edge: each is in P and in N(P)
        assert vector_LP(K2, a, b, [0, 1]) == KVector.parse("zz")

    def test_linear_in_the_vertex_set(self):
        rng = random.Random(15)
        a_codes = [rng.choice((K_X, K_Y, K_Z)) for _ in range(6)]
        b_codes = [rng.choice([c for c in (K_X, K_Y, K_Z) if c != ac])
                   for ac in a_codes]
        a, b = KVector.from_codes(a_codes), KVector.from_codes(b_codes)
        g = random_simple_graph(6, rng)
        for _ in range(40):
            p = {v for v in range(6) if rng.getrandbits(1)}
            q = {v for v in range(6) if rng.getrandbits(1)}
            assert (vector_LP(g, a, b, p ^ q)
                    == vector_LP(g, a, b, p) + vector_LP(g, a, b, q))


class TestIntersectionDimension:
    def test_single_vertex_golden(self):
        system = graphic_system(SimpleGraph(1))
        assert dim_intersection(system, KVector.parse("x")) == 1
        assert dim_intersection(system, KVector.parse("y")) == 0
        assert dim_intersection(system, KVector.parse("z")) == 0

    def test_z_vector_can_meet_nontrivially(self):
        system = graphic_system(K2)
        assert dim_intersection(system, KVector.parse("zz")) == 1

    def test_length_checked(self):
        system = graphic_system(K2)
        with pytest.raises(ValueError, match="length mismatch"):
            dim_intersection(system, KVector.parse("x"))

    def test_matches_span_counting_oracle(self):
        complete = (K_X, K_Y, K_Z)
        for n in range(4):
            for g in all_simple_graphs(n):
                system = graphic_system(g)
                members = span_members(system)
                for fc in itertools.product(complete, repeat=n):
                    f = KVector.from_codes(fc)
                    in_both = sum(1 for m in members if kv_in_f_hat(m, f))
                    assert dim_intersection(system, f) == (in_both - 1).bit_length()

    def test_rank_formula_agrees_on_xy_vectors(self):
        for n in range(4):
            for g in all_simple_graphs(n):
                system = graphic_system(g)
                for mask in range(1 << n):
                    f = KVector.from_codes(
                        [K_X if (mask >> v) & 1 else K_Y for v in range(n)])
                    assert (dim_via_rank_formula(g, f)
                            == dim_intersection(system, f))

    def test_rank_formula_rejects_z(self):
        with pytest.raises(ValueError, match="x and y only"):
            dim_via_rank_formula(K2, KVector.parse("xz"))


class TestTutteMartin:
    def test_empty_system_gives_one(self):
        assert tutte_martin_canonical(SimpleGraph(0)) == UniPoly((1,))

    def test_single_vertex_gives_x(self):
        assert tutte_martin_canonical(SimpleGraph(1)) == UniPoly((0, 1))

    def test_edge_gives_2x(self):
        assert str(tutte_martin_canonical(K2)) == "2*x"

    def test_restricted_sum_matches_direct_enumeration(self):
        # independent oracle: enumerate the 2**n admitted F and sum
        # (x-1)**dim, multiplied out factor by factor, via the rank of
        # the stacked bases
        rng = random.Random(16)
        for _ in range(15):
            n = rng.randrange(4)
            g = random_simple_graph(n, rng)
            system = graphic_system(g)
            comp = KVector.from_codes(
                [rng.choice((K_X, K_Y, K_Z)) for _ in range(n)])
            direct = UniPoly.zero()
            stack = [[]]
            for v in range(n):
                stack = [codes + [c] for codes in stack
                         for c in (K_X, K_Y, K_Z) if c != comp.code(v)]
            for codes in stack:
                term = UniPoly.constant(1)
                for _ in range(dim_intersection(system, KVector.from_codes(codes))):
                    term = term * UniPoly((-1, 1))
                direct = direct + term
            assert tutte_martin_restricted(system, comp) == direct

    def test_agrees_with_the_other_qn_routes(self):
        from interlacepoly.interlace import qn_closed
        rng = random.Random(17)
        for _ in range(10):
            g = random_simple_graph(rng.randrange(8), rng)
            assert tutte_martin_canonical(g) == qn_closed(g)

    def test_worker_pool_matches_serial(self, pin_cpus):
        g = random_simple_graph(16, random.Random(18))
        pin_cpus(2)
        pooled = tutte_martin_canonical(g)
        pin_cpus(1)
        assert tutte_martin_canonical(g) == pooled

    def test_worker_pool_matches_serial_under_any_presentation(self, pin_cpus):
        # A non-canonical (A, B) gives a basis and admitted pairs that mix
        # all three Klein values at every position.
        rng = random.Random(19)
        a_codes = [rng.choice((K_X, K_Y, K_Z)) for _ in range(16)]
        b_codes = [rng.choice([c for c in (K_X, K_Y, K_Z) if c != ac])
                   for ac in a_codes]
        a, b = KVector.from_codes(a_codes), KVector.from_codes(b_codes)
        system = graphic_system(random_simple_graph(16, rng), a, b)
        pin_cpus(2)
        pooled = tutte_martin_restricted(system, a + b)
        pin_cpus(1)
        assert tutte_martin_restricted(system, a + b) == pooled

    @pytest.mark.parametrize("n, seed", [(14, 20), (16, 21)])
    def test_presented_with_z_rows_matches_qn(self, n, seed):
        # A random presentation excludes x or y at some positions, so
        # the walk picks the z row there; its memoized levels see keys
        # of all three Klein values.
        rng = random.Random(seed)
        g = random_simple_graph(n, rng)
        a_codes = [rng.choice((K_X, K_Y, K_Z)) for _ in range(n)]
        b_codes = [rng.choice([c for c in (K_X, K_Y, K_Z) if c != ac])
                   for ac in a_codes]
        assert any(ac ^ bc != K_Z for ac, bc in zip(a_codes, b_codes))
        a, b = KVector.from_codes(a_codes), KVector.from_codes(b_codes)
        assert tutte_martin_presented(g, a, b) == qn_recursive(g)

    def test_memo_budget(self, monkeypatch):
        system = graphic_system(random_simple_graph(14, random.Random(1)))
        comp = KVector.constant(14, K_Z)
        tutte_martin_restricted(system, comp)
        monkeypatch.setattr(_limits, "MEMO_BUDGET_BYTES", 1000)
        with pytest.raises(ValueError, match="memo budget"):
            tutte_martin_restricted(system, comp)

    def test_excluded_vector_must_be_complete(self):
        system = graphic_system(K2)
        with pytest.raises(ValueError, match="nonzero everywhere"):
            tutte_martin_restricted(system, KVector.parse("x0"))

    def test_excluded_vector_length_checked(self):
        system = graphic_system(K2)
        with pytest.raises(ValueError, match="length mismatch"):
            tutte_martin_restricted(system, KVector.parse("x"))
