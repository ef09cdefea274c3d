"""Cross-method identity suite.

Every polynomial here is computed by at least two independent routes,
so each identity check is a real cross-validation, not a self-test.
Identity labels follow the customary numbering used for them (the same
labels the CLI report prints).

The check functions take an exhaustive size bound, a seed or both,
and return a bool; the number and size of the random instances each
one draws are fixed.  run_verification wires them together at a
chosen scale and prints one PASS/FAIL line per identity.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import Callable, Iterator, List, Tuple

from . import eulerian, interlace, isotropic
from .eulerian import EulerianDigraph
from .gf2 import rank
from .graph import SimpleGraph
from .isotropic import K_X, K_Y, K_Z, KVector
from .poly import UniPoly


# -- instance generators ------------------------------------------------


def _slots(n: int, loops: bool) -> List[Tuple[int, int]]:
    """The vertex pairs u <= v an edge may join, loops only if asked for,
    in the order a graph's bits are read."""
    return [(u, v) for u in range(n) for v in range(u if loops else u + 1, n)]


def _graph(n: int, slots: List[Tuple[int, int]], mask: int,
           loops: bool) -> SimpleGraph:
    """The graph with an edge in slot i for each bit i set in mask."""
    return SimpleGraph.from_edges(n, [s for i, s in enumerate(slots) if mask >> i & 1],
                                  loops_allowed=loops)


def _all_graphs(n: int, loops: bool) -> Iterator[SimpleGraph]:
    slots = _slots(n, loops)
    for mask in range(1 << len(slots)):
        yield _graph(n, slots, mask, loops)


def _random_graph(n: int, rng: random.Random, loops: bool) -> SimpleGraph:
    """One draw of rng.getrandbits(1) per slot, in slot order."""
    slots = _slots(n, loops)
    mask = sum(rng.getrandbits(1) << i for i in range(len(slots)))
    return _graph(n, slots, mask, loops)


def all_simple_graphs(n: int) -> Iterator[SimpleGraph]:
    """All 2**(n choose 2) labeled loopless graphs on n vertices."""
    return _all_graphs(n, False)


def all_graphs_with_loops(n: int) -> Iterator[SimpleGraph]:
    """All labeled graphs on n vertices over every loop/edge pattern."""
    return _all_graphs(n, True)


def random_simple_graph(n: int, rng: random.Random) -> SimpleGraph:
    return _random_graph(n, rng, False)


def random_graph_with_loops(n: int, rng: random.Random) -> SimpleGraph:
    return _random_graph(n, rng, True)


def _graphs_up_to(max_n: int, loops: bool = False) -> Iterator[SimpleGraph]:
    """Every labeled graph on at most max_n vertices, smallest first."""
    for n in range(max_n + 1):
        yield from _all_graphs(n, loops)


def _hand_digraphs() -> List[Tuple[EulerianDigraph, UniPoly]]:
    """The two worked instances: a vertex with two loops, and a 2-cycle
    with every edge doubled, with their circuit partition polynomials."""
    return [
        (EulerianDigraph(1, [(0, 0), (0, 0)]), UniPoly((0, 1, 1))),
        (EulerianDigraph(2, [(0, 1), (0, 1), (1, 0), (1, 0)]), UniPoly((0, 2, 2))),
    ]


def _digraphs(seed: int, count: int, max_n: int) -> Iterator[EulerianDigraph]:
    """The hand instances, then count seeded random 2-in-2-out digraphs
    on 1, 2, ..., max_n, 1, ... vertices."""
    for d, _ in _hand_digraphs():
        yield d
    rng = random.Random(seed)
    for i in range(count):
        yield eulerian.random_eulerian_digraph(i % max_n + 1, rng.getrandbits(32))


# -- individual identity checks ------------------------------------------


def check_five_method_agreement(max_n: int) -> bool:
    """qn_recursive == qn_closed == qn_bouchet == qn_avdh ==
    tutte_martin_canonical, exhaustively."""
    for g in _graphs_up_to(max_n):
        ref = interlace.qn_closed(g)
        if interlace.qn_recursive(g) != ref:
            return False
        if interlace.qn_bouchet(g) != ref:
            return False
        if interlace.qn_avdh(g) != ref:
            return False
        if isotropic.tutte_martin_canonical(g) != ref:
            return False
    return True


def check_golden_values() -> bool:
    """qn(E_n) = x**n for n <= 8; qn(K2) = 2x; qn(P3) = x**2 + 2x;
    qn(K3) = 4x."""
    for n in range(9):
        if interlace.qn_closed(SimpleGraph(n)) != UniPoly((0,) * n + (1,)):
            return False
    k2 = SimpleGraph.from_edges(2, [(0, 1)])
    p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    k3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    return (interlace.qn_closed(k2) == UniPoly((0, 2))
            and interlace.qn_closed(p3) == UniPoly((0, 2, 1))
            and interlace.qn_closed(k3) == UniPoly((0, 4)))


def check_eq3(max_n: int) -> bool:
    """qn(G;y) == q2(G;2,y) for loopless graphs, qn by the recursion and
    q2 by its closed form."""
    return all(interlace.qn_from_q2(g) == interlace.qn_recursive(g).with_var("y")
               for g in _graphs_up_to(max_n))


def check_eq2(max_n: int, seed: int) -> bool:
    """q2_reduction == q2_closed, exhaustively over loop patterns and on
    200 seeded random loopy graphs with at most 7 vertices."""
    rng = random.Random(seed)
    randoms = (random_graph_with_loops(rng.randint(1, 7), rng) for _ in range(200))
    return all(interlace.q2_reduction(g) == interlace.q2_closed(g)
               for g in chain(_graphs_up_to(max_n, loops=True), randoms))


def _all_xy_vectors(n: int) -> Iterator[KVector]:
    for mask in range(1 << n):
        yield KVector.from_codes(
            [K_X if (mask >> v) & 1 else K_Y for v in range(n)])


def check_dim_formula(max_n: int, seed: int) -> bool:
    """dim(L meet F-hat) == |F_x| - rank(adjacency on F_x) for every
    F over {x,y}, plus, on 1000 seeded random graphs with at most 10
    vertices, the linearity of P -> L_P."""
    for g in _graphs_up_to(max_n):
        system = isotropic.graphic_system(g)
        for f in _all_xy_vectors(g.n):
            if isotropic.dim_intersection(system, f) != \
                    isotropic.dim_via_rank_formula(g, f):
                return False
    rng = random.Random(seed)
    for _ in range(1000):
        n = rng.randint(1, 10)
        g = random_simple_graph(n, rng)
        system = isotropic.graphic_system(g)
        f = KVector.from_codes([rng.choice((K_X, K_Y)) for _ in range(n)])
        if isotropic.dim_intersection(system, f) != \
                isotropic.dim_via_rank_formula(g, f):
            return False
        # linearity probe: L_(P xor Q) = L_P + L_Q
        a = KVector.constant(n, K_X)
        b = KVector.constant(n, K_Y)
        p = [v for v in range(n) if rng.getrandbits(1)]
        q = [v for v in range(n) if rng.getrandbits(1)]
        pq = sorted(set(p) ^ set(q))
        if isotropic.vector_LP(g, a, b, pq) != \
                isotropic.vector_LP(g, a, b, p) + isotropic.vector_LP(g, a, b, q):
            return False
    return True


def check_lemma_a1(max_n: int) -> bool:
    """L_P (canonical presentation) avoids the value z exactly when P
    induces an even subgraph."""
    for g in _graphs_up_to(max_n):
        n = g.n
        a = KVector.constant(n, K_X)
        b = KVector.constant(n, K_Y)
        for mask in range(1 << n):
            p = [v for v in range(n) if (mask >> v) & 1]
            vec = isotropic.vector_LP(g, a, b, p)
            no_z = all(vec.code(v) != K_Z for v in range(n))
            if no_z != g.is_even_subgraph(p):
                return False
    return True


def check_lemma_b1(max_n: int) -> bool:
    """For F over {x,y}: L_P lies in F-hat exactly when P sits inside
    F_x, induces an even subgraph, and has its odd neighborhood inside
    F_y.  (Membership forces P <= F_x: any vertex of P outside F_x
    would carry coordinate x or z where F expects y.)"""
    for g in _graphs_up_to(max_n):
        n = g.n
        a = KVector.constant(n, K_X)
        b = KVector.constant(n, K_Y)
        for f in _all_xy_vectors(n):
            fx = {v for v in range(n) if f.code(v) == K_X}
            fy = {v for v in range(n) if f.code(v) == K_Y}
            for mask in range(1 << n):
                p = [v for v in range(n) if (mask >> v) & 1]
                pset = set(p)
                vec = isotropic.vector_LP(g, a, b, p)
                member = isotropic.kv_in_f_hat(vec, f)
                expected = (pset <= fx
                            and g.is_even_subgraph(pset)
                            and g.neighborhood_set(p) <= fy)
                if member != expected:
                    return False
    return True


def check_theorem_a(seed: int) -> bool:
    """f(G;x) == x * qn(H;x+1) on the hand-worked digraphs (with their
    frozen polynomials) and on 100 seeded random 2-in-2-out digraphs
    with at most 5 vertices."""
    return (all(eulerian.circuit_partition_poly(d) == f for d, f in _hand_digraphs())
            and all(eulerian.verify_theorem_A(d) for d in _digraphs(seed, 100, 5)))


def check_theorem_a_all_circuits(seed: int) -> bool:
    """The same identity for every Euler circuit, on the hand-worked
    digraphs and 25 seeded random ones small enough to enumerate them
    all (at most 4 vertices)."""
    return all(eulerian.verify_theorem_A_all_circuits(d) for d in _digraphs(seed, 25, 4))


def _swap_labels(g: SimpleGraph, v: int, w: int) -> SimpleGraph:
    """The same graph with the names of vertices v and w exchanged."""
    perm = list(range(g.n))
    perm[v], perm[w] = w, v
    return SimpleGraph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def check_structural(max_n: int) -> bool:
    """pivot(g,v,w) equals the triple local complementation
    lc(lc(lc(g,v),w),v) with the names of v and w exchanged; pivot and
    lc are involutions; pivot is symmetric in its endpoints.

    The name swap is essential: on the path 0-1-2 the pivot on edge 01
    toggles nothing, while the triple complementation moves the centre
    from 1 to 0.  The two results differ exactly by exchanging 0 and 1.
    """
    for g in _graphs_up_to(max_n):
        for v in range(g.n):
            if g.local_complement(v).local_complement(v) != g:
                return False
        for v, w in g.edges():
            piv = g.pivot(v, w)
            triple = g.local_complement(v).local_complement(w).local_complement(v)
            if piv != _swap_labels(triple, v, w):
                return False
            if piv.pivot(v, w) != g:
                return False
            if piv != g.pivot(w, v):
                return False
    return True


def check_edge_choice(max_n: int) -> bool:
    """The pivot-and-delete recursion gives the same polynomial for
    every admissible first edge, in both endpoint orders."""
    for g in _graphs_up_to(max_n):
        if not g.edge_count():
            continue
        ref = interlace.qn_closed(g)
        for v, w in g.edges():
            for a, b in ((v, w), (w, v)):
                branch = (interlace.qn_closed(g.delete_vertex(a))
                          + interlace.qn_closed(g.pivot(a, b).delete_vertex(b)))
                if branch != ref:
                    return False
    return True


def check_isotropy(max_n: int) -> bool:
    """Graphic systems really are isotropic: pairwise-zero form and a
    basis of full rank n (both re-checked explicitly here)."""
    for g in _graphs_up_to(max_n):
        n = g.n
        system = isotropic.graphic_system(g)
        basis = system.basis
        for i in range(n):
            for j in range(n):
                if isotropic.kv_form(basis[i], basis[j]) != 0:
                    return False
        if rank(system.flattened_basis()) != n:
            return False
    return True


def check_martin_roundtrip(seed: int) -> bool:
    """x * m(d;x+1) == f(d;x), and f(1) == 2**n (one state per choice),
    on the hand-worked digraphs and 50 seeded random ones with at most 6
    vertices.  m comes from the circle graph's interlace polynomial and
    f from the transition states, so the two sides are independent
    routes."""
    return all(_martin_roundtrip_holds(d) for d in _digraphs(seed, 50, 6))


def _martin_roundtrip_holds(d: EulerianDigraph) -> bool:
    f = eulerian.circuit_partition_poly(d)
    if f.evaluate(1) != 1 << d.n:
        return False
    m = eulerian.martin_poly(d)
    return UniPoly.variable() * m.substitute(1) == f


# -- the wired-up suite ----------------------------------------------------


def run_verification(max_n: int = 5, seed: int = 7) -> bool:
    """Run every identity check at a scale bounded by max_n, printing
    one PASS/FAIL line per identity.  Returns overall success."""
    if max_n < 0 or max_n > 6:
        raise ValueError("max_n must be between 0 and 6")

    def upto(cap: int, label: str, check: Callable[..., bool],
             *args: int) -> Tuple[str, Callable[[], bool]]:
        """A check exhaustive over the graphs on at most min(max_n, cap)
        vertices, with that bound in place of its label's {n}."""
        n = min(max_n, cap)
        return label.format(n=n), lambda: check(n, *args)

    checks: List[Tuple[str, Callable[[], bool]]] = [
        upto(max_n, "Def 1 / Thm 2.8 / Thm 4.5 / AvdH sum: five qn methods "
                    "agree (exhaustive n <= {n})", check_five_method_agreement),
        ("Def 1 golden values: E_n, K2, P3, K3", check_golden_values),
        upto(5, "Eq (3): qn(G;y) = q(G;2,y) (exhaustive n <= {n})", check_eq3),
        upto(4, "Eq (2): q2 reduction = q2 closed form (exhaustive n <= {n} "
                "+ 200 random)", check_eq2, seed),
        upto(5, "Lemma 4.3 / Lemma 4.4: dim(L meet F-hat) = |F_x| - r(A[F_x]) "
                "(exhaustive n <= {n} + 1000 random)", check_dim_formula, seed),
        upto(5, "Lemma A1: L_P avoids z iff P induces an even subgraph "
                "(exhaustive n <= {n})", check_lemma_a1),
        upto(4, "Lemma B1: L_P in F-hat iff P in F_x, even, N(P) in F_y "
                "(exhaustive n <= {n})", check_lemma_b1),
        ("Thm A: f(G;x) = x*qn(H;x+1) (hand instances + 100 random)",
         lambda: check_theorem_a(seed)),
        ("Thm A, all circuits: identity for every Euler circuit (n <= 4)",
         lambda: check_theorem_a_all_circuits(seed)),
        upto(max_n, "Pivot identities: G^vw = G*v*w*v up to vw swap, "
                    "involutions, symmetry (exhaustive n <= {n})", check_structural),
        upto(5, "Def 1 edge-choice independence (exhaustive n <= {n})",
             check_edge_choice),
        upto(max_n, "Thm 2.5: graphic systems are isotropic (exhaustive n <= {n})",
             check_isotropy),
        ("Martin round-trip: f(x) = x*m(x+1), f(1) = 2^n "
         "(hand instances + 50 random)",
         lambda: check_martin_roundtrip(seed)),
    ]
    all_ok = True
    for label, fn in checks:
        ok = fn()
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return all_ok
