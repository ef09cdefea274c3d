"""Cross-method identity suite.

Every polynomial here is computed by at least two independent routes,
so each identity check is a real cross-validation, not a self-test.
Identity labels follow the customary numbering used for them (the same
labels the CLI report prints).

The check functions take explicit size/seed bounds and return a bool;
run_verification wires them together at a chosen scale and prints one
PASS/FAIL line per identity.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, List, Optional, Tuple

from . import eulerian, interlace, isotropic
from .eulerian import EulerianDigraph
from .gf2 import rank
from .graph import SimpleGraph
from .isotropic import K_X, K_Y, K_Z, KVector
from .poly import UniPoly


# -- instance generators ------------------------------------------------


def all_simple_graphs(n: int) -> Iterator[SimpleGraph]:
    """All 2**(n choose 2) labeled loopless graphs on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if (mask >> i) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield SimpleGraph(n, adj)


def all_graphs_with_loops(n: int) -> Iterator[SimpleGraph]:
    """All labeled graphs on n vertices over every loop/edge pattern."""
    slots = [(u, v) for u in range(n) for v in range(u, n)]
    for mask in range(1 << len(slots)):
        adj = [0] * n
        for i, (u, v) in enumerate(slots):
            if (mask >> i) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield SimpleGraph(n, adj, loops_allowed=True)


def random_simple_graph(n: int, rng: random.Random) -> SimpleGraph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.getrandbits(1):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return SimpleGraph(n, adj)


def random_graph_with_loops(n: int, rng: random.Random) -> SimpleGraph:
    adj = [0] * n
    for u in range(n):
        for v in range(u, n):
            if rng.getrandbits(1):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return SimpleGraph(n, adj, loops_allowed=True)


def _hand_digraphs() -> List[Tuple[EulerianDigraph, UniPoly]]:
    """The two worked instances: a vertex with two loops, and a 2-cycle
    with every edge doubled, with their circuit partition polynomials."""
    return [
        (EulerianDigraph(1, [(0, 0), (0, 0)]), UniPoly((0, 1, 1))),
        (EulerianDigraph(2, [(0, 1), (0, 1), (1, 0), (1, 0)]), UniPoly((0, 2, 2))),
    ]


# -- individual identity checks ------------------------------------------


def check_five_method_agreement(max_n: int) -> bool:
    """qn_recursive == qn_closed == qn_bouchet == qn_avdh ==
    tutte_martin_canonical, exhaustively."""
    for n in range(max_n + 1):
        for g in all_simple_graphs(n):
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
    """qn(G;y) == q2(G;2,y) for loopless graphs."""
    for n in range(max_n + 1):
        for g in all_simple_graphs(n):
            lhs = interlace.qn_closed(g).with_var("y")
            if interlace.qn_from_q2(g) != lhs:
                return False
    return True


def check_eq2(max_n: int, seed: int, random_count: int = 200,
              max_random_n: int = 7) -> bool:
    """q2_reduction == q2_closed, exhaustively over loop patterns and on
    seeded random loopy graphs."""
    for n in range(max_n + 1):
        for g in all_graphs_with_loops(n):
            if interlace.q2_reduction(g) != interlace.q2_closed(g):
                return False
    rng = random.Random(seed)
    for _ in range(random_count):
        g = random_graph_with_loops(rng.randint(1, max_random_n), rng)
        if interlace.q2_reduction(g) != interlace.q2_closed(g):
            return False
    return True


def _all_xy_vectors(n: int) -> Iterator[KVector]:
    for mask in range(1 << n):
        yield KVector.from_codes(
            [K_X if (mask >> v) & 1 else K_Y for v in range(n)])


def check_dim_formula(max_n: int, seed: int, random_count: int = 1000,
                      max_random_n: int = 10) -> bool:
    """dim(L meet F-hat) == |F_x| - rank(adjacency on F_x) for every
    F over {x,y}, plus the linearity of P -> L_P."""
    for n in range(max_n + 1):
        for g in all_simple_graphs(n):
            system = isotropic.graphic_system(g)
            for f in _all_xy_vectors(n):
                if isotropic.dim_intersection(system, f) != \
                        isotropic.dim_via_rank_formula(g, f):
                    return False
    rng = random.Random(seed)
    for _ in range(random_count):
        n = rng.randint(1, max_random_n)
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
    for n in range(max_n + 1):
        a = KVector.constant(n, K_X)
        b = KVector.constant(n, K_Y)
        for g in all_simple_graphs(n):
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
    for n in range(max_n + 1):
        a = KVector.constant(n, K_X)
        b = KVector.constant(n, K_Y)
        for g in all_simple_graphs(n):
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


def check_theorem_a(seed: int, random_count: int = 100,
                    max_random_n: int = 5) -> bool:
    """f(G;x) == x * qn(H;x+1) on the hand-worked digraphs (with their
    frozen polynomials) and on seeded random 2-in-2-out digraphs."""
    for d, f_expected in _hand_digraphs():
        if eulerian.circuit_partition_poly(d) != f_expected:
            return False
        if not eulerian.verify_theorem_A(d):
            return False
    rng = random.Random(seed)
    for i in range(random_count):
        d = eulerian.random_eulerian_digraph(i % max_random_n + 1, rng.getrandbits(32))
        if not eulerian.verify_theorem_A(d):
            return False
    return True


def check_theorem_a_all_circuits(seed: int, count: int = 25) -> bool:
    """The same identity for every Euler circuit, on digraphs small
    enough to enumerate them all."""
    for d, _ in _hand_digraphs():
        if not eulerian.verify_theorem_A_all_circuits(d):
            return False
    rng = random.Random(seed)
    for i in range(count):
        d = eulerian.random_eulerian_digraph(i % 4 + 1, rng.getrandbits(32))
        if not eulerian.verify_theorem_A_all_circuits(d):
            return False
    return True


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
    for n in range(max_n + 1):
        for g in all_simple_graphs(n):
            for v in range(n):
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
    for n in range(max_n + 1):
        for g in all_simple_graphs(n):
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
    for n in range(max_n + 1):
        for g in all_simple_graphs(n):
            system = isotropic.graphic_system(g)
            basis = system.basis
            for i in range(n):
                for j in range(n):
                    if isotropic.kv_form(basis[i], basis[j]) != 0:
                        return False
            if rank(system.flattened_basis()) != n:
                return False
    return True


def check_martin_roundtrip(seed: int, count: int = 50,
                           max_random_n: int = 6) -> bool:
    """x * m(d;x+1) == f(d;x), and f(1) == 2**n (one state per choice).
    m comes from the circle graph's interlace polynomial and f from the
    transition states, so the two sides are independent routes."""
    for d, _ in _hand_digraphs():
        if not _martin_roundtrip_holds(d):
            return False
    rng = random.Random(seed)
    for i in range(count):
        d = eulerian.random_eulerian_digraph(i % max_random_n + 1, rng.getrandbits(32))
        if not _martin_roundtrip_holds(d):
            return False
    return True


def _martin_roundtrip_holds(d: EulerianDigraph) -> bool:
    f = eulerian.circuit_partition_poly(d)
    if f.evaluate(1) != 1 << d.n:
        return False
    m = eulerian.martin_poly(d)
    return UniPoly.variable() * m.substitute(1) == f


# -- the wired-up suite ----------------------------------------------------


def run_verification(max_n: int = 5, seed: int = 7,
                     report: Optional[Callable[[str], None]] = print) -> bool:
    """Run every identity check at a scale bounded by max_n, printing
    one PASS/FAIL line per identity.  Returns overall success."""
    if max_n < 0 or max_n > 6:
        raise ValueError("max_n must be between 0 and 6")
    checks: List[Tuple[str, Callable[[], bool]]] = [
        (f"Def 1 / Thm 2.8 / Thm 4.5 / AvdH sum: five qn methods agree "
         f"(exhaustive n <= {max_n})",
         lambda: check_five_method_agreement(max_n)),
        ("Def 1 golden values: E_n, K2, P3, K3",
         check_golden_values),
        (f"Eq (3): qn(G;y) = q(G;2,y) (exhaustive n <= {min(max_n, 5)})",
         lambda: check_eq3(min(max_n, 5))),
        (f"Eq (2): q2 reduction = q2 closed form (exhaustive n <= "
         f"{min(max_n, 4)} + 200 random)",
         lambda: check_eq2(min(max_n, 4), seed)),
        (f"Lemma 4.3 / Lemma 4.4: dim(L meet F-hat) = |F_x| - r(A[F_x]) "
         f"(exhaustive n <= {min(max_n, 5)} + 1000 random)",
         lambda: check_dim_formula(min(max_n, 5), seed)),
        (f"Lemma A1: L_P avoids z iff P induces an even subgraph "
         f"(exhaustive n <= {min(max_n, 5)})",
         lambda: check_lemma_a1(min(max_n, 5))),
        (f"Lemma B1: L_P in F-hat iff P in F_x, even, N(P) in F_y "
         f"(exhaustive n <= {min(max_n, 4)})",
         lambda: check_lemma_b1(min(max_n, 4))),
        ("Thm A: f(G;x) = x*qn(H;x+1) (hand instances + 100 random)",
         lambda: check_theorem_a(seed)),
        ("Thm A, all circuits: identity for every Euler circuit (n <= 4)",
         lambda: check_theorem_a_all_circuits(seed)),
        (f"Pivot identities: G^vw = G*v*w*v up to vw swap, involutions, "
         f"symmetry "
         f"(exhaustive n <= {max_n})",
         lambda: check_structural(max_n)),
        (f"Def 1 edge-choice independence (exhaustive n <= {min(max_n, 5)})",
         lambda: check_edge_choice(min(max_n, 5))),
        (f"Thm 2.5: graphic systems are isotropic (exhaustive n <= {max_n})",
         lambda: check_isotropy(max_n)),
        ("Martin round-trip: f(x) = x*m(x+1), f(1) = 2^n "
         "(hand instances + 50 random)",
         lambda: check_martin_roundtrip(seed)),
    ]
    all_ok = True
    for label, fn in checks:
        ok = fn()
        all_ok = all_ok and ok
        if report is not None:
            report(f"{'PASS' if ok else 'FAIL'}  {label}")
    return all_ok
