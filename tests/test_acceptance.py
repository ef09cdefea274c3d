"""Acceptance gate: the ten cross-validation criteria at their full
stated sizes.  Each test prints one PASS/FAIL line on the live terminal
(bypassing capture) so the criterion outcomes are visible in any run.

These are slower than the unit tests: together they enumerate all
~70000 labeled graphs up to six vertices several times over.
"""

import random
import time

import pytest

from interlacepoly import interlace, verify

SEED = 7


def report(capsys, ok: bool, num: int, label: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_five_method_agreement(capsys):
    ok = verify.check_five_method_agreement(6)
    report(capsys, ok, 1,
           "five qn routes agree on every simple graph with n <= 6")


def test_criterion_02_golden_values(capsys):
    ok = verify.check_golden_values()
    report(capsys, ok, 2,
           "golden values: edgeless powers (n <= 8) and the small graphs")


def test_criterion_03_single_variable_specialization(capsys):
    ok = verify.check_eq3(5)
    report(capsys, ok, 3,
           "qn equals the x=2 specialization of q2 for n <= 5")


def test_criterion_04_two_variable_consistency(capsys):
    ok = verify.check_eq2(4, SEED)
    report(capsys, ok, 4,
           "q2 reduction equals the closed sum (all loop patterns n <= 4 "
           "+ 200 random n <= 7)")


def test_criterion_05_intersection_dimension_formula(capsys):
    ok = verify.check_dim_formula(5, SEED)
    report(capsys, ok, 5,
           "dim(L meet F-hat) equals the restricted-rank formula "
           "(exhaustive n <= 5 + 1000 random n <= 10)")


def test_criterion_06_even_subgraph_characterizations(capsys):
    ok = verify.check_lemma_a1(5) and verify.check_lemma_b1(4)
    report(capsys, ok, 6,
           "even-subgraph characterizations of the system vectors "
           "(n <= 5 and n <= 4)")


def test_criterion_07_circuit_partition_identity(capsys):
    ok = (verify.check_theorem_a(SEED)
          and verify.check_theorem_a_all_circuits(SEED))
    report(capsys, ok, 7,
           "f(G;x) = x*qn(H;x+1) on hand instances, 100 random digraphs, "
           "and every Euler circuit for n <= 4")


def test_criterion_08_structural_identities(capsys):
    ok = verify.check_structural(6) and verify.check_edge_choice(5)
    report(capsys, ok, 8,
           "pivot/triple-complementation identity and involutions (n <= 6), "
           "edge-choice independence (n <= 5)")


def test_criterion_09_isotropy(capsys):
    ok = verify.check_isotropy(6)
    report(capsys, ok, 9,
           "graphic systems are full-rank and pairwise orthogonal (n <= 6)")


def test_criterion_10_performance(capsys):
    g = verify.random_simple_graph(20, random.Random(SEED))
    t0 = time.monotonic()
    closed = interlace.qn_closed(g)
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0 and closed == interlace.qn_avdh(g)
    report(capsys, ok, 10,
           f"closed subset sum at n=20 in {elapsed:.1f}s (< 60s) "
           "and agrees with the column-choice sum")
