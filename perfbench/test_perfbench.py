"""Tests of the benchmark itself: seeded inputs, output checks, the span
recorder's self-time arithmetic, and exact counts of the traced run."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import passrun  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Group, Workload  # noqa: E402

SMALL = workloads.WORKLOADS["small-batch"]


def one_round(groups):
    return Workload("custom", 1, lambda rng, r: groups)


def exact_counts(layers):
    return {k: v for k, v in layers.items()
            if k.endswith(("_calls", "_nodes", "_ops", ".pools", ".tasks", ".errors"))}


def test_rounds_are_deterministic_in_the_seed():
    for w in workloads.WORKLOADS.values():
        assert w.round(3, 1) == w.round(3, 1)
        assert w.round(3, 1) != w.round(4, 1)


def test_every_pass_reaches_a_hundred_calls():
    for w in workloads.WORKLOADS.values():
        calls = sum(len(g.calls) for r in range(w.min_rounds) for g in w.round(1, r))
        assert calls >= 100, w.name


def test_checks_pass_and_digest_matches_at_default_seed():
    result = passrun.run_pass(SMALL, run.DEFAULT_SEED, None, 1)
    assert run.check_pass(SMALL, run.DEFAULT_SEED, result) == (0, [])


def test_corrupted_output_gives_nonzero_error_rate():
    seed = 2
    result = passrun.run_pass(SMALL, seed, None, 1)
    assert run.check_pass(SMALL, seed, result)[0] == 0
    # Second call of the first group: qn by the closed route.
    result["calls"][1][5] = result["calls"][1][5].replace("x", "2*x", 1)
    failed, reasons = run.check_pass(SMALL, seed, result)
    assert failed / len(result["calls"]) > 0
    assert "qn routes disagree" in reasons[0]


def test_nonzero_exit_is_a_failed_call():
    g = workloads.random_graph(__import__("random").Random(0), 5, 0.5)
    loopy = workloads.Instance("graph", 2, ((0, 0),))
    w = one_round([Group("recursion", g, [["qn", g.text, "--method", "recursive"],
                                          ["qn", loopy.text]])])
    result = passrun.run_pass(w, 0, None, 1)
    failed, reasons = run.check_pass(w, 0, result)
    assert failed == 2 and reasons[0].startswith("round 0 group 0: exit 1")


def test_output_parsers():
    assert workloads.parse_poly("x^2 - 2*x + 2*y") == {(2, 0): 1, (1, 0): -2, (0, 1): 2}
    assert workloads.parse_poly('{"var": "x", "coeffs": [0, 2, 1]}') == {(1, 0): 2, (2, 0): 1}
    assert workloads.martin_to_cpp([1, 1]) == [0, 2, 1]  # x * ((x+1) + 1)
    assert workloads.q2_slice_at_x2({(2, 0): 1, (1, 0): -2, (0, 1): 2}) == [0, 2]


def test_self_time_subtracts_child_spans():
    now = [0]
    tr = tracing.Tracer(clock=lambda: now[0])
    outer = tr.open("a", keep=True)
    now[0] = 10
    inner = tr.open("b", keep=True)
    now[0] = 40
    leaf = tr.wrap(lambda: now.__setitem__(0, now[0] + 5), "c", keep=False)
    leaf()
    tr.close(inner)
    now[0] = 100
    tr.close(outer)
    self_ns = {name: tr.self_ns[tr.name_id(name)] for name in "abc"}
    assert self_ns == {"a": 100 - 35, "b": 45 - 10 - 5, "c": 5}
    assert [s[3] for s in tr.spans] == [-1, 0]  # b's parent is a


def traced_layers(workload):
    tr = tracing.Tracer()
    tr.install()
    try:
        passrun.run_pass(workload, 1, None, 1, tr)
    finally:
        tr.uninstall()
    return tr.layer_metrics()


def test_traced_exact_counts_repeat():
    rng = __import__("random").Random(5)
    dense = workloads.random_graph(rng, 16, 0.5)
    digraph = workloads.random_digraph(rng, 16)
    groups = SMALL.round(1, 0)[:3] + [
        Group("dense", dense, [["qn", dense.text], ["tm", dense.text]]),
        Group("digraph", digraph, [["cpp", digraph.text]])]
    w = one_round(groups)
    first, second = traced_layers(w), traced_layers(w)
    assert exact_counts(first) == exact_counts(second)
    assert first["interlace.recursive_nodes"] > 0
    assert first["graph.init_calls"] > first["graph.delete_vertex_calls"] > 0
    if len(os.sched_getaffinity(0)) > 1:
        assert first["workers.pools"] == 3 and first["workers.tasks"] > 3


def test_layer_map_and_benchmark_list_every_layer_metric():
    import json
    here = os.path.dirname(os.path.abspath(__file__))
    produced = set(tracing.Tracer().layer_metrics()) | {
        "trace.untraced_cps", "trace.traced_cps", "trace.overhead_pct"}
    with open(os.path.join(here, "layers.json"), encoding="utf-8") as fh:
        mapped = {m for entry in json.load(fh)["layers"] for m in entry["metrics"]}
    with open(os.path.join(here, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert produced == mapped == set(listed)
    assert all(run.unit(name) == u for name, u in listed.items())


def test_percentile_is_the_mean_of_its_rank_window():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 0.5) == sum(range(46, 56)) / 10  # ranks 46..55
    assert run.percentile(values, 0.9) == sum(range(86, 96)) / 10
