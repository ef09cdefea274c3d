"""The benchmark of interlacepoly: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from ./src.

With --trace 0 the run measures the end-to-end metrics:

  setup_s         median wall time of fresh `python -m interlacepoly`
                  processes making the workload's smallest call
  throughput_cps  calls per second of call time over the pass
  call_p50_ms     median wall time of a call
  call_p90_ms     90th percentile of the call times (both percentiles
                  are window means, see percentile())
  peak_rss_mb     largest resident set of the pass process or its pool
                  workers

and prints error_rate, the share of calls that failed, beside them.

The pass runs in a process of its own (passrun.py), a closed loop with
one client that makes in-process `interlacepoly.cli.run(argv)` calls for
whole rounds of the workload until T seconds have passed and at least
the workload's min_rounds are done.  Every output is checked: routes
that compute the same polynomial must agree, cheap identities must
hold, and at the default seed the outputs of the first min_rounds
rounds must match the digests stored in digests.json.

With --trace 1 the run makes exactly min_rounds rounds twice, once
untraced and once with the span recorder of tracing.py installed, and
reports the per-layer metrics and the tracing overhead.  The spans go
to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when a
result was printed, and 2 when the checkout holds no package to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_LAUNCHES = 8
PASS_TIMEOUT_S = 170
QUANTILE_WINDOW = 0.05
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "out")

UNITS = (("_per_s", "1/s"), ("_cps", "1/s"), ("_pct", "%"), ("_ms", "ms"),
         ("_mb", "MB"), ("_s", "s"), ("utilisation", "ratio"))


def unit(metric: str) -> str:
    for suffix, u in UNITS:
        if metric.endswith(suffix):
            return u
    return "count"


def child_env(src: str) -> Dict[str, str]:
    env = dict(os.environ)
    # The pool takes its default size, the machine's available parallelism.
    env.pop("INTERLACEPOLY_WORKERS", None)
    env["PYTHONPATH"] = src
    return env


def run_pass(workload: str, seed: int, src: str, env: Dict[str, str],
             seconds: Optional[float] = None, rounds: Optional[int] = None,
             spans_out: Optional[str] = None) -> dict:
    argv = [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", workload,
            "--seed", str(seed), "--src", src]
    argv += ["--seconds", str(seconds)] if rounds is None else ["--rounds", str(rounds)]
    if spans_out:
        argv += ["--trace", "--spans-out", spans_out]
    # A process group of its own, so that a pass that overruns is killed
    # together with any pool workers it started.
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"pass process failed:\n{err}")
    return json.loads(out)


def round_digest(outputs: List[str]) -> str:
    return hashlib.sha256("\0".join(outputs).encode()).hexdigest()


def check_pass(workload: workloads.Workload, seed: int, result: dict,
               use_digests: bool = True) -> Tuple[int, List[str]]:
    """Failed-call count and failure reasons for a pass.  A call fails
    when it exits non-zero, or when a check on its group's outputs or
    its round's digest fails; the whole group or round fails then."""
    by_round: Dict[int, Dict[int, List[list]]] = {}
    for call in result["calls"]:
        by_round.setdefault(call[0], {}).setdefault(call[1], []).append(call)
    stored: List[str] = []
    if use_digests and seed == DEFAULT_SEED:
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh).get(workload.name, [])
    failed, reasons = 0, []
    for r, groups in sorted(by_round.items()):
        spec = workload.round(seed, r)
        round_outputs, round_failed = [], set()
        for g, calls in sorted(groups.items()):
            group = spec[g]
            outs = [c[5] for c in calls]
            round_outputs += outs
            bad = [c for c in calls if c[4] != 0]
            reason = (f"exit {bad[0][4]}: {bad[0][6].strip()}" if bad
                      else workloads.check_group(group, outs))
            if reason:
                round_failed.add(g)
                reasons.append(f"round {r} group {g}: {reason}")
        if r < len(stored) and round_digest(round_outputs) != stored[r]:
            round_failed = set(groups)
            reasons.append(f"round {r}: outputs differ from the stored digest")
        failed += sum(len(groups[g]) for g in round_failed)
    return failed, reasons


def smallest_call(workload: workloads.Workload, seed: int) -> Tuple[int, List[str]]:
    groups = workload.round(seed, 0)
    g = min(range(len(groups)), key=lambda i: groups[i].instance.n)
    return g, groups[g].calls[0]


def measure_setup(argv: List[str], env: Dict[str, str],
                  launches: int) -> List[Tuple[float, int, str]]:
    """Wall time, exit code and output of fresh CLI processes making
    one call."""
    cmd = [sys.executable, "-m", "interlacepoly", *argv]
    runs = []
    for _ in range(launches):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        runs.append((time.perf_counter() - t0, proc.returncode, proc.stdout))
    return runs


def manifest(workload: workloads.Workload, seed: int, rounds: int) -> dict:
    instances, calls, pooled = [], 0, 0
    for r in range(rounds):
        for group in workload.round(seed, r):
            instances.append(workloads.manifest_entry(group.instance))
            calls += len(group.calls)
            pooled += sum(workloads.engages_pool(a, group.instance.n)
                          for a in group.calls)
    multi = sum(1 for e in instances if e["components"] > 1)
    return {"instances": instances,
            "multi_component_share": multi / len(instances),
            "pool_call_share": pooled / calls}


def host() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "platform": platform.platform()}


def percentile(sorted_ms: List[float], q: float) -> float:
    """The q-quantile, estimated as the mean of the values ranked within
    QUANTILE_WINDOW of it.  A shared host runs single-threaded code in a
    fast and a slow state about 1.6x apart, for seconds at a time, so
    the calls of one size and command form two modes; a single order
    statistic inside such a cluster jumps from one mode to the other as
    the share of slow time changes, where the window mean moves with it."""
    n = len(sorted_ms)
    return statistics.fmean(sorted_ms[round((q - QUANTILE_WINDOW) * n):
                                      round((q + QUANTILE_WINDOW) * n)])


def call_stats(result: dict) -> Dict[str, float]:
    times_ms = sorted(c[3] / 1e6 for c in result["calls"])
    return {
        "throughput_cps": len(times_ms) / (sum(times_ms) / 1e3),
        "call_p50_ms": percentile(times_ms, 0.5),
        "call_p90_ms": percentile(times_ms, 0.9),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, float]) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit(k)}
                                  for k, v in metrics.items()}}))


def report(workload: str, seed: int, result: dict, man: dict,
           reasons: List[str]) -> None:
    h = host()
    print(f"workload {workload}  seed {seed}  {len(result['calls'])} calls in "
          f"{result['rounds']} rounds  (closed loop, one client)")
    print(f"host: nproc {h['nproc']}, Python {h['python']}, {h['platform']}")
    print(f"inputs: {len(man['instances'])} instances, "
          f"{man['multi_component_share']:.1%} multi-component; "
          f"{man['pool_call_share']:.1%} of calls engage the pool")
    for reason in reasons:
        print(f"FAILED {reason}")


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "interlacepoly", "cli.py")):
        print(f"error: no package at {src}/interlacepoly; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT_DIR, exist_ok=True)
    env = child_env(src)
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-{args.seed}"

    if args.trace:
        plain = run_pass(args.workload, args.seed, src, env, rounds=workload.min_rounds)
        spans = os.path.join(OUT_DIR, f"spans-{tag}.json")
        traced = run_pass(args.workload, args.seed, src, env,
                          rounds=workload.min_rounds, spans_out=spans)
        checks = [check_pass(workload, args.seed, r) for r in (plain, traced)]
        failed = sum(f for f, _ in checks)
        attempted = len(plain["calls"]) + len(traced["calls"])
        report(args.workload, args.seed, traced,
               manifest(workload, args.seed, traced["rounds"]),
               [why for _, reasons in checks for why in reasons])
        metrics = dict(traced["layers"])
        untraced_cps = call_stats(plain)["throughput_cps"]
        traced_cps = call_stats(traced)["throughput_cps"]
        metrics["trace.untraced_cps"] = untraced_cps
        metrics["trace.traced_cps"] = traced_cps
        metrics["trace.overhead_pct"] = (untraced_cps / traced_cps - 1) * 100
        for k, v in metrics.items():
            print(f"  {k:36s} {v:14.6g} {unit(k)}")
        print(f"spans written to {os.path.relpath(spans)}")
        emit(failed == 0, attempted, failed, metrics)
        return 0

    g, small = smallest_call(workload, args.seed)
    # One untimed launch lets the bytecode cache fill.  The timed
    # launches come half before and half after the pass, so that a slow
    # spell of the machine does not decide them all.
    warm = measure_setup(small, env, 1)
    before = measure_setup(small, env, SETUP_LAUNCHES // 2)
    result = run_pass(args.workload, args.seed, src, env, seconds=args.seconds)
    after = measure_setup(small, env, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
    setup_s = statistics.median(t for t, _, _ in before + after)
    expected = next(c[5] for c in result["calls"] if c[:3] == [0, g, 0])
    failed, reasons = check_pass(workload, args.seed, result)
    failed += sum(rc != 0 or out != expected for _, rc, out in warm + before + after)
    attempted = len(result["calls"]) + SETUP_LAUNCHES + 1
    man = manifest(workload, args.seed, result["rounds"])
    with open(os.path.join(OUT_DIR, f"manifest-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"host": host(), **man}, fh)
    report(args.workload, args.seed, result, man, reasons)
    metrics = {**call_stats(result), "setup_s": setup_s}
    for k, v in metrics.items():
        print(f"  {k:16s} {v:14.6g} {unit(k)}")
    print(f"  {'error_rate':16s} {failed / attempted:14.6g} ({failed} of {attempted})")
    emit(failed == 0, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
