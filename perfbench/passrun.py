"""One timed pass of a workload, in a process of its own.

The pass is a closed loop with one client: each CLI call is made
in-process through ``interlacepoly.cli.run(argv)`` and the next starts
only after it returns, as a shell user or script would.  The memos are
cleared before every call, outside the timed region, so each call costs
what a fresh CLI process would pay for the computation.

    python3 perfbench/passrun.py --workload NAME --seed N --src DIR \
        (--seconds T | --rounds R) [--trace [--spans-out FILE]]

prints one JSON object: for every call its round, group and call index,
time in ns, exit code, standard output and standard error; the peak
resident set of the pass; and with --trace the layer metrics of the
traced run.  run.py starts this script and reads its output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run_pass(workload: workloads.Workload, seed: int, seconds: Optional[float],
             rounds: Optional[int], tracer=None) -> dict:
    """Run whole rounds until `rounds` are done, or until `seconds` have
    passed and at least the workload's min_rounds are done."""
    from interlacepoly import cli, interlace

    clear = getattr(interlace, "clear_caches", None)
    calls: List[list] = []
    wall0 = time.perf_counter()
    r = 0
    for groups in workload.rounds(seed):
        if rounds is not None and r >= rounds:
            break
        if (rounds is None and r >= workload.min_rounds
                and time.perf_counter() - wall0 >= seconds):
            break
        for g, group in enumerate(groups):
            for c, argv in enumerate(group.calls):
                if clear is not None:
                    clear()
                out, err = io.StringIO(), io.StringIO()
                if tracer is not None:
                    tracer.call_id = len(calls)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    t0 = time.perf_counter_ns()
                    rc = cli.run(argv)
                    t1 = time.perf_counter_ns()
                calls.append([r, g, c, t1 - t0, rc, out.getvalue(), err.getvalue()])
        r += 1
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    kids_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "rounds": r,
        "calls": calls,
        "wall_s": time.perf_counter() - wall0,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": max(self_ru.ru_maxrss, kids_ru.ru_maxrss) / 1024,
    }


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--src", required=True, help="directory holding the package")
    stop = p.add_mutually_exclusive_group(required=True)
    stop.add_argument("--seconds", type=float)
    stop.add_argument("--rounds", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans-out", help="file for the traced run's spans")
    args = p.parse_args(argv)
    sys.path.insert(0, args.src)
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    result = run_pass(workload, args.seed, args.seconds, args.rounds, tracer)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        if args.spans_out:
            tracer.write(args.spans_out)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
