"""Write digests.json: per workload, one SHA-256 per round of the
outputs of the first min_rounds rounds at the default seed.

    PYTHONPATH=src python3 perfbench/make_digests.py

Run it from the root of a checkout whose outputs are known good; it
refuses to write when any call fails or any output check fails.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import passrun  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        result = passrun.run_pass(workload, run.DEFAULT_SEED, None, workload.min_rounds)
        failed, reasons = run.check_pass(workload, run.DEFAULT_SEED,
                                         result, use_digests=False)
        if failed:
            print(f"{name}: {failed} calls failed", *reasons, sep="\n", file=sys.stderr)
            return 1
        digests[name] = [run.round_digest([c[5] for c in result["calls"] if c[0] == r])
                         for r in range(workload.min_rounds)]
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
