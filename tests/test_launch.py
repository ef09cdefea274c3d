"""A CLI launch in a fresh process: the modules each command loads, and
a pool worker that dies before the pool's module was ever imported."""

import subprocess
import sys

import pytest

from interlacepoly import _workers

P3_TEXT = "3 2 0 1 1 2"
POOL = {"concurrent.futures", "multiprocessing"}
ROUTES = {"interlacepoly.verify", "interlacepoly.isotropic", "interlacepoly.eulerian"}


def launch(argv, *flags):
    return subprocess.run([sys.executable, *flags, "-m", "interlacepoly", *argv],
                          capture_output=True, text=True, timeout=120)


def loaded_modules(argv):
    """The stdout of `python -m interlacepoly ARGV` and every module the
    launch imported, read from the -X importtime report."""
    proc = launch(argv, "-X", "importtime")
    assert proc.returncode == 0, proc.stderr
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc.stdout, names


@pytest.mark.parametrize("argv, out, absent", [
    (["qn", P3_TEXT], "x^2 + 2*x\n", POOL | ROUTES | {"interlacepoly.gf2"}),
    (["cpp", "2 4 0 1 1 1 1 0 0 0"], "x^3 + 2*x^2 + x\n",
     POOL | (ROUTES - {"interlacepoly.eulerian"})
     | {"interlacepoly.interlace", "interlacepoly.gf2"}),
    (["tm", P3_TEXT], "x^2 + 2*x\n",
     POOL | (ROUTES - {"interlacepoly.isotropic"})),
], ids=["qn", "cpp", "tm"])
def test_a_command_loads_only_what_it_runs(argv, out, absent):
    stdout, names = loaded_modules(argv)
    assert stdout == out
    assert "interlacepoly.cli" in names
    assert names & absent == set()


def test_verify_runs_in_a_fresh_process():
    proc = launch(["verify", "--max-n", "2"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 13 and all(line.startswith("PASS") for line in lines)


CRASH = """\
import os
import sys

from interlacepoly import cli, interlace


def crash(*args):
    os._exit(1)


if __name__ == "__main__":
    assert "concurrent.futures" not in sys.modules
    interlace._rank_profile = crash
    sys.exit(cli.main())
"""


@pytest.mark.skipif(_workers.available_parallelism() < 2,
                    reason="the pool starts only with 2 CPUs or more")
def test_dead_worker_is_one_error_line(tmp_path):
    # qn at n = PARALLEL_THRESHOLD pools its subset sum, whose kernel
    # here ends its process at once.
    script = tmp_path / "crash.py"
    script.write_text(CRASH)
    proc = subprocess.run(
        [sys.executable, str(script), "qn", f"{_workers.PARALLEL_THRESHOLD} 0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
