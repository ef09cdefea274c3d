"""The python examples in README.md run as written: each block on its
own, and each `print(...)  # value` line prints what its comment says."""

import io
import re
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
PRINT_COMMENT = re.compile(r"^\s*print\(.*\)\s+#\s*(.*)$")


def run_block(source):
    """Runs source in a fresh namespace; returns what each print call
    printed, keyed by the line it was called from."""
    printed = {}

    def record(*args, **kwargs):
        out = io.StringIO()
        print(*args, file=out, **kwargs)
        printed[sys._getframe(1).f_lineno] = out.getvalue().rstrip("\n")

    exec(compile(source, str(README), "exec"), {"print": record})
    return printed


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_example_prints_what_its_comments_say(source):
    printed = run_block(source)
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = PRINT_COMMENT.match(line)
        if match:
            comment = match.group(1)
            assert lineno in printed, line
            assert re.match(re.escape(printed[lineno]) + r"($|[ ,])", comment), (
                f"{line!r} printed {printed[lineno]!r}")
