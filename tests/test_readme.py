"""The examples in README.md run as written: each python block on its
own, with each `print(...)  # value` line printing what its comment
says, and each `$ interlacepoly ARGS` line that passes an inline literal
printing exactly the output lines shown under it."""

import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from interlacepoly import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
PRINT_COMMENT = re.compile(r"^\s*print\(.*\)\s+#\s*(.*)$")


def shell_examples(text):
    """(argv, expected stdout) for each `$ interlacepoly` line in a sh
    block that passes an inline literal (an argument with whitespace)
    and has output lines under it; file and stdin inputs are skipped."""
    out = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ interlacepoly "):
                continue
            argv = shlex.split(line[len("$ interlacepoly "):], comments=True)
            expected = []
            for follow in lines[i + 1:]:
                if not follow or follow.startswith("$ "):
                    break
                expected.append(follow)
            if expected and any(" " in arg for arg in argv):
                out.append((argv, "".join(f"{e}\n" for e in expected)))
    return out


SHELL_EXAMPLES = shell_examples(TEXT)


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


def test_readme_has_shell_examples():
    assert len(SHELL_EXAMPLES) == 8


@pytest.mark.parametrize("argv,expected", SHELL_EXAMPLES,
                         ids=[" ".join(argv[:1] + argv[2:])
                              for argv, _ in SHELL_EXAMPLES])
def test_shell_example_prints_what_follows_it(capsys, argv, expected):
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == expected
