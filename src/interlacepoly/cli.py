"""Command-line front end.

Inputs are file paths, "-" for the standard input stream, or (when the
argument is not an existing file and contains whitespace) the literal
text itself.  Exit codes: 0 success, 1 input error, a route past its
bound (see _limits), worker crash, interrupt, exhausted memory or
recursion depth (no route recurses in Python; kept as a backstop),
2 verification failure.

Each command imports the modules it runs when it runs, so that a launch
loads only those: qn on a small graph loads neither the process pool
nor the isotropic, eulerian and verify modules.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .graph import SimpleGraph, parse_graph

if TYPE_CHECKING:
    from .poly import BiPoly, UniPoly

# interlace.QN_METHODS, kept here so that building the parser does not
# import interlace; a test pins the two together.
QN_METHODS = ("recursive", "closed", "bouchet", "avdh", "isotropic")


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise CliInputError(message)


def _read_input(token: str) -> str:
    if token == "-":
        return sys.stdin.read()
    if os.path.isfile(token):
        with open(token, encoding="utf-8") as fh:
            return fh.read()
    if any(ch.isspace() for ch in token):
        return token
    raise ValueError(f"no such file: {token}")


def _emit_poly(p: Union[UniPoly, BiPoly], fmt: str) -> None:
    print(p.to_json() if fmt == "json" else str(p))


def _emit_graph(g: SimpleGraph, fmt: str) -> None:
    if fmt == "json":
        import json
        print(json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]}))
    else:
        sys.stdout.write(g.to_text())


def _cmd_qn(args) -> int:
    from . import interlace
    g = parse_graph(_read_input(args.input))
    _emit_poly(interlace.qn(g, method=args.method), args.output)
    return 0


def _cmd_q2(args) -> int:
    from . import interlace
    g = parse_graph(_read_input(args.input))
    fn = interlace.q2_closed if args.method == "closed" else interlace.q2_reduction
    _emit_poly(fn(g), args.output)
    return 0


def _cmd_tm(args) -> int:
    from .isotropic import K_X, K_Y, KVector, tutte_martin_presented
    g = parse_graph(_read_input(args.input))
    a = KVector.parse(args.A) if args.A is not None else KVector.constant(g.n, K_X)
    b = KVector.parse(args.B) if args.B is not None else KVector.constant(g.n, K_Y)
    _emit_poly(tutte_martin_presented(g, a, b), args.output)
    return 0


def _cmd_cpp(args) -> int:
    from . import eulerian
    d = eulerian.parse_digraph(_read_input(args.input))
    _emit_poly(eulerian.circuit_partition_poly(d), args.output)
    return 0


def _cmd_martin(args) -> int:
    from . import eulerian
    d = eulerian.parse_digraph(_read_input(args.input))
    _emit_poly(eulerian.martin_poly(d), args.output)
    return 0


def _cmd_circle(args) -> int:
    from . import eulerian
    text = _read_input(args.input)
    d = None
    try:
        d = eulerian.parse_digraph(text)
        h = eulerian.digraph_circle_graph(d)
    except ValueError as err:
        # A chord word is one line, and may also read as digraph text:
        # "1 1 0 0".  A text of more lines is a digraph, since a valid
        # one never reads as a chord word: each vertex label occurs 4
        # times among its arcs.  A blank text is an empty input, as it
        # is to cpp.  A text that is neither keeps the digraph's error
        # if it parsed as one.
        if sum(1 for line in text.splitlines() if line.strip()) != 1:
            raise
        try:
            h = eulerian.circle_graph(eulerian.parse_chord_word(text))
        except ValueError:
            if d is None:
                raise
            raise err from None
    _emit_graph(h, args.output)
    return 0


def _cmd_pivot(args) -> int:
    g = parse_graph(_read_input(args.input))
    _emit_graph(g.pivot(args.v, args.w), args.output)
    return 0


def _cmd_lc(args) -> int:
    g = parse_graph(_read_input(args.input))
    _emit_graph(g.local_complement(args.v), args.output)
    return 0


def _cmd_verify(args) -> int:
    from . import verify
    return 0 if verify.run_verification(max_n=args.max_n, seed=args.seed) else 2


# The arguments every command that reads a graph or a digraph takes.
_INPUT = (("input", dict(metavar="INPUT",
                         help="file path, '-' for stdin, or inline text")),
          ("--output", dict(choices=("text", "json"), default="text",
                            help="output format (default text)")))


def _method(choices) -> tuple:
    return ("--method", dict(choices=choices, default="closed",
                             help="computation route (default closed)"))


# name, help line, description (None: the help line), handler, arguments.
_COMMANDS = (
    ("qn", "single-variable interlace polynomial of a loopless graph", None,
     _cmd_qn, _INPUT + (_method(QN_METHODS),)),
    ("q2", "two-variable interlace polynomial (loops allowed)", None,
     _cmd_q2, _INPUT + (_method(("closed", "reduction")),)),
    ("tm", "restricted Tutte-Martin polynomial of the graphic system", None,
     _cmd_tm, _INPUT + (
         ("--A", dict(metavar="WORD", default=None,
                      help="presentation vector, a word over {x,y,z} of "
                           "length n (default all x)")),
         ("--B", dict(metavar="WORD", default=None,
                      help="second presentation vector (default all y); "
                           "the excluded vector is A+B")))),
    ("cpp", "circuit partition polynomial of a 2-in-2-out digraph", None,
     _cmd_cpp, _INPUT),
    ("martin", "Martin polynomial of a 2-in-2-out digraph", None,
     _cmd_martin, _INPUT),
    ("circle", "circle graph of a digraph's Euler circuit, or of a "
               "chord-diagram word", None, _cmd_circle, _INPUT),
    ("pivot", "pivot a graph on an edge", None, _cmd_pivot,
     _INPUT + (("v", dict(type=int)), ("w", dict(type=int)))),
    ("lc", "local complementation at a vertex", None, _cmd_lc,
     _INPUT + (("v", dict(type=int)),)),
    ("verify", "run the cross-method identity suite",
     "Run the cross-method identity suite and print one PASS/FAIL line "
     "per identity.", _cmd_verify, (
         ("--max-n", dict(type=int, default=5,
                          help="exhaustive-enumeration bound, 0..6 (default 5)")),
         ("--seed", dict(type=int, default=7,
                         help="seed for the randomized instances (default 7)")))),
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or, given the command a call runs,
    one whose other commands have their name and help line only: the
    top-level help, the COMMAND choices and the usage errors are the
    same, and a subparser that does not run needs no arguments or -h."""
    parser = _Parser(
        prog="interlacepoly",
        description="Interlace, Tutte-Martin, and circuit partition polynomials.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_, description, func, arguments in _COMMANDS:
        if command is not None and name != command:
            sub.add_parser(name, help=help_, add_help=False)
            continue
        p = sub.add_parser(name, help=help_, description=description or help_)
        for flag, opts in arguments:
            p.add_argument(flag, **opts)
        p.set_defaults(func=func)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # The top-level parser has no option that takes a value, so the
    # first token that is not an option names the command.
    command = next((a for a in argv if not a.startswith("-")), None)
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliInputError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except RuntimeError as err:
        # A pool that broke has imported concurrent.futures; a command
        # that ran without one has not, and cannot raise BrokenExecutor.
        futures = sys.modules.get("concurrent.futures")
        if not (isinstance(err, RecursionError)
                or (futures is not None and isinstance(err, futures.BrokenExecutor))):
            raise
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 1


def main() -> int:
    return run()
