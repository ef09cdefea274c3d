"""Command-line front end.

Inputs are file paths, "-" for the standard input stream, or (when the
argument is not an existing file and contains whitespace) the literal
text itself.  Exit codes: 0 success, 1 input error, a route past its
bound (see _limits), worker crash, interrupt, exhausted memory or
recursion depth, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path
from typing import Optional, Sequence, Union

from . import eulerian, interlace, isotropic, verify
from .graph import SimpleGraph, parse_graph
from .isotropic import K_X, K_Y, KVector
from .poly import BiPoly, UniPoly


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise CliInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="interlacepoly",
        description="Interlace, Tutte-Martin, and circuit partition polynomials.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, help_: str, func, graph_input: bool = True):
        p = sub.add_parser(name, help=help_, description=help_)
        if graph_input:
            p.add_argument("input", metavar="INPUT",
                           help="file path, '-' for stdin, or inline text")
        p.add_argument("--output", choices=("text", "json"), default="text",
                       help="output format (default text)")
        p.set_defaults(func=func)
        return p

    p = add("qn", "single-variable interlace polynomial of a loopless graph",
            _cmd_qn)
    p.add_argument("--method", choices=interlace.QN_METHODS, default="closed",
                   help="computation route (default closed)")

    p = add("q2", "two-variable interlace polynomial (loops allowed)", _cmd_q2)
    p.add_argument("--method", choices=("closed", "reduction"), default="closed",
                   help="computation route (default closed)")

    p = add("tm", "restricted Tutte-Martin polynomial of the graphic system",
            _cmd_tm)
    p.add_argument("--A", metavar="WORD", default=None,
                   help="presentation vector, a word over {x,y,z} of length n "
                        "(default all x)")
    p.add_argument("--B", metavar="WORD", default=None,
                   help="second presentation vector (default all y); the "
                        "excluded vector is A+B")

    add("cpp", "circuit partition polynomial of a 2-in-2-out digraph", _cmd_cpp)
    add("martin", "Martin polynomial of a 2-in-2-out digraph", _cmd_martin)
    add("circle", "circle graph of a digraph's Euler circuit, or of a "
                  "chord-diagram word", _cmd_circle)

    p = add("pivot", "pivot a graph on an edge", _cmd_pivot)
    p.add_argument("v", type=int)
    p.add_argument("w", type=int)

    p = add("lc", "local complementation at a vertex", _cmd_lc)
    p.add_argument("v", type=int)

    p = sub.add_parser("verify", help="run the cross-method identity suite",
                       description="Run the cross-method identity suite and "
                                   "print one PASS/FAIL line per identity.")
    p.add_argument("--max-n", dest="max_n", type=int, default=5,
                   help="exhaustive-enumeration bound, 0..6 (default 5)")
    p.add_argument("--seed", type=int, default=7,
                   help="seed for the randomized instances (default 7)")
    p.set_defaults(func=_cmd_verify)

    return parser


def _read_input(token: str) -> str:
    if token == "-":
        return sys.stdin.read()
    try:
        path = Path(token)
        is_file = path.is_file()
    except (OSError, ValueError):
        is_file = False
    if is_file:
        return path.read_text(encoding="utf-8")
    if any(ch.isspace() for ch in token):
        return token
    raise ValueError(f"no such file: {token}")


def _emit_poly(p: Union[UniPoly, BiPoly], fmt: str) -> None:
    print(p.to_json() if fmt == "json" else str(p))


def _emit_graph(g: SimpleGraph, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]}))
    else:
        sys.stdout.write(g.to_text())


def _cmd_qn(args) -> int:
    g = parse_graph(_read_input(args.input))
    _emit_poly(interlace.qn(g, method=args.method), args.output)
    return 0


def _cmd_q2(args) -> int:
    g = parse_graph(_read_input(args.input))
    fn = interlace.q2_closed if args.method == "closed" else interlace.q2_reduction
    _emit_poly(fn(g), args.output)
    return 0


def _cmd_tm(args) -> int:
    g = parse_graph(_read_input(args.input))
    a = KVector.parse(args.A) if args.A is not None else KVector.constant(g.n, K_X)
    b = KVector.parse(args.B) if args.B is not None else KVector.constant(g.n, K_Y)
    _emit_poly(isotropic.tutte_martin_presented(g, a, b), args.output)
    return 0


def _cmd_cpp(args) -> int:
    d = eulerian.parse_digraph(_read_input(args.input))
    _emit_poly(eulerian.circuit_partition_poly(d), args.output)
    return 0


def _cmd_martin(args) -> int:
    d = eulerian.parse_digraph(_read_input(args.input))
    _emit_poly(eulerian.martin_poly(d), args.output)
    return 0


def _cmd_circle(args) -> int:
    text = _read_input(args.input)
    d = None
    try:
        d = eulerian.parse_digraph(text)
        h = eulerian.digraph_circle_graph(d)
    except ValueError as err:
        # A chord word is one line, and may also read as digraph text:
        # "1 1 0 0".  A text of more lines is a digraph, since a valid
        # one never reads as a chord word: each vertex label occurs 4
        # times among its arcs.  A text that is neither keeps the
        # digraph's error if it parsed as one.
        if sum(1 for line in text.splitlines() if line.strip()) > 1:
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
    return 0 if verify.run_verification(max_n=args.max_n, seed=args.seed) else 2


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
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
    except (BrokenExecutor, RecursionError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 1


def main() -> int:
    return run()
