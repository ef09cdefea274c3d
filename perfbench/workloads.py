"""Seeded inputs, call schedules and output checks for the benchmark.

A workload is an endless sequence of rounds.  Round r of a workload is
generated from (seed, workload, r) alone, so every process that needs a
round (the pass that times it, the parent that checks it) rebuilds the
same one.  Each round has the same make-up of command, method and size;
only the random instances differ.  That keeps the cost of a round, and
so the figures, close across seeds.

A round is a list of groups.  A group is one instance and the CLI calls
made on it; the outputs of one group are checked against each other.

The instance generators are the benchmark's own, not the package's, so
that a change to the package cannot change the inputs.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# The package's PARALLEL_THRESHOLD when the benchmark was written; only
# the manifest uses it.  The traced run counts the pools actually made.
POOL_MIN_N = 16
POOLED_ROUTES = {("qn", "closed"), ("tm", "default"), ("cpp", "default"),
                 ("martin", "default")}

QN_METHODS = ("recursive", "closed", "bouchet", "avdh", "isotropic")


@dataclass(frozen=True)
class Instance:
    kind: str  # "graph" or "digraph"
    n: int
    edges: Tuple[Tuple[int, int], ...]

    @property
    def text(self) -> str:
        """The package's inline literal: 'n m u v u v ...'."""
        toks = [self.n, len(self.edges)]
        for u, v in self.edges:
            toks += [u, v]
        return " ".join(map(str, toks))


@dataclass
class Group:
    check: str  # which check_group applies: dense, recursion, q2, digraph, small
    instance: Instance
    calls: List[List[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    # Rounds every pass completes: enough for at least 100 calls, so
    # that at least ten samples lie beyond the 90th percentile.  The
    # traced run and the stored digests use exactly these rounds.
    min_rounds: int
    make_round: Callable[[random.Random, int], List[Group]]

    def round(self, seed: int, r: int) -> List[Group]:
        return self.make_round(random.Random(f"{seed}:{self.name}:{r}"), r)

    def rounds(self, seed: int) -> Iterator[List[Group]]:
        r = 0
        while True:
            yield self.round(seed, r)
            r += 1


# -- instance generators ------------------------------------------------


def random_graph(rng: random.Random, n: int, p: float) -> Instance:
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < p)
    return Instance("graph", n, edges)


def sparse_graph(rng: random.Random, n: int, avg_degree: float,
                 loop_share: float = 0.0) -> Instance:
    """n vertices, round(n * avg_degree / 2) distinct random edges, and
    round(n * loop_share) looped vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(rng.sample(pairs, round(n * avg_degree / 2)))
    loops = [(v, v) for v in sorted(rng.sample(range(n), round(n * loop_share)))]
    return Instance("graph", n, tuple(sorted(edges + loops)))


def cycle(n: int) -> Instance:
    return Instance("graph", n, tuple((v, (v + 1) % n) if v + 1 < n else (0, v)
                                      for v in range(n)))


def double_occurrence_walk(rng: random.Random, n: int) -> List[int]:
    """A random closed walk visiting each of n vertices exactly twice."""
    walk = list(range(n)) * 2
    rng.shuffle(walk)
    return walk


def random_digraph(rng: random.Random, n: int) -> Instance:
    """Connected 2-in-2-out digraph: the consecutive pairs of a random
    closed walk through every vertex twice."""
    walk = double_occurrence_walk(rng, n)
    k = len(walk)
    return Instance("digraph", n, tuple((walk[i], walk[(i + 1) % k])
                                        for i in range(k)))


def circle_graph_of_walk(walk: Sequence[int]) -> Instance:
    """The circle graph of a walk read as a chord diagram.  The walk is
    an Euler circuit of random_digraph's digraph, so this is the circle
    graph of a random 2-in-2-out digraph."""
    first: Dict[int, int] = {}
    second: Dict[int, int] = {}
    for p, s in enumerate(walk):
        (second if s in first else first)[s] = p
    order = sorted(first, key=first.get)
    index = {s: i for i, s in enumerate(order)}
    edges = []
    for i, s in enumerate(order):
        for t in order[i + 1:]:
            if (first[s] < first[t] < second[s]) != (first[s] < second[t] < second[s]):
                edges.append((i, index[t]))
    return Instance("graph", len(order), tuple(edges))


# -- rounds ---------------------------------------------------------------


# The call costs of a round fall in clusters a factor of about two apart
# (one per size).  The sizes are repeated so that the 50th and 90th
# percentiles of a pass fall inside a cluster, not in a gap between two,
# where machine noise would move them by the width of the gap.


def dense_round(rng: random.Random, r: int) -> List[Group]:
    groups = []
    for n in (13, 14, 15, 15, 16, 17, 17):
        g = random_graph(rng, n, 0.5)
        groups.append(Group("dense", g, [
            ["qn", g.text], ["qn", g.text, "--method", "avdh"],
            ["tm", g.text], ["q2", g.text]]))
    return groups


def sparse_round(rng: random.Random, r: int) -> List[Group]:
    def recursion(g: Instance) -> Group:
        return Group("recursion", g, [
            ["qn", g.text, "--method", "recursive"],
            ["qn", g.text, "--method", "bouchet"]])

    # Recursion cost varies several-fold between graphs of one size, and
    # the spread grows with n (circle graphs at n=22 reach 4x the mean).
    # Sizes up to 21 keep the run-to-run spread of a pass small.
    groups = [recursion(sparse_graph(rng, n, 2.6)) for n in (18, 20, 21)]
    groups += [recursion(circle_graph_of_walk(double_occurrence_walk(rng, n)))
               for n in (16, 18, 20)]
    groups.append(recursion(cycle(30 + r % 11)))
    for n in (12, 14, 16):
        g = sparse_graph(rng, n, 2.6, loop_share=0.3)
        groups.append(Group("q2", g, [["q2", g.text, "--method", "reduction"]]))
    return groups


def digraph_round(rng: random.Random, r: int) -> List[Group]:
    groups = []
    for n in (12, 13, 13, 14, 15, 16, 16):
        d = random_digraph(rng, n)
        groups.append(Group("digraph", d, [["cpp", d.text], ["martin", d.text],
                                           ["circle", d.text]]))
    return groups


def small_round(rng: random.Random, r: int) -> List[Group]:
    groups = []
    for i, n in enumerate(range(3, 11)):
        g = random_graph(rng, n, 0.5)
        while not g.edges:
            g = random_graph(rng, n, 0.5)
        v, w = min(g.edges)
        calls = [["qn", g.text, "--method", m] for m in QN_METHODS]
        calls += [["q2", g.text], ["q2", g.text, "--method", "reduction"],
                  ["tm", g.text], ["pivot", g.text, str(v), str(w)],
                  ["lc", g.text, str(rng.randrange(n))]]
        groups.append(Group("small", g, _with_format(calls, i)))
    for i, n in enumerate(range(2, 10)):
        d = random_digraph(rng, n)
        calls = [["cpp", d.text], ["martin", d.text], ["circle", d.text]]
        groups.append(Group("digraph", d, _with_format(calls, i)))
    return groups


def _with_format(calls: List[List[str]], i: int) -> List[List[str]]:
    # Every other group asks for JSON, so both output formatters run.
    return [c + ["--output", "json"] for c in calls] if i % 2 else calls


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("dense-sweep", 4, dense_round),
    Workload("sparse-recursion", 6, sparse_round),
    Workload("digraph-states", 5, digraph_round),
    Workload("small-batch", 10, small_round),
)}


# -- instance manifest ----------------------------------------------------


def components(inst: Instance) -> int:
    parent = list(range(inst.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in inst.edges:
        parent[find(u)] = find(v)
    return sum(1 for v in range(inst.n) if find(v) == v)


def route(argv: Sequence[str]) -> Tuple[str, str]:
    method = argv[argv.index("--method") + 1] if "--method" in argv else "default"
    return argv[0], "closed" if (argv[0], method) == ("qn", "default") else method


def manifest_entry(inst: Instance) -> dict:
    loops = sum(1 for u, v in inst.edges if u == v)
    pairs = inst.n * (inst.n - 1) // 2
    return {"kind": inst.kind, "n": inst.n, "m": len(inst.edges),
            "components": components(inst), "loops": loops,
            "density": (len(inst.edges) - loops) / pairs if pairs else 0.0}


def engages_pool(argv: Sequence[str], n: int) -> bool:
    return route(argv) in POOLED_ROUTES and n >= POOL_MIN_N


# -- output checks --------------------------------------------------------

_TERM = re.compile(r"^(\d+)?\*?(.*)$")


def parse_poly(out: str) -> Dict[Tuple[int, int], int]:
    """Polynomial output, text or JSON, as {(i, j): c} for c * a^i * b^j
    with a, b the first and second variable (x and y as printed)."""
    out = out.strip()
    if out.startswith("{"):
        obj = json.loads(out)
        if "coeffs" in obj:
            j = obj["var"] == "y"
            return {((0, k) if j else (k, 0)): c
                    for k, c in enumerate(obj["coeffs"]) if c}
        return {(i, j): c for i, j, c in obj["terms"]}
    terms: Dict[Tuple[int, int], int] = {}
    if out == "0":
        return terms
    for tok in out.replace(" - ", " + -").split(" + "):
        sign = -1 if tok.startswith("-") else 1
        tok = tok.lstrip("-")
        coeff, exps = 1, [0, 0]
        for factor in tok.split("*"):
            if factor.isdigit():
                coeff = int(factor)
                continue
            var, _, e = factor.partition("^")
            exps["xy".index(var)] += int(e) if e else 1
        key = (exps[0], exps[1])
        terms[key] = terms.get(key, 0) + sign * coeff
    return terms


def parse_graph_output(out: str) -> Tuple[int, set]:
    out = out.strip()
    if out.startswith("{"):
        obj = json.loads(out)
        return obj["n"], {tuple(e) for e in obj["edges"]}
    toks = [int(t) for t in out.split()]
    n, m = toks[0], toks[1]
    edges = {(toks[2 + 2 * k], toks[3 + 2 * k]) for k in range(m)}
    if len(edges) != m:
        raise ValueError("edge count does not match header")
    return n, edges


def coeffs_of(poly: Dict[Tuple[int, int], int], axis: int) -> List[int]:
    """Coefficient list of a one-variable polynomial along axis 0 (x) or 1 (y)."""
    if any(k[1 - axis] for k in poly):
        raise ValueError("polynomial is not univariate on the expected axis")
    deg = max((k[axis] for k in poly), default=-1)
    out = [0] * (deg + 1)
    for k, c in poly.items():
        out[k[axis]] = c
    return out


def evaluate(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def q2_slice_at_x2(q2: Dict[Tuple[int, int], int]) -> List[int]:
    deg = max((j for _, j in q2), default=-1)
    out = [0] * (deg + 1)
    for (i, j), c in q2.items():
        out[j] += c * 2 ** i
    while out and out[-1] == 0:
        out.pop()
    return out


def martin_to_cpp(martin: Sequence[int]) -> List[int]:
    """Coefficients of x * m(x + 1), by Horner's rule in (x + 1)."""
    acc: List[int] = []
    for c in reversed(martin):
        acc = [a + b for a, b in zip([0] + acc, acc + [0])]
        acc[0] += c
    out = [0] + acc
    while out and out[-1] == 0:
        out.pop()
    return out


def _pivot(n: int, edges: set, v: int, w: int) -> set:
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    only_v = adj[v] - adj[w] - {w}
    only_w = adj[w] - adj[v] - {v}
    both = (adj[v] & adj[w]) - {v, w}
    out = set(edges)
    for p, q in ((only_v, only_w), (only_v, both), (only_w, both)):
        for a in p:
            for b in q:
                out ^= {(min(a, b), max(a, b))}
    return out


def _local_complement(n: int, edges: set, v: int) -> set:
    nv = sorted({b for a, b in edges if a == v} | {a for a, b in edges if b == v})
    out = set(edges)
    for i, a in enumerate(nv):
        for b in nv[i + 1:]:
            out ^= {(a, b)}
    return out


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def _qn_checks(inst: Instance, qn_outs: Sequence[str]) -> List[int]:
    _expect(len(set(o for o in qn_outs)) == 1, "qn routes disagree")
    qn = coeffs_of(parse_poly(qn_outs[0]), 0)
    _expect(evaluate(qn, 2) == 2 ** inst.n, "qn(G;2) != 2^n")
    return qn


def _q2_checks(inst: Instance, q2_outs: Sequence[str]) -> Dict[Tuple[int, int], int]:
    _expect(len(set(q2_outs)) == 1, "q2 routes disagree")
    q2 = parse_poly(q2_outs[0])
    _expect(sum(c * 2 ** i * 2 ** j for (i, j), c in q2.items()) == 2 ** inst.n,
            "q2(G;2,2) != 2^n")
    return q2


def check_dense(inst: Instance, outs: Sequence[str]) -> None:
    qn = _qn_checks(inst, outs[:3])
    q2 = _q2_checks(inst, outs[3:])
    _expect(q2_slice_at_x2(q2) == qn, "q2(G;2,y) != qn(G;y)")


def check_recursion(inst: Instance, outs: Sequence[str]) -> None:
    _qn_checks(inst, outs)


def check_q2(inst: Instance, outs: Sequence[str]) -> None:
    _q2_checks(inst, outs)


def check_digraph(inst: Instance, outs: Sequence[str]) -> None:
    from interlacepoly.graph import SimpleGraph
    from interlacepoly.interlace import qn_recursive

    cpp = coeffs_of(parse_poly(outs[0]), 0)
    martin = coeffs_of(parse_poly(outs[1]), 0)
    _expect(cpp == martin_to_cpp(martin), "f(D;x) != x*m(D;x+1)")
    _expect(evaluate(cpp, 1) == 2 ** inst.n, "f(D;1) != 2^n")
    n, edges = parse_graph_output(outs[2])
    _expect(n == inst.n, "circle graph has the wrong vertex count")
    h = SimpleGraph.from_edges(n, sorted(edges))
    # Theorem A, with qn of the circle graph from the recursive route.
    _expect(martin_to_cpp(list(qn_recursive(h).coeffs)) == cpp,
            "f(D;x) != x*qn(H;x+1)")


def check_small(inst: Instance, outs: Sequence[str], argvs: Sequence[List[str]]) -> None:
    qn = _qn_checks(inst, outs[:5])
    q2 = _q2_checks(inst, outs[5:7])
    _expect(q2_slice_at_x2(q2) == qn, "q2(G;2,y) != qn(G;y)")
    _expect(coeffs_of(parse_poly(outs[7]), 0) == qn, "tm != qn")
    given = set(inst.edges)
    v, w = int(argvs[8][2]), int(argvs[8][3])
    _expect(parse_graph_output(outs[8]) == (inst.n, _pivot(inst.n, given, v, w)),
            "pivot output is wrong")
    lv = int(argvs[9][2])
    _expect(parse_graph_output(outs[9]) == (inst.n, _local_complement(inst.n, given, lv)),
            "local complement output is wrong")


def check_group(group: Group, outs: Sequence[str]) -> Optional[str]:
    """None when the outputs of a group pass its checks, else the reason."""
    try:
        if group.check == "small":
            check_small(group.instance, outs, group.calls)
        else:
            {"dense": check_dense, "recursion": check_recursion,
             "q2": check_q2, "digraph": check_digraph}[group.check](
                group.instance, outs)
    except (AssertionError, ValueError, KeyError, IndexError) as err:
        return f"{group.check} check failed: {err}"
    return None
