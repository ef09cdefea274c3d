"""Span recorder for the traced run.

The recorder wraps public functions of the package's modules at the
bindings the package itself calls through (a module attribute looked up
at call time, or a class attribute), so no file under src/ changes.
Wrappers are installed only for the traced run and removed after it.

Every wrapped call is a span with a start, an end, a parent (the
innermost open span) and the id of the CLI call it belongs to.  A
span's self time is its duration minus the time its child spans cover;
the arithmetic is done when the span closes, by charging its duration
to its parent's child time.

Spans that occur once or a few times per call (the CLI entry, parsing,
a polynomial route, a pool) are kept in memory and written out at the
end.  Spans that occur per recursion node (graph construction and
operations, BiPoly arithmetic) run into the millions on the recursion
workload, so they are folded into per-name counts and times and into
their parent's child time instead of being kept one by one.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import resource
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.count: List[int] = []
        self.total_ns: List[int] = []
        self.self_ns: List[int] = []
        # Open spans, innermost last: [child_ns, kept span index or -1, ...].
        self.stack: List[list] = []
        # Kept spans: [name, start_ns, end_ns, parent index, call id, self_ns].
        self.spans: List[list] = []
        self.call_id = -1
        self.route: Optional[str] = None
        self.nodes: Dict[Optional[str], int] = defaultdict(int)
        self.work: Dict[str, int] = defaultdict(int)
        self.errors = 0
        self.pools: List[dict] = []
        self._undo: List[tuple] = []
        self.missing: List[str] = []

    # -- recording ------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def open(self, name: str, keep: bool) -> list:
        """Push a span; returns its frame for close()."""
        index = -1
        if keep:
            parent = next((f[1] for f in reversed(self.stack) if f[1] >= 0), -1)
            index = len(self.spans)
            self.spans.append([name, 0, 0, parent, self.call_id, 0])
        frame = [0, index, self.name_id(name), self.clock()]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        t1 = self.clock()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError("spans closed out of order")
        child_ns, index, nid, t0 = frame
        dur = t1 - t0
        if self.stack:
            self.stack[-1][0] += dur
        self.count[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - child_ns
        if index >= 0:
            span = self.spans[index]
            span[1], span[2], span[5] = t0, t1, dur - child_ns

    def wrap(self, fn: Callable, name: str, keep: bool = True,
             work: Optional[Callable] = None, route: bool = False,
             node: bool = False, errors: bool = False) -> Callable:
        """A stand-in for fn that records a span named `name`.

        work(args) gives the enumeration size to add to the name's work;
        route marks an interlace route, inside which each `node` call
        counts as one recursion node; errors counts nonzero returns.
        """
        tracer = self
        if not keep and not (work or route or node or errors):
            # Per-node spans: the same arithmetic as open/close, inlined.
            nid = self.name_id(name)
            stack, clock = self.stack, self.clock
            count, total_ns, self_ns = self.count, self.total_ns, self.self_ns

            @functools.wraps(fn)
            def fast(*args, **kwargs):
                frame = [0, -1]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    count[nid] += 1
                    total_ns[nid] += dur
                    self_ns[nid] += dur - frame[0]
            return fast

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if node:
                tracer.nodes[tracer.route] += 1
            if work is not None:
                tracer.work[name] += work(args)
            if route:
                outer, tracer.route = tracer.route, name
            frame = tracer.open(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
                if route:
                    tracer.route = outer
            if errors and result != 0:
                tracer.errors += 1
            return result
        return wrapper

    # -- installation ---------------------------------------------------

    def patch(self, owner, attr: str, name: str, **opts) -> None:
        """Wrap owner.attr; a binding the package no longer has is
        listed in self.missing and its metrics stay 0."""
        original = (owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None))
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **opts))

    def install(self) -> None:
        from interlacepoly import cli, eulerian, interlace, isotropic
        from interlacepoly.graph import SimpleGraph
        from interlacepoly.poly import BiPoly, UniPoly

        size = lambda args: 1 << args[0].n  # noqa: E731  (2^n per call)
        self.patch(cli, "run", "cli.run", errors=True)
        self.patch(cli, "build_parser", "cli.build_parser")
        self.patch(cli, "parse_graph", "graph.parse")
        self.patch(SimpleGraph, "__init__", "graph.init", keep=False)
        self.patch(SimpleGraph, "delete_vertex", "graph.delete_vertex",
                   keep=False, node=True)
        # pivot() goes through _pivot_unchecked, which the two-variable
        # reduction also calls directly: wrapping it counts every pivot once.
        self.patch(SimpleGraph, "_pivot_unchecked", "graph.pivot", keep=False)
        self.patch(SimpleGraph, "local_complement", "graph.local_complement",
                   keep=False)
        for attr, route in (("qn_closed", "closed"), ("qn_avdh", "avdh"),
                            ("q2_closed", "q2_closed")):
            self.patch(interlace, attr, f"interlace.{route}", route=True, work=size)
        for attr, route in (("qn_recursive", "recursive"), ("qn_bouchet", "bouchet"),
                            ("q2_reduction", "q2_reduction")):
            self.patch(interlace, attr, f"interlace.{route}", route=True)
        for module in (interlace, isotropic):
            self.patch(module, "poly_from_shift_counts", "poly.expand")
        self.patch(BiPoly, "__add__", "poly.bipoly", keep=False)
        self.patch(BiPoly, "__mul__", "poly.bipoly", keep=False)
        for cls in (UniPoly, BiPoly):
            self.patch(cls, "__str__", "poly.format")
            self.patch(cls, "to_json", "poly.format")
        self.patch(isotropic, "graphic_system", "isotropic.graphic_system")
        self.patch(isotropic, "tutte_martin_restricted", "isotropic.tm", work=size)
        self.patch(eulerian, "parse_digraph", "eulerian.parse")
        self.patch(eulerian, "circuit_partition_poly", "eulerian.cpp", work=size)
        self.patch(eulerian, "martin_poly", "eulerian.martin")
        self.patch(eulerian, "euler_circuit", "eulerian.euler_circuit")
        self.patch(eulerian, "circle_graph", "eulerian.circle_graph")
        import interlacepoly
        for info in pkgutil.iter_modules(interlacepoly.__path__):
            module = importlib.import_module(f"interlacepoly.{info.name}")
            if getattr(module, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
                self._undo.append((module, "ProcessPoolExecutor", ProcessPoolExecutor))
                module.ProcessPoolExecutor = self.traced_pool(ProcessPoolExecutor)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def traced_pool(self, base: type) -> type:
        """A subclass of the pool class that records one span per pool,
        from construction to the end of shutdown, and its tasks."""
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                self._trace = {"t0": tracer.clock(), "cpu0": _children_cpu_s(),
                               "tasks": 0, "first_submit": None}
                self._trace_frame = tracer.open("workers.pool", keep=True)
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                rec = self._trace
                rec["tasks"] += 1
                if rec["first_submit"] is None:
                    rec["first_submit"] = tracer.clock()
                return future

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait=wait, **kwargs)
                if self._trace_frame is not None:
                    tracer.close(self._trace_frame)
                    self._trace_frame = None
                    rec = self._trace
                    end = tracer.clock()
                    tracer.pools.append({
                        "workers": self._max_workers,
                        "tasks": rec["tasks"],
                        "start_ns": (rec["first_submit"] or end) - rec["t0"],
                        "span_ns": end - rec["t0"],
                        "child_cpu_s": _children_cpu_s() - rec["cpu0"],
                    })

        return TracedPool

    # -- report ---------------------------------------------------------

    def _get(self, table: List[int], name: str) -> int:
        nid = self._ids.get(name)
        return table[nid] if nid is not None else 0

    def calls(self, name: str) -> int:
        return self._get(self.count, name)

    def total_s(self, name: str) -> float:
        return self._get(self.total_ns, name) / 1e9

    def self_s(self, name: str) -> float:
        return self._get(self.self_ns, name) / 1e9

    def mean_ms(self, name: str, per: Optional[str] = None) -> float:
        n = self.calls(per or name)
        return self.total_s(name) * 1e3 / n if n else 0.0

    def rate(self, name: str) -> float:
        t = self.total_s(name)
        return self.work[name] / t if t else 0.0

    def layer_metrics(self) -> Dict[str, float]:
        m: Dict[str, float] = {}
        runs = self.calls("cli.run")
        m["cli.build_parser_ms"] = self.mean_ms("cli.build_parser")
        m["cli.self_ms"] = self.self_s("cli.run") * 1e3 / runs if runs else 0.0
        m["cli.errors"] = self.errors
        m["graph.parse_ms"] = self.mean_ms("graph.parse")
        m["graph.init_calls"] = self.calls("graph.init")
        m["graph.init_s"] = self.self_s("graph.init")
        ops = ("graph.delete_vertex", "graph.pivot", "graph.local_complement")
        for op in ops:
            m[f"{op}_calls"] = self.calls(op)
        m["graph.ops_s"] = sum(self.self_s(op) for op in ops)
        for route in ("closed", "avdh", "q2_closed", "recursive", "bouchet",
                      "q2_reduction"):
            m[f"interlace.{route}_s"] = self.self_s(f"interlace.{route}")
        m["interlace.closed_subsets_per_s"] = self.rate("interlace.closed")
        m["interlace.avdh_choices_per_s"] = self.rate("interlace.avdh")
        m["interlace.q2_closed_subsets_per_s"] = self.rate("interlace.q2_closed")
        for route in ("recursive", "bouchet", "q2_reduction"):
            m[f"interlace.{route}_nodes"] = self.nodes[f"interlace.{route}"]
        m["poly.expand_calls"] = self.calls("poly.expand")
        m["poly.expand_ms"] = self.mean_ms("poly.expand")
        m["poly.bipoly_ops"] = self.calls("poly.bipoly")
        m["poly.bipoly_s"] = self.self_s("poly.bipoly")
        m["poly.format_ms"] = self.mean_ms("poly.format")
        m["isotropic.graphic_system_ms"] = self.mean_ms("isotropic.graphic_system")
        m["isotropic.tm_s"] = self.self_s("isotropic.tm")
        m["isotropic.tm_states_per_s"] = self.rate("isotropic.tm")
        m["eulerian.parse_ms"] = self.mean_ms("eulerian.parse")
        m["eulerian.cpp_s"] = self.self_s("eulerian.cpp")
        m["eulerian.states_per_s"] = self.rate("eulerian.cpp")
        circles = self.calls("eulerian.circle_graph")
        m["eulerian.circle_ms"] = ((self.total_s("eulerian.euler_circuit")
                                    + self.total_s("eulerian.circle_graph")) * 1e3
                                   / circles if circles else 0.0)
        pools = self.pools
        span_s = sum(p["span_ns"] for p in pools) / 1e9
        capacity_s = sum(p["span_ns"] * p["workers"] for p in pools) / 1e9
        child_cpu_s = sum(p["child_cpu_s"] for p in pools)
        m["workers.pools"] = len(pools)
        m["workers.tasks"] = sum(p["tasks"] for p in pools)
        m["workers.start_ms"] = (sum(p["start_ns"] for p in pools) / 1e6 / len(pools)
                                 if pools else 0.0)
        m["workers.span_s"] = span_s
        m["workers.child_cpu_s"] = child_cpu_s
        m["workers.utilisation"] = child_cpu_s / capacity_s if capacity_s else 0.0
        m["workers.idle_s"] = max(0.0, capacity_s - child_cpu_s)
        return m

    def write(self, path: str) -> None:
        """Write the kept spans, per-name aggregates and pools as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "span_fields": ["name", "start_ns", "end_ns", "parent", "call",
                                "self_ns"],
                "spans": self.spans,
                "aggregates": {name: {"count": self.count[i],
                                      "total_s": self.total_ns[i] / 1e9,
                                      "self_s": self.self_ns[i] / 1e9}
                               for i, name in enumerate(self.names)},
                "pools": self.pools,
                "missing_bindings": self.missing,
                "layers": self.layer_metrics(),
            }, fh)
