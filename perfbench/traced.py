"""Run ``toughlab.cli.main(argv)`` in this process with layer spans recorded.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/traced.py OUT_PREFIX CLI_ARG...

Every layer is a module of ``toughlab``.  A span is recorded where one
module calls a public name of another, by replacing that name in the
calling module's namespace with a timing wrapper; nothing under ``src/`` is
edited.  Spans (name, start, end, parent, graph id) are kept in memory and
written to ``OUT_PREFIX.spans.bin`` when ``main`` returns, together with
the span names, counters read from outside the program and the measured
cost of one span (``OUT_PREFIX.counters.json``).
The caller derives self times from the spans.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# Span names are "<layer>.<name>": the layer is the module the work belongs to.
_CALLS = {
    # module: {imported name: span name}
    "cli": {
        "parse_graph6": "graph6.parse",
        "write_graph6": "graph6.write",
        "toughness": "toughness.toughness",
        "is_minimally_tough_by_criterion": "mintough.criterion",
        "is_minimally_tough_by_definition": "mintough.definition",
    },
    "verify": {
        "canonical_code": "canon.canonical_code",
        "parse_graph6": "graph6.parse",
        "write_graph6": "graph6.write",
        "make_named": "families.make_named",
        "toughness": "toughness.toughness",
        "is_nontrivially_minimally_tough": "mintough.nontrivial",
        "universal_vertices": "mintough.universal_vertices",
        "co_diameter": "connectivity.co_diameter",
        "complete_multipartite_parts": "classes.complete_multipartite_parts",
        "is_co_chordal": "classes.co-chordal",
        "is_complement_of_forest": "classes.co-forest",
        "is_complete_multipartite": "classes.complete-multipartite",
        "is_net_free": "classes.net-free",
        "is_p4_free": "classes.p4-free",
    },
    "mintough": {
        "toughness": "toughness.toughness",
        "local_connectivity": "connectivity.local_connectivity",
    },
    "canon": {
        "canonical_code": "canon.canonical_code",
        "parse_graph6": "graph6.parse",
        "write_graph6": "graph6.write",
    },
}

#: spans that start work on one graph, with the class predicates; nested
#: spans inherit their graph id
_PER_GRAPH = {
    "toughness.toughness", "mintough.criterion", "mintough.definition",
    "mintough.nontrivial", "mintough.universal_vertices", "connectivity.co_diameter",
}

#: the report scans cli runs for ``verify``, named by their arguments
_SCANS = {
    "verify_theorem": lambda tid, *_: f"verify.scan.theorem.{tid}",
    "kriesell_scan": lambda klass, *_: f"verify.scan.kriesell.{klass}",
    "verify_table1": lambda *_: "verify.scan.table1",
    "verify_wheels": lambda *_: "verify.scan.wheels",
    "verify_codiam_exclusions": lambda *_: "verify.scan.codiam",
}

#: verify's per-code memo tables, read with cache_info() after the run
CACHES = ("_graph_of", "_tau_of", "_mintough", "_is_cochordal", "_codiam_of")


class Tracer:
    """Spans in parallel arrays; ``parent`` is a span index, -1 at the root."""

    def __init__(self, graph_type: type) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.gid = array("q")
        self.stack: list[int] = []
        self.graph_type = graph_type
        self.graph_ids: dict[object, int] = {}
        #: classes enumerated per order, counted at the verify -> canon boundary
        self.enumerated: dict[int, int] = {}

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, graph=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        gid = self.gid[parent] if parent >= 0 else -1
        if gid < 0 and isinstance(graph, self.graph_type):
            gid = self.graph_ids.setdefault(graph, len(self.graph_ids))
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(parent)
        self.gid.append(gid)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name, fn):
        """``name`` is a span name, or a function of the call's arguments."""
        if callable(name):
            def traced(*args, **kwargs):
                idx = self.open(self.name_id(name(*args)))
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)

            return traced
        nid = self.name_id(name)
        if name in _PER_GRAPH or name.startswith("classes."):
            def traced(graph, *args, **kwargs):
                idx = self.open(nid, graph)
                try:
                    return fn(graph, *args, **kwargs)
                finally:
                    self.close(idx)

            return traced

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def wrap_enumeration(self, fn):
        """Generator calls: one span per item drawn, named by the order n."""

        def traced(n, *args, **kwargs):
            gen = fn(n, *args, **kwargs)
            nid = self.name_id(f"canon.enumerate_graphs.n{n}")
            self.enumerated.setdefault(n, 0)
            while True:
                idx = self.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.enumerated[n] += 1
                yield item

        return traced

    def write(self, path: str) -> None:
        """Five int64 columns, one after the other: name id, start and end in
        ns, parent span index (-1 at the root), graph id (-1 for none)."""
        with open(path, "wb") as fh:
            for column in (self.name, self.start, self.end, self.parent, self.gid):
                array("q", column).tofile(fh)


def _install(tracer: Tracer, modules: dict) -> list[tuple[object, str, object]]:
    """Replace the traced names; returns (owner, attribute, original) to restore."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod, calls in _CALLS.items():
        for attr, span in calls.items():
            patch(modules[mod], attr, tracer.wrap(span, getattr(modules[mod], attr)))
    for attr, namer in _SCANS.items():
        patch(modules["cli"], attr, tracer.wrap(namer, getattr(modules["cli"], attr)))
    patch(modules["verify"], "enumerate_graphs",
          tracer.wrap_enumeration(modules["verify"].enumerate_graphs))
    graph = modules["graphs"].Graph
    patch(graph, "__post_init__", tracer.wrap("graphs.validate", graph.__post_init__))
    return saved


def _restore(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def span_cost_ns(graph_type: type, calls: int = 200_000) -> float:
    """What one span adds to a call: a traced no-op minus a plain one, in ns."""

    def noop(*args):
        return None

    traced = Tracer(graph_type).wrap("probe", noop)
    clock = time.perf_counter_ns
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def main(argv: list[str]) -> int:
    prefix, cli_argv = argv[0], argv[1:]
    modules = {m: importlib.import_module(f"toughlab.{m}")
               for m in ("cli", "verify", "mintough", "canon", "graphs")}
    tracer = Tracer(modules["graphs"].Graph)
    saved = _install(tracer, modules)
    root = tracer.open(tracer.name_id("cli.main"))
    try:
        code = modules["cli"].main(cli_argv)
        sys.stdout.flush()
    finally:
        tracer.close(root)
        _restore(saved)
    verify = modules["verify"]
    counters = {
        "enumerated": {str(n): c for n, c in sorted(tracer.enumerated.items())},
        "caches": {name: getattr(verify, name).cache_info()._asdict() for name in CACHES},
    }
    if tracer.enumerated:
        counters["enumerated"]["0"] = sum(1 for _ in modules["canon"].enumerate_graphs(0))
    counters["span_names"] = tracer.names
    counters["span_cost_ns"] = span_cost_ns(modules["graphs"].Graph)
    tracer.write(prefix + ".spans.bin")
    with open(prefix + ".counters.json", "w", encoding="ascii") as fh:
        json.dump(counters, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
