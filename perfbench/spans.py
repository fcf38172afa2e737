"""In-memory spans around treerank's public functions, for the traced run.

Tracing rebinds each wrapped name in every treerank module that holds it
(`treerank.cli.parse_graph`, `treerank.sparsify.component_partition`,
`treerank.shallow.compute_ranking`, ...), so no code under src/ changes.
A wrapper returns what the wrapped function returns and lets its
exceptions through unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# Span name -> (module, function).  The span name's prefix is the layer.
TARGETS = {
    "cli.main": ("treerank.cli", "main"),
    "graph.parse_graph": ("treerank.graph", "parse_graph"),
    "graph.write_graph": ("treerank.graph", "write_graph"),
    "graph.make_graph": ("treerank.graph", "make_graph"),
    "ranking.compute_ranking": ("treerank.ranking", "compute_ranking"),
    "ranking.separator_search": ("treerank.ranking", "separator_search"),
    "neartwin.neartwin_view": ("treerank.neartwin", "neartwin_view"),
    "sparsify.build_sparsifier": ("treerank.sparsify", "build_sparsifier"),
    "sparsify.component_partition": ("treerank.sparsify", "component_partition"),
    "sparsify.classify_heavy": ("treerank.sparsify", "classify_heavy"),
    "sparsify.recover_graph": ("treerank.sparsify", "recover_graph"),
    "fo.apply_interpretation": ("treerank.fo", "apply_interpretation"),
    "fo.check_range": ("treerank.fo", "check_range"),
}


@dataclass(slots=True)
class Span:
    id: int
    parent: int  # -1 for a root span
    op: int  # operation id
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and per-operation counters in memory."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.op = -1
        self._stack: list[int] = []

    def count(self, name: str, value: float) -> None:
        bucket = self.counts.setdefault(self.op, {})
        bucket[name] = bucket.get(name, 0) + value

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            if observe is not None:
                args, kwargs, after = observe(self, args, kwargs)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(sid, parent, self.op, name, start, end)
            if observe is not None:
                after(result)
            return result

        return wrapper

    def write(self, path) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.id, s.parent, s.op, s.name, s.start, s.end]) + "\n")


def _observe_ranking(tracer: Tracer, args, kwargs):
    # Pass a SearchStats when the caller gave none, and read the counters
    # the ranking records in it.
    from treerank.ranking import INF, SearchStats

    if len(args) > 3:
        stats = args[3]
        if stats is None:
            stats = SearchStats()
            args = (*args[:3], stats, *args[4:])
    else:
        stats = kwargs.get("stats")
        if stats is None:
            stats = SearchStats()
            kwargs = {**kwargs, "stats": stats}
    before = (stats.searches, stats.nodes)

    def after(ra) -> None:
        finite = [x for x in ra.ranks if x != INF]
        tracer.count("ranking.searches", stats.searches - before[0])
        tracer.count("ranking.search_nodes", stats.nodes - before[1])
        tracer.count("ranking.ranked", len(finite))
        tracer.count("ranking.rounds", max(finite, default=0) + (len(finite) < len(ra.ranks)))
        bucket = tracer.counts[tracer.op]
        bucket["ranking.max_nodes_per_search"] = max(
            bucket.get("ranking.max_nodes_per_search", 0), stats.max_nodes_per_search)

    return args, kwargs, after


def _observe_sparsifier(tracer: Tracer, args, kwargs):
    def after(sg) -> None:
        parts = sg.partition.parts
        toggled = 0
        for i, j in sg.flipped_pairs:
            a = len(parts[i])
            toggled += a * (a - 1) // 2 if i == j else a * len(parts[j])
        tracer.count("sparsify.parts", len(parts))
        tracer.count("sparsify.heavy_parts", len({i for pair in sg.flipped_pairs for i in pair}))
        tracer.count("sparsify.flipped_pairs", len(sg.flipped_pairs))
        tracer.count("sparsify.apexes", len(sg.apex))
        tracer.count("sparsify.toggled_edges", toggled)
        tracer.count("sparsify.output_edges", sg.graph.edge_count())

    return args, kwargs, after


def _observe_neartwin(tracer: Tracer, args, kwargs):
    return args, kwargs, lambda view: tracer.count("neartwin.components", len(view.components))


OBSERVERS = {
    "ranking.compute_ranking": _observe_ranking,
    "sparsify.build_sparsifier": _observe_sparsifier,
    "neartwin.neartwin_view": _observe_neartwin,
}


@contextmanager
def traced(tracer: Tracer):
    """Rebind every target in every loaded treerank module; undo on exit."""
    replaced = []
    for name, (module, attr) in TARGETS.items():
        original = getattr(importlib.import_module(module), attr)
        wrapper = tracer.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "treerank" or mod_name.startswith("treerank.")) and \
                    getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                replaced.append((mod, attr, original))
    try:
        yield tracer
    finally:
        for mod, attr, original in replaced:
            setattr(mod, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.duration
    return out


# Per-layer time metric -> (span name, "total" or "self").
TIME_METRICS = {
    "cli.main_self_s": ("cli.main", "self"),
    "graph.parse_s": ("graph.parse_graph", "total"),
    "graph.write_s": ("graph.write_graph", "total"),
    "graph.make_graph_s": ("graph.make_graph", "total"),
    "ranking.compute_ranking_self_s": ("ranking.compute_ranking", "self"),
    "ranking.separator_search_s": ("ranking.separator_search", "total"),
    "neartwin.neartwin_view_s": ("neartwin.neartwin_view", "total"),
    "sparsify.component_partition_s": ("sparsify.component_partition", "total"),
    "sparsify.classify_heavy_s": ("sparsify.classify_heavy", "total"),
    "sparsify.build_self_s": ("sparsify.build_sparsifier", "self"),
    "sparsify.recover_graph_self_s": ("sparsify.recover_graph", "self"),
    "fo.apply_interpretation_s": ("fo.apply_interpretation", "total"),
    "fo.check_range_s": ("fo.check_range", "total"),
}

COUNT_METRICS = (
    "ranking.searches", "ranking.search_nodes", "ranking.max_nodes_per_search",
    "ranking.rounds", "neartwin.components", "sparsify.parts", "sparsify.heavy_parts",
    "sparsify.flipped_pairs", "sparsify.apexes", "sparsify.toggled_edges",
    "sparsify.output_edges",
)


def layer_metrics(spans: list[Span], counts: dict[int, dict[str, float]], ops) -> dict[str, float]:
    """Per-layer times and counts summed over the operations `ops`."""
    ops = set(ops)
    mine = [s for s in spans if s.op in ops]
    selfs = self_times(mine)
    out = dict.fromkeys(TIME_METRICS, 0.0)
    for metric, (span_name, kind) in TIME_METRICS.items():
        for s in mine:
            if s.name == span_name:
                out[metric] += selfs[s.id] if kind == "self" else s.duration
    totals: dict[str, float] = {}
    for op in ops:
        for name, value in counts.get(op, {}).items():
            if name == "ranking.max_nodes_per_search":
                totals[name] = max(totals.get(name, 0), value)
            else:
                totals[name] = totals.get(name, 0) + value
    for name in COUNT_METRICS:
        out[name] = totals.get(name, 0)
    searches = totals.get("ranking.searches", 0)
    out["ranking.useful_search_ratio"] = totals.get("ranking.ranked", 0) / searches if searches else 0.0
    return out
