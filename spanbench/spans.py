"""Span recorder for the traced benchmark run.

The tracer wraps public ``spanlab`` functions from the outside: every module
namespace of the package that binds a target function object gets a wrapper
in its place, so calls through intra-module globals (``hybrid.dist_from`` ->
``bfs_distances``) and re-imports (``sourcewise.path_suffix``) are seen too.
``Graph`` construction is timed by wrapping ``Graph.__init__``; the name
``Graph`` itself is never rebound, because ``Graph.__eq__`` checks
``isinstance(other, Graph)``.

Self time of a span is its duration minus the time covered by its child
spans.  Spans nest strictly (one thread, wrappers exit in ``finally``), so
the covered time is the sum of the children's durations.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Optional

# (module, attribute, span name).  Targets a later version of spanlab no
# longer has are skipped, not treated as errors.
TARGETS = [
    ("graphs", "bfs_distances", "graphs.bfs_distances"),
    ("graphs", "bfs", "graphs.bfs"),
    ("graphs", "trace_parent_path", "graphs.trace_path"),
    ("graphs", "trace_owner_path", "graphs.trace_path"),
    ("graphs", "weighted_sssp", "graphs.weighted_sssp"),
    ("graphs", "hop_distance_matrix", "graphs.hop_distance_matrix"),
    ("clustering", "cluster_sequence", "clustering.cluster_sequence"),
    ("clustering", "hub_clustering", "clustering.hub_clustering"),
    ("hybrid", "build_hybrid", "hybrid.build_hybrid"),
    ("hybrid", "path_suffix", "hybrid.path_suffix"),
    ("sourcewise", "build_sourcewise_mult", "sourcewise.build_sourcewise_mult"),
    ("additive", "classify_pairs", "additive.classify_pairs"),
    ("additive", "build_sourcewise_additive", "additive.build_sourcewise_additive"),
    ("additive", "build_subsetwise_plus2", "additive.build_subsetwise_plus2"),
    ("additive", "build_sourcewise_additive4", "additive.build_sourcewise_additive4"),
    ("additive", "build_sourcewise_emulator2", "additive.build_sourcewise_emulator2"),
    ("verify", "verify_spanner", "verify.verify_spanner"),
    ("verify", "verify_emulator", "verify.verify_emulator"),
]
GRAPH_INIT = "graphs.graph_init"

# Spans whose descendants are counted by name, for the useful-work ratios.
WATCHED = ("additive.build_sourcewise_additive", "additive.build_subsetwise_plus2")


class Tracer:
    """In-memory span recorder with online self-time aggregation.

    ``stats[name]`` holds ``[calls, self_s, total_s]``; ``counters`` holds
    named counts added by result hooks; ``under[(ancestor, name)]`` counts
    spans of ``name`` opened while a ``WATCHED`` ancestor was open.  When
    ``keep_spans`` is set, every finished span is also appended to ``spans``
    as ``(id, parent_id, name, start, end)``.
    """

    def __init__(self) -> None:
        self._stack: list[list] = []  # [id, name, start, child_time]
        self._open: Counter = Counter()
        self._next_id = 0
        self.keep_spans = False
        self.spans: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Forget all aggregates (spans already kept stay)."""
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self.under: Counter = Counter()

    def enter(self, name: str) -> None:
        for ancestor in WATCHED:
            if self._open[ancestor]:
                self.under[(ancestor, name)] += 1
        self._open[name] += 1
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child_time = self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration - child_time
        entry[2] += duration
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        if self.keep_spans:
            self.spans.append((span_id, parent_id, name, start, end))

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def self_time_sum(self) -> float:
        return sum(entry[1] for entry in self.stats.values())


# ---------------------------------------------------------------------------
# result hooks: counts recorded where the work happens
# ---------------------------------------------------------------------------


def _hop_rows(tracer, args, kwargs, result) -> None:
    tracer.counters["graphs.hop_distance_matrix.rows"] += int(result.shape[0])


def _verify_spanner_counts(tracer, args, kwargs, result) -> None:
    g = args[0]
    sources = args[2] if len(args) > 2 else kwargs.get("sources")
    spec = args[3] if len(args) > 3 else kwargs.get("spec")
    if sources is None or spec.scope == "all-pairs":
        rows = g.n
    else:
        rows = len(set(sources))
    tracer.counters["verify.verify_spanner.rows"] += rows
    tracer.counters["verify.verify_spanner.cells"] += rows * g.n
    # spanner pair classes partition the pairs checked
    tracer.counters["verify.verify_spanner.pairs"] += sum(
        c.pairs for c in result.classes.values()
    )


def _verify_emulator_counts(tracer, args, kwargs, result) -> None:
    # both sandwich classes range over the same connected pairs
    tracer.counters["verify.verify_emulator.pairs"] += max(
        (c.pairs for c in result.classes.values()), default=0
    )


def _swadd_meta(tracer, args, kwargs, result) -> None:
    tracer.counters["additive.swadd.long_pairs"] += int(result.meta.get("long_pairs", 0))


def _subsetwise_meta(tracer, args, kwargs, result) -> None:
    tracer.counters["additive.subsetwise.paths_bought"] += int(
        result.meta.get("paths_bought", 0)
    )


HOOKS: dict[str, Callable] = {
    "graphs.hop_distance_matrix": _hop_rows,
    "verify.verify_spanner": _verify_spanner_counts,
    "verify.verify_emulator": _verify_emulator_counts,
    "additive.build_sourcewise_additive": _swadd_meta,
    "additive.build_subsetwise_plus2": _subsetwise_meta,
}


def _wrap(tracer: Tracer, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    traced.__name__ = getattr(fn, "__name__", name)
    traced.__doc__ = getattr(fn, "__doc__", None)
    return traced


class Instrumented:
    """Context manager that installs the wrappers and restores every
    original binding on exit.  ``skipped`` lists targets not found."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.skipped: list[str] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Instrumented":
        modules = [
            mod
            for modname, mod in list(sys.modules.items())
            if mod is not None and (modname == "spanlab" or modname.startswith("spanlab."))
        ]
        for modname, attr, name in TARGETS:
            try:
                home = importlib.import_module(f"spanlab.{modname}")
            except ImportError:
                self.skipped.append(f"{modname}.{attr}")
                continue
            fn = getattr(home, attr, None)
            if not callable(fn):
                self.skipped.append(f"{modname}.{attr}")
                continue
            wrapper = _wrap(self.tracer, name, fn, HOOKS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)

        graphs = importlib.import_module("spanlab.graphs")
        graph_cls = getattr(graphs, "Graph", None)
        if graph_cls is None:
            self.skipped.append("graphs.Graph.__init__")
        else:
            init = graph_cls.__dict__["__init__"]
            self._restore.append((graph_cls, "__init__", init))
            graph_cls.__init__ = _wrap(self.tracer, GRAPH_INIT, init, None)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SELF_S = [
    "graphs.bfs_distances",
    "graphs.bfs",
    "graphs.trace_path",
    "graphs.graph_init",
    "graphs.weighted_sssp",
    "graphs.hop_distance_matrix",
    "clustering.cluster_sequence",
    "clustering.hub_clustering",
    "hybrid.build_hybrid",
    "sourcewise.build_sourcewise_mult",
    "additive.build_sourcewise_additive",
    "additive.classify_pairs",
    "additive.build_subsetwise_plus2",
    "additive.build_sourcewise_emulator2",
    "verify.verify_spanner",
    "verify.verify_emulator",
]
CALLS = [
    "graphs.bfs_distances",
    "graphs.bfs",
    "graphs.trace_path",
    "graphs.graph_init",
    "graphs.weighted_sssp",
    "graphs.hop_distance_matrix",
    "clustering.hub_clustering",
    "hybrid.path_suffix",
]
COUNTERS = [
    "graphs.hop_distance_matrix.rows",
    "verify.verify_spanner.pairs",
    "verify.verify_spanner.cells",
    "verify.verify_emulator.pairs",
    "additive.swadd.long_pairs",
    "additive.subsetwise.paths_bought",
]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the spans recorded since the last reset, as
    ``{name: (value, unit)}``.  Functions never called read zero."""
    out: dict[str, tuple[float, str]] = {}
    for name in CALLS:
        out[f"{name}.calls"] = (tracer.stats.get(name, [0])[0], "count")
    for name in SELF_S:
        out[f"{name}.self_s"] = (tracer.stats.get(name, [0, 0.0])[1], "s")
    for name in COUNTERS:
        out[name] = (tracer.counters[name], "count")

    tree_bfs = tracer.under[("additive.build_sourcewise_additive", "graphs.bfs")]
    long_pairs = tracer.counters["additive.swadd.long_pairs"]
    out["additive.swadd.tree_bfs"] = (tree_bfs, "count")
    out["additive.swadd.long_pairs_per_tree_bfs"] = (
        long_pairs / tree_bfs if tree_bfs else 0.0,
        "ratio",
    )
    rebuilds = tracer.under[("additive.build_subsetwise_plus2", GRAPH_INIT)]
    bought = tracer.counters["additive.subsetwise.paths_bought"]
    out["additive.subsetwise.rebuilds"] = (rebuilds, "count")
    out["additive.subsetwise.rebuilds_per_path"] = (
        rebuilds / bought if bought else 0.0,
        "ratio",
    )
    return out
