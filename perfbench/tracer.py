"""Per-layer spans and counters, recorded from outside the program.

The tracer wraps each layer's public functions and methods in place (the
module attribute, every ``repro`` module that imported it by name, or the
class attribute), so an in-process ``repro.cli.main`` call runs unchanged
code with a span around each layer call.  Spans are kept in memory as
``(name, start, end, parent)`` and written out once the benchmark ends;
nothing inside ``src/`` knows it is being traced.

Span names are the per-layer metric stems: ``waitgraph.build`` becomes
``waitgraph.build_s`` (the summed duration of its outermost spans).
"""

from __future__ import annotations

import importlib
import os
import pickle
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: (span name, module, attribute) for every timed layer call.  A dotted
#: attribute names a method on a class.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("trace.load", "repro.trace.serialization", "load_stream"),
    ("trace.hash", "repro.trace.serialization", "stream_content_hash"),
    ("waitgraph.build", "repro.waitgraph.builder", "build_wait_graph"),
    ("waitgraph.aggregate", "repro.waitgraph.aggregate",
     "AggregatedWaitGraph.add_graph"),
    ("waitgraph.merge", "repro.waitgraph.aggregate", "merge_awgs"),
    ("impact.add", "repro.impact.metrics", "ImpactAccumulator.add_graph"),
    ("impact.merge", "repro.impact.metrics", "ImpactAccumulator.merge"),
    ("causality.mine", "repro.causality.analyzer", "assemble_report"),
    ("evaluation.coverage", "repro.evaluation.coverage",
     "coverage_from_impact"),
    ("evaluation.coverage", "repro.evaluation.coverage", "evaluate_coverage"),
    ("evaluation.coverage", "repro.causality.ranking", "coverage_curve"),
    ("evaluation.coverage", "repro.evaluation.drivertypes",
     "categorize_top_patterns"),
    ("report.render", "repro.report.markdown", "save_study_markdown"),
    ("pipeline.map", "repro.pipeline.worker", "analyze_chunk"),
    ("store.load", "repro.store.artifacts", "ArtifactStore.load"),
    ("store.save", "repro.store.artifacts", "ArtifactStore.save"),
)

#: Window queries are counted, not timed: there are tens of thousands per
#: pass and a span each would dwarf the cheap columnar ones.
WINDOW_QUERIES: Tuple[Tuple[str, str], ...] = (
    ("repro.trace.stream", "TraceStream.events_of_thread"),
    ("repro.trace.binary", "ColumnarTraceStream.thread_event_indices"),
)

PRELOAD: Tuple[str, ...] = (
    "repro.cli", "repro.pipeline", "repro.report.markdown", "repro.store",
)

#: The span stems reported as ``<stem>_s``, in report order.
TIMED_LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in SPANS))

#: Work counted at the same boundaries, reported as counts.
COUNTERS: Tuple[str, ...] = (
    "trace.events", "trace.bytes_read", "trace.window_queries",
    "waitgraph.graphs", "waitgraph.awg_nodes", "causality.patterns",
    "pipeline.chunks", "pipeline.partial_bytes", "store.hits", "store.misses",
)


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        # Results whose size is measured after the pass, off the clock.
        self._partials: List[object] = []
        self._awgs: List[object] = []

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        # Modules the CLI imports lazily must be loaded before patching, or
        # their by-name imports would keep the unwrapped functions.
        for module_name in PRELOAD:
            importlib.import_module(module_name)
        for name, module_name, attribute in SPANS:
            self._patch(module_name, attribute, self._timed(name))
        for module_name, attribute in WINDOW_QUERIES:
            self._patch(module_name, attribute, self._counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _patch(self, module_name: str, attribute: str, wrap: Callable) -> None:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            self._undo.append((owner, method, original))
            setattr(owner, method, wrap(original))
            return
        original = getattr(module, attribute)
        wrapped = wrap(original)
        # Replace every by-name import of the function across the package.
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name != "repro" and not loaded_name.startswith("repro."):
                continue
            if getattr(loaded, attribute, None) is original:
                self._undo.append((loaded, attribute, original))
                setattr(loaded, attribute, wrapped)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str) -> Callable[[Callable], Callable]:
        def wrap(func: Callable) -> Callable:
            def traced(*args, **kwargs):
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append([name, time.perf_counter(), 0.0, parent])
                self._stack.append(index)
                try:
                    result = func(*args, **kwargs)
                finally:
                    self.spans[index][2] = time.perf_counter()
                    self._stack.pop()
                self._count(name, args, result)
                return result

            return traced

        return wrap

    def _counted(self, func: Callable) -> Callable:
        windowed = func.__name__ == "thread_event_indices"

        def counted(stream, tid, t0=None, t1=None):
            if windowed or t0 is not None or t1 is not None:
                self.counters["trace.window_queries"] += 1
            return func(stream, tid, t0, t1)

        return counted

    def _count(self, name: str, args: tuple, result: object) -> None:
        counters = self.counters
        if name == "trace.load":
            counters["trace.events"] += len(result)
            if isinstance(args[0], (str, os.PathLike)):
                counters["trace.bytes_read"] += os.path.getsize(args[0])
        elif name == "waitgraph.build":
            counters["waitgraph.graphs"] += 1
        elif name == "waitgraph.merge":
            self._awgs.append(result)
        elif name == "causality.mine":
            counters["causality.patterns"] += len(result.patterns)
        elif name == "pipeline.map":
            counters["pipeline.chunks"] += 1
            self._partials.append(result)
        elif name == "store.load":
            counters["store.hits" if result is not None else "store.misses"] += 1

    # -- results -------------------------------------------------------------

    def finish(self) -> None:
        """Measure result sizes deferred off the clock, then drop the results."""
        self.counters["pipeline.partial_bytes"] += sum(
            len(pickle.dumps(partial, protocol=pickle.HIGHEST_PROTOCOL))
            for partial in self._partials
        )
        self.counters["waitgraph.awg_nodes"] += sum(
            awg.node_count() for awg in self._awgs
        )
        self._partials.clear()
        self._awgs.clear()

    def layer_seconds(self) -> Dict[str, float]:
        """Per stem: summed duration of spans with no same-named ancestor."""
        totals = {name: 0.0 for name in TIMED_LAYERS}
        for name, start, end, parent in self.spans:
            if not self._has_ancestor(parent, name):
                totals[name] += end - start
        return totals

    def self_seconds(self) -> Dict[str, float]:
        """Per stem: span durations minus the time their child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {name: 0.0 for name in TIMED_LAYERS}
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return totals

    def _has_ancestor(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def records(self) -> List[dict]:
        """The spans as JSON-ready dicts, times relative to the first."""
        base = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": name, "start": start - base, "end": end - base,
             "parent": parent}
            for name, start, end, parent in self.spans
        ]
