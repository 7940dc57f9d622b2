"""The map phase: per-chunk analysis executed inside worker processes.

A worker receives a :class:`ChunkTask` — a contiguous slice of corpus
sources plus the analysis configuration — and returns a
:class:`ChunkPartial` holding everything the reduce phase needs:

* a partial :class:`~repro.impact.metrics.ImpactAccumulator` over the
  chunk's scenario instances;
* per scenario, the contrast-class split (as lightweight
  :class:`InstanceRef` descriptors), partial *un-reduced* Aggregated
  Wait Graphs for the fast and slow classes, and a partial slow-class
  impact accumulator for coverage evaluation.

Each instance's Wait Graph is built at most once and shared by every
consumer: impact accumulation and the fast/slow AWGs.  A between-class
instance of a run without impact accumulation needs none.
Partials are plain picklable values; streams themselves never travel
back through the pool.

Sources are either paths (the worker deserializes its own chunk — the
streaming loader) or indices into an in-memory corpus registry inherited
across ``fork``.

When a task names an artifact store (``store_dir`` + fingerprint), the
worker analyzes path sources **one stream at a time** through a
read-through/write-back layer: before building any Wait Graph it asks
the store for the per-stream partial keyed by the trace's content hash
and the analysis fingerprint, and on a miss it computes the partial and
appends it to the store.  Per-source partials then fold — in source
order, via the same merge operations the reduce phase uses — into the
one :class:`ChunkPartial` the parent expects, so cached and computed
chunks are indistinguishable downstream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.causality.classes import contrast_class
from repro.errors import ConfigError, ResilienceError, TraceError
from repro.impact.metrics import ImpactAccumulator
from repro.resilience.health import TraceFailure, failure_from_exception
from repro.store import ArtifactStore
from repro.trace.serialization import load_stream, stream_content_hash
from repro.trace.signatures import ComponentFilter
from repro.trace.stream import ScenarioInstance, TraceStream
from repro.waitgraph.aggregate import AggregatedWaitGraph, merge_awgs
from repro.waitgraph.builder import build_wait_graph
from repro.waitgraph.graph import WaitGraph

#: A corpus source as carried inside a task: a trace-file path, or an
#: index into the fork-inherited in-memory corpus registry.
TaskSource = Union[str, int]

#: In-memory corpus registry.  The api layer installs the corpus here
#: *before* the pool forks, so worker processes inherit it by address
#: space instead of pickling whole streams through the pool.
_INHERITED_STREAMS: List[TraceStream] = []


def set_inherited_corpus(streams: Sequence[TraceStream]) -> List[TraceStream]:
    """Install the in-memory corpus workers will inherit; returns the old one."""
    global _INHERITED_STREAMS
    previous = _INHERITED_STREAMS
    _INHERITED_STREAMS = list(streams)
    return previous


def restore_inherited_corpus(streams: List[TraceStream]) -> None:
    """Put back a previously active in-memory corpus registry."""
    global _INHERITED_STREAMS
    _INHERITED_STREAMS = streams


def resolve_source(
    source: TaskSource, on_error: str = "strict"
) -> TraceStream:
    """Materialize one task source into a loaded trace stream.

    ``on_error`` is forwarded to the loaders for path sources; in-memory
    sources are already loaded, so no policy applies to them.
    """
    if isinstance(source, int):
        try:
            return _INHERITED_STREAMS[source]
        except IndexError:
            raise ConfigError(
                f"in-memory corpus index {source} is out of range; "
                "was the registry installed before forking?"
            ) from None
    return load_stream(os.fspath(source), on_error=on_error)


def source_label(source: TaskSource) -> str:
    """How one task source is named in failure records and error text."""
    if isinstance(source, int):
        return f"<memory:{source}>"
    return str(source)


@dataclass(frozen=True)
class InstanceRef:
    """A scenario instance detached from its (heavy) owning stream.

    Carries exactly the identity and duration the reduce phase needs for
    contrast-class accounting, with the same ``key``/``duration`` shape
    as :class:`~repro.trace.stream.ScenarioInstance`.
    """

    scenario: str
    stream_id: str
    tid: int
    t0: int
    t1: int

    @property
    def duration(self) -> int:
        return self.t1 - self.t0

    @property
    def key(self) -> Tuple[str, str, int, int, int]:
        return (self.stream_id, self.scenario, self.tid, self.t0, self.t1)

    @classmethod
    def of(cls, instance: ScenarioInstance) -> "InstanceRef":
        return cls(
            scenario=instance.scenario,
            stream_id=instance.stream.stream_id,
            tid=instance.tid,
            t0=instance.t0,
            t1=instance.t1,
        )


@dataclass
class ScenarioPartial:
    """One chunk's contribution to one scenario's causality analysis."""

    scenario: str
    t_fast: int
    t_slow: int
    fast_refs: List[InstanceRef] = field(default_factory=list)
    slow_refs: List[InstanceRef] = field(default_factory=list)
    between_refs: List[InstanceRef] = field(default_factory=list)
    fast_awg: Optional[AggregatedWaitGraph] = None
    slow_awg: Optional[AggregatedWaitGraph] = None
    slow_impact: Optional[ImpactAccumulator] = None

    def _ensure_parts(self, component_filter: ComponentFilter) -> None:
        if self.fast_awg is None:
            # Partial AWGs stay un-reduced: Algorithm 1's step 4 inspects
            # complete root structures, so reduction happens post-merge.
            self.fast_awg = AggregatedWaitGraph(component_filter)
            self.slow_awg = AggregatedWaitGraph(component_filter)
            self.slow_impact = ImpactAccumulator(component_filter)

    def add_instance(
        self,
        instance: ScenarioInstance,
        graph: Optional[WaitGraph],
        component_filter: ComponentFilter,
    ) -> None:
        """Classify one instance and fold its graph into the partials.

        ``graph`` is only read for the fast and slow classes; a
        between-class instance may pass ``None``.
        """
        self._ensure_parts(component_filter)
        ref = InstanceRef.of(instance)
        side = contrast_class(instance.duration, self.t_fast, self.t_slow)
        if side == "fast":
            self.fast_refs.append(ref)
            self.fast_awg.add_graph(graph)
        elif side == "slow":
            self.slow_refs.append(ref)
            self.slow_awg.add_graph(graph)
            self.slow_impact.add_graph(graph)
        else:
            self.between_refs.append(ref)


def merge_scenario_partials(
    parts: Sequence[ScenarioPartial],
) -> ScenarioPartial:
    """Fold per-source scenario partials, in order, into one.

    Reference lists concatenate, partial AWGs union (un-reduced — the
    hardware reduction still runs once, post-reduce) and the slow-class
    impact accumulators merge, all exactly as the reduce phase folds
    chunk partials, so the result is indistinguishable from a single
    pass over the concatenated sources.
    """
    first = parts[0]
    merged = ScenarioPartial(
        scenario=first.scenario, t_fast=first.t_fast, t_slow=first.t_slow
    )
    for part in parts:
        merged.fast_refs.extend(part.fast_refs)
        merged.slow_refs.extend(part.slow_refs)
        merged.between_refs.extend(part.between_refs)
    merged.fast_awg = merge_awgs([part.fast_awg for part in parts])
    merged.slow_awg = merge_awgs([part.slow_awg for part in parts])
    merged.slow_impact = ImpactAccumulator(merged.fast_awg.component_filter)
    for part in parts:
        merged.slow_impact.merge(part.slow_impact)
    return merged


@dataclass(frozen=True)
class ChunkTask:
    """Everything one worker needs to analyze one corpus chunk."""

    sources: Tuple[TaskSource, ...]
    component_patterns: Tuple[str, ...]
    #: scenario name -> (t_fast, t_slow); scenarios to classify and
    #: build partial AWGs for.
    thresholds: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: accumulate corpus-wide impact metrics?
    want_impact: bool = False
    #: restrict impact accumulation to these scenarios (None = all).
    impact_scenarios: Optional[Tuple[str, ...]] = None
    #: artifact-store directory for read-through/write-back caching of
    #: per-stream partials (None = no store).
    store_dir: Optional[str] = None
    #: pre-computed analysis fingerprint; set iff ``store_dir`` is.
    store_fingerprint: Optional[str] = None
    #: ingestion/error policy (``repro.resilience``): ``"strict"`` raises
    #: on the first damaged trace, ``"skip"`` drops damaged traces,
    #: ``"salvage"`` recovers their valid portion first.  Non-strict
    #: policies also confine per-trace *analysis* exceptions to the
    #: failing trace.
    on_error: str = "strict"


@dataclass
class ChunkPartial:
    """A worker's mergeable result for one chunk."""

    impact: Optional[ImpactAccumulator]
    scenarios: Dict[str, ScenarioPartial]
    #: every scenario name seen in the chunk, first-appearance order —
    #: lets the reduce phase order scenarios like ``group_by_scenario``
    #: and name the present scenarios when a requested one is missing.
    present: List[str]
    streams: int = 0
    instances: int = 0
    #: total tracing events across the chunk's streams — the numerator
    #: of the map-phase events/sec throughput report.
    events: int = 0
    #: artifact-store lookups resolved from / missing in the store while
    #: mapping this chunk (0/0 for storeless runs).
    store_hits: int = 0
    store_misses: int = 0
    #: trace-level incidents under a non-strict policy (skipped damaged
    #: traces, salvage records, executor quarantines) — folded into the
    #: run's :class:`~repro.resilience.RunHealth` by the api layer.
    failures: List[TraceFailure] = field(default_factory=list)


def merge_chunk_partials(
    partials: Sequence[ChunkPartial], task: ChunkTask
) -> ChunkPartial:
    """Fold per-source partials, in source order, into one chunk partial.

    Mirrors the parent's reduce fold so a chunk assembled from cached
    per-stream partials equals the same chunk analyzed in one pass:
    impact accumulators merge, ``present`` keeps first-appearance order,
    and each scenario's partials fold via :func:`merge_scenario_partials`.
    """
    component_filter = ComponentFilter(task.component_patterns)
    merged = ChunkPartial(
        impact=(
            ImpactAccumulator(component_filter) if task.want_impact else None
        ),
        scenarios={},
        present=[],
    )
    seen = set()
    per_scenario: Dict[str, List[ScenarioPartial]] = {}
    for partial in partials:
        if merged.impact is not None and partial.impact is not None:
            merged.impact.merge(partial.impact)
        merged.streams += partial.streams
        merged.instances += partial.instances
        merged.events += partial.events
        merged.store_hits += partial.store_hits
        merged.store_misses += partial.store_misses
        merged.failures.extend(partial.failures)
        for name in partial.present:
            if name not in seen:
                seen.add(name)
                merged.present.append(name)
        for name, scenario_partial in partial.scenarios.items():
            per_scenario.setdefault(name, []).append(scenario_partial)
    for name, parts in per_scenario.items():
        merged.scenarios[name] = merge_scenario_partials(parts)
    return merged


def _isolated_partial(task: ChunkTask, source: TaskSource) -> ChunkPartial:
    """Analyze one source with its failure confined to that source.

    The fault-isolation unit of a non-strict chunk: whatever the trace
    does — fails to parse, fails to salvage, raises from Wait Graph
    construction — the damage is one empty partial carrying a
    :class:`TraceFailure`, and the chunk's other traces are unaffected.
    """
    try:
        return _analyze_sources(task, (source,))
    except Exception as exc:
        stage = (
            "ingest"
            if isinstance(
                exc, (TraceError, ResilienceError, OSError, UnicodeDecodeError)
            )
            else "analysis"
        )
        partial = ChunkPartial(impact=None, scenarios={}, present=[])
        partial.failures.append(
            failure_from_exception(source_label(source), stage, "skipped", exc)
        )
        return partial


def analyze_chunk(task: ChunkTask) -> ChunkPartial:
    """Map one chunk of corpus sources to its partial analysis results.

    Storeless strict tasks analyze the whole chunk in one pass.  Under a
    non-strict policy every source is analyzed in isolation (so one
    damaged trace costs exactly that trace) and the per-source partials
    fold — the same merge the reduce phase uses, so the result is
    indistinguishable from the one-pass analysis of the surviving
    sources.

    Tasks carrying a store analyze path sources stream-by-stream through
    the store (read-through on the content hash + fingerprint key,
    write-back on miss) and fold the per-stream partials; in-memory
    sources have no bytes to address, so they are always computed.
    Partials touched by any failure or salvage are **never written
    back**: a salvaged or skipped rendering of a damaged file must not
    be served as a cache hit to a run under a different policy.
    """
    if task.store_dir is None:
        if task.on_error == "strict":
            return _analyze_sources(task, task.sources)
        per_source = [
            _isolated_partial(task, source) for source in task.sources
        ]
        return merge_chunk_partials(per_source, task)
    store = ArtifactStore(task.store_dir)
    per_source = []
    for source in task.sources:
        if isinstance(source, int):
            partial = (
                _analyze_sources(task, (source,))
                if task.on_error == "strict"
                else _isolated_partial(task, source)
            )
            per_source.append(partial)
            continue
        try:
            content_hash = stream_content_hash(source)
        except (TraceError, OSError, UnicodeDecodeError) as exc:
            if task.on_error == "strict":
                raise
            # Unaddressable bytes (e.g. an RTB header too damaged to
            # carry its hash) bypass the store entirely; salvage may
            # still recover the trace.
            per_source.append(_isolated_partial(task, source))
            continue
        cached = store.load(content_hash, task.store_fingerprint)
        if cached is None or not isinstance(cached, ChunkPartial):
            cached = (
                _analyze_sources(task, (source,))
                if task.on_error == "strict"
                else _isolated_partial(task, source)
            )
            if not cached.failures:
                store.save(content_hash, task.store_fingerprint, cached)
        per_source.append(cached)
    merged = merge_chunk_partials(per_source, task)
    merged.store_hits = store.hits
    merged.store_misses = store.misses
    return merged


def _analyze_sources(
    task: ChunkTask, sources: Sequence[TaskSource]
) -> ChunkPartial:
    """One-pass analysis of ``sources`` under ``task``'s configuration."""
    component_filter = ComponentFilter(task.component_patterns)
    impact = (
        ImpactAccumulator(component_filter) if task.want_impact else None
    )
    impact_wanted = (
        set(task.impact_scenarios)
        if task.impact_scenarios is not None
        else None
    )
    partial = ChunkPartial(impact=impact, scenarios={}, present=[])
    seen = set()
    for source in sources:
        stream = resolve_source(source, task.on_error)
        if getattr(stream, "salvaged", False):
            partial.failures.append(
                TraceFailure(
                    source=source_label(source),
                    stage="ingest",
                    action="salvaged",
                    error=(
                        f"recovered {len(stream.events)} events, "
                        f"{len(stream.instances)} instances (dropped "
                        f"{getattr(stream, 'salvage_dropped', 0)} damaged "
                        "records)"
                    ),
                    error_type="TraceSalvageError",
                )
            )
        partial.streams += 1
        partial.events += len(stream)
        graphs: Dict[tuple, WaitGraph] = {}
        for instance in stream.instances:
            partial.instances += 1
            name = instance.scenario
            if name not in seen:
                seen.add(name)
                partial.present.append(name)
            thresholds = task.thresholds.get(name)
            count_impact = impact is not None and (
                impact_wanted is None or name in impact_wanted
            )
            # A between-class instance feeds no AWG, so its graph is built
            # only when impact accumulation wants it.
            feeds_awg = thresholds is not None and (
                contrast_class(instance.duration, *thresholds) != "between"
            )
            graph = None
            if count_impact or feeds_awg:
                graph = graphs.get(instance.key)
                if graph is None:
                    graph = build_wait_graph(instance)
                    graphs[instance.key] = graph
            if count_impact:
                impact.add_graph(graph)
            if thresholds is not None:
                scenario_partial = partial.scenarios.get(name)
                if scenario_partial is None:
                    scenario_partial = ScenarioPartial(
                        scenario=name,
                        t_fast=thresholds[0],
                        t_slow=thresholds[1],
                    )
                    partial.scenarios[name] = scenario_partial
                scenario_partial.add_instance(
                    instance, graph, component_filter
                )
    return partial
