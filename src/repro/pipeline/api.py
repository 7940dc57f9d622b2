"""Map–reduce entry points: parallel impact, causality and study runs.

Each entry point accepts *corpus sources* — trace-file paths (workers
deserialize their own chunks; nothing heavy crosses the pool) and/or
already-loaded :class:`~repro.trace.stream.TraceStream` objects (shared
with forked workers by address-space inheritance).  Sources are split
into contiguous chunks, fanned out over a fork pool (map), and the
per-chunk partials are folded in chunk order (reduce):

* impact accumulators merge by summation and distinct-event dict union;
* partial AWGs merge via :func:`repro.waitgraph.aggregate.merge_awgs`,
  with Algorithm 1's non-optimizable reduction applied once, post-merge;
* contrast mining, ranking and coverage run on the merged structures.

Because chunks are contiguous and partials fold in order, the results —
down to trie node insertion order and rendered study tables — are
identical for any worker count and chunk size.  These entry points are
the only corpus-analysis path: the CLI commands, ``run_study`` and
``ImpactAnalysis.analyze_corpus`` all run through them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.causality.analyzer import CausalityReport, assemble_report
from repro.causality.classes import ContrastClasses
from repro.causality.mining import DEFAULT_SEGMENT_BOUND
from repro.causality.ranking import coverage_curve
from repro.errors import AnalysisError, WorkerCrashError
from repro.evaluation.coverage import coverage_from_impact
from repro.evaluation.drivertypes import categorize_top_patterns
from repro.evaluation.study import (
    RANKING_FRACTIONS,
    ScenarioStudy,
    StudyResult,
)
from repro.impact.metrics import ImpactAccumulator, ImpactResult
from repro.pipeline.chunking import chunk_sources, default_chunk_size
from repro.pipeline.executor import process_map_resilient
from repro.pipeline.worker import (
    ChunkPartial,
    ChunkTask,
    ScenarioPartial,
    analyze_chunk,
    merge_chunk_partials,
    restore_inherited_corpus,
    set_inherited_corpus,
    source_label,
)
from repro.resilience.health import (
    RunHealth,
    failure_from_exception,
    validate_max_retries,
    validate_on_error,
)
from repro.sim.workloads.registry import (
    SCENARIO_NAMES,
    SCENARIO_SPECS,
    scenario_spec,
)
from repro.store import ArtifactStore, analysis_fingerprint
from repro.trace.signatures import ComponentFilter
from repro.trace.stream import TraceStream
from repro.waitgraph.aggregate import merge_awgs

#: What callers hand us: trace-file paths or loaded streams.
CorpusSource = Union[str, os.PathLike, TraceStream]

#: How callers name an artifact store: a directory (created on demand)
#: or an already-open handle (whose session hit/miss counters the run
#: will update).
StoreInput = Union[str, os.PathLike, ArtifactStore]


def open_store(store: Optional[StoreInput]) -> Optional[ArtifactStore]:
    """Normalize a store argument into an open handle (or ``None``)."""
    if store is None or isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(store)


@dataclass
class MapPhaseStats:
    """Observability counters for one map phase (one ``_run_chunks``).

    Pass an instance via the ``stats=`` keyword of any parallel entry
    point and it is filled in place once the map phase completes — the
    analysis result itself is unaffected.  ``repro impact/causality/study
    --verbose`` render one through :meth:`summary` on stderr.
    """

    #: wall-clock seconds spent in the fan-out (chunking + pool + fold
    #: of the hit/miss counters; reduce time is excluded by design).
    wall_seconds: float = 0.0
    streams: int = 0
    events: int = 0
    chunks: int = 0
    workers: int = 0
    #: corpus sources by encoding: ``"rtb"``, ``"jsonl"`` (any
    #: non-RTB file path) and ``"memory"`` for in-process streams.
    formats: Dict[str, int] = field(default_factory=dict)
    store_hits: int = 0
    store_misses: int = 0

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events / self.wall_seconds

    def summary(self) -> str:
        """The one-line human-readable rendering of these counters."""
        fmt = "+".join(
            f"{count} {name}"
            for name, count in sorted(self.formats.items())
        ) or "none"
        line = (
            f"map phase: {self.events} events / {self.streams} streams "
            f"({fmt}) in {self.wall_seconds:.2f}s = "
            f"{self.events_per_second:,.0f} events/s "
            f"[workers={self.workers} chunks={self.chunks}]"
        )
        lookups = self.store_hits + self.store_misses
        if lookups:
            rate = 100.0 * self.store_hits / lookups
            line += (
                f" store: {self.store_hits}/{lookups} hits ({rate:.1f}%)"
            )
        return line


def _run_chunks(
    sources: Sequence[CorpusSource],
    component_patterns: Sequence[str],
    thresholds: Dict[str, Tuple[int, int]],
    want_impact: bool,
    impact_scenarios: Optional[Sequence[str]],
    workers: int,
    chunk_size: Optional[int],
    store: Optional[StoreInput] = None,
    stats: Optional[MapPhaseStats] = None,
    on_error: str = "strict",
    max_retries: int = 2,
    health: Optional[RunHealth] = None,
) -> List[ChunkPartial]:
    """Chunk the sources, fan out the map phase, return ordered partials.

    With a ``store``, each task carries the store directory plus the
    analysis fingerprint so workers run read-through/write-back per
    stream; the workers' hit/miss counts come back on the partials and
    are folded into the parent-side handle's session counters.  A
    ``stats`` object, when given, is filled with the map phase's
    throughput counters.

    ``on_error``, ``max_retries`` and ``health`` are the fault-isolation
    surface (``repro.resilience``): any non-strict policy — and any
    multi-worker run — executes through the crash-recovering executor,
    per-trace failures recorded inside the partials are folded into
    ``health``, and a trace that persistently kills workers is
    quarantined (non-strict) or aborts with
    :class:`~repro.errors.WorkerCrashError` (strict).  A strict run at
    one worker maps in-process: no fork, no pickling.
    """
    validate_on_error(on_error)
    validate_max_retries(max_retries)
    started = time.perf_counter()
    sources = list(sources)
    if not sources:
        raise AnalysisError("the pipeline needs at least one corpus source")
    store_handle = open_store(store)
    fingerprint = None
    if store_handle is not None:
        fingerprint = analysis_fingerprint(
            component_patterns, thresholds, want_impact, impact_scenarios
        )
    in_memory: List[TraceStream] = []
    task_sources: List = []
    for source in sources:
        if isinstance(source, TraceStream):
            task_sources.append(len(in_memory))
            in_memory.append(source)
        else:
            task_sources.append(os.fspath(source))
    if chunk_size is None:
        chunk_size = default_chunk_size(len(task_sources), workers)
    tasks = [
        ChunkTask(
            sources=tuple(chunk),
            component_patterns=tuple(component_patterns),
            thresholds=dict(thresholds),
            want_impact=want_impact,
            impact_scenarios=(
                tuple(impact_scenarios)
                if impact_scenarios is not None
                else None
            ),
            store_dir=(
                store_handle.directory if store_handle is not None else None
            ),
            store_fingerprint=fingerprint,
            on_error=on_error,
        )
        for chunk in chunk_sources(task_sources, chunk_size)
    ]

    def split_chunk(task: ChunkTask):
        if len(task.sources) < 2:
            return None
        mid = len(task.sources) // 2
        return (
            replace(task, sources=task.sources[:mid]),
            replace(task, sources=task.sources[mid:]),
        )

    def failed_chunk(task: ChunkTask, exc: BaseException) -> ChunkPartial:
        labels = ", ".join(source_label(s) for s in task.sources)
        if on_error == "strict":
            raise WorkerCrashError(
                f"worker kept dying while analyzing {labels}; retry, "
                "bisection and in-process fallback budgets are exhausted "
                "(rerun with --on-error skip to quarantine the trace)"
            ) from exc
        partial = ChunkPartial(impact=None, scenarios={}, present=[])
        for source in task.sources:
            partial.failures.append(
                failure_from_exception(
                    source_label(source),
                    "executor",
                    "quarantined",
                    exc,
                    note="persistently failing trace",
                )
            )
            if store_handle is not None and isinstance(source, str):
                store_handle.quarantine_trace(
                    source, f"{exc.__class__.__name__}: {exc}"
                )
        return partial

    previous = set_inherited_corpus(in_memory)
    try:
        if on_error == "strict" and workers <= 1:
            partials = [analyze_chunk(task) for task in tasks]
        else:
            partials = process_map_resilient(
                analyze_chunk,
                tasks,
                workers,
                split=split_chunk,
                merge=lambda parts: merge_chunk_partials(parts, tasks[0]),
                failed=failed_chunk,
                max_retries=max_retries,
                health=health,
            )
    finally:
        restore_inherited_corpus(previous)
    if health is not None:
        health.analyzed += sum(partial.streams for partial in partials)
        for partial in partials:
            for failure in partial.failures:
                health.record_failure(failure)
    if store_handle is not None:
        store_handle.record_session(
            hits=sum(partial.store_hits for partial in partials),
            misses=sum(partial.store_misses for partial in partials),
        )
    if stats is not None:
        stats.wall_seconds = time.perf_counter() - started
        stats.streams = sum(partial.streams for partial in partials)
        stats.events = sum(partial.events for partial in partials)
        stats.chunks = len(tasks)
        stats.workers = workers
        stats.store_hits = sum(p.store_hits for p in partials)
        stats.store_misses = sum(p.store_misses for p in partials)
        for source in sources:
            if isinstance(source, TraceStream):
                name = "memory"
            elif str(os.fspath(source)).endswith(".rtb"):
                name = "rtb"
            else:
                name = "jsonl"
            stats.formats[name] = stats.formats.get(name, 0) + 1
    return partials


def _merge_impact(
    partials: Sequence[ChunkPartial], component_patterns: Sequence[str]
) -> ImpactAccumulator:
    merged = ImpactAccumulator(ComponentFilter(component_patterns))
    for partial in partials:
        if partial.impact is not None:
            merged.merge(partial.impact)
    return merged


def _present_scenarios(partials: Sequence[ChunkPartial]) -> List[str]:
    """Scenario names present in the corpus, first-appearance order."""
    seen = set()
    present: List[str] = []
    for partial in partials:
        for name in partial.present:
            if name not in seen:
                seen.add(name)
                present.append(name)
    return present


def _reduce_scenario(
    name: str,
    t_fast: int,
    t_slow: int,
    partials: Sequence[ChunkPartial],
    segment_bound: int,
    reduce_hw: bool,
) -> Tuple[Optional[CausalityReport], Optional[ImpactResult]]:
    """Merge one scenario's chunk partials into its causality report.

    Returns ``(None, None)`` when the scenario has no instances, and the
    merged slow-class impact result alongside the report otherwise.
    """
    scenario_partials: List[ScenarioPartial] = [
        partial.scenarios[name]
        for partial in partials
        if name in partial.scenarios
    ]
    if not scenario_partials:
        return None, None
    classes = ContrastClasses(scenario=name, t_fast=t_fast, t_slow=t_slow)
    for partial in scenario_partials:
        classes.fast.extend(partial.fast_refs)
        classes.slow.extend(partial.slow_refs)
        classes.between.extend(partial.between_refs)
    fast_awg = merge_awgs(
        [partial.fast_awg for partial in scenario_partials],
        reduce_hw=reduce_hw,
    )
    slow_awg = merge_awgs(
        [partial.slow_awg for partial in scenario_partials],
        reduce_hw=reduce_hw,
    )
    slow_impact = ImpactAccumulator(fast_awg.component_filter)
    for partial in scenario_partials:
        slow_impact.merge(partial.slow_impact)
    report = assemble_report(
        scenario=name,
        t_fast=t_fast,
        t_slow=t_slow,
        classes=classes,
        fast_awg=fast_awg,
        slow_awg=slow_awg,
        segment_bound=segment_bound,
    )
    impact = slow_impact.result() if slow_impact.graphs else None
    return report, impact


def parallel_impact(
    sources: Sequence[CorpusSource],
    component_patterns: Sequence[str] = ("*.sys",),
    scenarios: Optional[Sequence[str]] = None,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    store: Optional[StoreInput] = None,
    stats: Optional[MapPhaseStats] = None,
    on_error: str = "strict",
    max_retries: int = 2,
    health: Optional[RunHealth] = None,
) -> ImpactResult:
    """Impact analysis (§3) over a corpus, fanned out across workers.

    The result is identical for any worker count, with or without an
    artifact ``store``.  Under a non-strict ``on_error`` policy it
    equals the strict analysis of the corpus's surviving traces;
    ``health`` collects what was skipped, salvaged and quarantined.
    """
    partials = _run_chunks(
        sources,
        component_patterns,
        thresholds={},
        want_impact=True,
        impact_scenarios=scenarios,
        workers=workers,
        chunk_size=chunk_size,
        store=store,
        stats=stats,
        on_error=on_error,
        max_retries=max_retries,
        health=health,
    )
    merged = _merge_impact(partials, component_patterns)
    if not merged.graphs:
        raise AnalysisError("impact analysis needs at least one instance")
    return merged.result()


def parallel_causality(
    sources: Sequence[CorpusSource],
    scenario: str,
    t_fast: int,
    t_slow: int,
    component_patterns: Sequence[str] = ("*.sys",),
    segment_bound: int = DEFAULT_SEGMENT_BOUND,
    reduce_hw: bool = True,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    store: Optional[StoreInput] = None,
    stats: Optional[MapPhaseStats] = None,
    on_error: str = "strict",
    max_retries: int = 2,
    health: Optional[RunHealth] = None,
) -> CausalityReport:
    """Causality analysis (§4) of one scenario, fanned out across workers.

    Equivalent to ``CausalityAnalysis(...).analyze(...)`` over the
    scenario's instances in corpus order, for any worker count, except
    that ``report.classes`` holds :class:`~repro.pipeline.InstanceRef`
    descriptors instead of full scenario instances.
    """
    if segment_bound < 1:
        raise AnalysisError("segment_bound must be >= 1")
    if not t_fast < t_slow:
        raise AnalysisError(
            f"T_fast ({t_fast}) must be strictly below T_slow ({t_slow})"
        )
    partials = _run_chunks(
        sources,
        component_patterns,
        thresholds={scenario: (t_fast, t_slow)},
        want_impact=False,
        impact_scenarios=None,
        workers=workers,
        chunk_size=chunk_size,
        store=store,
        stats=stats,
        on_error=on_error,
        max_retries=max_retries,
        health=health,
    )
    report, _ = _reduce_scenario(
        scenario, t_fast, t_slow, partials, segment_bound, reduce_hw
    )
    if report is None:
        present = ", ".join(sorted(_present_scenarios(partials)))
        raise AnalysisError(
            f"no instances of {scenario!r} in the corpus"
            + (f"; scenarios present: {present}" if present else "")
        )
    return report


def _study_thresholds(
    scenarios: Optional[Sequence[str]],
) -> Dict[str, Tuple[int, int]]:
    """The per-scenario threshold table a study run classifies against.

    Unknown requested scenarios are dropped here and fail at reduce time
    only when the corpus actually contains them.
    """
    if scenarios is not None:
        return {
            name: (SCENARIO_SPECS[name].t_fast, SCENARIO_SPECS[name].t_slow)
            for name in scenarios
            if name in SCENARIO_SPECS
        }
    return {
        name: (spec.t_fast, spec.t_slow)
        for name, spec in SCENARIO_SPECS.items()
    }


def prewarm_store(
    sources: Sequence[CorpusSource],
    store: StoreInput,
    component_patterns: Sequence[str] = ("*.sys",),
    scenarios: Optional[Sequence[str]] = None,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    stats: Optional[MapPhaseStats] = None,
    on_error: str = "strict",
    max_retries: int = 2,
    health: Optional[RunHealth] = None,
) -> ArtifactStore:
    """Populate a store with full-study partials without reducing them.

    Runs exactly the map phase :func:`parallel_study` would run — same
    thresholds, same fingerprint — so a subsequent ``repro study
    --store`` over the same corpus and configuration is all cache hits.
    Returns the store handle; its session counters say how many streams
    were already warm (``hits``) versus newly computed (``misses``).
    """
    handle = open_store(store)
    _run_chunks(
        sources,
        component_patterns,
        thresholds=_study_thresholds(scenarios),
        want_impact=True,
        impact_scenarios=None,
        workers=workers,
        chunk_size=chunk_size,
        store=handle,
        stats=stats,
        on_error=on_error,
        max_retries=max_retries,
        health=health,
    )
    return handle


def parallel_study(
    sources: Sequence[CorpusSource],
    scenarios: Optional[Sequence[str]] = None,
    component_patterns: Sequence[str] = ("*.sys",),
    segment_bound: int = DEFAULT_SEGMENT_BOUND,
    top_n: int = 10,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    store: Optional[StoreInput] = None,
    stats: Optional[MapPhaseStats] = None,
    on_error: str = "strict",
    max_retries: int = 2,
    health: Optional[RunHealth] = None,
) -> StudyResult:
    """The full §5 evaluation over a corpus, fanned out across workers.

    Same tables, same pattern rankings, same coverages for any worker
    count and chunk size.  The map phase builds each instance's Wait
    Graph exactly once and ships back only mergeable partials.
    Under ``on_error="skip"``/``"salvage"`` the tables are byte-identical
    to a strict study of the corpus's surviving traces (the fuzz
    property the resilience tests pin down); ``health`` collects every
    skip, salvage, retry and quarantine.
    """
    thresholds = _study_thresholds(scenarios)
    partials = _run_chunks(
        sources,
        component_patterns,
        thresholds=thresholds,
        want_impact=True,
        impact_scenarios=None,
        workers=workers,
        chunk_size=chunk_size,
        store=store,
        stats=stats,
        on_error=on_error,
        max_retries=max_retries,
        health=health,
    )
    merged_impact = _merge_impact(partials, component_patterns)
    if not merged_impact.graphs:
        raise AnalysisError("impact analysis needs at least one instance")
    result = StudyResult(impact=merged_impact.result())

    # Scenario order matches group_by_scenario: requested order when
    # given, otherwise Table 1 registry order followed by any other
    # scenarios in corpus appearance order.
    present = _present_scenarios(partials)
    if scenarios is not None:
        ordered = [name for name in scenarios if name in present]
    else:
        ordered = [name for name in SCENARIO_NAMES if name in present]
        ordered += [name for name in present if name not in SCENARIO_NAMES]

    for name in ordered:
        spec = scenario_spec(name)
        report, slow_impact = _reduce_scenario(
            name,
            spec.t_fast,
            spec.t_slow,
            partials,
            segment_bound,
            reduce_hw=True,
        )
        if report is None:
            continue
        coverage = coverage_from_impact(report, slow_impact)
        result.scenarios[name] = ScenarioStudy(
            report=report,
            coverage=coverage,
            ranking_coverage=coverage_curve(
                report.patterns, RANKING_FRACTIONS
            ),
            top_driver_types=categorize_top_patterns(report.patterns, top_n),
        )
    return result
