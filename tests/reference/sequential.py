"""A sequential reference for the corpus analyses, independent of the pipeline.

The library runs every corpus analysis through ``repro.pipeline``: chunked
map, partial AWGs, reduce.  The equivalence tests compare that path with
this one, which shares none of the chunking, partial or merge code.  It is
built only from the instance-level APIs: instances are collected and
grouped in corpus order, each analysis builds its own Wait Graphs, and
every scenario is classified, aggregated and mined in one pass.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.causality.analyzer import CausalityAnalysis
from repro.causality.mining import DEFAULT_SEGMENT_BOUND
from repro.causality.ranking import coverage_curve
from repro.evaluation.coverage import evaluate_coverage
from repro.evaluation.drivertypes import categorize_top_patterns
from repro.evaluation.study import (
    RANKING_FRACTIONS,
    ScenarioStudy,
    StudyResult,
    group_by_scenario,
)
from repro.impact.analyzer import ImpactAnalysis, collect_instances
from repro.impact.metrics import ImpactResult
from repro.sim.workloads.registry import scenario_spec
from repro.trace.stream import TraceStream


def reference_impact(
    streams: Iterable[TraceStream],
    component_patterns: Sequence[str] = ("*.sys",),
    scenarios: Optional[Sequence[str]] = None,
) -> ImpactResult:
    """Impact analysis (§3) over every instance of the corpus, in order."""
    return ImpactAnalysis(component_patterns).analyze_instances(
        collect_instances(streams, scenarios)
    )


def reference_study(
    streams: Sequence[TraceStream],
    scenarios: Optional[Sequence[str]] = None,
    component_patterns: Sequence[str] = ("*.sys",),
    segment_bound: int = DEFAULT_SEGMENT_BOUND,
    top_n: int = 10,
) -> StudyResult:
    """The full §5 evaluation, one scenario at a time.

    Impact over all instances, then for each scenario in
    ``group_by_scenario`` order: causality analysis, coverage, ranking
    coverage and the driver types of the top patterns.
    """
    streams = list(streams)
    causality = CausalityAnalysis(component_patterns, segment_bound)
    result = StudyResult(impact=reference_impact(streams, component_patterns))
    for name, instances in group_by_scenario(streams, scenarios).items():
        spec = scenario_spec(name)
        report = causality.analyze(
            instances, spec.t_fast, spec.t_slow, scenario=name
        )
        result.scenarios[name] = ScenarioStudy(
            report=report,
            coverage=evaluate_coverage(report, causality.component_filter),
            ranking_coverage=coverage_curve(report.patterns, RANKING_FRACTIONS),
            top_driver_types=categorize_top_patterns(report.patterns, top_n),
        )
    return result
