"""The full evaluation study (paper §5) as a reusable driver.

``run_study`` executes, over a generated (or loaded) corpus, everything
the paper's evaluation section reports: per-scenario contrast classes
(Table 1), causality reports with ITC/TTC coverages (Table 2), ranking
coverages (Table 3), driver-type categorization of top patterns
(Table 4), and the corpus-wide impact metrics (§5.1).  It runs on the
map–reduce pipeline, like ``repro study``.  Benchmarks and examples
consume the resulting :class:`StudyResult`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.causality.analyzer import CausalityReport
from repro.causality.mining import DEFAULT_SEGMENT_BOUND
from repro.evaluation.coverage import CoverageResult
from repro.impact.analyzer import collect_instances
from repro.impact.metrics import ImpactResult
from repro.sim.workloads.registry import SCENARIO_NAMES
from repro.trace.stream import ScenarioInstance, TraceStream

RANKING_FRACTIONS = (0.1, 0.2, 0.3)


@dataclass
class ScenarioStudy:
    """Everything the evaluation produces for one scenario."""

    report: CausalityReport
    coverage: CoverageResult
    ranking_coverage: List[float]
    top_driver_types: Counter


@dataclass
class StudyResult:
    """The complete §5 evaluation over one corpus."""

    impact: ImpactResult
    scenarios: Dict[str, ScenarioStudy] = field(default_factory=dict)

    def table1_rows(self) -> List[tuple]:
        """(scenario, #instances, #fast, #slow) rows, Table 1 order."""
        rows = []
        for name, study in self.scenarios.items():
            classes = study.report.classes
            rows.append((name, classes.total, len(classes.fast), len(classes.slow)))
        return rows

    def table2_rows(self) -> List[tuple]:
        """(scenario, driver cost, ITC, TTC) rows, Table 2 order."""
        return [
            (
                name,
                study.coverage.driver_cost_share,
                study.coverage.itc,
                study.coverage.ttc,
            )
            for name, study in self.scenarios.items()
        ]

    def table3_rows(self) -> List[tuple]:
        """(scenario, #patterns, top-10%, top-20%, top-30%) rows."""
        return [
            (name, study.report.pattern_count, *study.ranking_coverage)
            for name, study in self.scenarios.items()
        ]

    def table4_rows(self) -> Dict[str, Counter]:
        """Scenario → driver-type counts among top-10 patterns."""
        return {
            name: study.top_driver_types
            for name, study in self.scenarios.items()
        }


def group_by_scenario(
    streams: Iterable[TraceStream],
    scenarios: Optional[Sequence[str]] = None,
) -> Dict[str, List[ScenarioInstance]]:
    """Group a corpus's instances per scenario, in registry order."""
    instances = collect_instances(streams, scenarios)
    grouped: Dict[str, List[ScenarioInstance]] = {}
    order = scenarios if scenarios is not None else SCENARIO_NAMES
    for name in order:
        grouped[name] = []
    for instance in instances:
        grouped.setdefault(instance.scenario, []).append(instance)
    return {name: found for name, found in grouped.items() if found}


def run_study(
    streams: Sequence[TraceStream],
    scenarios: Optional[Sequence[str]] = None,
    component_patterns: Sequence[str] = ("*.sys",),
    segment_bound: int = DEFAULT_SEGMENT_BOUND,
    top_n: int = 10,
    workers: int = 1,
    chunk_size: Optional[int] = None,
) -> StudyResult:
    """Run the full paper §5 evaluation over in-memory streams.

    A thin call into the map–reduce pipeline
    (:func:`repro.pipeline.parallel_study`), which builds each
    instance's Wait Graph once and shares it between impact analysis,
    classification and coverage.  The result is identical for any
    ``workers``/``chunk_size``; each scenario's ``report.classes`` holds
    :class:`~repro.pipeline.InstanceRef` descriptors, not full
    scenario instances.
    """
    from repro.pipeline import parallel_study

    return parallel_study(
        list(streams),
        scenarios=scenarios,
        component_patterns=component_patterns,
        segment_bound=segment_bound,
        top_n=top_n,
        workers=workers,
        chunk_size=chunk_size,
    )
