"""End-to-end causality analysis (paper §4).

Given the instances of one scenario, its performance thresholds and the
chosen component names, :class:`CausalityAnalysis` runs the full
pipeline — contrast classification, Wait Graph construction, Aggregated
Wait Graph construction (Algorithm 1), meta-pattern enumeration, contrast
discovery and contrast-pattern extraction — and packages everything a
performance analyst needs into a :class:`CausalityReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.causality.classes import ContrastClasses, classify_instances
from repro.causality.mining import (
    ContrastCriteria,
    ContrastPattern,
    DEFAULT_SEGMENT_BOUND,
    MetaPatterns,
    discover_contrast_meta_patterns,
    enumerate_meta_patterns,
    extract_contrast_patterns,
)
from repro.causality.ranking import rank_patterns
from repro.causality.sst import SignatureSetTuple
from repro.errors import AnalysisError
from repro.trace.signatures import ComponentFilter
from repro.trace.stream import ScenarioInstance
from repro.waitgraph.aggregate import AggregatedWaitGraph, aggregate_wait_graphs
from repro.waitgraph.builder import build_wait_graph


@dataclass
class CausalityReport:
    """Everything causality analysis produces for one scenario."""

    scenario: str
    t_fast: int
    t_slow: int
    classes: ContrastClasses
    slow_awg: AggregatedWaitGraph
    fast_awg: AggregatedWaitGraph
    slow_meta_patterns: MetaPatterns
    fast_meta_patterns: MetaPatterns
    contrast_metas: Dict[SignatureSetTuple, ContrastCriteria]
    patterns: List[ContrastPattern]  # ranked, highest impact first

    @property
    def pattern_count(self) -> int:
        return len(self.patterns)

    def high_impact_patterns(self) -> List[ContrastPattern]:
        """Patterns passing the §5.2.1 automated high-impact rule."""
        return [p for p in self.patterns if p.is_high_impact(self.t_slow)]

    def top(self, count: int) -> List[ContrastPattern]:
        """The top-``count`` patterns by impact."""
        return self.patterns[:count]

    def summary(self) -> str:
        high = len(self.high_impact_patterns())
        return (
            f"{self.scenario}: {self.classes.summary()}; "
            f"{self.pattern_count} contrast patterns "
            f"({high} high-impact), "
            f"{len(self.contrast_metas)} contrast meta-patterns, "
            f"slow AWG nodes={self.slow_awg.node_count()}, "
            f"reduced hw cost={self.slow_awg.reduced_hw_cost}"
        )


class CausalityAnalysis:
    """Configurable causality-analysis pipeline.

    Parameters
    ----------
    component_patterns:
        Chosen component names (``["*.sys"]`` for all device drivers).
    segment_bound:
        Maximum path-segment length ``k`` for meta-pattern enumeration
        (the paper uses 5 throughout its evaluation).
    reduce_hw:
        Whether Algorithm 1's non-optimizable reduction runs (ablation
        hook; the paper always reduces).
    """

    def __init__(
        self,
        component_patterns: Sequence[str],
        segment_bound: int = DEFAULT_SEGMENT_BOUND,
        reduce_hw: bool = True,
    ):
        if segment_bound < 1:
            raise AnalysisError("segment_bound must be >= 1")
        self.component_filter = ComponentFilter(component_patterns)
        self.segment_bound = segment_bound
        self.reduce_hw = reduce_hw

    def analyze(
        self,
        instances: Iterable[ScenarioInstance],
        t_fast: int,
        t_slow: int,
        scenario: str = "",
    ) -> CausalityReport:
        """Run the full pipeline over one scenario's instances."""
        instances = list(instances)
        if not instances:
            raise AnalysisError("causality analysis needs instances")
        name = scenario or instances[0].scenario
        classes = classify_instances(instances, t_fast, t_slow, scenario=name)

        fast_awg = aggregate_wait_graphs(
            [build_wait_graph(instance) for instance in classes.fast],
            self.component_filter,
            reduce_hw=self.reduce_hw,
        )
        slow_awg = aggregate_wait_graphs(
            [build_wait_graph(instance) for instance in classes.slow],
            self.component_filter,
            reduce_hw=self.reduce_hw,
        )

        return assemble_report(
            scenario=name,
            t_fast=t_fast,
            t_slow=t_slow,
            classes=classes,
            fast_awg=fast_awg,
            slow_awg=slow_awg,
            segment_bound=self.segment_bound,
        )


def assemble_report(
    scenario: str,
    t_fast: int,
    t_slow: int,
    classes: ContrastClasses,
    fast_awg: AggregatedWaitGraph,
    slow_awg: AggregatedWaitGraph,
    segment_bound: int = DEFAULT_SEGMENT_BOUND,
) -> CausalityReport:
    """Mine contrast patterns from built AWGs and package the report.

    The back half of the causality pipeline — meta-pattern enumeration,
    contrast discovery, contrast-pattern extraction, ranking — separated
    from graph construction so the map–reduce pipeline can run it over
    AWGs merged from per-chunk partials.  The output is a pure function
    of the AWGs and thresholds, which is what makes chunked and
    single-pass aggregation produce identical reports.
    """
    slow_metas = enumerate_meta_patterns(slow_awg, segment_bound)
    fast_metas = enumerate_meta_patterns(fast_awg, segment_bound)
    contrast_metas = discover_contrast_meta_patterns(
        slow_metas, fast_metas, t_fast=t_fast, t_slow=t_slow
    )
    patterns = rank_patterns(
        extract_contrast_patterns(slow_awg, contrast_metas)
    )
    return CausalityReport(
        scenario=scenario,
        t_fast=t_fast,
        t_slow=t_slow,
        classes=classes,
        slow_awg=slow_awg,
        fast_awg=fast_awg,
        slow_meta_patterns=slow_metas,
        fast_meta_patterns=fast_metas,
        contrast_metas=contrast_metas,
        patterns=patterns,
    )
