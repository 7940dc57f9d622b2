"""Execution-time coverage metrics (paper §5.2.1–5.2.2, Table 2).

For each scenario's slow class:

* **driver cost share** — distinct driver execution time (wait + run,
  each trace event counted once, as measured by impact analysis over the
  slow instances) over the class's total execution time (the "Driver
  Cost" column);
* **ITC** (impactful-time coverage) — summed ``P.C`` of the high-impact
  contrast patterns over the slow class's total represented driver time;
* **TTC** (total-time coverage) — summed ``P.C`` of all contrast patterns
  over the same total;
* **non-optimizable share** — driver cost removed by Algorithm 1's
  reduction (direct hardware service without propagation) over the same
  total (the paper's BrowserTabSwitch 66.6% observation).

The ITC/TTC denominator is the slow Aggregated Wait Graph's own
accounting — the summed cost of its leaf nodes plus the hardware cost the
reduction removed — so numerator and denominator count cost-propagation
multiplicity identically and the coverages are true fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.causality.analyzer import CausalityReport
from repro.impact.metrics import ImpactAccumulator, ImpactResult
from repro.trace.signatures import ComponentFilter
from repro.waitgraph.builder import build_wait_graph


@dataclass(frozen=True)
class CoverageResult:
    """Table 2 row (plus the non-optimizable share) for one scenario."""

    scenario: str
    slow_instances: int
    slow_total_time: int
    distinct_driver_time: int
    driver_time: int
    itc_time: int
    ttc_time: int
    reduced_hw_time: int
    pattern_count: int
    high_impact_count: int

    @property
    def driver_cost_share(self) -> float:
        """Distinct driver time over total slow-class execution time."""
        if not self.slow_total_time:
            return 0.0
        return self.distinct_driver_time / self.slow_total_time

    @property
    def itc(self) -> float:
        """Impactful-time coverage over the total driver time."""
        return self.itc_time / self.driver_time if self.driver_time else 0.0

    @property
    def ttc(self) -> float:
        """Total-time coverage over the total driver time."""
        return self.ttc_time / self.driver_time if self.driver_time else 0.0

    @property
    def non_optimizable_share(self) -> float:
        """Share of driver time pruned as direct hardware service."""
        return (
            self.reduced_hw_time / self.driver_time if self.driver_time else 0.0
        )


def evaluate_coverage(
    report: CausalityReport, component_filter: ComponentFilter
) -> CoverageResult:
    """Compute the Table 2 coverages for one scenario's causality report.

    Rebuilds the slow class's Wait Graphs, so ``report.classes`` must
    hold full scenario instances (a ``CausalityAnalysis.analyze``
    report, not a pipeline one).
    """
    accumulator = ImpactAccumulator(component_filter)
    for instance in report.classes.slow:
        accumulator.add_graph(build_wait_graph(instance))
    impact = accumulator.result() if accumulator.graphs else None
    return coverage_from_impact(report, impact)


def coverage_from_impact(
    report: CausalityReport, slow_impact: Optional[ImpactResult]
) -> CoverageResult:
    """Assemble the Table 2 coverages from pre-computed slow-class impact.

    ``slow_impact`` is the impact-analysis result over exactly the slow
    class's Wait Graphs (``None`` when the class is empty).  The parallel
    pipeline merges per-chunk accumulators and calls this directly, so a
    distributed run computes byte-identical coverages to
    :func:`evaluate_coverage` without re-building any graphs.
    """
    distinct_driver_time = (
        (slow_impact.d_waitdist + slow_impact.d_rundist) if slow_impact else 0
    )
    slow_total = slow_impact.d_scn if slow_impact else 0
    # The coverage denominator: everything the slow AWG represents —
    # leaf costs (what full-path patterns can cover) plus the direct
    # hardware cost Algorithm 1 reduced away.
    leaf_total = sum(leaf.cost for leaf in report.slow_awg.leaves())
    represented = leaf_total + report.slow_awg.reduced_hw_cost
    high_impact = report.high_impact_patterns()
    itc_time = sum(pattern.cost for pattern in high_impact)
    ttc_time = sum(pattern.cost for pattern in report.patterns)
    return CoverageResult(
        scenario=report.scenario,
        slow_instances=len(report.classes.slow),
        slow_total_time=slow_total,
        distinct_driver_time=distinct_driver_time,
        driver_time=represented,
        itc_time=itc_time,
        ttc_time=ttc_time,
        reduced_hw_time=report.slow_awg.reduced_hw_cost,
        pattern_count=report.pattern_count,
        high_impact_count=len(high_impact),
    )
