"""Impact analysis driver (paper §3).

Takes scenario instances over trace streams plus the component name(s) to
measure, constructs Wait Graphs and reports the three output metrics.
Analyses can be scoped to a subset of scenarios.  Corpus-wide runs go
through the map–reduce pipeline (:func:`repro.pipeline.parallel_impact`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import AnalysisError
from repro.impact.metrics import ImpactAccumulator, ImpactResult
from repro.trace.signatures import ComponentFilter
from repro.trace.stream import ScenarioInstance, TraceStream
from repro.waitgraph.builder import build_wait_graph


def collect_instances(
    streams: Iterable[TraceStream],
    scenarios: Optional[Sequence[str]] = None,
) -> List[ScenarioInstance]:
    """All scenario instances of a corpus, optionally filtered by name."""
    wanted = set(scenarios) if scenarios is not None else None
    instances: List[ScenarioInstance] = []
    for stream in streams:
        for instance in stream.instances:
            if wanted is None or instance.scenario in wanted:
                instances.append(instance)
    return instances


class ImpactAnalysis:
    """Measures performance impact of chosen components over instances.

    Parameters
    ----------
    component_patterns:
        Component name patterns, e.g. ``["*.sys"]`` for all device drivers.
    """

    def __init__(self, component_patterns: Sequence[str]):
        self.component_filter = ComponentFilter(component_patterns)

    def analyze_instances(
        self, instances: Iterable[ScenarioInstance]
    ) -> ImpactResult:
        """Run impact analysis over the given scenario instances."""
        accumulator = ImpactAccumulator(self.component_filter)
        count = 0
        for instance in instances:
            accumulator.add_graph(build_wait_graph(instance))
            count += 1
        if count == 0:
            raise AnalysisError("impact analysis needs at least one instance")
        return accumulator.result()

    def analyze_corpus(
        self,
        streams: Iterable[TraceStream],
        scenarios: Optional[Sequence[str]] = None,
    ) -> ImpactResult:
        """Run impact analysis over every instance in a corpus.

        A thin call into :func:`repro.pipeline.parallel_impact` over the
        in-memory streams, at one worker.
        """
        from repro.pipeline import parallel_impact

        return parallel_impact(
            list(streams),
            self.component_filter.patterns,
            scenarios=scenarios,
        )

    def analyze_per_scenario(
        self, streams: Iterable[TraceStream]
    ) -> Dict[str, ImpactResult]:
        """Per-scenario impact results over a corpus."""
        streams = list(streams)
        by_scenario: Dict[str, List[ScenarioInstance]] = {}
        for instance in collect_instances(streams):
            by_scenario.setdefault(instance.scenario, []).append(instance)
        return {
            name: self.analyze_instances(instances)
            for name, instances in sorted(by_scenario.items())
        }
