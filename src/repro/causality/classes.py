"""Contrast-class classification (paper §4.2.1).

Scenario instances are split by their recorded execution time against the
vendor-specified thresholds ``T_fast`` (upper bound of normal
performance) and ``T_slow`` (lower bound of degradation): the fast class
holds expected behaviour, the slow class holds the problems to identify,
and the gap between the thresholds keeps the classes unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List

from repro.errors import AnalysisError
from repro.trace.stream import ScenarioInstance


@dataclass
class ContrastClasses:
    """The fast/slow split of one scenario's instances."""

    scenario: str
    t_fast: int
    t_slow: int
    fast: List[ScenarioInstance] = field(default_factory=list)
    slow: List[ScenarioInstance] = field(default_factory=list)
    between: List[ScenarioInstance] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.fast) + len(self.slow) + len(self.between)

    def summary(self) -> str:
        return (
            f"{self.scenario}: {self.total} instances -> "
            f"{len(self.fast)} fast (<{self.t_fast}us), "
            f"{len(self.slow)} slow (>{self.t_slow}us), "
            f"{len(self.between)} between"
        )


def contrast_class(duration: int, t_fast: int, t_slow: int) -> str:
    """The class of one execution time: ``"fast"``, ``"slow"`` or ``"between"``.

    Strictly below ``T_fast`` is fast and strictly above ``T_slow`` is
    slow; durations in the gap belong to neither class.  Every contrast
    split — :func:`classify_instances` and the pipeline's per-chunk
    partials — goes through this one rule.
    """
    if duration < t_fast:
        return "fast"
    if duration > t_slow:
        return "slow"
    return "between"


def classify_instances(
    instances: Iterable[ScenarioInstance],
    t_fast: int,
    t_slow: int,
    scenario: str = "",
) -> ContrastClasses:
    """Split instances into contrast classes by execution time.

    Instances between the thresholds belong to neither class — they are
    kept for accounting but excluded from mining, preserving the paper's
    ``T_slow - T_fast >> 0`` separation.
    """
    if not t_fast < t_slow:
        raise AnalysisError(
            f"T_fast ({t_fast}) must be strictly below T_slow ({t_slow})"
        )
    classes = ContrastClasses(scenario=scenario, t_fast=t_fast, t_slow=t_slow)
    for instance in instances:
        if scenario and instance.scenario != scenario:
            raise AnalysisError(
                f"instance of {instance.scenario!r} passed to the "
                f"{scenario!r} classifier"
            )
        side = contrast_class(instance.duration, t_fast, t_slow)
        getattr(classes, side).append(instance)
    return classes
