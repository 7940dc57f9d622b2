"""Schedule-exploration sweeps: policy × seed grids with coverage reports.

One *cell* of an exploration grid runs a single pathology (or any
registered scenario) under one scheduling policy with one policy seed,
across a spread of workload intensities.  Cells are completely
independent and derive every random decision from their grid
coordinates, so a sweep is reproducible decision-for-decision: the same
grid produces the byte-identical coverage report at any worker count
(:func:`~repro.pipeline.executor.process_map_resilient` returns results
in task order).

Coverage is measured in *distinct contention shapes*
(:func:`~repro.sim.explore.fingerprint.shape_fingerprint`), not runs:
the report shows, per scenario and policy, how many distinct wait-graph
shapes the policy reached and how many of them the deterministic FIFO
baseline never produces — the value added by exploring.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigError
from repro.pipeline.executor import process_map_resilient
from repro.report.tables import Table
from repro.sim.explore.fingerprint import shape_fingerprint
from repro.sim.machine import Machine, MachineConfig
from repro.sim.sched import POLICY_NAMES
from repro.sim.workloads.registry import (
    PATHOLOGY_SCENARIO_NAMES,
    WORKLOADS_BY_NAME,
    workload_class,
)
from repro.trace.events import EventKind
from repro.trace.stream import TraceStream
from repro.waitgraph.builder import build_wait_graph


def stable_seed(*parts) -> int:
    """Deterministic 30-bit seed from grid coordinates.

    Derived via SHA-256 of the joined coordinate string, so it is
    identical across processes and Python hash randomization — the
    property the whole sweep's reproducibility rests on.
    """
    key = "/".join(str(part) for part in parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % (1 << 30)


@dataclass(frozen=True)
class ExploreCell:
    """One grid cell: a scenario under one policy with one policy seed."""

    scenario: str
    policy: str
    seed: int
    intensities: Tuple[float, ...]
    repeats: int
    cores: int
    think_median_us: int


@dataclass(frozen=True)
class CellResult:
    """What one exploration cell observed."""

    scenario: str
    policy: str
    seed: int
    instances: int
    durations: Tuple[int, ...]
    fingerprints: Tuple[str, ...]  # distinct, sorted
    planted_wait_us: int
    total_wait_us: int


@dataclass(frozen=True)
class ExploreConfig:
    """An exploration grid: scenarios × policies × policy seeds.

    Every cell additionally sweeps ``intensities`` so each scenario
    contributes both calm and loaded executions; ``repeats`` scenario
    instances run per (cell, intensity).
    """

    scenarios: Tuple[str, ...] = tuple(PATHOLOGY_SCENARIO_NAMES)
    policies: Tuple[str, ...] = tuple(POLICY_NAMES)
    seeds: Tuple[int, ...] = (0, 1, 2)
    intensities: Tuple[float, ...] = (0.2, 0.5, 0.8)
    repeats: int = 4
    cores: int = 8
    think_median_us: int = 25_000

    def validate(self) -> None:
        """Raise :class:`ConfigError` on an unusable grid."""
        if not self.scenarios:
            raise ConfigError("exploration needs at least one scenario")
        for name in self.scenarios:
            if name not in WORKLOADS_BY_NAME:
                known = ", ".join(sorted(WORKLOADS_BY_NAME))
                raise ConfigError(
                    f"unknown scenario {name!r}; known: {known}"
                )
        if not self.policies:
            raise ConfigError("exploration needs at least one policy")
        for name in self.policies:
            if name not in POLICY_NAMES:
                known = ", ".join(POLICY_NAMES)
                raise ConfigError(
                    f"unknown scheduler policy {name!r}; known: {known}"
                )
        if not self.seeds:
            raise ConfigError("exploration needs at least one seed")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if not self.intensities:
            raise ConfigError("exploration needs at least one intensity")
        for intensity in self.intensities:
            if not 0.0 <= intensity <= 1.0:
                raise ConfigError(
                    f"intensity must be in [0, 1], got {intensity}"
                )
        if self.cores < 1:
            raise ConfigError("cores must be >= 1")

    def cells(self) -> List[ExploreCell]:
        """The grid in deterministic scenario-major order."""
        return [
            ExploreCell(
                scenario=scenario,
                policy=policy,
                seed=seed,
                intensities=self.intensities,
                repeats=self.repeats,
                cores=self.cores,
                think_median_us=self.think_median_us,
            )
            for scenario in self.scenarios
            for policy in self.policies
            for seed in self.seeds
        ]


def smoke_config() -> ExploreConfig:
    """The small CI grid: every pathology, three policies, one seed."""
    return ExploreConfig(
        policies=("fifo", "convoy", "shuffle"),
        seeds=(0,),
        intensities=(0.3, 0.8),
        repeats=3,
    )


def run_cell_streams(cell: ExploreCell) -> List[TraceStream]:
    """Run one cell's machines (one per intensity) and return the streams."""
    cls = workload_class(cell.scenario)
    streams = []
    for intensity in cell.intensities:
        machine_seed = stable_seed(
            "explore", cell.scenario, cell.policy, cell.seed, intensity
        )
        config = MachineConfig(
            seed=machine_seed,
            cores=cell.cores,
            scheduler=cell.policy,
            scheduler_seed=cell.seed,
        )
        machine = Machine(
            f"{cell.scenario}-{cell.policy}-s{cell.seed}-i{intensity}",
            config,
        )
        workload = cls(
            repeats=cell.repeats,
            intensity=intensity,
            think_median_us=cell.think_median_us,
        )
        workload.install(machine)
        streams.append(machine.run_and_trace())
    return streams


def run_cell(cell: ExploreCell) -> CellResult:
    """Execute one grid cell and summarize what it observed."""
    cls = workload_class(cell.scenario)
    planted = getattr(cls, "planted_signatures", frozenset())
    durations: List[int] = []
    fingerprints = set()
    planted_wait_us = 0
    total_wait_us = 0
    for stream in run_cell_streams(cell):
        for event in stream.events_of_kind(EventKind.WAIT):
            total_wait_us += event.cost
            if any(signature in event.stack for signature in planted):
                planted_wait_us += event.cost
        for instance in stream.instances:
            if instance.scenario != cell.scenario:
                continue
            durations.append(instance.duration)
            fingerprints.add(shape_fingerprint(build_wait_graph(instance)))
    return CellResult(
        scenario=cell.scenario,
        policy=cell.policy,
        seed=cell.seed,
        instances=len(durations),
        durations=tuple(durations),
        fingerprints=tuple(sorted(fingerprints)),
        planted_wait_us=planted_wait_us,
        total_wait_us=total_wait_us,
    )


@dataclass(frozen=True)
class CoverageReport:
    """What an exploration sweep found, cell by cell.

    Deterministic in content *and* rendering for a given grid — the
    acceptance property "identical grids produce byte-identical reports
    at any worker count" is asserted against :meth:`to_json`.
    """

    cells: Tuple[CellResult, ...]

    def shapes_by_scenario(self) -> Dict[str, Tuple[str, ...]]:
        """Distinct shape fingerprints per scenario, across all policies."""
        shapes: Dict[str, set] = {}
        for cell in self.cells:
            shapes.setdefault(cell.scenario, set()).update(cell.fingerprints)
        return {
            scenario: tuple(sorted(found))
            for scenario, found in sorted(shapes.items())
        }

    def novel_shapes(self) -> Dict[Tuple[str, str], Tuple[str, ...]]:
        """Per (scenario, policy): shapes the FIFO baseline never produced."""
        baseline: Dict[str, set] = {}
        for cell in self.cells:
            if cell.policy == "fifo":
                baseline.setdefault(cell.scenario, set()).update(
                    cell.fingerprints
                )
        novel: Dict[Tuple[str, str], set] = {}
        for cell in self.cells:
            if cell.policy == "fifo":
                continue
            key = (cell.scenario, cell.policy)
            fresh = set(cell.fingerprints) - baseline.get(cell.scenario, set())
            novel.setdefault(key, set()).update(fresh)
        return {
            key: tuple(sorted(found)) for key, found in sorted(novel.items())
        }

    @property
    def total_distinct_shapes(self) -> int:
        return len(
            {
                fingerprint
                for cell in self.cells
                for fingerprint in cell.fingerprints
            }
        )

    def render(self) -> str:
        """Human-readable coverage table."""
        table = Table(
            ["Scenario", "Policy", "Cells", "Inst", "Shapes", "Novel",
             "PlantedWait%"],
            title="Schedule exploration coverage",
        )
        novel = self.novel_shapes()
        grouped: Dict[Tuple[str, str], List[CellResult]] = {}
        for cell in self.cells:
            grouped.setdefault((cell.scenario, cell.policy), []).append(cell)
        for (scenario, policy), cells in sorted(grouped.items()):
            shapes = {f for cell in cells for f in cell.fingerprints}
            instances = sum(cell.instances for cell in cells)
            planted = sum(cell.planted_wait_us for cell in cells)
            total = sum(cell.total_wait_us for cell in cells)
            share = f"{100.0 * planted / total:.1f}" if total else "-"
            table.add_row(
                scenario,
                policy,
                len(cells),
                instances,
                len(shapes),
                len(novel.get((scenario, policy), ())),
                share,
            )
        lines = [table.render()]
        lines.append(
            f"total distinct contention shapes: {self.total_distinct_shapes}"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """Canonical JSON rendering (sorted keys, no whitespace drift)."""
        payload = {
            "cells": [asdict(cell) for cell in self.cells],
            "shapes_by_scenario": {
                scenario: list(shapes)
                for scenario, shapes in self.shapes_by_scenario().items()
            },
            "novel_shapes": {
                f"{scenario}/{policy}": list(shapes)
                for (scenario, policy), shapes in self.novel_shapes().items()
            },
            "total_distinct_shapes": self.total_distinct_shapes,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def explore_schedules(
    config: ExploreConfig = ExploreConfig(), workers: int = 1
) -> CoverageReport:
    """Sweep the policy × seed grid and report contention-shape coverage.

    Cells run in-process at one worker and otherwise in parallel on the
    pipeline's crash-isolating executor, which retries a cell whose
    worker died; results fold in task order, so the report is
    byte-identical at any worker count.
    """
    config.validate()
    cells = config.cells()
    if workers <= 1:
        results = [run_cell(cell) for cell in cells]
    else:
        results = process_map_resilient(run_cell, cells, workers)
    return CoverageReport(cells=tuple(results))
