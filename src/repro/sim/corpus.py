"""Corpus generation: many machines, many traces, overlapping scenarios.

This replaces the paper's proprietary data set (≈19,500 ETW trace streams
from real deployment sites) with a synthetic, seeded corpus.  Each stream
comes from one :class:`~repro.sim.machine.Machine` whose configuration is
drawn from distributions spanning deployment diversity (disk speed,
encryption, disk protection, lock granularity, fault rate), running a
weighted mix of the eight evaluation scenarios concurrently with standard
background interference.  Concurrency plus shared locks/devices produce
the cost-propagation structure the analyses measure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.sim.machine import Machine, MachineConfig
from repro.sim.sched import POLICY_NAMES
from repro.sim.workloads.background import install_standard_background
from repro.sim.workloads.base import Workload
from repro.sim.workloads.registry import (
    EXTRA_SCENARIO_NAMES,
    PATHOLOGY_SCENARIO_NAMES,
    SCENARIO_NAMES,
    workload_class,
)
from repro.trace.stream import TraceStream
from repro.units import MILLISECONDS, SECONDS

#: Relative frequency of each scenario across the corpus, shaped after the
#: instance counts of the paper's Table 1 (WebPageNavigation dominates).
DEFAULT_SCENARIO_WEIGHTS: Dict[str, float] = {
    "AppAccessControl": 1.0,
    "AppNonResponsive": 0.5,
    "BrowserFrameCreate": 0.9,
    "BrowserTabClose": 0.7,
    "BrowserTabCreate": 1.6,
    "BrowserTabSwitch": 1.4,
    "MenuDisplay": 0.5,
    "WebPageNavigation": 4.2,
}


@dataclass(frozen=True)
class CorpusConfig:
    """Knobs for corpus generation.

    ``streams`` scales the corpus; tests use a handful, benches use tens
    to hundreds.  Everything is derived deterministically from ``seed``.
    """

    streams: int = 40
    seed: int = 20140301
    scenarios: Tuple[str, ...] = tuple(SCENARIO_NAMES)
    workloads_per_stream: Tuple[int, int] = (6, 8)
    repeats_range: Tuple[int, int] = (8, 14)
    think_median_us: int = 150 * MILLISECONDS
    scenario_weights: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_SCENARIO_WEIGHTS)
    )
    #: Scheduling policy every stream's machine runs under (see
    #: :data:`repro.sim.sched.POLICY_NAMES`); ``scheduler_seed`` seeds
    #: the policy RNG, defaulting to the per-stream machine seed.
    scheduler: str = "fifo"
    scheduler_seed: Optional[int] = None

    def validate(self) -> None:
        if self.streams < 1:
            raise ConfigError("corpus needs at least one stream")
        known = (
            set(SCENARIO_NAMES)
            | set(EXTRA_SCENARIO_NAMES)
            | set(PATHOLOGY_SCENARIO_NAMES)
        )
        unknown = set(self.scenarios) - known
        if unknown:
            raise ConfigError(f"unknown scenarios: {sorted(unknown)}")
        low, high = self.workloads_per_stream
        if not 1 <= low <= high <= len(self.scenarios):
            raise ConfigError(
                "workloads_per_stream range must fit in the scenario list"
            )
        if self.scheduler not in POLICY_NAMES:
            known_policies = ", ".join(POLICY_NAMES)
            raise ConfigError(
                f"unknown scheduler policy {self.scheduler!r}; "
                f"known: {known_policies}"
            )
        for name, weight in self.scenario_weights.items():
            if weight < 0:
                raise ConfigError(
                    f"scenario weight for {name!r} must be >= 0, got {weight}"
                )


def draw_machine_config(rng: random.Random) -> MachineConfig:
    """Draw one deployment-site machine configuration."""
    disk_tier = rng.choices(
        ["ssd", "mid", "hdd"], weights=[0.30, 0.45, 0.25]
    )[0]
    disk_read_median_us = {
        "ssd": rng.randint(500, 1_200),
        "mid": rng.randint(2_000, 5_000),
        "hdd": rng.randint(7_000, 14_000),
    }[disk_tier]
    return MachineConfig(
        seed=rng.randrange(1 << 30),
        cores=rng.choice([4, 4, 8, 8, 8, 16]),
        encryption_enabled=rng.random() < 0.70,
        disk_protection_enabled=rng.random() < 0.25,
        io_cache_enabled=rng.random() < 0.80,
        disk_read_median_us=disk_read_median_us,
        network_latency_median_us=rng.randint(5_000, 20_000),
        network_congestion_rate=rng.uniform(0.10, 0.35),
        gpu_render_median_us=rng.randint(2_500, 6_000),
        decrypt_median_us=rng.randint(200, 700),
        mdu_lock_count=rng.randint(2, 4),
        file_table_lock_count=rng.randint(1, 3),
        av_scan_median_us=rng.randint(400, 1_000),
        av_database_miss_rate=rng.uniform(0.15, 0.35),
        hard_fault_rate=rng.uniform(0.05, 0.20),
    )


def _pick_scenarios(
    rng: random.Random, config: CorpusConfig
) -> List[str]:
    """Weighted sample (without replacement) of scenarios for one stream.

    Zero-weight scenarios are excluded up front — they are never drawn
    and must not zero the remaining total mid-sample (``rng.choices``
    raises on an all-zero weight vector).  A single-scenario pool yields
    that scenario regardless of the requested count.
    """
    low, high = config.workloads_per_stream
    count = rng.randint(low, high)
    pool = [
        name
        for name in config.scenarios
        if config.scenario_weights.get(name, 1.0) > 0
    ]
    if not pool:
        raise ConfigError(
            "no scenario has positive weight; nothing to sample"
        )
    weights = [config.scenario_weights.get(name, 1.0) for name in pool]
    chosen: List[str] = []
    for _ in range(count):
        name = rng.choices(pool, weights=weights)[0]
        index = pool.index(name)
        pool.pop(index)
        weights.pop(index)
        chosen.append(name)
        if not pool:
            break
    return chosen


def build_workloads(
    rng: random.Random,
    scenario_names: Sequence[str],
    config: CorpusConfig,
    horizon_us: int,
    intensity: float,
) -> List[Workload]:
    """Instantiate workload objects for one stream."""
    workloads: List[Workload] = []
    low, high = config.repeats_range
    for name in scenario_names:
        cls = workload_class(name)
        repeats = rng.randint(low, high)
        if name == "WebPageNavigation":
            repeats = round(repeats * 1.5)
        kwargs = dict(
            repeats=repeats,
            think_median_us=config.think_median_us,
            start_offset_us=rng.randint(0, 800 * MILLISECONDS),
            intensity=intensity,
        )
        if hasattr(cls, "worker_count"):  # browser workloads take a horizon
            workloads.append(cls(horizon_us=horizon_us, **kwargs))
        else:
            workloads.append(cls(**kwargs))
    return workloads


def generate_stream(index: int, config: CorpusConfig) -> TraceStream:
    """Generate the trace stream of one simulated machine."""
    rng = random.Random(f"{config.seed}/{index}")
    machine_config = draw_machine_config(rng)
    if config.scheduler != "fifo" or config.scheduler_seed is not None:
        machine_config = replace(
            machine_config,
            scheduler=config.scheduler,
            scheduler_seed=config.scheduler_seed,
        )
    machine = Machine(f"stream{index:05d}", machine_config)

    scenario_names = _pick_scenarios(rng, config)
    intensity = rng.uniform(0.15, 0.95)
    # Horizon: enough for the longest workload to finish its repeats.
    _, high_repeats = config.repeats_range
    horizon_us = round(
        high_repeats * 1.5 * (config.think_median_us + 200 * MILLISECONDS)
    ) + 2 * SECONDS
    workloads = build_workloads(
        rng, scenario_names, config, horizon_us, intensity
    )
    for workload in workloads:
        workload.install(machine)
    install_standard_background(
        machine, horizon_us, av_aggressiveness=intensity
    )
    return machine.run_and_trace(until=horizon_us + 3 * SECONDS)


def generate_corpus(
    config: CorpusConfig = CorpusConfig(), workers: int = 1
) -> List[TraceStream]:
    """Generate the full corpus described by ``config``.

    ``workers > 1`` generates streams in parallel processes on the
    pipeline's crash-isolating executor; streams are independent and
    seeded per index, so the result is identical to a serial run.  When
    the ``fork`` start method is unavailable the generation silently
    runs in-process (same output, one process).
    """
    # Deferred: repro.pipeline imports this package's scenario registry.
    from repro.pipeline.executor import process_map_resilient

    config.validate()
    if workers <= 1:
        return [
            generate_stream(index, config) for index in range(config.streams)
        ]
    return process_map_resilient(
        partial(generate_stream, config=config),
        range(config.streams),
        workers,
    )
