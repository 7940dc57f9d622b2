"""Tests for corpus generation."""

import random

import pytest

from repro.errors import ConfigError
from repro.sim.corpus import (
    CorpusConfig,
    DEFAULT_SCENARIO_WEIGHTS,
    _pick_scenarios,
    draw_machine_config,
    generate_corpus,
    generate_stream,
)
from repro.trace.validate import validate_stream


class TestCorpusConfig:
    def test_defaults_valid(self):
        CorpusConfig().validate()

    def test_needs_streams(self):
        with pytest.raises(ConfigError):
            CorpusConfig(streams=0).validate()

    def test_unknown_scenarios_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            CorpusConfig(scenarios=("Nope",)).validate()

    def test_workloads_per_stream_must_fit(self):
        with pytest.raises(ConfigError):
            CorpusConfig(workloads_per_stream=(5, 99)).validate()

    def test_weights_cover_all_scenarios(self):
        assert set(DEFAULT_SCENARIO_WEIGHTS) == set(CorpusConfig().scenarios)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigError, match="unknown scheduler policy"):
            CorpusConfig(scheduler="nosuch").validate()

    def test_pathology_scenarios_accepted(self):
        CorpusConfig(
            scenarios=("LockConvoy", "WakeupStorm"),
            workloads_per_stream=(1, 2),
        ).validate()

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError, match="must be >= 0"):
            CorpusConfig(
                scenario_weights={"MenuDisplay": -1.0}
            ).validate()


class TestPickScenarios:
    def test_zero_weight_scenario_is_never_drawn(self):
        config = CorpusConfig(
            scenarios=("MenuDisplay", "AppAccessControl", "BrowserTabClose"),
            workloads_per_stream=(2, 3),
            scenario_weights={
                "MenuDisplay": 1.0,
                "AppAccessControl": 0.0,
                "BrowserTabClose": 1.0,
            },
        )
        rng = random.Random(17)
        for _ in range(30):
            chosen = _pick_scenarios(rng, config)
            assert "AppAccessControl" not in chosen

    def test_all_zero_weights_raise_instead_of_looping(self):
        config = CorpusConfig(
            scenarios=("MenuDisplay",),
            workloads_per_stream=(1, 1),
            scenario_weights={"MenuDisplay": 0.0},
        )
        with pytest.raises(ConfigError, match="positive weight"):
            _pick_scenarios(random.Random(1), config)

    def test_single_scenario_pool_yields_it_once(self):
        config = CorpusConfig(
            scenarios=("MenuDisplay",),
            workloads_per_stream=(1, 1),
        )
        # Sampling is without replacement: the pool exhausts after one
        # draw even when the requested count is larger.
        assert _pick_scenarios(random.Random(1), config) == ["MenuDisplay"]

    def test_sample_is_without_replacement(self):
        config = CorpusConfig(workloads_per_stream=(6, 8))
        rng = random.Random(23)
        for _ in range(20):
            chosen = _pick_scenarios(rng, config)
            assert len(chosen) == len(set(chosen))


class TestSchedulerPlumbing:
    def test_non_fifo_scheduler_changes_the_stream(self):
        base = CorpusConfig(streams=1, seed=7)
        shuffled = CorpusConfig(
            streams=1, seed=7, scheduler="shuffle", scheduler_seed=3
        )
        assert (
            generate_stream(0, base).events
            != generate_stream(0, shuffled).events
        )

    def test_scheduler_seed_is_deterministic(self):
        config = CorpusConfig(
            streams=1, seed=7, scheduler="random", scheduler_seed=5
        )
        assert (
            generate_stream(0, config).events
            == generate_stream(0, config).events
        )

    def test_policy_corpus_byte_identical_across_worker_counts(self):
        from repro.trace.serialization import dumps_stream

        config = CorpusConfig(
            streams=2, seed=44, scheduler="shuffle", scheduler_seed=9
        )
        baseline = [
            dumps_stream(stream)
            for stream in generate_corpus(config, workers=1)
        ]
        for workers in (2, 4):
            swept = [
                dumps_stream(stream)
                for stream in generate_corpus(config, workers=workers)
            ]
            assert swept == baseline


class TestMachineConfigDraw:
    def test_draw_is_valid(self):
        rng = random.Random(3)
        for _ in range(50):
            draw_machine_config(rng).validate()

    def test_draw_spans_disk_tiers(self):
        rng = random.Random(3)
        medians = {draw_machine_config(rng).disk_read_median_us for _ in range(60)}
        assert min(medians) < 1_500       # some SSDs
        assert max(medians) > 6_000       # some HDDs


class TestGeneration:
    def test_deterministic(self):
        config = CorpusConfig(streams=1, seed=99)
        first = generate_stream(0, config)
        second = generate_stream(0, config)
        assert first.events == second.events
        assert len(first.instances) == len(second.instances)

    def test_different_indexes_differ(self):
        config = CorpusConfig(streams=2, seed=99)
        assert generate_stream(0, config).events != generate_stream(1, config).events

    def test_streams_are_valid(self, small_corpus):
        for stream in small_corpus:
            validate_stream(stream)

    def test_streams_have_instances_and_threads(self, small_corpus):
        for stream in small_corpus:
            assert stream.instances
            assert len(stream.threads) > 5

    def test_corpus_size(self, small_corpus):
        assert len(small_corpus) == 4

    def test_scenarios_subset_respected(self):
        config = CorpusConfig(
            streams=1,
            seed=5,
            scenarios=("MenuDisplay", "AppAccessControl"),
            workloads_per_stream=(2, 2),
        )
        stream = generate_stream(0, config)
        names = {instance.scenario for instance in stream.instances}
        assert names <= {"MenuDisplay", "AppAccessControl"}


class TestParallelGeneration:
    def test_workers_match_sequential(self):
        config = CorpusConfig(streams=3, seed=321)
        sequential = generate_corpus(config, workers=1)
        parallel = generate_corpus(config, workers=3)
        assert len(parallel) == len(sequential)
        for left, right in zip(sequential, parallel):
            assert left.stream_id == right.stream_id
            assert left.events == right.events

    def test_falls_back_when_fork_unavailable(self, monkeypatch):
        """Spawn-only platforms must generate sequentially, not crash."""
        import multiprocessing

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        config = CorpusConfig(streams=2, seed=321)
        fallback = generate_corpus(config, workers=4)
        monkeypatch.undo()
        sequential = generate_corpus(config, workers=1)
        assert [s.events for s in fallback] == [s.events for s in sequential]
