"""Tests for the schedule-exploration sweep and its coverage report."""

import json
import os

import pytest

import repro.sim.explore.runner as explore_runner
from repro.errors import ConfigError
from repro.sim.explore.runner import (
    CellResult,
    CoverageReport,
    ExploreCell,
    ExploreConfig,
    explore_schedules,
    run_cell,
    smoke_config,
    stable_seed,
)

TINY = ExploreConfig(
    scenarios=("LockConvoy",),
    policies=("fifo", "shuffle"),
    seeds=(0, 1),
    intensities=(0.4,),
    repeats=2,
    think_median_us=20_000,
)

MAIN_PID = os.getpid()


def _kill_once_cell(cell):
    """Kill the worker running the grid's second cell, the first time only.

    Module-level so fork children resolve it by reference; the PID guard
    keeps the crash out of the pytest process itself.
    """
    flag = os.environ["REPRO_TEST_KILL_FLAG"]
    if cell == TINY.cells()[1] and os.getpid() != MAIN_PID:
        if not os.path.exists(flag):
            with open(flag, "w", encoding="utf-8") as handle:
                handle.write("crashed once")
            os._exit(1)
    return run_cell(cell)


class TestConfig:
    def test_grid_is_scenario_major_and_complete(self):
        cells = TINY.cells()
        assert len(cells) == 4  # 1 scenario x 2 policies x 2 seeds
        assert [(c.policy, c.seed) for c in cells] == [
            ("fifo", 0), ("fifo", 1), ("shuffle", 0), ("shuffle", 1),
        ]

    def test_unknown_scenario_rejected(self):
        config = ExploreConfig(scenarios=("NoSuchScenario",))
        with pytest.raises(ConfigError, match="unknown scenario"):
            config.validate()

    def test_unknown_policy_rejected(self):
        config = ExploreConfig(policies=("nosuch",))
        with pytest.raises(ConfigError, match="unknown scheduler policy"):
            config.validate()

    def test_empty_grid_dimensions_rejected(self):
        for broken in (
            ExploreConfig(scenarios=()),
            ExploreConfig(policies=()),
            ExploreConfig(seeds=()),
            ExploreConfig(intensities=()),
            ExploreConfig(repeats=0),
        ):
            with pytest.raises(ConfigError):
                broken.validate()

    def test_default_and_smoke_configs_validate(self):
        ExploreConfig().validate()
        smoke_config().validate()

    def test_stable_seed_is_pure(self):
        assert stable_seed("explore", "LockConvoy", "fifo", 0, 0.5) == (
            stable_seed("explore", "LockConvoy", "fifo", 0, 0.5)
        )
        assert stable_seed("a") != stable_seed("b")
        assert 0 <= stable_seed("anything") < (1 << 30)


class TestRunCell:
    def test_cell_result_summarizes_instances(self):
        cell = TINY.cells()[0]
        result = run_cell(cell)
        assert result.scenario == "LockConvoy"
        assert result.policy == "fifo"
        # repeats per intensity, one intensity in the tiny grid
        assert result.instances == 2
        assert len(result.durations) == 2
        assert result.fingerprints == tuple(sorted(set(result.fingerprints)))
        assert 0 < result.planted_wait_us <= result.total_wait_us


class TestCoverageReport:
    @pytest.fixture(scope="class")
    def report(self):
        return explore_schedules(TINY, workers=1)

    def test_byte_identical_across_worker_counts(self, report):
        # The acceptance property: identical grids produce byte-identical
        # coverage reports at workers 1, 2 and 4.
        baseline = report.to_json()
        for workers in (2, 4):
            assert explore_schedules(TINY, workers=workers).to_json() == (
                baseline
            )

    def test_worker_death_is_retried_to_the_same_report(
        self, report, monkeypatch, tmp_path
    ):
        flag = tmp_path / "killed"
        monkeypatch.setenv("REPRO_TEST_KILL_FLAG", str(flag))
        monkeypatch.setattr(explore_runner, "run_cell", _kill_once_cell)
        recovered = explore_schedules(TINY, workers=2)
        assert flag.exists(), "the kill wrapper never ran in a worker"
        assert recovered.to_json() == report.to_json()

    def test_json_is_canonical_and_complete(self, report):
        payload = json.loads(report.to_json())
        assert len(payload["cells"]) == 4
        assert "LockConvoy" in payload["shapes_by_scenario"]
        assert payload["total_distinct_shapes"] >= 1

    def test_novel_shapes_excludes_fifo_baseline(self, report):
        novel = report.novel_shapes()
        assert all(policy != "fifo" for _, policy in novel)
        fifo_shapes = {
            fingerprint
            for cell in report.cells
            if cell.policy == "fifo"
            for fingerprint in cell.fingerprints
        }
        for (_, _), shapes in novel.items():
            assert not set(shapes) & fifo_shapes

    def test_render_mentions_every_policy(self, report):
        rendered = report.render()
        assert "fifo" in rendered and "shuffle" in rendered
        assert "total distinct contention shapes" in rendered

    def test_novel_shape_accounting_from_synthetic_cells(self):
        def cell(policy, fingerprints):
            return CellResult(
                scenario="S", policy=policy, seed=0, instances=1,
                durations=(1,), fingerprints=fingerprints,
                planted_wait_us=0, total_wait_us=0,
            )

        report = CoverageReport(cells=(
            cell("fifo", ("aa", "bb")),
            cell("shuffle", ("bb", "cc")),
        ))
        assert report.novel_shapes() == {("S", "shuffle"): ("cc",)}
        assert report.shapes_by_scenario() == {"S": ("aa", "bb", "cc")}
        assert report.total_distinct_shapes == 3

    def test_invalid_grid_rejected_before_any_work(self):
        with pytest.raises(ConfigError):
            explore_schedules(ExploreConfig(policies=("nosuch",)))
