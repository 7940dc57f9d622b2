"""End-to-end causality analysis tests on engineered machines."""

import pytest

from repro.causality.analyzer import CausalityAnalysis
from repro.errors import AnalysisError
from repro.sim.machine import Machine, MachineConfig
from repro.units import MILLISECONDS as MS


def engineered_instances(slow_iterations=4, fast_iterations=6):
    """A machine producing clearly fast and clearly slow instances.

    Fast instances: cached fv query (microseconds).  Slow instances: a
    contended fv->fs->disk chain behind a worker holding the lock across
    a big read — the Figure 1 propagation shape.
    """
    machine = Machine("eng", MachineConfig(
        seed=2,
        file_table_lock_count=1,
        mdu_lock_count=1,
        disk_read_median_us=20_000,
        hard_fault_rate=0.0,
    ))

    def ui_program(ctx):
        with ctx.frame("Browser!UIThread"):
            for index in range(fast_iterations + slow_iterations):
                slow = index >= fast_iterations
                with ctx.scenario("TabOpen"):
                    with ctx.frame("kernel!OpenFile"):
                        yield from machine.fv.query_file_table(
                            ctx, 0, resolve=slow, cached=not slow,
                            size_factor=4.0,
                        )
                yield from ctx.delay(60 * MS)

    def interferer(ctx):
        with ctx.frame("Browser!Worker"):
            while ctx.now < 2_000_000:
                with ctx.frame("kernel!CreateFile"):
                    yield from machine.fv.query_file_table(
                        ctx, 0, resolve=True, cached=False, size_factor=4.0
                    )
                yield from ctx.delay(10 * MS)

    machine.spawn(ui_program, "Browser", "UI")
    machine.spawn(interferer, "Browser", "W0", start_at=1 * MS)
    stream = machine.run_and_trace(until=5_000_000)
    return [i for i in stream.instances if i.scenario == "TabOpen"]


class TestEndToEnd:
    def test_requires_instances(self):
        with pytest.raises(AnalysisError):
            CausalityAnalysis(["*.sys"]).analyze([], 100, 300)

    def test_segment_bound_validated(self):
        with pytest.raises(AnalysisError):
            CausalityAnalysis(["*.sys"], segment_bound=0)

    def test_discovers_propagation_pattern(self):
        instances = engineered_instances()
        report = CausalityAnalysis(["*.sys"]).analyze(
            instances, t_fast=5 * MS, t_slow=20 * MS, scenario="TabOpen"
        )
        assert report.classes.fast
        assert report.classes.slow
        assert report.patterns, "no contrast patterns discovered"
        top = report.patterns[0]
        waits = top.sst.wait_signatures
        # The propagation chain shows the fv wait signature; the chain
        # below it surfaces fs/se behaviour in the pattern's union.
        assert any("fv.sys" in s for s in waits)
        union = top.sst.all_signatures
        assert any("fs.sys" in s or "se.sys" in s for s in union)

    def test_report_summary_and_top(self):
        instances = engineered_instances()
        report = CausalityAnalysis(["*.sys"]).analyze(
            instances, t_fast=5 * MS, t_slow=20 * MS, scenario="TabOpen"
        )
        assert "TabOpen" in report.summary()
        assert len(report.top(1)) == 1
        assert report.top(1)[0] is report.patterns[0]

    def test_ranked_by_impact(self):
        instances = engineered_instances()
        report = CausalityAnalysis(["*.sys"]).analyze(
            instances, t_fast=5 * MS, t_slow=20 * MS, scenario="TabOpen"
        )
        impacts = [pattern.impact for pattern in report.patterns]
        assert impacts == sorted(impacts, reverse=True)

    def test_smaller_k_fewer_or_equal_metas(self):
        instances = engineered_instances()
        small = CausalityAnalysis(["*.sys"], segment_bound=1).analyze(
            instances, 5 * MS, 20 * MS, scenario="TabOpen"
        )
        large = CausalityAnalysis(["*.sys"], segment_bound=5).analyze(
            instances, 5 * MS, 20 * MS, scenario="TabOpen"
        )
        assert len(small.slow_meta_patterns) <= len(large.slow_meta_patterns)
