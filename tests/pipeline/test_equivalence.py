"""Parallel pipeline ≡ sequential reference analysis, end to end.

The acceptance bar for the map–reduce pipeline: for any worker count and
chunk size, `parallel_impact` / `parallel_causality` / `parallel_study`
must reproduce the instance-level reference in `tests/reference/` exactly
— down to the rendered study tables being byte-identical.
"""

import pytest

from repro.causality import CausalityAnalysis
from repro.errors import AnalysisError
from repro.evaluation.study import run_study
from repro.pipeline import (
    parallel_causality,
    parallel_impact,
    parallel_study,
)
from repro.report.markdown import study_to_markdown
from repro.sim.workloads.registry import scenario_spec
from repro.trace import dump_corpus, iter_corpus_paths
from tests.reference.sequential import reference_impact, reference_study


@pytest.fixture(scope="module")
def corpus_paths(small_corpus, tmp_path_factory):
    directory = tmp_path_factory.mktemp("pipeline-corpus")
    dump_corpus(small_corpus, directory)
    return iter_corpus_paths(directory)


class TestParallelImpact:
    def test_matches_sequential(self, small_corpus, corpus_paths):
        sequential = reference_impact(small_corpus)
        for workers, chunk_size in [(1, None), (4, 1), (4, 2), (2, 3)]:
            parallel = parallel_impact(
                corpus_paths, workers=workers, chunk_size=chunk_size
            )
            assert parallel == sequential

    def test_scenario_filter_matches(self, small_corpus, corpus_paths):
        scenarios = ["WebPageNavigation"]
        sequential = reference_impact(small_corpus, scenarios=scenarios)
        parallel = parallel_impact(
            corpus_paths, scenarios=scenarios, workers=3
        )
        assert parallel == sequential

    def test_in_memory_sources(self, small_corpus):
        sequential = reference_impact(small_corpus)
        parallel = parallel_impact(list(small_corpus), workers=2)
        assert parallel == sequential

    def test_empty_corpus_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            parallel_impact([], workers=2)


class TestParallelCausality:
    def test_matches_sequential(self, small_corpus, corpus_paths):
        name = "WebPageNavigation"
        spec = scenario_spec(name)
        instances = [
            instance
            for stream in small_corpus
            for instance in stream.instances
            if instance.scenario == name
        ]
        sequential = CausalityAnalysis(["*.sys"]).analyze(
            instances, spec.t_fast, spec.t_slow, scenario=name
        )
        parallel = parallel_causality(
            corpus_paths, name, spec.t_fast, spec.t_slow, workers=4
        )
        assert parallel.summary() == sequential.summary()
        assert parallel.patterns == sequential.patterns
        assert parallel.contrast_metas == sequential.contrast_metas
        assert parallel.slow_meta_patterns == sequential.slow_meta_patterns
        assert (
            parallel.slow_awg.node_count()
            == sequential.slow_awg.node_count()
        )
        assert [i.key for i in parallel.classes.slow] == [
            i.key for i in sequential.classes.slow
        ]

    def test_between_class_graphs_are_not_built(
        self, small_corpus, monkeypatch
    ):
        import repro.pipeline.worker as worker

        built = []
        build = worker.build_wait_graph

        def counting_build(instance):
            built.append(instance.key)
            return build(instance)

        monkeypatch.setattr(worker, "build_wait_graph", counting_build)
        name = "WebPageNavigation"
        spec = scenario_spec(name)
        report = parallel_causality(
            list(small_corpus), name, spec.t_fast, spec.t_slow
        )
        assert report.classes.between
        assert len(built) == len(report.classes.fast) + len(
            report.classes.slow
        )

    def test_missing_scenario_reports_present_ones(self, corpus_paths):
        with pytest.raises(AnalysisError, match="scenarios present"):
            parallel_causality(
                corpus_paths, "NoSuchScenario", 1000, 2000, workers=2
            )

    def test_bad_thresholds_rejected(self, corpus_paths):
        with pytest.raises(AnalysisError):
            parallel_causality(
                corpus_paths, "WebPageNavigation", 2000, 1000, workers=1
            )


class TestParallelStudy:
    def test_tables_byte_identical_across_worker_counts(
        self, small_corpus, corpus_paths
    ):
        sequential = study_to_markdown(reference_study(small_corpus))
        for workers, chunk_size in [(1, None), (4, 1), (4, None), (2, 3)]:
            parallel = study_to_markdown(
                parallel_study(
                    corpus_paths, workers=workers, chunk_size=chunk_size
                )
            )
            assert parallel == sequential
        # run_study: the same pipeline over in-memory streams.
        assert study_to_markdown(run_study(small_corpus)) == sequential

    def test_scenario_subset(self, small_corpus, corpus_paths):
        wanted = ["WebPageNavigation", "BrowserTabCreate"]
        sequential = reference_study(small_corpus, scenarios=wanted)
        parallel = parallel_study(corpus_paths, scenarios=wanted, workers=3)
        assert list(parallel.scenarios) == list(sequential.scenarios)
        assert parallel.table1_rows() == sequential.table1_rows()
        assert parallel.table2_rows() == sequential.table2_rows()
        assert parallel.table3_rows() == sequential.table3_rows()
        assert parallel.table4_rows() == sequential.table4_rows()
