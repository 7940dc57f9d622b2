"""Tests for the impact-analysis driver."""

import pytest

from repro.errors import AnalysisError
from repro.impact.analyzer import ImpactAnalysis, collect_instances


class TestCollectInstances:
    def test_collects_all(self, small_corpus):
        instances = collect_instances(small_corpus)
        assert len(instances) == sum(
            len(stream.instances) for stream in small_corpus
        )

    def test_scenario_filter(self, small_corpus):
        instances = collect_instances(small_corpus, ["MenuDisplay"])
        assert all(i.scenario == "MenuDisplay" for i in instances)


class TestImpactAnalysis:
    def test_empty_instances_rejected(self):
        with pytest.raises(AnalysisError):
            ImpactAnalysis(["*.sys"]).analyze_instances([])

    def test_corpus_analysis_shape(self, small_corpus):
        result = ImpactAnalysis(["*.sys"]).analyze_corpus(small_corpus)
        assert result.graphs > 0
        assert 0 < result.ia_wait < 1
        assert 0 <= result.ia_run < result.ia_wait
        assert result.d_waitdist <= result.d_wait

    def test_per_scenario(self, small_corpus):
        results = ImpactAnalysis(["*.sys"]).analyze_per_scenario(small_corpus)
        assert len(results) >= 2
        for result in results.values():
            assert result.graphs > 0

    def test_narrow_component_scope_smaller_wait(self, small_corpus):
        all_drivers = ImpactAnalysis(["*.sys"]).analyze_corpus(small_corpus)
        fv_only = ImpactAnalysis(["fv.sys"]).analyze_corpus(small_corpus)
        assert fv_only.d_wait <= all_drivers.d_wait
