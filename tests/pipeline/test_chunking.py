"""Tests for deterministic corpus chunking."""

import pytest

from repro.errors import ConfigError
from repro.pipeline.chunking import chunk_sources, default_chunk_size


class TestChunkSources:
    def test_contiguous_and_order_preserving(self):
        items = list(range(10))
        chunks = chunk_sources(items, 3)
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        flattened = [item for chunk in chunks for item in chunk]
        assert flattened == items

    def test_chunk_size_one(self):
        assert chunk_sources(["a", "b"], 1) == [["a"], ["b"]]

    def test_oversized_chunk(self):
        assert chunk_sources([1, 2], 100) == [[1, 2]]

    def test_empty_sources(self):
        assert chunk_sources([], 4) == []

    def test_invalid_chunk_size(self):
        with pytest.raises(ConfigError):
            chunk_sources([1], 0)


class TestDefaultChunkSize:
    def test_sequential_gets_one_chunk(self):
        assert default_chunk_size(40, 1) == 40

    def test_parallel_splits_for_load_balance(self):
        size = default_chunk_size(40, 4)
        assert 1 <= size <= 10
        # Enough chunks for every worker to stay busy.
        assert 40 / size >= 4

    def test_small_corpus_never_zero(self):
        assert default_chunk_size(1, 8) == 1
        assert default_chunk_size(0, 8) == 1


class TestProcessMap:
    """``process_map_resilient`` with its default (unsplittable) callbacks."""

    def test_sequential_path_preserves_order(self):
        from repro.pipeline.executor import process_map_resilient

        assert process_map_resilient(_double, [1, 2, 3], workers=1) == [
            2, 4, 6,
        ]

    def test_parallel_path_preserves_order(self):
        from repro.pipeline.executor import (
            fork_available,
            process_map_resilient,
        )

        if not fork_available():
            pytest.skip("fork start method unavailable")
        assert process_map_resilient(_double, list(range(8)), workers=4) == [
            0, 2, 4, 6, 8, 10, 12, 14,
        ]

    def test_falls_back_without_fork(self, monkeypatch):
        import repro.pipeline.executor as executor

        monkeypatch.setattr(executor, "fork_context", lambda: None)
        assert executor.process_map_resilient(
            _double, [3, 5], workers=4
        ) == [6, 10]


def _double(x):
    return x * 2
