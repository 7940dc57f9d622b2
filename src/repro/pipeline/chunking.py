"""Deterministic corpus chunking for the map–reduce pipeline.

Chunks are **contiguous, in-order slices** of the corpus source list.
That invariant is what makes the parallel pipeline's output provably
identical to a single-chunk run: folding per-chunk partial results in
chunk order visits every stream — and therefore inserts every AWG trie
node and accumulator entry — in exactly the corpus order a single-pass
analysis would use.
"""

from __future__ import annotations

import math
from typing import List, Sequence, TypeVar

from repro.errors import ConfigError

T = TypeVar("T")

#: Target number of chunks handed to each worker.  More than one chunk
#: per worker smooths load imbalance (streams vary in event count)
#: without flooding the pool with per-task pickling overhead.
CHUNKS_PER_WORKER = 4


def default_chunk_size(source_count: int, workers: int) -> int:
    """A chunk size giving each worker a few chunks to balance load."""
    if source_count <= 0:
        return 1
    if workers <= 1:
        return source_count
    return max(1, math.ceil(source_count / (workers * CHUNKS_PER_WORKER)))


def chunk_sources(sources: Sequence[T], chunk_size: int) -> List[List[T]]:
    """Split sources into contiguous chunks of at most ``chunk_size``.

    Order is preserved both across and within chunks; the concatenation
    of the returned chunks is exactly the input sequence.
    """
    if chunk_size < 1:
        raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
    items = list(sources)
    return [
        items[start : start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]
