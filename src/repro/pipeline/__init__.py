"""Parallel map–reduce analysis pipeline.

Scales the paper-scale workload (≈19,500 trace streams, 339 compute
hours) by partitioned graph construction with a cheap merge step: corpus
sources are chunked, workers build Wait Graphs and *partial* Aggregated
Wait Graphs per chunk (map), and the partials merge deterministically
into results identical for any worker count (reduce).  It is the only
corpus-analysis path: ``run_study`` and ``ImpactAnalysis.analyze_corpus``
are thin wrappers over it.  See ``docs/PIPELINE.md`` for the
architecture and knobs.
"""

from repro.pipeline.api import (
    CorpusSource,
    MapPhaseStats,
    StoreInput,
    open_store,
    parallel_causality,
    parallel_impact,
    parallel_study,
    prewarm_store,
)
from repro.pipeline.chunking import chunk_sources, default_chunk_size
from repro.pipeline.executor import fork_available, process_map_resilient
from repro.pipeline.worker import (
    ChunkPartial,
    ChunkTask,
    InstanceRef,
    ScenarioPartial,
    analyze_chunk,
    merge_chunk_partials,
    merge_scenario_partials,
)

__all__ = [
    "ChunkPartial",
    "ChunkTask",
    "CorpusSource",
    "InstanceRef",
    "MapPhaseStats",
    "ScenarioPartial",
    "StoreInput",
    "analyze_chunk",
    "chunk_sources",
    "default_chunk_size",
    "fork_available",
    "merge_chunk_partials",
    "merge_scenario_partials",
    "open_store",
    "parallel_causality",
    "parallel_impact",
    "parallel_study",
    "prewarm_store",
    "process_map_resilient",
]
