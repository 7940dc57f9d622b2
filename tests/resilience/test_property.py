"""The hostile-corpus property, exercised corruptor × format × workers.

The resilience layer's contract: analyzing a fuzzed corpus under a
non-strict policy equals the strict analysis of exactly the traces that
survive that policy's ingestion — for every corruptor, both trace
encodings, and any worker count.
"""

import pytest

from repro.errors import TraceError, TraceSalvageError
from repro.pipeline import parallel_impact, parallel_study
from repro.report.markdown import study_to_markdown
from repro.resilience import CORRUPTORS, RunHealth, fuzz_corpus
from repro.sim.corpus import CorpusConfig, generate_corpus
from repro.trace import dump_corpus, iter_corpus_paths, load_stream
from tests.reference.sequential import reference_impact, reference_study

FUZZ_SEED = 20140301
WORKER_COUNTS = (1, 2, 4)

#: Small streams keep the cross product affordable; the corpus is still
#: large enough that fraction=0.5 leaves survivors for every corruptor.
TINY = CorpusConfig(
    streams=6, seed=4242, workloads_per_stream=(1, 2), repeats_range=(2, 3)
)


@pytest.fixture(scope="module")
def tiny_corpus():
    return generate_corpus(TINY)


def _fuzzed_dir(tmp_path_factory, corpus, format, corruptor):
    directory = tmp_path_factory.mktemp(f"fuzz-{format}-{corruptor}")
    dump_corpus(corpus, directory, format=format)
    fuzz_corpus(
        directory, seed=FUZZ_SEED, fraction=0.5, corruptors=[corruptor]
    )
    return directory


def _survivors(directory, policy):
    """The streams a policy keeps, loaded eagerly — the strict baseline.

    Survival means what it means inside a worker: the stream loads under
    the policy *and* its per-instance analysis completes — a corrupted
    file can parse fine yet blow up in wait-graph construction, and the
    pipeline confines that to the one trace too.
    """
    from repro.impact.metrics import ImpactAccumulator
    from repro.trace.signatures import ComponentFilter
    from repro.waitgraph.builder import build_wait_graph

    kept = []
    for path in iter_corpus_paths(directory):
        try:
            stream = load_stream(path, on_error=policy)
            probe = ImpactAccumulator(ComponentFilter(("*.sys",)))
            for instance in stream.instances:
                probe.add_graph(build_wait_graph(instance))
        except Exception:
            continue
        kept.append(stream)
    return kept


@pytest.mark.parametrize("corruptor", sorted(CORRUPTORS))
@pytest.mark.parametrize("format", ["jsonl", "rtb"])
def test_impact_equals_strict_analysis_of_survivors(
    tiny_corpus, tmp_path_factory, format, corruptor
):
    directory = _fuzzed_dir(tmp_path_factory, tiny_corpus, format, corruptor)
    paths = iter_corpus_paths(directory)
    for policy in ("skip", "salvage"):
        survivors = _survivors(directory, policy)
        assert survivors, f"{corruptor} left no survivors at fraction 0.5"
        expected = reference_impact(survivors)
        for workers in WORKER_COUNTS:
            health = RunHealth()
            result = parallel_impact(
                paths, workers=workers, on_error=policy, health=health
            )
            assert result == expected, (
                f"{corruptor}/{format}/{policy} diverged at workers={workers}"
            )
            assert health.analyzed == len(survivors)
            assert health.analyzed + health.skipped == len(paths)


def test_study_markdown_is_byte_identical_to_survivor_study(
    tiny_corpus, tmp_path_factory
):
    directory = _fuzzed_dir(tmp_path_factory, tiny_corpus, "jsonl", "truncate")
    paths = iter_corpus_paths(directory)
    survivors = _survivors(directory, "salvage")
    expected = study_to_markdown(reference_study(survivors))
    for workers in WORKER_COUNTS:
        study = parallel_study(paths, workers=workers, on_error="salvage")
        assert study_to_markdown(study) == expected


def test_health_counts_are_reproducible(tiny_corpus, tmp_path_factory):
    first = _fuzzed_dir(tmp_path_factory, tiny_corpus, "jsonl", "zero-length")
    second = _fuzzed_dir(tmp_path_factory, tiny_corpus, "jsonl", "zero-length")
    healths = []
    for directory in (first, second):
        health = RunHealth()
        parallel_impact(
            iter_corpus_paths(directory),
            workers=2,
            on_error="skip",
            health=health,
        )
        healths.append(health)
    assert healths[0].to_json()["skipped"] == healths[1].to_json()["skipped"]
    assert [f.error_type for f in healths[0].failures] == [
        f.error_type for f in healths[1].failures
    ]
