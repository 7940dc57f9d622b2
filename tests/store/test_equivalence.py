"""Store-backed runs ≡ storeless runs, byte for byte.

The acceptance bar for the artifact store: a cold store, a warm store,
and a store with corrupted (quarantined-on-read) entries must all yield
exactly the output of a storeless sequential run — same `repro study`
markdown, same impact metrics, same causality patterns — at any worker
count.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality import CausalityAnalysis
from repro.pipeline import (
    parallel_causality,
    parallel_impact,
    parallel_study,
    prewarm_store,
)
from repro.report.markdown import study_to_markdown
from repro.sim.workloads.registry import scenario_spec
from repro.store import ArtifactStore
from repro.trace import dump_corpus, iter_corpus_paths
from tests.reference.sequential import reference_impact, reference_study

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def corpus_paths(small_corpus, tmp_path_factory):
    directory = tmp_path_factory.mktemp("store-corpus")
    dump_corpus(small_corpus, directory)
    return iter_corpus_paths(directory)


@pytest.fixture(scope="module")
def baseline_markdown(small_corpus):
    """The storeless sequential reference study, rendered — the golden bytes."""
    return study_to_markdown(reference_study(small_corpus))


def _entry_paths(store):
    return [entry.path for entry in store.entries()]


def _corrupt(path, mode, rng):
    # An earlier corruption in the same example may have emptied the
    # file; size-dependent modes degrade to "empty" instead of asking
    # randrange for an empty range.
    size = os.path.getsize(path)
    if mode == "truncate":
        with open(path, "r+b") as handle:
            handle.truncate(rng.randrange(size) if size else 0)
    elif mode == "garbage":
        with open(path, "wb") as handle:
            handle.write(bytes(rng.randrange(256) for _ in range(64)))
    elif mode == "bitflip":
        if size == 0:
            return
        offset = rng.randrange(size)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))
    else:  # "empty"
        open(path, "wb").close()


class TestStudyEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_cold_then_warm_then_poisoned(
        self, workers, corpus_paths, baseline_markdown, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")

        cold = parallel_study(corpus_paths, workers=workers, store=store)
        assert study_to_markdown(cold) == baseline_markdown
        assert store.misses == len(corpus_paths)
        assert store.hits == 0

        warm_store = ArtifactStore(tmp_path / "store")
        warm = parallel_study(corpus_paths, workers=workers, store=warm_store)
        assert study_to_markdown(warm) == baseline_markdown
        assert warm_store.hits == len(corpus_paths)
        assert warm_store.misses == 0

        # Poison half the entries: the run must quarantine, recompute
        # and still match byte for byte.
        rng = random.Random(workers)
        victims = _entry_paths(store)[::2]
        for path in victims:
            _corrupt(path, "truncate", rng)
        poisoned_store = ArtifactStore(tmp_path / "store")
        poisoned = parallel_study(
            corpus_paths, workers=workers, store=poisoned_store
        )
        assert study_to_markdown(poisoned) == baseline_markdown
        assert poisoned_store.misses == len(victims)
        assert os.listdir(poisoned_store.quarantine_dir)

        # The recompute healed the store: fully warm again.
        healed_store = ArtifactStore(tmp_path / "store")
        healed = parallel_study(
            corpus_paths, workers=workers, store=healed_store
        )
        assert study_to_markdown(healed) == baseline_markdown
        assert healed_store.hits == len(corpus_paths)

    @settings(max_examples=6, deadline=None)
    @given(
        workers=st.sampled_from(WORKER_COUNTS),
        chunk_size=st.sampled_from([None, 1, 2]),
        seed=st.integers(min_value=0, max_value=2**16),
        modes=st.lists(
            st.sampled_from(["truncate", "garbage", "bitflip", "empty"]),
            min_size=1,
            max_size=4,
        ),
    )
    def test_random_corruption_never_changes_output(
        self,
        workers,
        chunk_size,
        seed,
        modes,
        corpus_paths,
        baseline_markdown,
        tmp_path_factory,
    ):
        tmp_path = tmp_path_factory.mktemp("poison")
        store = ArtifactStore(tmp_path / "store")
        parallel_study(
            corpus_paths, workers=workers, chunk_size=chunk_size, store=store
        )
        rng = random.Random(seed)
        entries = _entry_paths(store)
        for mode in modes:
            _corrupt(rng.choice(entries), mode, rng)
        rerun_store = ArtifactStore(tmp_path / "store")
        rerun = parallel_study(
            corpus_paths,
            workers=workers,
            chunk_size=chunk_size,
            store=rerun_store,
        )
        assert study_to_markdown(rerun) == baseline_markdown
        assert rerun_store.hits + rerun_store.misses == len(corpus_paths)


class TestOtherEntryPoints:
    def test_impact_with_store_matches_sequential(
        self, small_corpus, corpus_paths, tmp_path
    ):
        sequential = reference_impact(small_corpus)
        store = ArtifactStore(tmp_path / "store")
        cold = parallel_impact(corpus_paths, workers=2, store=store)
        warm = parallel_impact(corpus_paths, workers=2, store=store)
        assert cold == sequential
        assert warm == sequential
        assert store.hits == len(corpus_paths)

    def test_causality_with_store_matches_sequential(
        self, small_corpus, corpus_paths, tmp_path
    ):
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
        store = ArtifactStore(tmp_path / "store")
        for _ in range(2):  # cold, then warm
            parallel = parallel_causality(
                corpus_paths,
                name,
                spec.t_fast,
                spec.t_slow,
                workers=2,
                store=store,
            )
            assert parallel.summary() == sequential.summary()
            assert parallel.patterns == sequential.patterns

    def test_prewarm_makes_study_all_hits(
        self, corpus_paths, baseline_markdown, tmp_path
    ):
        prewarmed = prewarm_store(corpus_paths, tmp_path / "store", workers=2)
        assert prewarmed.misses == len(corpus_paths)
        store = ArtifactStore(tmp_path / "store")
        study = parallel_study(corpus_paths, workers=2, store=store)
        assert study_to_markdown(study) == baseline_markdown
        assert store.hits == len(corpus_paths)
        assert store.misses == 0

    def test_in_memory_sources_compute_without_store_lookups(
        self, small_corpus, baseline_markdown, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")
        study = parallel_study(list(small_corpus), workers=2, store=store)
        assert study_to_markdown(study) == baseline_markdown
        assert store.session_lookups == 0

    def test_different_fingerprints_do_not_collide(
        self, corpus_paths, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")
        parallel_study(corpus_paths, workers=1, store=store)
        # Impact uses a different map configuration → its own entries.
        impact_store = ArtifactStore(tmp_path / "store")
        parallel_impact(corpus_paths, workers=1, store=impact_store)
        assert impact_store.misses == len(corpus_paths)
        assert store.stats().distinct_fingerprints == 2
