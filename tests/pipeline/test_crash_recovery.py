"""Worker-death recovery: retry, bisection, in-process fallback, quarantine.

The kill wrappers below are module-level so fork children resolve them by
reference; they guard on PID so a crash is only ever injected inside a
pool worker, never in the pytest process itself.
"""

import os
import shutil

import pytest

import repro.pipeline.api as pipeline_api
from repro.errors import WorkerCrashError
from repro.pipeline import parallel_study, process_map_resilient
from repro.pipeline.worker import analyze_chunk
from repro.report.markdown import study_to_markdown
from repro.resilience import RunHealth
from repro.sim.corpus import CorpusConfig, generate_corpus
from repro.trace import dump_corpus, iter_corpus_paths, load_corpus
from tests.reference.sequential import reference_study

MAIN_PID = os.getpid()

TINY = CorpusConfig(
    streams=6, seed=909, workloads_per_stream=(1, 2), repeats_range=(2, 3)
)


def _kill_once_chunk(task):
    """Die the first time any chunk runs, then behave."""
    flag = os.environ["REPRO_TEST_KILL_FLAG"]
    if not os.path.exists(flag) and os.getpid() != MAIN_PID:
        with open(flag, "w", encoding="utf-8") as handle:
            handle.write("crashed once")
        os._exit(1)
    return analyze_chunk(task)


def _kill_poison_chunk(task):
    """Die whenever the chunk holds the poison trace; raise in-process."""
    if any(
        "poison" in os.path.basename(str(source)) for source in task.sources
    ):
        if os.getpid() != MAIN_PID:
            os._exit(1)
        raise RuntimeError("poison trace crashes the in-process fallback too")
    return analyze_chunk(task)


# ---------------------------------------------------------------------------
# Executor-level unit tests (no trace analysis involved)
# ---------------------------------------------------------------------------


def _double(value):
    return [2 * item for item in value]


def _die_on_nine(value):
    if 9 in value and os.getpid() != MAIN_PID:
        os._exit(1)
    if 9 in value:
        raise RuntimeError("nine is unlucky in this process too")
    return [2 * item for item in value]


def _split_list(value):
    if len(value) < 2:
        return None
    middle = len(value) // 2
    return value[:middle], value[middle:]


def _merge_lists(parts):
    return [item for part in parts for item in part]


class TestProcessMapResilient:
    def test_clean_run_matches_plain_map(self):
        tasks = [[1, 2], [3], [4, 5, 6]]
        results = process_map_resilient(
            _double, tasks, workers=2,
            split=_split_list, merge=_merge_lists,
            failed=lambda task, exc: [],
        )
        assert results == [_double(task) for task in tasks]

    def test_poison_task_is_isolated_and_replaced(self):
        tasks = [[1, 2, 3], [8, 9, 10, 11], [4]]
        health = RunHealth()
        results = process_map_resilient(
            _die_on_nine, tasks, workers=2,
            split=_split_list, merge=_merge_lists,
            failed=lambda task, exc: ["failed"] * len(task),
            max_retries=0, backoff_base=0.0, health=health,
        )
        assert results[0] == [2, 4, 6]
        assert results[2] == [8]
        # The poison element 9 is bisected down to a singleton and
        # replaced; its innocent neighbours survive.
        assert results[1] == [16, "failed", 20, 22]
        # With max_retries=0 an innocent single-item task caught in the
        # same broken pool also falls back in-process — at least the
        # poison singleton did.
        assert health.worker_restarts >= 1
        assert health.sequential_fallbacks >= 1

    def test_failed_callback_may_abort_the_run(self):
        def explode(task, exc):
            raise WorkerCrashError(f"gave up on {task}")

        with pytest.raises(WorkerCrashError):
            process_map_resilient(
                _die_on_nine, [[9]], workers=2,
                split=_split_list, merge=_merge_lists,
                failed=explode, max_retries=0, backoff_base=0.0,
            )

    def test_default_failed_raises_worker_crash_error(self):
        with pytest.raises(WorkerCrashError, match="worker kept dying"):
            process_map_resilient(
                _die_on_nine, [[1], [9]], workers=2,
                max_retries=0, backoff_base=0.0,
            )


# ---------------------------------------------------------------------------
# Pipeline-level recovery (full study through a dying map phase)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def crash_corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("crash-corpus")
    dump_corpus(generate_corpus(TINY), directory)
    return directory


@pytest.fixture(scope="module")
def clean_markdown(crash_corpus):
    return study_to_markdown(reference_study(list(load_corpus(crash_corpus))))


@pytest.fixture()
def poison_corpus(crash_corpus, tmp_path):
    directory = tmp_path / "poisoned"
    shutil.copytree(crash_corpus, directory)
    victim = sorted(directory.glob("*.jsonl"))[0]
    shutil.copyfile(victim, directory / "zz_poison.jsonl")
    return directory


class TestKillOnceRecovery:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_output_is_byte_identical_after_recovery(
        self, crash_corpus, clean_markdown, workers, monkeypatch, tmp_path
    ):
        flag = tmp_path / f"killed-w{workers}"
        monkeypatch.setenv("REPRO_TEST_KILL_FLAG", str(flag))
        monkeypatch.setattr(pipeline_api, "analyze_chunk", _kill_once_chunk)
        health = RunHealth()
        study = parallel_study(
            iter_corpus_paths(crash_corpus),
            workers=workers,
            on_error="skip",
            health=health,
        )
        assert flag.exists(), "the kill wrapper never ran in a worker"
        assert study_to_markdown(study) == clean_markdown
        assert health.worker_restarts >= 1
        assert health.retries >= 1
        assert health.quarantined == 0
        assert health.skipped == 0


class TestPoisonQuarantine:
    def test_bisection_isolates_and_quarantines_the_poison_trace(
        self, poison_corpus, clean_markdown, monkeypatch
    ):
        monkeypatch.setattr(pipeline_api, "analyze_chunk", _kill_poison_chunk)
        health = RunHealth()
        study = parallel_study(
            iter_corpus_paths(poison_corpus),
            workers=2,
            chunk_size=len(iter_corpus_paths(poison_corpus)),
            on_error="skip",
            max_retries=0,
            health=health,
        )
        # Result equals the clean corpus study: only the poison trace
        # is missing, every innocent chunk neighbour was recovered.
        assert study_to_markdown(study) == clean_markdown
        assert health.quarantined == 1
        assert health.analyzed == len(iter_corpus_paths(poison_corpus)) - 1
        failure = next(
            f for f in health.failures if f.action == "quarantined"
        )
        assert "zz_poison" in failure.source
        assert failure.stage == "executor"

    def test_strict_policy_aborts_with_worker_crash_error(
        self, poison_corpus, monkeypatch
    ):
        monkeypatch.setattr(pipeline_api, "analyze_chunk", _kill_poison_chunk)
        with pytest.raises(WorkerCrashError, match="worker kept dying"):
            parallel_study(
                iter_corpus_paths(poison_corpus),
                workers=2,
                max_retries=0,
            )

    def test_store_receives_the_quarantined_trace(
        self, poison_corpus, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(pipeline_api, "analyze_chunk", _kill_poison_chunk)
        store_dir = tmp_path / "store"
        health = RunHealth()
        parallel_study(
            iter_corpus_paths(poison_corpus),
            workers=2,
            store=str(store_dir),
            on_error="skip",
            max_retries=0,
            health=health,
        )
        assert health.quarantined == 1
        quarantined = list((store_dir / "quarantine").glob("zz_poison*"))
        names = {path.name for path in quarantined}
        assert "zz_poison.jsonl" in names
        assert any(name.endswith(".reason.txt") for name in names)
