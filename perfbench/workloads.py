"""The benchmark's workloads: seeded corpora, reference reports, store state.

Every corpus is made from one seed by the program's own simulator
(``repro.sim.corpus``), dumped to disk in the workload's format, and paired
with a reference report computed once, in process, by a different analysis
path than the ``repro study`` passes being timed.

Streams are short and of one shape per workload (a fixed number of
scenarios, each run a fixed number of times), so that two seeds yield
corpora of nearly the same analysis work and the benchmark's figures depend
on the code, not on the seed.  Which streams a workload analyzes is decided
by the simulator's output alone: the first streams, in seed order, whose
events reach the workload's target, or the whole pool.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.pipeline import parallel_study, prewarm_store
from repro.report.markdown import save_study_markdown
from repro.sim.corpus import CorpusConfig, generate_corpus
from repro.store import ArtifactStore
from repro.trace.serialization import dump_corpus, stream_content_hash

#: Processes used to generate corpora and prewarm stores (the host's cores).
SETUP_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    format: str
    #: ``--workers`` of the timed ``repro study`` pass.
    workers: int
    #: Streams generated from the seed.
    pool: int
    #: Scenarios per stream, each run ``repeats`` times.
    scenarios: int
    repeats: int
    #: Events the first streams of the pool are taken up to (None: take the
    #: whole pool).
    events: Optional[int] = None
    #: Share of streams a store snapshot is prewarmed on (None: no store).
    warm_share: Optional[float] = None

    def study_args(self, corpus: str, markdown: str, workers: int,
                   store: Optional[str]) -> List[str]:
        """The ``repro study`` arguments of one pass."""
        args = ["study", corpus, "--markdown", markdown,
                "--workers", str(workers)]
        if store is not None:
            args += ["--store", store]
        return args


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="study-jsonl",
            format="jsonl",
            workers=1,
            pool=40,
            scenarios=4,
            repeats=1,
            events=70_000,
        ),
        Workload(
            name="incremental-rtb",
            format="rtb",
            workers=2,
            pool=120,
            scenarios=8,
            repeats=2,
            warm_share=0.9,
        ),
    )
}


@dataclass
class Corpus:
    """One prepared workload input and what every pass must reproduce."""

    workload: Workload
    directory: str
    paths: List[str]
    events: int
    instances: int
    bytes: int
    digest: str
    reference: bytes
    generate_s: float
    snapshot: Optional[str] = None
    planned_hits: int = 0
    planned_misses: int = 0
    #: (inode, mtime_ns) of each snapshot entry after the last reset.
    restored: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def metadata(self) -> dict:
        workload = self.workload
        return {
            "format": workload.format,
            "workers": workload.workers,
            "store": (
                "none" if workload.warm_share is None else
                f"prewarmed on {self.planned_hits} of {len(self.paths)} "
                "streams"
            ),
            "streams": len(self.paths),
            "events": self.events,
            "instances": self.instances,
            "bytes": self.bytes,
            "corpus_digest": self.digest,
        }

    @property
    def corpus_dir(self) -> str:
        """The directory a ``repro study`` pass is pointed at."""
        return os.path.dirname(self.paths[0])

    @property
    def store(self) -> Optional[str]:
        if self.snapshot is None:
            return None
        return os.path.join(self.directory, "store")

    def reset_store(self) -> None:
        """Replace the pass's store with a fresh copy of the snapshot."""
        if self.snapshot is None:
            return
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.snapshot, self.store)
        self.restored = _entry_identities(self.store)

    def check(self, markdown: str) -> Optional[str]:
        """Why a pass's output is wrong, or None when it is right."""
        try:
            with open(markdown, "rb") as handle:
                produced = handle.read()
        except OSError as error:
            return f"no report: {error}"
        if produced != self.reference:
            return "report differs from the reference"
        if self.snapshot is None:
            return None
        after = _entry_identities(self.store)
        rewritten = [path for path, identity in self.restored.items()
                     if after.get(path) != identity]
        added = len(after) - len(self.restored)
        if rewritten or added != self.planned_misses:
            return (
                f"store split {len(self.restored) - len(rewritten)} hits / "
                f"{added} new entries, planned {self.planned_hits} / "
                f"{self.planned_misses}"
            )
        return None


def _entry_identities(store: str) -> Dict[str, Tuple[int, int]]:
    """Every store entry file by path, with its inode and mtime.

    A hit reads an entry and leaves it alone; a miss writes a new one.  An
    entry rewritten in place would mean a planned hit was recomputed.
    """
    found: Dict[str, Tuple[int, int]] = {}
    objects = os.path.join(store, "objects")
    for folder, _, names in os.walk(objects):
        for name in names:
            path = os.path.join(folder, name)
            info = os.stat(path)
            found[os.path.relpath(path, store)] = (info.st_ino, info.st_mtime_ns)
    return found


def reference_report(paths: List[str], directory: str) -> bytes:
    """The study report of an in-process, storeless, workers=1 RTB run."""
    study = parallel_study(paths, workers=1)
    target = os.path.join(directory, "reference.md")
    save_study_markdown(study, target)
    with open(target, "rb") as handle:
        return handle.read()


def _take(streams: list, events: Optional[int]) -> list:
    """The first streams whose events reach ``events`` (all without one)."""
    if events is None:
        return streams
    taken, total = [], 0
    for stream in streams:
        if total >= events:
            break
        taken.append(stream)
        total += len(stream)
    return taken


def prepare(workload: Workload, seed: int, directory: str) -> Corpus:
    """Generate, dump and check one workload's corpus in a new ``directory``."""
    os.makedirs(directory)
    config = CorpusConfig(
        streams=workload.pool, seed=seed,
        workloads_per_stream=(workload.scenarios, workload.scenarios),
        repeats_range=(workload.repeats, workload.repeats),
    )
    started = time.perf_counter()
    streams = _take(generate_corpus(config, workers=SETUP_WORKERS),
                    workload.events)
    generate_s = time.perf_counter() - started

    rtb_paths = dump_corpus(streams, os.path.join(directory, "rtb"),
                            format="rtb")
    if workload.format == "rtb":
        paths = rtb_paths
    else:
        paths = dump_corpus(streams, os.path.join(directory, "corpus"),
                            format=workload.format)
    corpus = Corpus(
        workload=workload,
        directory=directory,
        paths=paths,
        events=sum(len(stream) for stream in streams),
        instances=sum(len(stream.instances) for stream in streams),
        bytes=sum(os.path.getsize(path) for path in paths),
        digest=hashlib.sha256(
            "\n".join(stream_content_hash(path) for path in paths).encode()
        ).hexdigest(),
        reference=reference_report(rtb_paths, directory),
        generate_s=generate_s,
    )
    del streams

    if workload.warm_share is not None:
        warm = int(len(paths) * workload.warm_share)
        corpus.snapshot = os.path.join(directory, "snapshot")
        prewarm_store(paths[:warm], corpus.snapshot, workers=SETUP_WORKERS)
        corpus.planned_hits = warm
        corpus.planned_misses = len(paths) - warm
        entries = ArtifactStore(corpus.snapshot).stats().entries
        if entries != warm:
            raise RuntimeError(
                f"prewarmed store holds {entries} entries, expected {warm}"
            )
    return corpus
