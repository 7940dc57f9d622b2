"""Self-test of the benchmark's output check: wrong passes must be caught.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Prepares a three-stream RTB corpus with a store prewarmed on two of its
streams, runs one real ``repro study --workers 2 --store`` pass and confirms
the check accepts it.  Then it alters the report (one byte flipped, the tail
cut off, the file removed) and the store (a prewarmed entry deleted, so the
pass misses where a hit was planned), and confirms the check rejects each.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_selftest"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"selftest: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from passes import run_child
    from workloads import Workload, prepare

    workload = Workload(name="selftest", format="rtb", workers=2, pool=3,
                        scenarios=8, repeats=2, warm_share=0.67)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    markdown = str(WORK / "pass.md")
    try:
        corpus = prepare(workload, 1, str(WORK / "corpus"))

        def study_pass(before_pass=None) -> None:
            corpus.reset_store()
            if before_pass is not None:
                before_pass()
            args = workload.study_args(corpus.corpus_dir, markdown,
                                       workload.workers, corpus.store)
            result = run_child(args, env, str(ROOT), str(WORK / "pass.err"))
            if result.exit_code != 0:
                raise RuntimeError(f"study pass failed: {result.stderr}")

        def flip_byte() -> None:
            data = bytearray(Path(markdown).read_bytes())
            data[len(data) // 2] ^= 0x01
            Path(markdown).write_bytes(bytes(data))

        def cut_tail() -> None:
            data = Path(markdown).read_bytes()
            Path(markdown).write_bytes(data[: len(data) - 40])

        def drop_entry() -> None:
            os.remove(os.path.join(corpus.store, next(iter(corpus.restored))))

        # (case, what the check said, whether it should accept)
        outcomes = []
        study_pass()
        outcomes.append(("unaltered pass", corpus.check(markdown), True))
        flip_byte()
        outcomes.append(("one byte flipped", corpus.check(markdown), False))
        study_pass()
        cut_tail()
        outcomes.append(("last 40 bytes cut", corpus.check(markdown), False))
        os.remove(markdown)
        outcomes.append(("report missing", corpus.check(markdown), False))
        study_pass(before_pass=drop_entry)
        outcomes.append(
            ("prewarmed entry dropped", corpus.check(markdown), False))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failures = 0
    for label, problem, expect_ok in outcomes:
        caught = problem is not None
        good = caught != expect_ok
        failures += not good
        verdict = "ok  " if good else "FAIL"
        print(f"{verdict} {label:<26} -> {problem or 'accepted'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
