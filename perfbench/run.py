"""The repository benchmark: timed ``repro study`` passes over seeded corpora.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload incremental-rtb --seed 7 --seconds 25 --trace 0

``--trace 0`` prepares the workload's corpus three times (the median is
``setup_s``).  After each set-up it times fresh ``python -m repro study``
child processes for a third of ``--seconds`` (the very first pass is a
discarded warm-up) and reports the end-to-end metrics over all of them.
``--trace 1`` prepares once and alternates untraced and traced in-process
passes at ``--workers 1`` for ``--seconds``, reporting per-layer metrics.
Every pass's report is checked byte for byte against a reference.  The last
line of standard output is the result as one JSON object; a fuller record,
and the spans of a traced run, are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("study-jsonl", "incremental-rtb")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_metadata() -> dict:
    """Where and on what code the run happened."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "source_digest": digest.hexdigest(),
    }


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def bounds() -> Dict[str, float]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


class Run:
    """Bookkeeping shared by both kinds of run: passes attempted and failed."""

    def __init__(self, corpus) -> None:
        self.corpus = corpus
        self.attempted = 0
        self.problems: List[str] = []
        self.markdown = str(WORK / "pass.md")

    def checked(self, problem: Optional[str]) -> bool:
        self.attempted += 1
        if problem is not None:
            self.problems.append(problem)
        return problem is None

    def fresh_markdown(self) -> str:
        if os.path.exists(self.markdown):
            os.remove(self.markdown)
        return self.markdown


def measure(workload, seed: int, seconds: float) -> dict:
    """``--trace 0``: set-up time and timed CLI child passes."""
    from passes import run_child
    from workloads import prepare

    run = Run(None)
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def one_pass():
        corpus = run.corpus
        corpus.reset_store()
        args = workload.study_args(corpus.corpus_dir, run.fresh_markdown(),
                                   workload.workers, corpus.store)
        result = run_child(args, env, str(ROOT), str(WORK / "pass.err"))
        if result.exit_code != 0:
            problem = f"exit {result.exit_code}: {result.stderr[-300:]}"
        else:
            problem = corpus.check(run.markdown)
        return result, run.checked(problem)

    # Set-ups alternate with rounds of passes, so the timed passes spread
    # over the whole run and a slow spell of the host weighs on fewer.
    setup_times, timed, good = [], [], []
    for repeat in range(SETUP_REPEATS):
        shutil.rmtree(WORK / "corpus", ignore_errors=True)
        started = time.perf_counter()
        run.corpus = prepare(workload, seed, str(WORK / "corpus"))
        setup_times.append(time.perf_counter() - started)
        if repeat == 0:
            one_pass()  # warm-up: page cache, compiled bytecode
        deadline = time.perf_counter() + seconds / SETUP_REPEATS
        round_passes = 0
        while time.perf_counter() < deadline or round_passes < 1:
            result, ok = one_pass()
            round_passes += 1
            timed.append(result)
            if ok:
                good.append(result)
    samples = good or timed
    walls = [result.wall_s for result in samples]
    rss = [result.peak_rss_mb for result in samples]
    study_s = statistics.median(walls)
    metrics = {
        "study_s": (study_s, "s"),
        "events_per_s": (run.corpus.events / study_s, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return {
        "run": run,
        "metrics": metrics,
        "samples": {
            "study_s": walls,
            "peak_rss_mb": rss,
            "setup_s": setup_times,
        },
    }


def trace(workload, seed: int, seconds: float) -> dict:
    """``--trace 1``: per-layer metrics from traced in-process passes."""
    from passes import run_in_process
    from tracer import COUNTERS, TIMED_LAYERS, Tracer
    from workloads import prepare

    corpus = prepare(workload, seed, str(WORK / "corpus"))
    run = Run(corpus)
    args = workload.study_args(corpus.corpus_dir, run.markdown, 1,
                               corpus.store)

    def one_pass(tracer: Optional[Tracer]) -> float:
        corpus.reset_store()
        run.fresh_markdown()
        if tracer is not None:
            tracer.install()
        try:
            wall_s = run_in_process(args)
        finally:
            if tracer is not None:
                tracer.uninstall()
        run.checked(corpus.check(run.markdown))
        return wall_s

    one_pass(None)  # warm-up: imports, page cache
    untraced: List[float] = []
    traced: List[float] = []
    per_pass: List[Dict[str, float]] = []
    self_times: List[Dict[str, float]] = []
    tracer = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < 2:
        untraced.append(one_pass(None))
        tracer = Tracer()
        wall_s = one_pass(tracer)
        tracer.finish()
        traced.append(wall_s)
        layers = {f"{stem}_s": value
                  for stem, value in tracer.layer_seconds().items()}
        layers.update((name, tracer.counters[name]) for name in COUNTERS)
        hits = tracer.counters["store.hits"]
        lookups = hits + tracer.counters["store.misses"]
        layers["store.hit_ratio"] = hits / lookups if lookups else 0.0
        selfs = tracer.self_seconds()
        layers["tracing.coverage_share"] = sum(selfs.values()) / wall_s
        per_pass.append(layers)
        self_times.append(selfs)

    metrics = {}
    for stem in TIMED_LAYERS:
        name = f"{stem}_s"
        metrics[name] = (statistics.median(p[name] for p in per_pass), "s")
    for name in COUNTERS:
        metrics[name] = (statistics.median(p[name] for p in per_pass),
                         "count")
    metrics["store.hit_ratio"] = (
        statistics.median(p["store.hit_ratio"] for p in per_pass), "share")
    metrics["sim.generate_s"] = (corpus.generate_s, "s")
    traced_s, untraced_s = statistics.median(traced), statistics.median(
        untraced)
    metrics["tracing.traced_s"] = (traced_s, "s")
    metrics["tracing.untraced_s"] = (untraced_s, "s")
    metrics["tracing.overhead_share"] = (traced_s / untraced_s - 1, "share")
    metrics["tracing.coverage_share"] = (
        statistics.median(p["tracing.coverage_share"] for p in per_pass),
        "share")
    self_median = {
        stem: statistics.median(s[stem] for s in self_times)
        for stem in TIMED_LAYERS
    }
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps(tracer.records()))
    return {
        "run": run,
        "metrics": metrics,
        "self_s": self_median,
        "spans": str(spans_path.relative_to(ROOT)),
        "samples": {"traced_s": traced, "untraced_s": untraced},
    }


def report(workload, seed: int, trace_run: bool, outcome: dict,
           host: dict) -> dict:
    """Print the human summary; return the full record."""
    run: Run = outcome["run"]
    corpus = run.corpus
    meta = corpus.metadata()
    print(f"perfbench {workload.name} seed {seed} "
          f"({'traced' if trace_run else 'timed'}): {meta['streams']} "
          f"{meta['format']} streams, {meta['events']:,} events, "
          f"{meta['instances']:,} instances, {meta['bytes']:,} bytes, "
          f"workers {meta['workers']}, store {meta['store']}")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"  {name:<26} {value:>16.6g} {unit}")
    failed = len(run.problems)
    print(f"  {'failed_share':<26} {failed / run.attempted:>16.6g} share "
          f"({failed} of {run.attempted} passes)")
    for problem in dict.fromkeys(run.problems):
        print(f"    failure: {problem}")
    if trace_run:
        selfs = outcome["self_s"]
        traced_s = outcome["metrics"]["tracing.traced_s"][0]
        print("  self time by layer (median traced pass):")
        for stem, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
            if value > 0:
                print(f"    {stem:<24} {value:10.4f} s "
                      f"{100 * value / traced_s:5.1f}%")
        coverage = outcome["metrics"]["tracing.coverage_share"][0]
        if coverage < 0.9:
            print(f"  WARNING: layer spans cover only {coverage:.0%} of the "
                  "traced wall time (below 90%)")
        print(f"  spans: {outcome['spans']}")
    else:
        limits = bounds()
        samples = outcome["samples"]
        for name in ("study_s", "peak_rss_mb", "setup_s"):
            values = samples[name]
            bound = limits.get(name)
            print(f"  spread {name:<19} {spread(values):8.1%} over "
                  f"{len(values)} samples"
                  + (f" (bound {bound:.0%})" if bound is not None else ""))
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace_run),
        "host": host,
        "corpus": meta,
        "attempted": run.attempted,
        "failures": run.problems,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
        **{key: value for key, value in outcome.items()
           if key in ("samples", "self_s", "spans")},
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} is missing; run the benchmark "
              "from a checkout of the whole repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    OUT.mkdir(exist_ok=True)
    host = host_metadata()
    try:
        runner = trace if args.trace else measure
        outcome = runner(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    record = report(workload, args.seed, bool(args.trace), outcome, host)
    record_path = (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
                   ".json")
    record_path.write_text(json.dumps(record, indent=1))
    print(f"  record: {record_path.relative_to(ROOT)}")
    run: Run = outcome["run"]
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.problems),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
