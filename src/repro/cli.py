"""Command-line interface.

Subcommands cover the full workflow a performance analyst would run:

* ``repro generate`` — synthesize a trace corpus to JSONL;
* ``repro validate`` — check trace files against the schema invariants;
* ``repro impact``   — impact analysis over a corpus (§3);
* ``repro causality``— causality analysis of one scenario (§4);
* ``repro study``    — the full evaluation: Tables 1–4 (§5);
* ``repro thresholds`` — suggest T_fast/T_slow from observed durations;
* ``repro compare``  — diff two corpora's patterns (regression check);
* ``repro case``     — replay a paper case study (figure1 / hardfault);
* ``repro store``    — artifact-store maintenance (stats/verify/gc/prewarm);
* ``repro trace``    — trace-file utilities (convert between formats, info);
* ``repro corpus``   — corpus health tools (doctor triages damaged traces,
  fuzz injects deterministic corruption for resilience testing).

Traces are directories of ``*.jsonl`` and/or ``*.rtb`` streams as
written by ``repro generate`` (or any producer of the documented
schema); the two encodings are losslessly interchangeable via ``repro
trace convert``.  The analysis commands accept ``--store DIR`` to cache
per-trace partials in a content-addressed artifact store
(``docs/STORE.md``): re-runs over an unchanged corpus are then nearly
free, and a grown corpus only pays for its new traces.  Output is
byte-identical with and without a store and across trace formats; cache
statistics and ``--verbose`` timing summaries go to stderr.

Hostile corpora are handled by the resilience layer
(``docs/RESILIENCE.md``): ``--on-error skip|salvage`` makes the
analysis commands tolerate damaged trace files and crashing workers,
``--max-retries`` bounds the crash-retry budget, and ``--health-json``
writes a machine-readable run-health report for CI gates.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.causality import CausalityAnalysis
from repro.causality.filtering import ByDesignKnowledge, filter_by_design
from repro.causality.thresholds import suggest_for_corpus
from repro.errors import ConfigError, ReproError
from repro.evaluation.drivertypes import DRIVER_TYPE_ORDER
from repro.report.tables import Table, fmt_pct, fmt_ratio
from repro.sim.corpus import CorpusConfig, generate_corpus
from repro.sim.sched import POLICY_NAMES
from repro.sim.workloads.registry import (
    PATHOLOGY_SCENARIO_NAMES,
    scenario_spec,
)
from repro.trace import (
    dump_corpus,
    iter_corpus_paths,
    load_corpus,
    load_stream,
    validate_stream,
)
from repro.units import MILLISECONDS


def _load_traces(path: str) -> List:
    import os

    if os.path.isdir(path):
        streams = list(load_corpus(path))
    else:
        streams = [load_stream(path)]
    if not streams:
        raise ReproError(f"no trace streams found at {path!r}")
    return streams


def _trace_sources(path: str) -> List[str]:
    """Corpus sources as *paths*, so pipeline workers stream their own chunks."""
    import os

    if os.path.isdir(path):
        sources = iter_corpus_paths(path)
    else:
        sources = [path]
    if not sources:
        raise ReproError(f"no trace streams found at {path!r}")
    return sources


def _add_worker_options(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--workers", type=int, default=1,
        help="map-reduce pipeline processes; 1 analyzes in-process, "
             ">1 fans the corpus out, with identical output",
    )
    subparser.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="streams per pipeline chunk (default: auto)",
    )
    subparser.add_argument(
        "--store", default=None, metavar="DIR",
        help="artifact store caching per-trace partials; re-runs only "
             "recompute new or changed traces, output stays identical",
    )
    subparser.add_argument(
        "--verbose", action="store_true",
        help="print a one-line map-phase timing summary "
             "(events/sec, formats, cache hit rate) to stderr",
    )
    _add_resilience_options(subparser)


def _add_resilience_options(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--on-error", default="strict", metavar="POLICY",
        help="damaged-trace policy: strict (default, fail the run), "
             "skip (drop and record), or salvage (keep the valid "
             "portion; see docs/RESILIENCE.md)",
    )
    subparser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="extra attempts per chunk after a worker crash before "
             "bisection/fallback (default: 2)",
    )
    subparser.add_argument(
        "--health-json", default=None, metavar="FILE",
        help="write a machine-readable run-health report (analyzed/"
             "skipped/salvaged/quarantined counts plus failures)",
    )


def _validate_pipeline_options(args: argparse.Namespace) -> None:
    """Reject out-of-range pipeline knobs before they reach the pool layer."""
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise ConfigError(
            f"--workers must be >= 1, got {workers} "
            "(1 = in-process, N > 1 = N analysis processes)"
        )
    chunk_size = getattr(args, "chunk_size", None)
    if chunk_size is not None and chunk_size < 1:
        raise ConfigError(
            f"--chunk-size must be >= 1, got {chunk_size} "
            "(omit the flag to size chunks automatically)"
        )
    from repro.resilience import validate_max_retries, validate_on_error

    validate_on_error(getattr(args, "on_error", "strict"))
    validate_max_retries(getattr(args, "max_retries", 0))


def _run_pipeline(args: argparse.Namespace, entry_point, *params, **options):
    """Run one ``repro.pipeline`` entry point over the command's corpus.

    Every analysis command goes through here: the corpus streams through
    the map–reduce pipeline with the command's worker, store and
    resilience options.  The map-phase summary (``--verbose``), store
    statistics and run health go to stderr or the ``--health-json``
    sidecar, so stdout stays byte-identical whatever is reported.
    """
    from repro.pipeline import MapPhaseStats, open_store
    from repro.resilience import RunHealth

    store = open_store(args.store or None)
    stats = MapPhaseStats() if args.verbose else None
    # Health is tracked whenever someone will see it.
    wants_health = (
        args.verbose or args.on_error != "strict" or args.health_json
    )
    health = RunHealth() if wants_health else None
    result = entry_point(
        _trace_sources(args.traces),
        *params,
        workers=args.workers,
        chunk_size=args.chunk_size,
        store=store,
        stats=stats,
        on_error=args.on_error,
        max_retries=args.max_retries,
        health=health,
        **options,
    )
    if stats is not None:
        print(stats.summary(), file=sys.stderr)
    if store is not None and store.session_lookups:
        print(
            f"store: {store.hits} hits, {store.misses} misses "
            f"({store.hit_rate:.1%} hit rate) in {store.directory}",
            file=sys.stderr,
        )
    if health is not None:
        if args.verbose:
            print(health.summary(), file=sys.stderr)
        if args.health_json:
            health.write_json(args.health_json)
    return result


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    _validate_pipeline_options(args)
    config = CorpusConfig(streams=args.streams, seed=args.seed)
    print(f"Generating {args.streams} streams (seed {args.seed}) ...")
    corpus = generate_corpus(config, workers=args.workers)
    paths = dump_corpus(corpus, args.out, format=args.format)
    events = sum(len(stream.events) for stream in corpus)
    instances = sum(len(stream.instances) for stream in corpus)
    print(
        f"Wrote {len(paths)} {args.format} streams ({events} events, "
        f"{instances} scenario instances) to {args.out}"
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    streams = _load_traces(args.traces)
    failures = 0
    for stream in streams:
        try:
            validate_stream(stream)
            print(f"ok      {stream.stream_id} ({len(stream.events)} events)")
        except ReproError as error:
            failures += 1
            print(f"INVALID {stream.stream_id}: {error}")
    return 1 if failures else 0


def cmd_impact(args: argparse.Namespace) -> int:
    from repro.pipeline import parallel_impact

    _validate_pipeline_options(args)
    result = _run_pipeline(
        args,
        parallel_impact,
        component_patterns=args.components,
        scenarios=args.scenario if args.scenario else None,
    )
    table = Table(
        ["Metric", "Value"],
        title=f"Impact of {', '.join(args.components)}",
    )
    table.add_row("instances", result.graphs)
    table.add_row("IA_wait", fmt_pct(result.ia_wait))
    table.add_row("IA_run", fmt_pct(result.ia_run))
    table.add_row("IA_opt", fmt_pct(result.ia_opt))
    table.add_row("D_wait/D_waitdist", fmt_ratio(result.wait_multiplicity))
    print(table.render())
    return 0


def _causality_thresholds(args: argparse.Namespace):
    """Resolve (t_fast, t_slow) from flags or the scenario registry."""
    if args.t_fast and args.t_slow:
        return args.t_fast * MILLISECONDS, args.t_slow * MILLISECONDS
    spec = scenario_spec(args.scenario)
    return spec.t_fast, spec.t_slow


def cmd_causality(args: argparse.Namespace) -> int:
    from repro.errors import AnalysisError
    from repro.pipeline import parallel_causality

    _validate_pipeline_options(args)
    try:
        t_fast, t_slow = _causality_thresholds(args)
    except ConfigError as error:
        print(
            f"{error}; or pass --t-fast and --t-slow (milliseconds)",
            file=sys.stderr,
        )
        return 1
    try:
        report = _run_pipeline(
            args,
            parallel_causality,
            args.scenario,
            t_fast,
            t_slow,
            component_patterns=args.components,
            segment_bound=args.k,
        )
    except AnalysisError as error:
        print(str(error), file=sys.stderr)
        return 1
    print(report.summary())
    patterns = report.patterns
    if args.filter_by_design:
        filtered = filter_by_design(patterns, ByDesignKnowledge.default())
        print(
            f"by-design filtering suppressed {filtered.suppressed_count} "
            f"patterns, flagged {len(filtered.flagged)}"
        )
        patterns = filtered.actionable
    print()
    for rank, pattern in enumerate(patterns[: args.top], start=1):
        marker = "HIGH" if pattern.is_high_impact(t_slow) else "    "
        print(
            f"#{rank} {marker} impact={pattern.impact / 1000:.1f}ms "
            f"N={pattern.count} worst={pattern.max_single / 1000:.0f}ms"
        )
        print(pattern.sst.render(indent="      "))
        print()
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    from repro.pipeline import parallel_study

    _validate_pipeline_options(args)
    study = _run_pipeline(args, parallel_study)
    if args.markdown:
        from repro.report.markdown import save_study_markdown

        save_study_markdown(study, args.markdown)
        print(f"wrote markdown report to {args.markdown}")
    impact = study.impact

    table = Table(["Metric", "Value"], title="Impact analysis (section 5.1)")
    table.add_row("IA_wait", fmt_pct(impact.ia_wait))
    table.add_row("IA_run", fmt_pct(impact.ia_run))
    table.add_row("IA_opt", fmt_pct(impact.ia_opt))
    table.add_row("D_wait/D_waitdist", fmt_ratio(impact.wait_multiplicity))
    print(table.render())
    print()

    table = Table(["Scenario", "#Inst", "fast", "slow", "Driver", "ITC",
                   "TTC", "#Pat", "top10%", "top30%"],
                  title="Tables 1-3 combined")
    for name, study_item in sorted(study.scenarios.items()):
        classes = study_item.report.classes
        coverage = study_item.coverage
        top10, _, top30 = study_item.ranking_coverage
        table.add_row(
            name, classes.total, len(classes.fast), len(classes.slow),
            fmt_pct(coverage.driver_cost_share), fmt_pct(coverage.itc),
            fmt_pct(coverage.ttc), study_item.report.pattern_count,
            fmt_pct(top10), fmt_pct(top30),
        )
    print(table.render())
    print()

    headers = ["Scenario"] + [t.split("/")[0][:8] for t in DRIVER_TYPE_ORDER]
    table = Table(headers, title="Table 4 - Driver types in top-10 patterns")
    for name, counts in sorted(study.table4_rows().items()):
        table.add_row(name, *(counts.get(t, 0) for t in DRIVER_TYPE_ORDER))
    print(table.render())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.evaluation.compare import compare_impact, compare_patterns
    from repro.pipeline import parallel_causality, parallel_impact

    spec = scenario_spec(args.scenario)

    def analyze(path):
        sources = _trace_sources(path)
        report = parallel_causality(
            sources,
            args.scenario,
            spec.t_fast,
            spec.t_slow,
            component_patterns=args.components,
        )
        impact = parallel_impact(
            sources, args.components, scenarios=[args.scenario]
        )
        return report, impact

    baseline_report, baseline_impact = analyze(args.baseline)
    current_report, current_impact = analyze(args.current)

    delta = compare_impact(baseline_impact, current_impact)
    print(f"Impact movement: {delta.summary()}")
    comparison = compare_patterns(
        baseline_report.patterns,
        current_report.patterns,
        regression_factor=args.factor,
    )
    print(f"Pattern diff: {comparison.summary()}")
    for pattern in comparison.emerged[: args.top]:
        print("\nEMERGED:")
        print(pattern.sst.render(indent="  "))
    for movement in comparison.regressed[: args.top]:
        print(f"\nREGRESSED x{movement.ratio:.1f}:")
        print(movement.sst.render(indent="  "))
    return 1 if comparison.has_regressions else 0


def cmd_thresholds(args: argparse.Namespace) -> int:
    streams = _load_traces(args.traces)
    suggestions = suggest_for_corpus(
        streams,
        fast_quantile=args.fast_quantile,
        slow_quantile=args.slow_quantile,
        min_samples=args.min_samples,
    )
    if not suggestions:
        print("no scenario has enough instances for a suggestion",
              file=sys.stderr)
        return 1
    table = Table(
        ["Scenario", "T_fast (ms)", "T_slow (ms)", "samples",
         "fast frac", "slow frac"],
        title="Suggested performance thresholds",
    )
    for suggestion in suggestions:
        table.add_row(
            suggestion.scenario,
            round(suggestion.t_fast / MILLISECONDS, 1),
            round(suggestion.t_slow / MILLISECONDS, 1),
            suggestion.sample_size,
            f"{suggestion.fast_fraction:.0%}",
            f"{suggestion.slow_fraction:.0%}",
        )
    print(table.render())
    return 0


def cmd_case(args: argparse.Namespace) -> int:
    from repro.report.figures import render_wait_graph
    from repro.sim import casestudy
    from repro.waitgraph.builder import build_wait_graph

    if args.name == "figure1":
        result = casestudy.run_case_study()
        t_fast, t_slow = casestudy.T_FAST, casestudy.T_SLOW
        scenario = casestudy.SCENARIO
    else:
        result = casestudy.run_hardfault_case()
        t_fast, t_slow = casestudy.HARDFAULT_T_FAST, casestudy.HARDFAULT_T_SLOW
        scenario = casestudy.HARDFAULT_SCENARIO

    print(
        f"{scenario}: slow instance took "
        f"{result.slow_instance.duration / 1000:.0f} ms\n"
    )
    print(render_wait_graph(build_wait_graph(result.slow_instance),
                            max_depth=7))
    report = CausalityAnalysis(["*.sys"]).analyze(
        result.instances, t_fast, t_slow, scenario=scenario
    )
    if report.patterns:
        print("\nTop discovered pattern:")
        print(report.patterns[0].sst.render())
    return 0


# ---------------------------------------------------------------------------
# Trace-file utilities
# ---------------------------------------------------------------------------


_FORMAT_BY_SUFFIX = {".jsonl": "jsonl", ".rtb": "rtb"}


def _write_stream_as(stream, path: str, format: str) -> None:
    from repro.trace import dump_stream, dump_stream_binary

    if format == "rtb":
        dump_stream_binary(stream, path)
    else:
        dump_stream(stream, path)


def cmd_trace_convert(args: argparse.Namespace) -> int:
    import os

    source, dest = args.source, args.out
    if os.path.isdir(source):
        # Directory mode: re-dump the whole corpus in the target format.
        # dump_corpus names files <stream_id>.<format> and skips streams
        # whose destination already holds identical logical content.
        format = args.to or "rtb"
        count = 0
        for path in _trace_sources(source):
            stream = load_stream(path)
            dump_corpus([stream], dest, format=format)
            count += 1
        print(f"converted {count} streams to {format} in {dest}")
        return 0
    format = args.to or _FORMAT_BY_SUFFIX.get(
        os.path.splitext(dest)[1].lower()
    )
    if format is None:
        raise ConfigError(
            f"cannot infer the target format from {dest!r}; "
            "pass --to jsonl or --to rtb"
        )
    stream = load_stream(source)
    _write_stream_as(stream, dest, format)
    print(f"converted {source} -> {dest} ({format})")
    return 0


def cmd_trace_info(args: argparse.Namespace) -> int:
    import os

    from repro.trace import is_rtb_file, stream_content_hash

    path = args.trace
    stream = load_stream(path)
    format = "rtb" if is_rtb_file(path) else "jsonl"
    table = Table(["Field", "Value"], title=f"Trace {path}")
    table.add_row("format", format)
    table.add_row("stream id", stream.stream_id)
    table.add_row("events", len(stream.events))
    table.add_row("threads", len(stream.threads))
    table.add_row("instances", len(stream.instances))
    table.add_row("file bytes", os.path.getsize(path))
    table.add_row("content hash", stream_content_hash(path))
    print(table.render())
    return 0


# ---------------------------------------------------------------------------
# Corpus health tools
# ---------------------------------------------------------------------------


def cmd_corpus_doctor(args: argparse.Namespace) -> int:
    """Triage every trace file in a corpus without failing on any of them.

    Unlike the analysis commands, ``doctor`` does its own file listing:
    a corpus holding the same stream in two formats (duplicate stems,
    which :func:`iter_corpus_paths` rejects) is reported as a finding
    instead of aborting the checkup.
    """
    import os

    from repro.errors import TraceError, TraceSalvageError
    from repro.resilience import (
        RunHealth,
        failure_from_exception,
        validate_on_error,
    )
    from repro.trace.serialization import TRACE_SUFFIXES

    validate_on_error(args.on_error)
    root = args.corpus
    if not os.path.isdir(root):
        raise ConfigError(f"corpus must be a directory, got {root!r}")
    names = sorted(
        name for name in os.listdir(root) if name.endswith(TRACE_SUFFIXES)
    )
    if not names:
        raise ReproError(f"no trace streams found at {root!r}")

    health = RunHealth()
    problems = 0
    stem_owner: dict = {}
    for name in names:
        path = os.path.join(root, name)
        stem = name.rsplit(".", 1)[0]
        if stem in stem_owner:
            problems += 1
            health.record_failure(failure_from_exception(
                path, "corpus", "skipped",
                ReproError(
                    f"duplicate stem: same stream as {stem_owner[stem]} "
                    "(analysis would count it twice; convert or remove one)"
                ),
            ))
            print(f"DUPLICATE {name}: same stream as {stem_owner[stem]}")
            continue
        stem_owner[stem] = name
        try:
            stream = load_stream(path, on_error=args.on_error)
        except (TraceError, TraceSalvageError, OSError,
                UnicodeDecodeError) as error:
            problems += 1
            health.record_failure(
                failure_from_exception(path, "ingest", "skipped", error)
            )
            print(f"BROKEN    {name}: {error}")
            continue
        health.analyzed += 1
        if getattr(stream, "salvaged", False):
            dropped = getattr(stream, "salvage_dropped", 0)
            health.record_failure(failure_from_exception(
                path, "ingest", "salvaged",
                TraceSalvageError(
                    f"recovered {len(stream.events)} events, "
                    f"{len(stream.instances)} instances "
                    f"(dropped {dropped} damaged records)"
                ),
            ))
            print(
                f"salvaged  {name}: {len(stream.events)} events recovered "
                f"({dropped} damaged records dropped)"
            )
        else:
            print(
                f"ok        {name}: {len(stream.events)} events, "
                f"{len(stream.instances)} instances"
            )
    print(health.summary(), file=sys.stderr)
    if args.health_json:
        health.write_json(args.health_json)
    return 1 if problems else 0


def cmd_corpus_fuzz(args: argparse.Namespace) -> int:
    """Deterministically corrupt part of a corpus (resilience testing)."""
    from repro.resilience import fuzz_corpus, resolve_corruptors

    corruptors = (
        resolve_corruptors(args.corruptor) if args.corruptor else None
    )
    records = fuzz_corpus(
        args.corpus,
        seed=args.seed,
        fraction=args.fraction,
        corruptors=corruptors,
    )
    for record in records:
        print(f"{record.corruptor:<14} seed={record.seed:<10} {record.path}")
    print(
        f"corrupted {len(records)} trace files in {args.corpus} "
        f"(seed {args.seed})"
    )
    return 0


# ---------------------------------------------------------------------------
# Schedule exploration
# ---------------------------------------------------------------------------


def cmd_explore(args: argparse.Namespace) -> int:
    from repro.sim.explore import (
        ExploreConfig,
        explore_schedules,
        negative_control,
        smoke_config,
        verify_all_pathologies,
    )

    if args.smoke:
        config = smoke_config()
    else:
        config = ExploreConfig(
            scenarios=tuple(args.scenarios),
            policies=tuple(args.policies),
            seeds=tuple(args.seeds),
            intensities=tuple(args.intensities),
            repeats=args.repeats,
        )
    # Unknown policy or scenario names raise ConfigError here — the CLI
    # fails loudly (exit 2 via main) instead of falling back to FIFO.
    config.validate()
    report = explore_schedules(config, workers=args.workers)
    print(report.to_json() if args.json else report.render())

    if not args.oracle:
        return 0
    oracle_seeds = (0,) if args.smoke else tuple(args.seeds)
    oracle_intensities = (0.15, 0.85) if args.smoke else (0.15, 0.5, 0.85)
    oracle_repeats = 3 if args.smoke else 6
    verdicts = verify_all_pathologies(
        seeds=oracle_seeds,
        intensities=oracle_intensities,
        repeats=oracle_repeats,
    )
    for verdict in verdicts:
        print(f"oracle: {verdict.summary()}")
    clean = negative_control(repeats=oracle_repeats)
    print(f"oracle negative control: {'clean' if clean else 'CONTAMINATED'}")
    if any(not verdict.passed for verdict in verdicts) or not clean:
        return 1
    return 0


# ---------------------------------------------------------------------------
# Artifact-store maintenance
# ---------------------------------------------------------------------------


def cmd_store_stats(args: argparse.Namespace) -> int:
    from repro.store import ArtifactStore

    stats = ArtifactStore(args.store_dir).stats()
    table = Table(["Metric", "Value"], title=f"Store {args.store_dir}")
    table.add_row("entries", stats.entries)
    table.add_row("size (bytes)", stats.total_bytes)
    table.add_row("distinct traces", stats.distinct_traces)
    table.add_row("distinct fingerprints", stats.distinct_fingerprints)
    table.add_row("quarantined", stats.quarantined)
    table.add_row("quarantined bytes", stats.quarantined_bytes)
    print(table.render())
    for fingerprint, count in sorted(stats.fingerprints.items()):
        print(f"  {fingerprint[:16]}…  {count} entries")
    return 0


def cmd_store_verify(args: argparse.Namespace) -> int:
    from repro.store import ArtifactStore

    report = ArtifactStore(args.store_dir).verify(deep=args.deep)
    print(
        f"checked {report.checked} entries: {report.ok} ok, "
        f"{len(report.corrupt)} corrupt"
    )
    for path, reason in report.corrupt:
        print(f"QUARANTINED {path}: {reason}")
    return 0 if report.all_ok else 1


def cmd_store_gc(args: argparse.Namespace) -> int:
    from repro.store import ArtifactStore
    from repro.trace import stream_content_hash

    live = None
    if args.corpus:
        live = {
            stream_content_hash(path)
            for path in _trace_sources(args.corpus)
        }
    report = ArtifactStore(args.store_dir).gc(live_content_hashes=live)
    print(
        f"gc: removed {report.removed_entries} entries "
        f"({report.removed_bytes} bytes), "
        f"{report.removed_quarantined} quarantined files; "
        f"kept {report.kept_entries}"
    )
    return 0


def cmd_store_prewarm(args: argparse.Namespace) -> int:
    _validate_pipeline_options(args)
    from repro.pipeline import prewarm_store

    store = prewarm_store(
        _trace_sources(args.traces),
        args.store_dir,
        component_patterns=args.components,
        workers=args.workers,
        chunk_size=args.chunk_size,
    )
    print(
        f"prewarmed {store.directory}: {store.misses} streams computed, "
        f"{store.hits} already warm"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Trace-based performance comprehension (ASPLOS'14 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="synthesize a corpus")
    generate.add_argument("--streams", type=int, default=16)
    generate.add_argument("--seed", type=int, default=20140301)
    generate.add_argument("--out", required=True, metavar="DIR")
    generate.add_argument(
        "--format", choices=["jsonl", "rtb"], default="jsonl",
        help="corpus encoding: jsonl (interop default) or rtb "
             "(binary columnar fast path)",
    )
    generate.add_argument(
        "--workers", type=int, default=1,
        help="generator processes (identical output for any count)",
    )
    generate.set_defaults(handler=cmd_generate)

    validate = subparsers.add_parser("validate", help="validate trace files")
    validate.add_argument("traces", metavar="DIR_OR_FILE")
    validate.set_defaults(handler=cmd_validate)

    impact = subparsers.add_parser("impact", help="impact analysis")
    impact.add_argument("traces", metavar="DIR_OR_FILE")
    impact.add_argument("--components", nargs="+", default=["*.sys"])
    impact.add_argument("--scenario", nargs="+", default=None)
    _add_worker_options(impact)
    impact.set_defaults(handler=cmd_impact)

    causality = subparsers.add_parser("causality", help="causality analysis")
    causality.add_argument("traces", metavar="DIR_OR_FILE")
    causality.add_argument("--scenario", required=True)
    causality.add_argument("--components", nargs="+", default=["*.sys"])
    causality.add_argument("--t-fast", type=int, default=0,
                           help="fast threshold in ms")
    causality.add_argument("--t-slow", type=int, default=0,
                           help="slow threshold in ms")
    causality.add_argument("--k", type=int, default=5,
                           help="segment length bound")
    causality.add_argument("--top", type=int, default=5)
    causality.add_argument("--filter-by-design", action="store_true")
    _add_worker_options(causality)
    causality.set_defaults(handler=cmd_causality)

    study = subparsers.add_parser("study", help="full evaluation tables")
    study.add_argument("traces", metavar="DIR_OR_FILE")
    study.add_argument("--markdown", metavar="FILE",
                       help="also write a markdown report")
    _add_worker_options(study)
    study.set_defaults(handler=cmd_study)

    compare = subparsers.add_parser(
        "compare", help="diff two corpora's patterns (regression check)"
    )
    compare.add_argument("baseline", metavar="BASELINE_DIR")
    compare.add_argument("current", metavar="CURRENT_DIR")
    compare.add_argument("--scenario", required=True)
    compare.add_argument("--components", nargs="+", default=["*.sys"])
    compare.add_argument("--factor", type=float, default=2.0)
    compare.add_argument("--top", type=int, default=3)
    compare.set_defaults(handler=cmd_compare)

    thresholds = subparsers.add_parser(
        "thresholds", help="suggest T_fast/T_slow from observed durations"
    )
    thresholds.add_argument("traces", metavar="DIR_OR_FILE")
    thresholds.add_argument("--fast-quantile", type=float, default=0.40)
    thresholds.add_argument("--slow-quantile", type=float, default=0.70)
    thresholds.add_argument("--min-samples", type=int, default=10)
    thresholds.set_defaults(handler=cmd_thresholds)

    case = subparsers.add_parser("case", help="replay a paper case study")
    case.add_argument("name", choices=["figure1", "hardfault"])
    case.set_defaults(handler=cmd_case)

    explore = subparsers.add_parser(
        "explore",
        help="sweep scheduler policy × seed grids (see docs/EXPLORE.md)",
    )
    explore.add_argument(
        "--scenarios", nargs="+", metavar="NAME",
        default=list(PATHOLOGY_SCENARIO_NAMES),
        help="scenarios to explore (default: the pathology scenarios)",
    )
    explore.add_argument(
        "--policies", nargs="+", metavar="NAME",
        default=list(POLICY_NAMES),
        help=f"scheduling policies (known: {', '.join(POLICY_NAMES)})",
    )
    explore.add_argument(
        "--seeds", nargs="+", type=int, default=[0, 1, 2],
        help="policy seeds forming the grid's second axis",
    )
    explore.add_argument(
        "--intensities", nargs="+", type=float, default=[0.2, 0.5, 0.8],
        help="workload intensities swept inside every cell",
    )
    explore.add_argument("--repeats", type=int, default=4,
                         help="scenario instances per cell and intensity")
    explore.add_argument(
        "--workers", type=int, default=1,
        help="parallel cell processes (identical report for any count)",
    )
    explore.add_argument(
        "--smoke", action="store_true",
        help="small fixed CI grid (overrides the grid options)",
    )
    explore.add_argument(
        "--oracle", action="store_true",
        help="also run the planted-pathology mining oracle; exit 1 on miss",
    )
    explore.add_argument(
        "--json", action="store_true",
        help="emit the canonical JSON coverage report instead of the table",
    )
    explore.set_defaults(handler=cmd_explore)

    store = subparsers.add_parser(
        "store", help="artifact-store maintenance (see docs/STORE.md)"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_stats = store_sub.add_parser(
        "stats", help="entry counts, sizes and fingerprints"
    )
    store_stats.add_argument("store_dir", metavar="STORE")
    store_stats.set_defaults(handler=cmd_store_stats)

    store_verify = store_sub.add_parser(
        "verify", help="integrity-check every entry, quarantine corrupt ones"
    )
    store_verify.add_argument("store_dir", metavar="STORE")
    store_verify.add_argument(
        "--deep", action="store_true",
        help="also deserialize each payload, not just checksum it",
    )
    store_verify.set_defaults(handler=cmd_store_verify)

    store_gc = store_sub.add_parser(
        "gc", help="drop quarantined files and dead entries"
    )
    store_gc.add_argument("store_dir", metavar="STORE")
    store_gc.add_argument(
        "--corpus", metavar="DIR_OR_FILE",
        help="also drop entries for traces no longer in this corpus",
    )
    store_gc.set_defaults(handler=cmd_store_gc)

    store_prewarm = store_sub.add_parser(
        "prewarm",
        help="populate the store with full-study partials for a corpus",
    )
    store_prewarm.add_argument("store_dir", metavar="STORE")
    store_prewarm.add_argument("traces", metavar="DIR_OR_FILE")
    store_prewarm.add_argument("--components", nargs="+", default=["*.sys"])
    store_prewarm.add_argument(
        "--workers", type=int, default=1,
        help="prewarm processes (same pipeline as repro study)",
    )
    store_prewarm.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="streams per pipeline chunk (default: auto)",
    )
    store_prewarm.set_defaults(handler=cmd_store_prewarm)

    corpus = subparsers.add_parser(
        "corpus", help="corpus health tools (see docs/RESILIENCE.md)"
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    corpus_doctor = corpus_sub.add_parser(
        "doctor",
        help="triage every trace file: ok / salvageable / broken",
    )
    corpus_doctor.add_argument("corpus", metavar="DIR")
    corpus_doctor.add_argument(
        "--on-error", default="salvage", metavar="POLICY",
        help="checkup policy: salvage (default) also attempts recovery "
             "of broken files; strict or skip just verdicts them",
    )
    corpus_doctor.add_argument(
        "--health-json", default=None, metavar="FILE",
        help="write the checkup's run-health report as JSON",
    )
    corpus_doctor.set_defaults(handler=cmd_corpus_doctor)

    corpus_fuzz = corpus_sub.add_parser(
        "fuzz",
        help="deterministically corrupt part of a corpus IN PLACE "
             "(resilience testing; run on a copy)",
    )
    corpus_fuzz.add_argument("corpus", metavar="DIR")
    corpus_fuzz.add_argument(
        "--seed", type=int, required=True,
        help="fuzzing seed; the same seed always corrupts the same "
             "files the same way",
    )
    corpus_fuzz.add_argument(
        "--fraction", type=float, default=0.5,
        help="fraction of the corpus to corrupt, in (0, 1] (default: 0.5)",
    )
    corpus_fuzz.add_argument(
        "--corruptor", nargs="+", default=None, metavar="NAME",
        help="restrict to specific corruptors (default: all); see "
             "repro.resilience.CORRUPTORS",
    )
    corpus_fuzz.set_defaults(handler=cmd_corpus_fuzz)

    trace = subparsers.add_parser(
        "trace", help="trace-file utilities (see docs/FORMAT.md)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_convert = trace_sub.add_parser(
        "convert",
        help="losslessly convert traces between JSONL and RTB",
    )
    trace_convert.add_argument("source", metavar="SRC_DIR_OR_FILE")
    trace_convert.add_argument("out", metavar="DEST_DIR_OR_FILE")
    trace_convert.add_argument(
        "--to", choices=["jsonl", "rtb"], default=None,
        help="target format (default: from the destination suffix for "
             "files, rtb for directories)",
    )
    trace_convert.set_defaults(handler=cmd_trace_convert)

    trace_info = trace_sub.add_parser(
        "info", help="summarize one trace file (format, counts, hash)"
    )
    trace_info.add_argument("trace", metavar="FILE")
    trace_info.set_defaults(handler=cmd_trace_info)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
