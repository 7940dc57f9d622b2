"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-corpus")
    code = main([
        "generate", "--streams", "3", "--seed", "11", "--out", str(path),
    ])
    assert code == 0
    return path


class TestGenerateAndValidate:
    def test_generate_writes_jsonl(self, corpus_dir):
        files = list(corpus_dir.glob("*.jsonl"))
        assert len(files) == 3

    def test_validate_passes(self, corpus_dir, capsys):
        assert main(["validate", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") >= 3

    def test_validate_single_file(self, corpus_dir):
        first = sorted(corpus_dir.glob("*.jsonl"))[0]
        assert main(["validate", str(first)]) == 0

    def test_missing_traces_errors(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["validate", str(empty)]) == 2


class TestImpact:
    def test_impact_prints_metrics(self, corpus_dir, capsys):
        assert main(["impact", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "IA_wait" in out
        assert "D_wait/D_waitdist" in out

    def test_impact_scenario_scope(self, corpus_dir, capsys):
        assert main([
            "impact", str(corpus_dir), "--scenario", "WebPageNavigation",
        ]) == 0

    def test_impact_custom_components(self, corpus_dir, capsys):
        assert main([
            "impact", str(corpus_dir), "--components", "fv.sys", "fs.sys",
        ]) == 0
        assert "fv.sys" in capsys.readouterr().out


class TestCausality:
    def test_known_scenario_uses_registry_thresholds(self, corpus_dir, capsys):
        code = main([
            "causality", str(corpus_dir),
            "--scenario", "WebPageNavigation", "--top", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wait signatures" in out or "0 contrast patterns" in out

    def test_unknown_scenario_without_thresholds(self, corpus_dir, capsys):
        code = main([
            "causality", str(corpus_dir), "--scenario", "NoSuchScenario",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown scenario 'NoSuchScenario'" in err
        assert "pass --t-fast and --t-slow" in err
        # The registered scenarios are named, so a typo is easy to fix.
        assert "known: AppAccessControl" in err
        assert "WebPageNavigation" in err

    def test_filter_by_design_flag(self, corpus_dir, capsys):
        code = main([
            "causality", str(corpus_dir),
            "--scenario", "WebPageNavigation", "--filter-by-design",
        ])
        assert code == 0
        assert "by-design filtering" in capsys.readouterr().out


class TestThresholds:
    def test_thresholds_table(self, corpus_dir, capsys):
        code = main(["thresholds", str(corpus_dir), "--min-samples", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "T_fast" in out

    def test_thresholds_no_data(self, corpus_dir, capsys):
        code = main([
            "thresholds", str(corpus_dir), "--min-samples", "99999",
        ])
        assert code == 1


class TestStudy:
    def test_study_with_markdown(self, corpus_dir, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        code = main([
            "study", str(corpus_dir), "--markdown", str(out_file),
        ])
        assert code == 0
        assert out_file.read_text().startswith("#")
        out = capsys.readouterr().out
        assert "Tables 1-3 combined" in out


class TestCompare:
    def test_compare_same_corpus_is_stable(self, corpus_dir, capsys):
        code = main([
            "compare", str(corpus_dir), str(corpus_dir),
            "--scenario", "WebPageNavigation",
        ])
        # Identical corpora: no regressions -> exit 0.
        assert code == 0
        out = capsys.readouterr().out
        assert "Pattern diff" in out

    def test_compare_unknown_scenario_errors(self, corpus_dir):
        assert main([
            "compare", str(corpus_dir), str(corpus_dir),
            "--scenario", "NoSuch",
        ]) == 2


class TestPipelineOptionValidation:
    @pytest.mark.parametrize("command", ["impact", "causality", "study"])
    def test_workers_below_one_rejected(self, corpus_dir, command, capsys):
        argv = [command, str(corpus_dir), "--workers", "0"]
        if command == "causality":
            argv += ["--scenario", "WebPageNavigation"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--workers must be >= 1" in err

    def test_negative_workers_rejected(self, corpus_dir, capsys):
        assert main(["study", str(corpus_dir), "--workers", "-3"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_chunk_size_below_one_rejected(self, corpus_dir, capsys):
        assert main([
            "study", str(corpus_dir), "--workers", "2", "--chunk-size", "0",
        ]) == 2
        assert "--chunk-size must be >= 1" in capsys.readouterr().err

    def test_generate_workers_validated(self, tmp_path, capsys):
        assert main([
            "generate", "--streams", "2", "--out", str(tmp_path / "c"),
            "--workers", "0",
        ]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_prewarm_workers_validated(self, corpus_dir, tmp_path, capsys):
        assert main([
            "store", "prewarm", str(tmp_path / "store"), str(corpus_dir),
            "--workers", "0",
        ]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err


class TestResilienceOptionValidation:
    @pytest.mark.parametrize("command", ["impact", "causality", "study"])
    def test_unknown_on_error_rejected(self, corpus_dir, command, capsys):
        argv = [command, str(corpus_dir), "--on-error", "lenient"]
        if command == "causality":
            argv += ["--scenario", "WebPageNavigation"]
        assert main(argv) == 2
        assert "--on-error must be one of" in capsys.readouterr().err

    def test_negative_max_retries_rejected(self, corpus_dir, capsys):
        assert main([
            "study", str(corpus_dir), "--max-retries", "-1",
        ]) == 2
        assert "--max-retries must be >= 0" in capsys.readouterr().err


class TestResilienceCli:
    @pytest.fixture()
    def damaged_corpus(self, corpus_dir, tmp_path):
        import shutil

        directory = tmp_path / "damaged"
        shutil.copytree(corpus_dir, directory)
        victim = sorted(directory.glob("*.jsonl"))[0]
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
        return directory

    def test_skip_matches_survivor_study(self, damaged_corpus, capsys):
        broken = sorted(damaged_corpus.glob("*.jsonl"))[0]
        broken_name = broken.name
        broken.rename(broken.with_suffix(".bad"))
        assert main(["study", str(damaged_corpus)]) == 0
        survivors_only = capsys.readouterr().out
        broken.with_suffix(".bad").rename(broken)

        assert main([
            "study", str(damaged_corpus), "--on-error", "skip",
        ]) == 0
        assert capsys.readouterr().out == survivors_only

    def test_health_json_sidecar_written(self, damaged_corpus, tmp_path, capsys):
        import json

        sidecar = tmp_path / "health.json"
        assert main([
            "study", str(damaged_corpus),
            "--on-error", "skip", "--health-json", str(sidecar),
        ]) == 0
        capsys.readouterr()
        data = json.loads(sidecar.read_text())
        assert data["analyzed"] == 2
        assert data["skipped"] == 1
        assert data["failures"][0]["action"] == "skipped"

    def test_verbose_prints_health_summary(self, damaged_corpus, capsys):
        assert main([
            "study", str(damaged_corpus), "--on-error", "salvage", "--verbose",
        ]) == 0
        err = capsys.readouterr().err
        assert "run health:" in err

    def test_strict_run_still_fails_loudly(self, damaged_corpus, capsys):
        assert main(["study", str(damaged_corpus)]) == 2

    def test_doctor_triages_and_exits_by_policy(self, damaged_corpus, capsys):
        code = main(["corpus", "doctor", str(damaged_corpus)])
        out = capsys.readouterr().out
        # Default policy is salvage: the truncated file either recovers
        # (exit 0, "salvaged") or is reported broken (exit 1).
        assert ("salvaged" in out) == (code == 0)
        assert out.count("ok") >= 2

        assert main([
            "corpus", "doctor", str(damaged_corpus), "--on-error", "strict",
        ]) == 1
        assert "BROKEN" in capsys.readouterr().out

    def test_doctor_flags_duplicate_stems(self, corpus_dir, tmp_path, capsys):
        import shutil

        directory = tmp_path / "dupes"
        shutil.copytree(corpus_dir, directory)
        first = sorted(directory.glob("*.jsonl"))[0]
        assert main([
            "trace", "convert", str(first), str(first.with_suffix(".rtb")),
        ]) == 0
        capsys.readouterr()
        assert main(["corpus", "doctor", str(directory)]) == 1
        assert "DUPLICATE" in capsys.readouterr().out

    def test_doctor_writes_health_json(self, damaged_corpus, tmp_path, capsys):
        import json

        sidecar = tmp_path / "doctor.json"
        main([
            "corpus", "doctor", str(damaged_corpus),
            "--health-json", str(sidecar),
        ])
        capsys.readouterr()
        data = json.loads(sidecar.read_text())
        assert data["analyzed"] + data["skipped"] == 3

    def test_fuzz_is_deterministic_and_reported(
        self, corpus_dir, tmp_path, capsys
    ):
        import shutil

        first = tmp_path / "fuzz-a"
        second = tmp_path / "fuzz-b"
        shutil.copytree(corpus_dir, first)
        shutil.copytree(corpus_dir, second)
        assert main(["corpus", "fuzz", str(first), "--seed", "77"]) == 0
        out = capsys.readouterr().out
        assert "corrupted" in out
        assert main(["corpus", "fuzz", str(second), "--seed", "77"]) == 0
        capsys.readouterr()
        for name in sorted(p.name for p in first.glob("*.jsonl")):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_fuzz_rejects_unknown_corruptor(self, corpus_dir, tmp_path, capsys):
        import shutil

        directory = tmp_path / "fuzz-bad"
        shutil.copytree(corpus_dir, directory)
        assert main([
            "corpus", "fuzz", str(directory), "--seed", "1",
            "--corruptor", "rot13",
        ]) == 2
        assert "--corruptor must be one of" in capsys.readouterr().err

    def test_fuzz_then_skip_study_never_crashes(self, corpus_dir, tmp_path, capsys):
        import shutil

        directory = tmp_path / "fuzz-study"
        shutil.copytree(corpus_dir, directory)
        assert main([
            "corpus", "fuzz", str(directory), "--seed", "13",
            "--fraction", "0.5",
        ]) == 0
        capsys.readouterr()
        code = main(["study", str(directory), "--on-error", "skip"])
        assert code == 0


class TestStoreCli:
    def test_store_runs_are_byte_identical_and_reported(
        self, corpus_dir, tmp_path, capsys
    ):
        store = tmp_path / "store"
        assert main(["study", str(corpus_dir)]) == 0
        baseline = capsys.readouterr().out
        assert main(["study", str(corpus_dir), "--store", str(store)]) == 0
        cold = capsys.readouterr()
        assert main(["study", str(corpus_dir), "--store", str(store)]) == 0
        warm = capsys.readouterr()
        assert cold.out == baseline
        assert warm.out == baseline
        assert "0 hits, 3 misses" in cold.err
        assert "3 hits, 0 misses" in warm.err

    def test_impact_and_causality_accept_store(
        self, corpus_dir, tmp_path, capsys
    ):
        store = tmp_path / "store"
        assert main([
            "impact", str(corpus_dir), "--store", str(store),
        ]) == 0
        assert "3 misses" in capsys.readouterr().err
        assert main([
            "causality", str(corpus_dir),
            "--scenario", "WebPageNavigation", "--store", str(store),
        ]) == 0

    def test_stats_verify_gc(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["study", str(corpus_dir), "--store", str(store)]) == 0
        capsys.readouterr()

        assert main(["store", "stats", str(store)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "quarantined" in out

        assert main(["store", "verify", str(store), "--deep"]) == 0
        assert "0 corrupt" in capsys.readouterr().out

        assert main(["store", "gc", str(store), "--corpus", str(corpus_dir)]) == 0
        assert "kept 3" in capsys.readouterr().out

    def test_verify_flags_corruption(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["study", str(corpus_dir), "--store", str(store)]) == 0
        capsys.readouterr()
        victim = next((store / "objects").rglob("*.partial"))
        victim.write_bytes(b"rotten")
        assert main(["store", "verify", str(store)]) == 1
        assert "1 corrupt" in capsys.readouterr().out
        # The bad entry is quarantined; a re-verify is clean.
        assert main(["store", "verify", str(store)]) == 0

    def test_prewarm_then_study_all_hits(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        assert main([
            "store", "prewarm", str(store), str(corpus_dir), "--workers", "2",
        ]) == 0
        assert "3 streams computed" in capsys.readouterr().out
        assert main(["study", str(corpus_dir), "--store", str(store)]) == 0
        assert "3 hits, 0 misses" in capsys.readouterr().err


class TestTraceUtilities:
    def test_generate_rtb_corpus(self, tmp_path, capsys):
        out_dir = tmp_path / "rtb-corpus"
        assert main([
            "generate", "--streams", "2", "--seed", "11",
            "--out", str(out_dir), "--format", "rtb",
        ]) == 0
        assert "2 rtb streams" in capsys.readouterr().out
        assert len(list(out_dir.glob("*.rtb"))) == 2
        assert not list(out_dir.glob("*.jsonl"))

    def test_convert_corpus_directory_and_analyze(
        self, corpus_dir, tmp_path, capsys
    ):
        converted = tmp_path / "rtb"
        assert main([
            "trace", "convert", str(corpus_dir), str(converted),
        ]) == 0
        assert "converted 3 streams to rtb" in capsys.readouterr().out
        assert len(list(converted.glob("*.rtb"))) == 3
        assert main(["impact", str(converted)]) == 0
        rtb_out = capsys.readouterr().out
        assert main(["impact", str(corpus_dir)]) == 0
        assert capsys.readouterr().out == rtb_out

    def test_convert_single_file_round_trip(self, corpus_dir, tmp_path, capsys):
        from repro.trace import load_stream

        source = sorted(corpus_dir.glob("*.jsonl"))[0]
        rtb = tmp_path / "one.rtb"
        back = tmp_path / "back.jsonl"
        assert main(["trace", "convert", str(source), str(rtb)]) == 0
        assert main(["trace", "convert", str(rtb), str(back)]) == 0
        capsys.readouterr()
        assert back.read_bytes() == source.read_bytes()
        assert load_stream(rtb).events == load_stream(source).events

    def test_convert_needs_inferable_format(self, corpus_dir, tmp_path):
        source = sorted(corpus_dir.glob("*.jsonl"))[0]
        assert main([
            "trace", "convert", str(source), str(tmp_path / "out.bin"),
        ]) == 2

    def test_info_reports_format_and_hash(self, corpus_dir, tmp_path, capsys):
        source = sorted(corpus_dir.glob("*.jsonl"))[0]
        rtb = tmp_path / "one.rtb"
        assert main(["trace", "convert", str(source), str(rtb)]) == 0
        capsys.readouterr()
        assert main(["trace", "info", str(rtb)]) == 0
        out = capsys.readouterr().out
        assert "rtb" in out
        assert "content hash" in out
        assert main(["trace", "info", str(source)]) == 0
        assert "jsonl" in capsys.readouterr().out


class TestVerboseTiming:
    def test_verbose_prints_map_phase_summary(self, corpus_dir, capsys):
        assert main(["impact", str(corpus_dir), "--verbose"]) == 0
        captured = capsys.readouterr()
        assert "map phase:" in captured.err
        assert "events/s" in captured.err
        assert "3 jsonl" in captured.err
        assert "map phase" not in captured.out

    def test_verbose_output_matches_quiet_run(self, corpus_dir, capsys):
        assert main(["study", str(corpus_dir)]) == 0
        quiet = capsys.readouterr().out
        assert main(["study", str(corpus_dir), "--verbose"]) == 0
        captured = capsys.readouterr()
        assert captured.out == quiet
        assert "map phase:" in captured.err

    def test_verbose_reports_store_hit_rate(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        assert main([
            "impact", str(corpus_dir), "--store", str(store), "--verbose",
        ]) == 0
        capsys.readouterr()
        assert main([
            "impact", str(corpus_dir), "--store", str(store), "--verbose",
        ]) == 0
        err = capsys.readouterr().err
        assert "store: 3/3 hits (100.0%)" in err


class TestExplore:
    TINY_GRID = [
        "explore",
        "--scenarios", "LockConvoy",
        "--policies", "fifo", "shuffle",
        "--seeds", "0",
        "--intensities", "0.4",
        "--repeats", "2",
    ]

    def test_tiny_grid_renders_coverage_table(self, capsys):
        assert main(self.TINY_GRID) == 0
        out = capsys.readouterr().out
        assert "Schedule exploration coverage" in out
        assert "LockConvoy" in out
        assert "total distinct contention shapes" in out

    def test_json_report_is_byte_identical_across_workers(self, capsys):
        import json

        reports = []
        for workers in ("1", "2"):
            assert main(
                self.TINY_GRID + ["--json", "--workers", workers]
            ) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        payload = json.loads(reports[0])
        assert payload["cells"]

    def test_unknown_policy_is_config_error_not_fallback(self, capsys):
        # Satellite requirement: a typoed policy must exit 2 loudly,
        # never silently fall back to FIFO.
        argv = [arg for arg in self.TINY_GRID]
        argv[argv.index("shuffle")] = "fifoo"
        assert main(argv) == 2
        assert "unknown scheduler policy 'fifoo'" in capsys.readouterr().err

    def test_unknown_scenario_is_config_error(self, capsys):
        argv = [arg for arg in self.TINY_GRID]
        argv[argv.index("LockConvoy")] = "NoSuchScenario"
        assert main(argv) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_case_requires_valid_name(self):
        with pytest.raises(SystemExit):
            main(["case", "nope"])

    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["store"])

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_corpus_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["corpus"])

    def test_fuzz_requires_seed(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["corpus", "fuzz", str(tmp_path)])
