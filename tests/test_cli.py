"""Tests for the command-line interface."""

import gc
import json

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize", "mibench", "fft"])
        assert args.family == "2-in" and args.cache_kb == 4
        assert args.kind == "data" and not args.guard

    def test_search_defaults(self):
        args = build_parser().parse_args(["search", "mibench", "fft"])
        assert args.strategy == "steepest" and args.restarts == 0
        assert args.max_steps is None and args.family == "2-in"

    def test_campaign_strategy_default(self):
        args = build_parser().parse_args(["campaign"])
        assert args.strategy == "steepest"


class TestCommands:
    def test_workloads_lists_suites(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "mibench:" in out and "powerstone:" in out
        assert "rijndael" in out and "ucbqsort" in out

    def test_backends_lists_registry(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out and "python" in out and "numba" in out
        assert "* " in out  # exactly one active marker line
        assert "REPRO_BACKEND" in out

    def test_backends_json(self, capsys):
        assert main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["backends"]
        names = {row["name"] for row in rows}
        assert {"numpy", "python", "numba"} <= names
        assert sum(row["active"] for row in rows) == 1
        active = next(row for row in rows if row["active"])
        assert active["available"]

    def test_backends_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        active = next(row for row in payload["backends"] if row["active"])
        assert active["name"] == "python"

    def test_optimize_runs(self, capsys):
        code = main(
            ["optimize", "powerstone", "qurt", "--scale", "tiny", "--cache-kb", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "removes" in out and "s0 =" in out

    def test_optimize_guard_flag(self, capsys):
        code = main(
            ["optimize", "mibench", "dijkstra", "--scale", "tiny", "--guard"]
        )
        assert code == 0

    def test_search_runs(self, capsys):
        code = main(
            ["search", "powerstone", "qurt", "--scale", "tiny",
             "--cache-kb", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy steepest" in out and "conventional" in out
        assert "s0 =" in out

    def test_search_strategy_and_restarts(self, capsys):
        code = main(
            ["search", "powerstone", "qurt", "--scale", "tiny",
             "--cache-kb", "1", "--strategy", "beam:2", "--restarts", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy beam(2)" in out
        assert "restart 2" in out and "<- best" in out

    def test_search_unknown_strategy_fails_fast(self, capsys):
        code = main(["search", "powerstone", "qurt", "--scale", "tiny",
                     "--strategy", "psychic"])
        assert code == 2
        assert "psychic" in capsys.readouterr().err

    def test_campaign_unknown_strategy_fails_fast(self, capsys, tmp_path):
        code = main([
            "campaign", "--suite", "powerstone", "--benchmarks", "qurt",
            "--scale", "tiny", "--strategy", "psychic",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 2
        assert "psychic" in capsys.readouterr().err

    def test_campaign_with_strategy_flag(self, capsys, tmp_path):
        code = main([
            "campaign", "--suite", "powerstone", "--benchmarks", "qurt",
            "--cache-kb", "1", "--families", "2-in", "--scale", "tiny",
            "--workers", "1", "--strategy", "first-improvement",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        assert "Campaign results" in capsys.readouterr().out

    def test_classify_runs(self, capsys):
        code = main(["classify", "powerstone", "fir", "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compulsory" in out and "conflict" in out

    def test_tables_subset(self, capsys):
        code = main(["tables", "--only", "table1", "counting"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Eq. 3" in out

    def test_tables_only_table1(self, capsys):
        code = main(["tables", "--only", "table1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1: switches for reconfigurable indexing" in out
        assert "scheme" in out and "permutation-based" in out

    def test_tables_with_cache_dir(self, capsys, tmp_path):
        code = main(
            ["tables", "--only", "table1", "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_campaign_runs_and_writes_json(self, capsys, tmp_path):
        out_json = tmp_path / "campaign.json"
        code = main([
            "campaign", "--suite", "powerstone",
            "--benchmarks", "qurt", "fir",
            "--cache-kb", "1", "--families", "2-in",
            "--scale", "tiny", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(out_json),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Campaign results" in out
        assert "powerstone/qurt" in out and "powerstone/fir" in out
        assert "removed %" in out and "base m/Kuop" in out
        payload = json.loads(out_json.read_text())
        assert len(payload["rows"]) == 2 and not payload["fully_cached"]

    def test_campaign_empty_grid_fails_loudly(self, capsys, tmp_path):
        """An empty grid must not let --expect-cached pass vacuously."""
        code = main([
            "campaign", "--suite", "powerstone", "--kinds",
            "--cache-dir", str(tmp_path / "cache"), "--expect-cached",
        ])
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_campaign_expect_cached(self, capsys, tmp_path):
        args = [
            "campaign", "--suite", "powerstone", "--benchmarks", "qurt",
            "--cache-kb", "1", "--families", "2-in", "--scale", "tiny",
            "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
        ]
        # Cold run against an empty cache cannot satisfy --expect-cached...
        assert main(args + ["--expect-cached"]) == 1
        capsys.readouterr()
        # ...but the warm replay must.
        assert main(args + ["--expect-cached"]) == 0
        assert "Campaign results" in capsys.readouterr().out

    def test_instruction_kind(self, capsys):
        code = main(
            ["optimize", "mibench", "dijkstra", "--scale", "tiny",
             "--kind", "instruction", "--cache-kb", "1"]
        )
        assert code == 0


class TestSpecDrivenCommands:
    def test_spec_scaffold_round_trips_through_run(self, capsys, tmp_path):
        spec_file = tmp_path / "exp.toml"
        code = main([
            "spec", "--suite", "powerstone", "--benchmark", "qurt",
            "--scale", "tiny", "--cache-kb", "1", "-o", str(spec_file),
        ])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["run", str(spec_file), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "spec ok: powerstone/qurt" in out and "digest:" in out

    def test_spec_scaffold_to_stdout_is_valid_toml(self, capsys):
        from repro.api import ExperimentSpec

        assert main(["spec", "--benchmark", "susan", "--scale", "tiny"]) == 0
        spec = ExperimentSpec.from_toml(capsys.readouterr().out)
        assert spec.trace.benchmark == "susan"

    def test_run_executes_spec_file(self, capsys, tmp_path):
        spec_file = tmp_path / "exp.toml"
        main(["spec", "--suite", "powerstone", "--benchmark", "qurt",
              "--scale", "tiny", "--cache-kb", "1", "-o", str(spec_file)])
        capsys.readouterr()
        code = main(["run", str(spec_file),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        out = capsys.readouterr().out
        assert "removes" in out and "s0 =" in out

    def test_run_expect_cached_replay(self, capsys, tmp_path):
        spec_file = tmp_path / "exp.toml"
        main(["spec", "--suite", "powerstone", "--benchmark", "qurt",
              "--scale", "tiny", "--cache-kb", "1", "-o", str(spec_file)])
        args = ["run", str(spec_file), "--cache-dir", str(tmp_path / "cache")]
        assert main(args + ["--expect-cached"]) == 1  # cold run recomputes
        capsys.readouterr()
        assert main(args + ["--expect-cached"]) == 0  # warm replay does not

    def test_run_checked_in_example_spec_dry_run(self, capsys):
        assert main(["run", "examples/experiment.toml", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "mibench/fft" in out and "family 2-in" in out

    def test_run_missing_file_fails_cleanly(self, capsys):
        assert main(["run", "/nope/missing.toml"]) == 2
        assert "cannot read spec file" in capsys.readouterr().err

    def test_run_rejects_window_wider_than_profile_bound(self, capsys, tmp_path):
        from repro.names import MAX_HASHED_BITS

        spec_file = tmp_path / "wide.json"
        spec_file.write_text(json.dumps({
            "trace": {"suite": "powerstone", "benchmark": "qurt", "scale": "tiny"},
            "search": {"n": MAX_HASHED_BITS + 1, "restarts": 1},
        }))
        assert main(["run", str(spec_file), "--json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: search.n") and f"<= {MAX_HASHED_BITS}" in err

    def test_run_malformed_trace_file_fails_cleanly(self, capsys, tmp_path):
        trace = tmp_path / "bad.din"
        trace.write_text("0 10\n0 zz\n")
        spec_file = tmp_path / "exp.json"
        spec_file.write_text(json.dumps({"trace": {"path": str(trace)}}))
        assert main(["run", str(spec_file), "--json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.din:2" in err

    @pytest.mark.parametrize(
        "name, text",
        [("deep.json", "[" * 200_000), ("deep.toml", "a = " + "[" * 200_000)],
        ids=["json", "toml"],
    )
    def test_run_deeply_nested_spec_fails_cleanly(self, capsys, tmp_path, name, text):
        deep = tmp_path / name
        deep.write_text(text)
        assert main(["run", str(deep)]) == 2
        assert "not valid" in capsys.readouterr().err

    def test_run_invalid_spec_names_field(self, capsys, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text('[trace]\nsuite = "mibench"\nbenchmark = "nope"\n')
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "unknown workload mibench/nope" in err

    def test_optimize_json_emits_report(self, capsys):
        code = main(["optimize", "powerstone", "qurt", "--scale", "tiny",
                     "--cache-kb", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-report/v1"
        assert payload["kind"] == "optimization"
        assert payload["spec"]["trace"]["benchmark"] == "qurt"

    def test_search_json_emits_front(self, capsys):
        code = main(["search", "powerstone", "qurt", "--scale", "tiny",
                     "--cache-kb", "1", "--restarts", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "search" and len(payload["front"]) == 2

    def test_campaign_json_to_stdout(self, capsys, tmp_path):
        code = main([
            "campaign", "--suite", "powerstone", "--benchmarks", "qurt",
            "--cache-kb", "1", "--families", "2-in", "--scale", "tiny",
            "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "campaign" and len(payload["rows"]) == 1
        assert payload["rows"][0]["spec"]["trace"]["benchmark"] == "qurt"


class TestProfileCommand:
    @pytest.fixture
    def bin_trace(self, tmp_path):
        import numpy as np

        from repro.trace import Trace, save_trace_bin

        rng = np.random.default_rng(9)
        path = tmp_path / "t.bin"
        save_trace_bin(
            Trace(rng.integers(0, 400, size=5000, dtype=np.uint64) * 32,
                  name="cli-test"),
            path,
        )
        return str(path)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["profile", "mibench", "fft"])
        assert args.shard_size is None and args.workers is None
        assert args.n == 16 and args.block_size == 4

    def test_registry_workload(self, capsys):
        code = main(["profile", "powerstone", "fir", "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accesses:" in out and "compulsory:" in out

    def test_trace_file_sharded(self, capsys, bin_trace, tmp_path):
        code = main([
            "profile", "--trace-file", bin_trace, "--block-size", "32",
            "--cache-kb", "4", "--n", "8", "--shard-size", "1200",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sharding:" in out and "5 shard(s)" in out

    def test_warm_replay_expect_cached(self, capsys, bin_trace, tmp_path):
        argv = [
            "profile", "--trace-file", bin_trace, "--block-size", "32",
            "--cache-kb", "4", "--n", "8", "--shard-size", "1200",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--expect-cached"]) == 0
        assert "0 recomputed" in capsys.readouterr().out

    def test_expect_cached_fails_cold(self, capsys, bin_trace, tmp_path):
        code = main([
            "profile", "--trace-file", bin_trace, "--block-size", "32",
            "--cache-kb", "4", "--n", "8", "--shard-size", "1200",
            "--cache-dir", str(tmp_path / "cache"), "--expect-cached",
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_json_report(self, capsys, bin_trace):
        code = main([
            "profile", "--trace-file", bin_trace, "--block-size", "32",
            "--cache-kb", "4", "--n", "8", "--shard-size", "1200", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "profile"
        assert payload["spec"]["trace"]["path"] == bin_trace
        assert payload["sharding"]["shards"] == 5
        assert payload["profile"]["accesses"] == 5000

    def test_json_matches_single_pass(self, capsys, bin_trace):
        argv = ["profile", "--trace-file", bin_trace, "--block-size", "32",
                "--cache-kb", "4", "--n", "8", "--json"]
        assert main(argv) == 0
        single = json.loads(capsys.readouterr().out)
        assert main(argv + ["--shard-size", "700"]) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert sharded["digests"]["profile"] == single["digests"]["profile"]
        assert sharded["profile"] == single["profile"]

    def test_sharded_and_single_pass_share_one_cache(self, capsys, bin_trace, tmp_path):
        argv = ["profile", "--trace-file", bin_trace, "--block-size", "32",
                "--cache-kb", "4", "--n", "8", "--json",
                "--cache-dir", str(tmp_path / "cache")]
        sharded = argv + ["--shard-size", "1200"]
        assert main(sharded) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["sharding"]["recomputed_shards"] == 5
        assert main(argv + ["--expect-cached"]) == 0
        single = json.loads(capsys.readouterr().out)
        assert single["sharding"] is None
        assert main(sharded + ["--expect-cached"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["sharding"]["recomputed_shards"] == 0
        for report in (single, warm):
            assert report["profile"] == cold["profile"]
            assert report["digests"] == cold["digests"]

    def test_single_pass_expect_cached(self, capsys, bin_trace, tmp_path):
        argv = ["profile", "--trace-file", bin_trace, "--block-size", "32",
                "--cache-kb", "4", "--n", "8", "--expect-cached"]
        assert main(argv) == 1
        assert "1 shard(s)" in capsys.readouterr().err
        cached = argv + ["--cache-dir", str(tmp_path / "cache")]
        assert main(cached) == 1
        capsys.readouterr()
        assert main(cached) == 0

    def test_both_sources_rejected(self, capsys, bin_trace):
        code = main(["profile", "mibench", "fft", "--trace-file", bin_trace])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_no_source_rejected(self, capsys):
        assert main(["profile"]) == 2
        assert "trace" in capsys.readouterr().err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code = main(["profile", "--trace-file", str(tmp_path / "nope.bin")])
        assert code == 2
        assert "nope.bin" in capsys.readouterr().err

    def test_malformed_file_rejected(self, capsys, tmp_path):
        trace = tmp_path / "short.bin"
        trace.write_bytes(b"abc")
        assert main(["profile", "--trace-file", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "multiple of 8" in err


class TestServeCommand:
    @pytest.fixture
    def unfreeze(self):
        yield
        gc.unfreeze()

    def test_freezes_startup_heap_before_serving(
        self, monkeypatch, tmp_path, unfreeze
    ):
        """``repro serve`` freezes the start-up heap before its loop
        runs, so full collections stop rescanning it."""
        from repro.serve import ReproServer

        frozen = []

        def run(self):
            frozen.append(gc.get_freeze_count())
            self.session.close()

        monkeypatch.setattr(ReproServer, "run", run)
        assert main(["serve", "--port", "0", "--cache-dir", str(tmp_path)]) == 0
        assert len(frozen) == 1 and frozen[0] > 0
