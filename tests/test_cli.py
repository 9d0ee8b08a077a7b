"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(
            ["simulate", "--policy", "LRU"])
        assert args.family == "msr"
        assert args.size == 0.1

    def test_experiment_ids_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "QD-LP-FIFO" in out
        assert "Belady" in out
        assert "sota:" in out

    def test_simulate_synthetic(self, capsys):
        code = main(["simulate", "--policy", "LRU", "--family", "wiki",
                     "--scale", "0.05", "--size", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "miss ratio" in out
        assert "wiki-000" in out

    def test_simulate_unknown_policy(self, capsys):
        code = main(["simulate", "--policy", "Nope", "--scale", "0.05"])
        assert code == 2  # user error, not runtime failure
        assert "unknown policy" in capsys.readouterr().err

    def test_simulate_unknown_family(self, capsys):
        code = main(["simulate", "--policy", "LRU", "--family", "nope"])
        assert code == 2
        assert "unknown family" in capsys.readouterr().err

    def test_simulate_missing_trace_file(self, capsys, tmp_path):
        code = main(["simulate", "--policy", "LRU",
                     "--trace", str(tmp_path / "missing.csv")])
        assert code == 2

    def test_simulate_corrupt_trace_file(self, capsys, tmp_path):
        path = tmp_path / "corrupt.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        code = main(["simulate", "--policy", "LRU", "--trace", str(path)])
        assert code == 2
        assert "magic" in capsys.readouterr().err

    def test_simulate_from_csv(self, capsys, tmp_path, small_trace):
        from repro.traces.io import write_csv
        path = tmp_path / "t.csv"
        write_csv(small_trace, path)
        code = main(["simulate", "--policy", "FIFO", "--trace", str(path),
                     "--size", "0.1"])
        assert code == 0
        assert "miss ratio" in capsys.readouterr().out

    def test_corpus_listing(self, capsys):
        code = main(["corpus", "--scale", "0.05",
                     "--traces-per-family", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "msr-000" in out
        assert "socialnet-000" in out

    def test_corpus_export_binary(self, capsys, tmp_path):
        code = main(["corpus", "--scale", "0.05", "--traces-per-family",
                     "1", "--out", str(tmp_path), "--format", "binary"])
        assert code == 0
        files = list(tmp_path.glob("*.bin"))
        assert len(files) == 10
        from repro.traces.io import read_binary
        trace = read_binary(files[0])
        assert trace.num_requests > 0

    def test_corpus_export_csv(self, capsys, tmp_path):
        code = main(["corpus", "--scale", "0.05", "--traces-per-family",
                     "1", "--out", str(tmp_path), "--format", "csv"])
        assert code == 0
        assert len(list(tmp_path.glob("*.csv"))) == 10

    def test_experiment_table1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        code = main(["experiment", "table1", "--tier", "tiny"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out


class TestExitCodes:
    """Interrupt and crash handling at the top-level entry point."""

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt
        monkeypatch.setattr("repro.cli._cmd_list", interrupted)
        assert main(["list"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_unexpected_error_exits_1(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("wires crossed")
        monkeypatch.setattr("repro.cli._cmd_list", broken)
        assert main(["list"]) == 1
        err = capsys.readouterr().err
        assert "RuntimeError" in err
        assert "wires crossed" in err


class TestSweepFlags:
    """Checkpoint/resume plumbing through the experiment command."""

    def test_checkpoint_writes_journal(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        runs = tmp_path / "runs"
        code = main(["experiment", "fig2", "--tier", "tiny",
                     "--checkpoint", "--run-id", "cli-test",
                     "--runs-dir", str(runs)])
        assert code == 0
        assert (runs / "cli-test" / "journal.jsonl").exists()
        assert "cli-test" in capsys.readouterr().err

    def test_resume_reuses_journal(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        runs = tmp_path / "runs"
        main(["experiment", "fig2", "--tier", "tiny", "--checkpoint",
              "--run-id", "cli-test", "--runs-dir", str(runs)])
        capsys.readouterr()
        code = main(["experiment", "fig2", "--tier", "tiny",
                     "--resume", "cli-test", "--runs-dir", str(runs)])
        assert code == 0
        assert "Fig. 2" in capsys.readouterr().out

    def test_resume_unknown_run_is_user_error(self, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        code = main(["experiment", "fig2", "--tier", "tiny",
                     "--resume", "ghost",
                     "--runs-dir", str(tmp_path / "runs")])
        assert code == 2
        assert "ghost" in capsys.readouterr().err


class TestExperimentCommands:
    """Each CLI experiment id dispatches and renders (tiny tier)."""

    def test_experiment_fig3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["experiment", "fig3", "--tier", "tiny"]) == 0
        assert "Fig. 3" in capsys.readouterr().out

    def test_experiment_ablation_clockbits(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["experiment", "ablation-clockbits",
                     "--tier", "tiny"]) == 0
        assert "bit-width" in capsys.readouterr().out

    def test_experiment_extensions(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["experiment", "extensions", "--tier", "tiny"]) == 0
        assert "S3-FIFO" in capsys.readouterr().out

    def test_experiment_outage(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["experiment", "outage", "--tier", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "QD-LP-FIFO" in out
        assert (tmp_path / "outage.txt").exists()


class TestLoadgenCommand:
    """The service-layer load test command (and its ^C contract)."""

    def test_loadgen_happy_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        code = main(["loadgen", "--policy", "LRU", "--threads", "2",
                     "--requests", "2000", "--objects", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "p99" in out
        assert (tmp_path / "loadgen.txt").exists()

    def test_loadgen_unknown_policy(self, capsys):
        code = main(["loadgen", "--policy", "Nope"])
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_loadgen_bad_config_is_user_error(self, capsys):
        code = main(["loadgen", "--ttl", "-5"])
        assert code == 2
        assert "ttl" in capsys.readouterr().err

    def test_loadgen_bad_request_count(self, capsys):
        code = main(["loadgen", "--requests", "0"])
        assert code == 2
        assert "--requests" in capsys.readouterr().err

    def test_loadgen_interrupt_exits_130_and_flushes(self, capsys,
                                                     tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        from repro.service.loadgen import LoadInterrupted, LoadReport

        def interrupted(target, keys, threads=1, tick=0.0,
                        checkpoints=None):
            report = LoadReport(
                requests=7,
                outcomes={"hit": 3, "miss": 4, "stale": 0, "shed": 0,
                          "error": 0},
                events={"coalesced": 0, "fetch_attempts": 4,
                        "fetch_failures": 0},
                latency_p50=0.0, latency_p90=0.0, latency_p99=0.0,
                elapsed=0.1, threads=threads, interrupted=True)
            raise LoadInterrupted(report)

        monkeypatch.setattr("repro.service.run_load", interrupted)
        code = main(["loadgen", "--requests", "100"])
        assert code == 130
        err = capsys.readouterr().err
        assert "partial metrics" in err
        partial = tmp_path / "loadgen_partial.txt"
        assert partial.exists()
        assert "requests      : 7" in partial.read_text()

    def test_loadgen_interrupt_before_run_still_exits_130(self, capsys,
                                                          monkeypatch):
        def boom(args):
            raise KeyboardInterrupt
        monkeypatch.setattr("repro.cli._cmd_loadgen", boom)
        assert main(["loadgen"]) == 130

    def test_loadgen_cluster_mode(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        code = main(["loadgen", "--shards", "3", "--threads", "2",
                     "--requests", "1500", "--objects", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 shard(s)" in out
        assert "replica_hit=" in out
        assert (tmp_path / "loadgen_cluster.txt").exists()
        assert (tmp_path / "loadgen_cluster_metrics.jsonl").exists()

    def test_loadgen_open_loop_cluster_mode(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        code = main(["loadgen", "--open-loop", "--shards", "3",
                     "--kill-shard", "s1", "--replicas", "0",
                     "--requests", "1500", "--objects", "300",
                     "--rate", "100", "--duration", "4",
                     "--trace-sample", "0.1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "goodput" in captured.out
        assert "error=" in captured.out          # the kill was felt
        for name in ("loadgen_open_cluster.txt",
                     "loadgen_open_cluster_metrics.jsonl",
                     "loadgen_open_cluster_timeseries.jsonl",
                     "loadgen_open_cluster_reqtrace.jsonl"):
            assert (tmp_path / name).exists(), name
        assert "--labels shard=*" in captured.err

    def test_loadgen_cluster_kill_shard(self, capsys, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        code = main(["loadgen", "--shards", "4", "--replicas", "1",
                     "--kill-shard", "s1", "--requests", "1500",
                     "--objects", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "availability" in out

    def test_loadgen_kill_shard_validation(self, capsys):
        code = main(["loadgen", "--shards", "4", "--kill-shard", "nope",
                     "--requests", "100"])
        assert code == 2
        assert "--kill-shard" in capsys.readouterr().err

    def test_loadgen_kill_needs_two_shards(self, capsys):
        code = main(["loadgen", "--shards", "1", "--kill-shard", "s0",
                     "--requests", "100"])
        assert code == 2
        assert "2 shards" in capsys.readouterr().err
