"""End-to-end tests of the repro-omp CLI."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_subcommands_present(self):
        parser = build_parser()
        args = parser.parse_args(["machines"])
        assert args.command == "machines"

    def test_sweep_args(self):
        args = build_parser().parse_args(
            ["sweep", "--arch", "milan", "--scale", "small", "-o", "x.csv"]
        )
        assert args.arch == "milan" and args.output == "x.csv"

    def test_bad_arch_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--arch", "pentium",
                                       "-o", "x.csv"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        for name in ("a64fx", "skylake", "milan"):
            assert name in out
        assert "96" in out  # milan cores

    def test_sweep_analyze_recommend_roundtrip(self, tmp_path, capsys):
        csv_path = tmp_path / "ds.csv"
        rc = main(
            ["sweep", "--arch", "a64fx", "--workloads", "nqueens",
             "--scale", "small", "--repetitions", "2",
             "-o", str(csv_path)]
        )
        assert rc == 0
        assert csv_path.exists()
        out = capsys.readouterr().out
        assert "samples" in out

        figdir = tmp_path / "figs"
        rc = main(["analyze", str(csv_path), "--figures-dir", str(figdir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Best speedup per application" in out
        assert "KMP_LIBRARY" in out
        svgs = list(figdir.glob("*.svg"))
        assert len(svgs) == 3

        rc = main(["recommend", str(csv_path), "--app", "nqueens"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nqueens" in out

    def test_tune(self, capsys):
        rc = main(["tune", "--arch", "milan", "--workload", "nqueens",
                   "--restarts", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tuned" in out and "x," in out

    def test_tune_unknown_workload_clean_error(self, capsys):
        rc = main(["tune", "--arch", "milan", "--workload", "doom"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_recommend_missing_file_clean_error(self, capsys, tmp_path):
        rc = main(["recommend", str(tmp_path / "nope.csv")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_microbench(self, capsys):
        rc = main(["microbench"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "barrier_us" in out and "a64fx" in out

    def test_trace(self, capsys, tmp_path):
        out_json = tmp_path / "trace.json"
        rc = main(["trace", "--arch", "milan", "--workload", "mg",
                   "-o", str(out_json)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "parallel" in out
        assert out_json.exists()

    def test_figures_gallery(self, tmp_path, capsys):
        rc = main(["figures", "-o", str(tmp_path / "g"),
                   "--apps", "strassen", "--repetitions", "1"])
        assert rc == 0
        svgs = sorted(p.name for p in (tmp_path / "g").glob("*.svg"))
        assert "violin_strassen.svg" in svgs
        assert "fig3_by_architecture.svg" in svgs

    def test_workloads_listing(self, capsys):
        rc = main(["workloads", "--arch", "a64fx"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nqueens" in out and "tasks" in out and "loops" in out

    def test_energy(self, capsys):
        rc = main(["energy", "--arch", "milan", "--workload", "nqueens"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "turnaround" in out and "edp_js" in out

    def test_release_roundtrip(self, tmp_path, capsys):
        csv_path = tmp_path / "ds.csv"
        main(["sweep", "--arch", "a64fx", "--workloads", "strassen",
              "--scale", "small", "--repetitions", "1", "-o", str(csv_path)])
        rc = main(["release", str(csv_path), "-o", str(tmp_path / "rel"),
                   "--version", "2.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "released" in out
        assert (tmp_path / "rel" / "manifest.json").exists()
        assert (tmp_path / "rel" / "a64fx-strassen.csv").exists()

        from repro.core.release import load_release

        manifest, table = load_release(tmp_path / "rel")
        assert manifest.version == "2.0"
        assert table.num_rows > 0


class TestSweepFlags:
    """The sweep subcommand's fidelity / inputs-limit / cache plumbing."""

    def test_fidelity_and_inputs_limit_parsed(self):
        args = build_parser().parse_args(
            ["sweep", "--arch", "milan", "--fidelity", "des",
             "--inputs-limit", "2", "-o", "x.csv"]
        )
        assert args.fidelity == "des" and args.inputs_limit == 2

    def test_fidelity_defaults_analytic(self):
        args = build_parser().parse_args(
            ["sweep", "--arch", "milan", "-o", "x.csv"]
        )
        assert args.fidelity == "analytic"
        assert args.inputs_limit is None
        assert args.cache_dir is None and not args.resume

    def test_bad_fidelity_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--arch", "milan", "--fidelity", "exact",
                 "-o", "x.csv"]
            )

    def test_fidelity_and_inputs_limit_reach_the_plan(self, tmp_path,
                                                      monkeypatch, capsys):
        """Regression: these flags used to be silently dropped."""
        import repro.cli as cli_mod

        captured = {}
        real = cli_mod.run_sweep

        def spy(plan, **kwargs):
            captured["plan"] = plan
            return real(plan, **kwargs)

        monkeypatch.setattr(cli_mod, "run_sweep", spy)
        rc = main(["sweep", "--arch", "milan", "--workloads", "nqueens",
                   "--scale", "small", "--repetitions", "1",
                   "--fidelity", "des", "--inputs-limit", "1",
                   "-o", str(tmp_path / "ds.csv")])
        assert rc == 0
        assert captured["plan"].fidelity == "des"
        assert captured["plan"].inputs_limit == 1
        # inputs_limit=1 -> exactly one (workload, setting) batch ran.
        assert "[  1/1]" in capsys.readouterr().out


class TestSweepCacheCLI:
    def _sweep(self, tmp_path, *extra):
        return main(["sweep", "--arch", "milan", "--workloads", "nqueens",
                     "--scale", "small", "--repetitions", "1",
                     "-o", str(tmp_path / "ds.csv"), *extra])

    def test_cache_dir_resumes_with_zero_resimulation(self, tmp_path,
                                                      monkeypatch, capsys):
        import repro.core.sweep as sweep_mod

        cache_dir = str(tmp_path / "cache")
        assert self._sweep(tmp_path, "--cache-dir", cache_dir) == 0
        out = capsys.readouterr().out
        assert "0 batches reused, 3 simulated" in out

        calls = []
        real = sweep_mod._execute_batch
        monkeypatch.setattr(
            sweep_mod, "_execute_batch",
            lambda *a: calls.append(a) or real(*a),
        )
        assert self._sweep(tmp_path, "--cache-dir", cache_dir) == 0
        out = capsys.readouterr().out
        assert "3 batches reused, 0 simulated" in out
        assert calls == []
        assert "eta" in out  # progress line carries a batch ETA

    def test_resume_defaults_cache_dir_from_output(self, tmp_path, capsys):
        assert self._sweep(tmp_path, "--resume") == 0
        assert (tmp_path / "ds.csv.cache").is_dir()
        assert self._sweep(tmp_path, "--resume") == 0
        assert "0 simulated" in capsys.readouterr().out

    def test_no_cache_wins(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert self._sweep(tmp_path, "--cache-dir", str(cache_dir),
                           "--no-cache") == 0
        assert not cache_dir.exists()
        assert "reused" not in capsys.readouterr().out

    def test_cached_rerun_writes_identical_csv(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        self._sweep(tmp_path, "--cache-dir", cache_dir)
        first = (tmp_path / "ds.csv").read_bytes()
        self._sweep(tmp_path, "--cache-dir", cache_dir)
        assert (tmp_path / "ds.csv").read_bytes() == first
        capsys.readouterr()


class TestResilienceCLI:
    """The sweep resilience flags and the chaos rehearsal subcommand."""

    pytestmark = pytest.mark.chaos

    def test_resilience_flags_parsed(self):
        args = build_parser().parse_args(
            ["sweep", "--arch", "milan", "-o", "x.csv",
             "--fail-policy", "degrade", "--max-retries", "5",
             "--batch-timeout-s", "2.5", "--fsync-cache",
             "--failure-report", "rep.json"]
        )
        assert args.fail_policy == "degrade" and args.max_retries == 5
        assert args.batch_timeout_s == 2.5 and args.fsync_cache
        assert args.failure_report == "rep.json"

    def test_fail_policy_defaults_strict(self):
        args = build_parser().parse_args(
            ["sweep", "--arch", "milan", "-o", "x.csv"]
        )
        assert args.fail_policy == "raise" and not args.fsync_cache

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.command == "chaos"
        assert args.crashes == args.hangs == args.poison == 1
        assert args.cache_faults == 1 and args.fmt == "text"

    def test_chaos_serve_flags_parsed(self):
        args = build_parser().parse_args(
            ["chaos", "--serve", "--serve-requests", "8",
             "--slow-clients", "2", "--backend-deaths", "0",
             "--drain-kills", "2", "--artifact-dir", "arts"]
        )
        assert args.serve and args.serve_requests == 8
        assert args.slow_clients == 2 and args.backend_deaths == 0
        assert args.drain_kills == 2 and args.artifact_dir == "arts"

    def test_chaos_serve_defaults_off(self):
        args = build_parser().parse_args(["chaos"])
        assert not args.serve
        assert args.serve_requests == 6
        assert args.slow_clients == args.backend_deaths == 1
        assert args.drain_kills == 1 and args.artifact_dir is None

    def test_sweep_failure_report_written(self, tmp_path, capsys):
        report = tmp_path / "rep.json"
        assert main(["sweep", "--arch", "milan", "--workloads", "nqueens",
                     "--scale", "small", "--repetitions", "1",
                     "--fail-policy", "degrade",
                     "--failure-report", str(report),
                     "-o", str(tmp_path / "ds.csv")]) == 0
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["failure_report"]["n_failed_batches"] == 0
        assert payload["failure_report"]["fail_policy"] == "degrade"

    def test_chaos_scenario_end_to_end(self, tmp_path, capsys):
        """The CI rehearsal: seeded faults in, parity verdict out."""
        report = tmp_path / "chaos.json"
        assert main(["chaos", "--seed", "0",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "resume parity vs fault-free sweep: IDENTICAL" in out
        assert "1/1 injected cache fault(s) caught by checksum" in out
        payload = json.loads(report.read_text())
        assert payload["chaos"]["resume_parity"] is True
        assert payload["chaos"]["cache_faults_detected"] == 1
        assert payload["failure_report"]["n_quarantined"] == 1
        assert len(payload["chaos"]["chaos_plan"]["faults"]) == 5


class TestShardedBackendCLI:
    """The backend/shard axis on the sweep and chaos subcommands."""

    pytestmark = pytest.mark.chaos

    def test_backend_flags_parsed_with_defaults(self):
        args = build_parser().parse_args(
            ["sweep", "--arch", "milan", "-o", "x.csv"]
        )
        assert args.backend == "auto" and args.processes == 1
        args = build_parser().parse_args(
            ["sweep", "--arch", "milan", "-o", "x.csv",
             "--backend", "nodes", "--processes", "4"]
        )
        assert args.backend == "nodes" and args.processes == 4

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--arch", "milan", "-o", "x.csv",
                 "--backend", "mainframe"]
            )

    def test_chaos_node_fault_flags_parsed(self):
        args = build_parser().parse_args(
            ["chaos", "--backend", "nodes", "--processes", "3",
             "--node-lost", "1", "--shard-partitions", "1"]
        )
        assert args.backend == "nodes" and args.processes == 3
        assert args.node_lost == 1 and args.shard_partitions == 1
        defaults = build_parser().parse_args(["chaos"])
        assert defaults.backend == "auto" and defaults.processes == 2
        assert defaults.node_lost == 0 and defaults.shard_partitions == 0

    def test_sharded_sweep_matches_serial_csv(self, tmp_path, capsys):
        base = ["sweep", "--arch", "milan", "--workloads", "nqueens",
                "--scale", "small", "--repetitions", "1"]
        assert main(base + ["-o", str(tmp_path / "serial.csv")]) == 0
        assert main(base + ["--backend", "nodes", "--processes", "2",
                            "-o", str(tmp_path / "nodes.csv")]) == 0
        out = capsys.readouterr().out
        assert "2 lane(s) on the nodes backend" in out
        assert ((tmp_path / "nodes.csv").read_text()
                == (tmp_path / "serial.csv").read_text())

    def test_nodes_chaos_scenario_end_to_end(self, tmp_path, capsys):
        """The CI nodes rehearsal: node loss + shard partition in, exit
        0 and a shard report out."""
        report = tmp_path / "chaos_nodes.json"
        assert main(["chaos", "--backend", "nodes", "--processes", "3",
                     "--seed", "0", "--node-lost", "1",
                     "--shard-partitions", "1",
                     "--workloads", "cg", "ep", "nqueens", "xsbench",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "resume parity vs fault-free sweep: IDENTICAL" in out
        assert "shards: 3 lane(s)" in out
        payload = json.loads(report.read_text())
        assert payload["chaos"]["backend"] == "nodes"
        assert payload["chaos"]["n_shards"] == 3
        assert payload["chaos"]["resume_parity"] is True
        assert payload["chaos"]["shard_report"]["n_shards"] == 3
        kinds = {f["kind"]
                 for f in payload["chaos"]["chaos_plan"]["faults"]}
        assert {"node-lost", "shard-partition"} <= kinds


class TestServeCLI:
    """The ``serve`` subcommand parser (daemon behavior lives in
    tests/test_serve_http.py; process-level scenarios in ``chaos
    --serve``)."""

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1" and args.port == 8077
        assert args.backend == "serial"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--shards", "2"])
        assert args.max_inflight == 2 and args.max_queued == 16
        assert args.deadline_s == 60.0 and args.drain_grace_s == 5.0
        assert args.header_timeout_s == 5.0
        assert args.rate == 50.0 and args.burst == 100
        assert args.cache_dir is None and args.state_dir is None
        assert args.breaker_threshold == 3
        assert args.breaker_cooldown_s == 30.0
        assert args.port_file is None and not args.fsync

    def test_serve_flags_parsed(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--backend", "pool",
             "--max-inflight", "4", "--max-queued", "2",
             "--deadline-s", "1.5", "--drain-grace-s", "0.2",
             "--rate", "10", "--burst", "5", "--cache-dir", "c",
             "--state-dir", "s", "--breaker-threshold", "1",
             "--port-file", "p.txt", "--fsync"]
        )
        assert args.port == 0 and args.backend == "pool"
        assert args.max_inflight == 4 and args.max_queued == 2
        assert args.deadline_s == 1.5 and args.drain_grace_s == 0.2
        assert args.rate == 10.0 and args.burst == 5
        assert args.cache_dir == "c" and args.state_dir == "s"
        assert args.breaker_threshold == 1 and args.port_file == "p.txt"
        assert args.fsync

    def test_serve_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "fax"])
        capsys.readouterr()
