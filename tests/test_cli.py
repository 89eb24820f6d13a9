"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure5_defaults(self):
        args = build_parser().parse_args(["figure5"])
        assert args.command == "figure5"
        assert 1000 in args.rates

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "--algorithm", "random", "--rate", "50",
             "--churn", "10", "--seed", "3"]
        )
        assert args.algorithm == "random"
        assert args.rate == 50.0
        assert args.churn == 10.0

    def test_bad_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "bogus"])

    def test_run_telemetry_flag(self):
        args = build_parser().parse_args(
            ["run", "--telemetry", "out.jsonl"]
        )
        assert args.telemetry == "out.jsonl"

    def test_telemetry_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry"])

    def test_perf_subcommand_is_gone(self):
        # bench/run.py is the one perf system; the old subcommand is
        # gone, not aliased.
        with pytest.raises(SystemExit) as exc:
            main(["perf", "record"])
        assert exc.value.code == 2


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "peers" in out

    def test_run_small(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert main(["run", "--rate", "10", "--horizon", "2"]) == 0
        out = capsys.readouterr().out
        assert "qsa" in out
        assert "ψ" in out

    def test_run_with_ablation_flag(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert main(
            ["run", "--rate", "10", "--horizon", "2", "--no-uptime-filter"]
        ) == 0

    def test_figure5_tiny(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert main(["figure5", "--rates", "40", "--horizon", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "qsa" in out

    def test_figure8_tiny(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert main([
            "figure8", "--rate", "20", "--churn", "20", "--horizon", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "overall" in out

    def test_run_with_telemetry_export(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        path = tmp_path / "events.jsonl"
        assert main([
            "run", "--rate", "10", "--horizon", "2",
            "--telemetry", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "counters" in out
        assert path.exists()

    def test_telemetry_catalog(self, capsys):
        assert main(["telemetry", "catalog"]) == 0
        out = capsys.readouterr().out
        assert "request.setup" in out
        assert "lookup.hops" in out

    def test_telemetry_summary(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        path = tmp_path / "events.jsonl"
        main(["run", "--rate", "10", "--horizon", "2",
              "--telemetry", str(path)])
        capsys.readouterr()
        assert main(["telemetry", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "monotone" in out
        assert "request.setup" in out

    def test_telemetry_summary_missing_file(self, capsys, tmp_path):
        assert main(["telemetry", "summary", str(tmp_path / "nope")]) == 1


class TestTraceCommands:
    @pytest.fixture
    def telemetry_export(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        path = tmp_path / "events.jsonl"
        main(["run", "--rate", "10", "--horizon", "2",
              "--telemetry", str(path)])
        return path

    def test_tree(self, capsys, telemetry_export):
        capsys.readouterr()
        assert main(["trace", "tree", str(telemetry_export)]) == 0
        out = capsys.readouterr().out
        assert "request" in out

    def test_critical_path_on_sim_stream(self, capsys, telemetry_export):
        capsys.readouterr()
        assert main(["trace", "critical-path", str(telemetry_export)]) == 0
        out = capsys.readouterr().out
        assert "sim minutes" in out
        assert "'request' trees" in out

    def test_flame_to_file(self, capsys, telemetry_export, tmp_path):
        capsys.readouterr()
        out_path = tmp_path / "flame.folded"
        assert main(["trace", "flame", str(telemetry_export),
                     "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack and weight.isdigit()

    def test_missing_file(self, capsys, tmp_path):
        assert main(["trace", "tree", str(tmp_path / "nope.jsonl")]) == 1

    def test_no_spans_in_stream(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"t": 0.0, "seq": 0, "event": "lookup.done"}\n')
        assert main(["trace", "tree", str(path)]) == 1


class TestProfileCommand:
    def test_profile_run_with_trace_out(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        trace = tmp_path / "prof.jsonl"
        assert main(["profile", "run", "--rate", "10", "--horizon", "2",
                     "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "wall clock:" in out
        assert "requests_per_sec" in out
        assert trace.exists()
        capsys.readouterr()
        # The exported trace feeds the same analytics commands.
        assert main(["trace", "critical-path", str(trace)]) == 0
        assert "wall seconds" in capsys.readouterr().out
