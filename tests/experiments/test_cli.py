"""CLI runner tests."""

import pytest

from repro.experiments.cli import build_parser, main, parse_method, parse_precision


class TestParseMethod:
    def test_simclr(self):
        spec = parse_method("simclr", "2-8", "simclr")
        assert spec.is_baseline
        assert spec.base == "simclr"

    def test_byol(self):
        spec = parse_method("byol", "2-8", "simclr")
        assert spec.base == "byol"

    def test_cq_variants(self):
        for name, variant in [("cq-a", "A"), ("cq-b", "B"),
                              ("cq-c", "C"), ("cq-quant", "QUANT")]:
            spec = parse_method(name, "4-16", "simclr")
            assert spec.variant == variant
            assert spec.precision_set == "4-16"

    def test_base_forwarded_to_cq(self):
        spec = parse_method("cq-c", "2-8", "byol")
        assert spec.base == "byol"

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            parse_method("moco", "2-8", "simclr")


class TestParsePrecision:
    def test_fp_aliases(self):
        for alias in ("fp", "FP", "full", "none"):
            assert parse_precision(alias) is None

    def test_bits(self):
        assert parse_precision("4") == 4

    def test_range_validated(self):
        with pytest.raises(ValueError):
            parse_precision("64")

    def test_non_numeric_raises(self):
        with pytest.raises(ValueError):
            parse_precision("four")


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.methods == ["simclr", "cq-c"]
        assert args.dataset == "cifar"

    def test_custom_args(self):
        args = build_parser().parse_args([
            "--methods", "simclr", "cq-a",
            "--precisions", "fp", "4",
            "--fractions", "0.5",
        ])
        assert args.methods == ["simclr", "cq-a"]
        assert args.precisions == ["fp", "4"]
        assert args.fractions == [0.5]

    def test_telemetry_dir_defaults_off(self):
        args = build_parser().parse_args([])
        assert args.telemetry_dir is None

    def test_telemetry_dir_parsed(self):
        args = build_parser().parse_args(["--telemetry-dir", "runs/exp1"])
        assert args.telemetry_dir == "runs/exp1"


class TestMain:
    def test_tiny_end_to_end(self, capsys):
        exit_code = main([
            "--methods", "simclr",
            "--classes", "3",
            "--image-size", "8",
            "--per-class", "8",
            "--epochs", "1",
            "--batch-size", "8",
            "--fractions", "0.5",
            "--finetune-epochs", "1",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "SimCLR" in out
        assert "FP 50%" in out

    def test_cq_with_linear_eval(self, capsys):
        exit_code = main([
            "--methods", "cq-c",
            "--classes", "3",
            "--image-size", "8",
            "--per-class", "8",
            "--epochs", "1",
            "--batch-size", "8",
            "--fractions", "0.5",
            "--finetune-epochs", "1",
            "--linear-eval",
        ])
        assert exit_code == 0
        assert "Linear" in capsys.readouterr().out

    def test_jobs_sweep_runs_every_method(self, capsys):
        exit_code = main([
            "--methods", "simclr", "cq-c",
            "--classes", "3",
            "--image-size", "8",
            "--per-class", "8",
            "--epochs", "1",
            "--batch-size", "8",
            "--fractions", "0.5",
            "--finetune-epochs", "1",
            "--jobs", "2",
        ])
        assert exit_code == 0
        rows = [[cell.strip() for cell in line.split("|")]
                for line in capsys.readouterr().out.splitlines()
                if "|" in line]
        methods = ("SimCLR", "CQ-C (2-8)")
        status = [row for row in rows if row[1] in ("ok", "FAILED")]
        assert [row[:2] for row in status] == [[m, "ok"] for m in methods]
        table = [row for row in rows if row[0] in methods and row not in status]
        assert [row[0] for row in table] == list(methods)
        for row in table:
            assert len(row) == 2 and 0.0 <= float(row[1]) <= 100.0

    def test_telemetry_dir_writes_run_logs(self, capsys, tmp_path):
        exit_code = main([
            "--methods", "simclr",
            "--classes", "3",
            "--image-size", "8",
            "--per-class", "8",
            "--epochs", "1",
            "--batch-size", "8",
            "--fractions", "0.5",
            "--finetune-epochs", "1",
            "--telemetry-dir", str(tmp_path),
        ])
        assert exit_code == 0
        logs = list(tmp_path.glob("*.jsonl"))
        summaries = list(tmp_path.glob("*-summary.json"))
        assert len(logs) == 1 and len(summaries) == 1

        from repro.telemetry import iter_records

        records = list(iter_records(logs[0]))
        assert records[0]["event"] == "fit_start"
        assert records[-1]["event"] == "fit_end"
