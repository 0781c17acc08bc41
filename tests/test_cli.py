"""End-to-end CLI tests driving maxentnn.cli.main directly."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from maxentnn.cli import _params_from, build_parser, main
from maxentnn.core import MaxEntParams
from maxentnn.laminate import T700_PLY, ply_stiffness_q12
from maxentnn.pipeline import (
    ChannelMeasurement,
    Condition,
    FeatureTable,
    MeasurementRecord,
    write_records,
)

FAILURE_CYCLES = {"L1S11": 177309, "L2S17": 120000}


def _records_fixture(tmp_path, n_records=3):
    rng = np.random.default_rng(0)
    records = []
    for i in range(n_records):
        channels = tuple(
            ChannelMeasurement(cid, rng.normal(size=12), rng.normal(size=12))
            for cid in range(1, 5)
        )
        records.append(
            MeasurementRecord("L1S11", 1, 10_000 * i, Condition.TRACTION_FREE,
                              channels=channels)
        )
    path = tmp_path / "records.jsonl"
    write_records(path, records)
    fc = tmp_path / "failure.json"
    fc.write_text(json.dumps(FAILURE_CYCLES))
    return path, fc


def _toy_table_csv(path, m=60, seed=3):
    """A small generic training table: 2 features plus target D."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, size=(m, 2))
    d = (pts[:, 0] * pts[:, 1]).reshape(-1, 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "x2", "D"])
        for row, target in zip(pts, d):
            writer.writerow([repr(float(row[0])), repr(float(row[1])),
                             repr(float(target[0]))])
    return pts, d


class TestToyCommands:
    def test_toy_reg_writes_metrics_with_r2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["toy-reg", "--seed", "7", "--train", "60", "--eval", "8",
                     "--out-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "toy_reg_metrics.json").read_text())
        assert "r2" in payload["maxent"]["y1"]
        assert "r2" in payload["wknn"]["y2"]
        assert (out / "toy_reg_maxent.csv").exists()
        assert (out / "toy_reg_wknn.csv").exists()

    def test_toy_clf_is_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["toy-clf", "--seed", "7", "--train", "120", "--eval", "10",
                         "--out-dir", str(out)]) == 0
        for name in ("toy_clf_maxent.csv", "toy_clf_wknn.csv", "toy_clf_metrics.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_train_is_usage_error(self, tmp_path):
        code = main(["toy-reg", "--train", "0", "--out-dir", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("command", ["toy-reg", "toy-clf"])
    @pytest.mark.parametrize("k", ["0", "21"])
    def test_k_outside_train_is_usage_error_before_any_output(self, tmp_path, capsys,
                                                              command, k):
        out = tmp_path / "x"
        code = main([command, "--train", "20", "--eval", "4", "--k", k,
                     "--out-dir", str(out)])
        assert code == 2
        assert "--k" in capsys.readouterr().err
        assert list(out.glob("*.csv")) == []

    def test_bad_param_override_is_usage_error(self, tmp_path):
        code = main(["toy-reg", "--train", "20", "--eval", "4",
                     "--threshold-filter", "0.0", "--out-dir", str(tmp_path / "x")])
        assert code == 2


class TestCltCommand:
    def test_symmetric_layup_kills_coupling(self, tmp_path):
        out = tmp_path / "abd.json"
        assert main(["clt", "[90_2/45/-45]_2S", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        b = np.array(payload["b"])
        a = np.array(payload["a"])
        assert np.abs(b).max() <= 1e-9 * np.abs(a).max()
        assert len(payload["feature_row"]) == 18

    def test_single_ply_matches_stiffness(self, tmp_path):
        out = tmp_path / "abd.json"
        assert main(["clt", "[0]", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        q11 = ply_stiffness_q12(T700_PLY)[0, 0]
        assert payload["a"][0][0] == pytest.approx(q11 * 0.132, rel=1e-12)

    def test_parse_failure_exits_2(self, capsys):
        assert main(["clt", "[bad"]) == 2
        assert "position" in capsys.readouterr().err


class TestFeaturesCommand:
    def test_three_records_three_rows(self, tmp_path, capsys):
        records, fc = _records_fixture(tmp_path, 3)
        out = tmp_path / "table.csv"
        assert main(["features", str(records), "--failure-cycles", str(fc),
                     "--out", str(out)]) == 0
        table = FeatureTable.from_csv(out)
        assert len(table) == 3
        assert "rows=3" in capsys.readouterr().out

    def test_lenient_skips_and_warns(self, tmp_path, capsys):
        records, fc = _records_fixture(tmp_path, 2)
        with open(records, "a") as fh:
            fh.write("{broken\n")
        out = tmp_path / "table.csv"
        assert main(["features", str(records), "--failure-cycles", str(fc),
                     "--out", str(out), "--lenient"]) == 0
        captured = capsys.readouterr()
        assert "rows=2" in captured.out and "skipped=1" in captured.out

    def test_strict_aborts_with_line_number(self, tmp_path, capsys):
        records, fc = _records_fixture(tmp_path, 2)
        with open(records, "a") as fh:
            fh.write("{broken\n")
        out = tmp_path / "table.csv"
        assert main(["features", str(records), "--failure-cycles", str(fc),
                     "--out", str(out)]) == 1
        assert ":3:" in capsys.readouterr().err


class TestFailureCyclesFile:
    @pytest.mark.parametrize("command", ["features", "append"])
    @pytest.mark.parametrize("text", ['{"a": ', '["L1S11", 177309]', '{"L1S11": "x"}'],
                             ids=["bad-json", "not-an-object", "non-integer-count"])
    def test_malformed_file_exits_1_naming_it(self, tmp_path, capsys, command, text):
        records, fc = _records_fixture(tmp_path, 1)
        fc.write_text(text)
        if command == "features":
            argv = ["features", str(records), "--failure-cycles", str(fc),
                    "--out", str(tmp_path / "out.csv")]
        else:
            table = tmp_path / "table.csv"
            _toy_table_csv(table)
            argv = ["append", "--table", str(table), "--records", str(records),
                    "--failure-cycles", str(fc)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(fc) in err


class TestParamFlags:
    def test_every_field_default_as_its_flag_gives_the_defaults(self):
        argv = ["toy-reg"]
        for f in dataclasses.fields(MaxEntParams):
            argv += [f"--{f.name.replace('_', '-')}", str(f.default)]
        args = build_parser().parse_args(argv)
        assert _params_from(args) == MaxEntParams()


class TestPredictCommand:
    def test_training_rows_predict_their_targets(self, tmp_path):
        table = tmp_path / "table.csv"
        pts, d = _toy_table_csv(table)
        queries = tmp_path / "queries.csv"
        with open(queries, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x1", "x2"])
            for row in pts[:5]:
                writer.writerow([repr(float(row[0])), repr(float(row[1]))])
        out = tmp_path / "pred.csv"
        assert main(["predict", "--table", str(table), "--queries", str(queries),
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        for i, row in enumerate(rows):
            assert float(row["prediction"]) == float(d[i][0])
            assert row["exit_reason"] == "converged"

    def test_parallel_output_is_byte_identical(self, tmp_path):
        table = tmp_path / "table.csv"
        pts, _ = _toy_table_csv(table, m=120)
        queries = tmp_path / "queries.csv"
        rng = np.random.default_rng(9)
        with open(queries, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x1", "x2"])
            for row in rng.uniform(0, 1, size=(30, 2)):
                writer.writerow([repr(float(row[0])), repr(float(row[1]))])
        outs = []
        for workers in ("1", "8"):
            out = tmp_path / f"pred_{workers}.csv"
            assert main(["predict", "--table", str(table), "--queries", str(queries),
                         "--out", str(out), "--parallel", workers]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_empty_queries_gives_header_only(self, tmp_path):
        table = tmp_path / "table.csv"
        _toy_table_csv(table)
        queries = tmp_path / "queries.csv"
        queries.write_text("x1,x2\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--table", str(table), "--queries", str(queries),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("index,prediction")

    def test_empty_query_cell_is_filled_with_the_table_median(self, tmp_path):
        table = tmp_path / "table.csv"
        pts, _ = _toy_table_csv(table, m=60)
        median = repr(float(np.median(pts[:, 1])))
        outs = []
        for name, x2 in (("blank", ""), ("median", median)):
            queries = tmp_path / f"{name}.csv"
            queries.write_text(f"x1,x2\n0.5,{x2}\n")
            out = tmp_path / f"pred_{name}.csv"
            assert main(["predict", "--table", str(table), "--queries", str(queries),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_non_numeric_table_cell_exits_1_naming_the_line(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        _toy_table_csv(table)
        lines = table.read_text().splitlines()
        lines[3] = "abc," + lines[3].split(",", 1)[1]
        table.write_text("\n".join(lines) + "\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--table", str(table), "--queries", str(table),
                     "--out", str(out)]) == 1
        assert f"{table}:4:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    def test_non_finite_query_text_exits_1_naming_the_line(self, tmp_path, capsys, text):
        # only empty fields are masked; non-finite text is an error, not a gap
        table = tmp_path / "table.csv"
        _toy_table_csv(table)
        queries = tmp_path / "queries.csv"
        queries.write_text(f"x1,x2\n0.1,0.2\n0.3,{text}\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--table", str(table), "--queries", str(queries),
                     "--out", str(out)]) == 1
        assert f"{queries}:3:" in capsys.readouterr().err
        assert not out.exists()

    def test_schema_mismatch_reports_column_diff(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        _toy_table_csv(table)
        queries = tmp_path / "queries.csv"
        queries.write_text("x1,zz\n0.1,0.2\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--table", str(table), "--queries", str(queries),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "x2" in err and "zz" in err


class TestAppendAndEval:
    def test_append_then_predict_returns_target(self, tmp_path, capsys):
        records, fc = _records_fixture(tmp_path, 3)
        table_csv = tmp_path / "table.csv"
        assert main(["features", str(records), "--failure-cycles", str(fc),
                     "--out", str(table_csv)]) == 0
        # seed the store with the first two rows, append the third, then
        # query the third row's features
        full = FeatureTable.from_csv(table_csv)
        seed_csv = tmp_path / "seed.csv"
        FeatureTable(full.rows[:2], full.targets[:2]).to_csv(seed_csv)
        third = tmp_path / "third.jsonl"
        lines = (tmp_path / "records.jsonl").read_text().splitlines()
        third.write_text(lines[2] + "\n")
        queries = tmp_path / "queries.csv"
        FeatureTable(full.rows[2:3], full.targets[2:3]).to_csv(queries)
        preds = tmp_path / "preds.csv"
        assert main(["append", "--table", str(seed_csv), "--records", str(third),
                     "--failure-cycles", str(fc), "--queries", str(queries),
                     "--predictions", str(preds)]) == 0
        assert "refits=0" in capsys.readouterr().out
        with open(preds, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["prediction"]) == pytest.approx(float(full.targets[2]), abs=1e-12)

    def test_append_without_records_writes_the_predict_output(self, tmp_path):
        # one table path and one writer: with nothing appended, append
        # serves its queries exactly as predict does
        table = tmp_path / "table.csv"
        _toy_table_csv(table, m=80)
        queries = tmp_path / "queries.csv"
        rng = np.random.default_rng(4)
        with open(queries, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x1", "x2"])
            for row in rng.uniform(0, 1, size=(12, 2)):
                writer.writerow([repr(float(row[0])), repr(float(row[1]))])
            writer.writerow(["0.5", ""])
        records = tmp_path / "none.jsonl"
        records.write_text("")
        fc = tmp_path / "failure.json"
        fc.write_text(json.dumps(FAILURE_CYCLES))
        predicted, appended = tmp_path / "predict.csv", tmp_path / "append.csv"
        assert main(["predict", "--table", str(table), "--queries", str(queries),
                     "--out", str(predicted)]) == 0
        assert main(["append", "--table", str(table), "--records", str(records),
                     "--failure-cycles", str(fc), "--queries", str(queries),
                     "--predictions", str(appended)]) == 0
        assert appended.read_bytes() == predicted.read_bytes()
        assert len(appended.read_text().splitlines()) == 14

    def test_eval_perfect_predictions(self, tmp_path, capsys):
        preds = tmp_path / "p.csv"
        preds.write_text("prediction\n0.1\n0.5\n0.9\n")
        truth = tmp_path / "t.csv"
        truth.write_text("D\n0.1\n0.5\n0.9\n")
        assert main(["eval", "--predictions", str(preds), "--truth", str(truth)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r2"] == 1.0 and payload["mse"] == 0.0 and payload["n"] == 3

    def test_eval_mismatched_rows_fails(self, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text("prediction\n0.1\n0.5\n")
        truth = tmp_path / "t.csv"
        truth.write_text("D\n0.1\n0.5\n0.9\n")
        assert main(["eval", "--predictions", str(preds), "--truth", str(truth)]) == 1


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": 30, "eval": 5, "seed": 11}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "toy-reg", "--out-dir", str(out)]) == 0
        payload = json.loads((out / "toy_reg_metrics.json").read_text())
        assert payload["maxent"]["seed"] == 11
        out2 = tmp_path / "out2"
        assert main(["--config", str(cfg), "toy-reg", "--seed", "3",
                     "--out-dir", str(out2)]) == 0
        payload2 = json.loads((out2 / "toy_reg_metrics.json").read_text())
        assert payload2["maxent"]["seed"] == 3


    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"train": 30,')
        assert main(["--config", str(cfg), "toy-reg", "--out-dir", str(tmp_path / "x")]) == 2
        assert "usage error:" in capsys.readouterr().err


class TestQueryFileVariants:
    def test_table_file_itself_can_be_the_query_file(self, tmp_path):
        # a 'D'-terminated query file is accepted with the target ignored
        table = tmp_path / "table.csv"
        pts, d = _toy_table_csv(table, m=40)
        out = tmp_path / "pred.csv"
        assert main(["predict", "--table", str(table), "--queries", str(table),
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        for i, row in enumerate(rows):
            assert float(row["prediction"]) == float(d[i][0])

    def test_parallelism_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MAXENT_PARALLEL", "4")
        table = tmp_path / "table.csv"
        _toy_table_csv(table, m=40)
        queries = tmp_path / "q.csv"
        with open(queries, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x1", "x2"])
            writer.writerow(["0.21", "0.33"])
        out_env = tmp_path / "pred_env.csv"
        assert main(["predict", "--table", str(table), "--queries", str(queries),
                     "--out", str(out_env)]) == 0
        monkeypatch.delenv("MAXENT_PARALLEL")
        out_plain = tmp_path / "pred_plain.csv"
        assert main(["predict", "--table", str(table), "--queries", str(queries),
                     "--out", str(out_plain)]) == 0
        assert out_env.read_bytes() == out_plain.read_bytes()

    def test_non_integer_parallelism_env_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MAXENT_PARALLEL", "abc")
        table = tmp_path / "table.csv"
        _toy_table_csv(table, m=20)
        assert main(["predict", "--table", str(table), "--queries", str(table),
                     "--out", str(tmp_path / "pred.csv")]) == 2
        assert "usage error:" in capsys.readouterr().err


class TestEvalOverPredictOutput:
    def test_eval_reads_prediction_files_with_text_columns(self, tmp_path):
        # the predict output mixes numeric and text columns; eval must
        # parse only the requested one
        table = tmp_path / "table.csv"
        _toy_table_csv(table, m=30)
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--table", str(table), "--queries", str(table),
                     "--out", str(pred)]) == 0
        report = tmp_path / "metrics.json"
        assert main(["eval", "--predictions", str(pred), "--truth", str(table),
                     "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        # replayed training rows hit the duplicate short-circuit: exact fit
        assert payload["r2"] == 1.0 and payload["mse"] == 0.0 and payload["n"] == 30
