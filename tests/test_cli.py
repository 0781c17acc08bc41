"""End-to-end CLI tests driving maxentnn.cli.main directly."""

import contextlib
import csv
import dataclasses
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxentnn
from maxentnn.cli import _params_from, build_parser, main
from maxentnn.core import MaxEntParams
from maxentnn.laminate import T700_PLY, ply_stiffness_q12
from maxentnn.pipeline import (
    TABLE_COLUMNS,
    ChannelMeasurement,
    Condition,
    FeatureTable,
    MeasurementRecord,
    _checked_targets,
    read_numeric_csv,
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
        header, data = read_numeric_csv(out)
        assert header == list(TABLE_COLUMNS)
        assert _checked_targets(out, header, data).shape == (3,)
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

    @pytest.mark.parametrize("lenient", [False, True])
    def test_fractional_layup_is_a_malformed_record(self, tmp_path, capsys, lenient):
        records, fc = _records_fixture(tmp_path, 2)
        with open(records) as fh:
            record = json.loads(fh.readline())
        with open(records, "a") as fh:
            fh.write(json.dumps({**record, "layup": 1.9}) + "\n")
        out = tmp_path / "table.csv"
        argv = ["features", str(records), "--failure-cycles", str(fc), "--out", str(out)]
        if lenient:
            assert main(argv + ["--lenient"]) == 0
            captured = capsys.readouterr().out
            assert "rows=2" in captured and "skipped=1" in captured
        else:
            assert main(argv) == 1
            assert ":3: malformed record: layup 1.9 is not an integer" in capsys.readouterr().err

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
        _, full = read_numeric_csv(table_csv)
        seed_csv = tmp_path / "seed.csv"
        FeatureTable(full[:2, :-1], full[:2, -1]).to_csv(seed_csv)
        third = tmp_path / "third.jsonl"
        lines = (tmp_path / "records.jsonl").read_text().splitlines()
        third.write_text(lines[2] + "\n")
        queries = tmp_path / "queries.csv"
        FeatureTable(full[2:3, :-1], full[2:3, -1]).to_csv(queries)
        preds = tmp_path / "preds.csv"
        assert main(["append", "--table", str(seed_csv), "--records", str(third),
                     "--failure-cycles", str(fc), "--queries", str(queries),
                     "--predictions", str(preds)]) == 0
        assert "refits=0" in capsys.readouterr().out
        with open(preds, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["prediction"]) == pytest.approx(full[2, -1], abs=1e-12)

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

    def test_append_parallel_writes_the_bytes_of_one_thread(self, tmp_path):
        table = tmp_path / "table.csv"
        _toy_table_csv(table, m=120)
        queries = tmp_path / "queries.csv"
        rng = np.random.default_rng(9)
        with open(queries, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x1", "x2"])
            for row in rng.uniform(0, 1, size=(30, 2)):
                writer.writerow([repr(float(row[0])), repr(float(row[1]))])
        records = tmp_path / "none.jsonl"
        records.write_text("")
        fc = tmp_path / "failure.json"
        fc.write_text(json.dumps(FAILURE_CYCLES))
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"append_{workers}.csv"
            assert main(["append", "--table", str(table), "--records", str(records),
                         "--failure-cycles", str(fc), "--queries", str(queries),
                         "--predictions", str(out), "--parallel", workers]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_eval_rejects_non_finite_cells(self, tmp_path, capsys, cell):
        # NaN or infinity would make the JSON report invalid
        preds = tmp_path / "p.csv"
        preds.write_text(f"prediction\n0.1\n{cell}\n0.9\n")
        truth = tmp_path / "t.csv"
        truth.write_text("D\n0.1\n0.5\n0.9\n")
        assert main(["eval", "--predictions", str(preds), "--truth", str(truth)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"p.csv:3: non-finite 'prediction' value '{cell}'" in err
        assert main(["eval", "--predictions", str(truth), "--truth", str(preds),
                     "--pred-col", "D", "--truth-col", "prediction"]) == 1
        assert "p.csv:3: non-finite 'prediction'" in capsys.readouterr().err


    def test_eval_rejects_metrics_that_overflow(self, tmp_path, capsys):
        # finite cells whose errors square past float64 would report Infinity and NaN
        preds = tmp_path / "p.csv"
        preds.write_text("prediction\n1e308\n-1e308\n")
        truth = tmp_path / "t.csv"
        truth.write_text("D\n-1e308\n1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--predictions", str(preds), "--truth", str(truth)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: metrics are not finite")


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

    def test_eval_names_the_line_of_a_failed_query(self, tmp_path, capsys):
        # a failed query's row has an empty prediction and a quoted error
        # holding a comma; its empty prediction cell is an error on its line
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "index,prediction,exit_reason,error\n"
            "0,0.25,converged,\n"
            '1,,,"InvalidInputError: query has 3 coordinates, dataset has 2 features"\n'
            "2,0.75,converged,\n")
        truth = tmp_path / "t.csv"
        truth.write_text("D\n0.2\n0.5\n0.8\n")
        assert main(["eval", "--predictions", str(pred), "--truth", str(truth)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "pred.csv:3: non-finite 'prediction' value ''" in err

    @pytest.mark.parametrize("cell", ["1_0", "\u0660.\u0665"])
    def test_eval_rejects_the_cells_predict_rejects(self, tmp_path, capsys, cell):
        # float() reads 1_0 as 10 and Arabic-Indic digits as 0.5; the table
        # parser, which eval shares with predict, reads neither
        truth = tmp_path / "t.csv"
        truth.write_text(f"D\n{cell}\n0.5\n", encoding="utf-8")
        preds = tmp_path / "p.csv"
        preds.write_text("prediction\n0.1\n0.5\n")
        assert main(["eval", "--predictions", str(preds), "--truth", str(truth)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"t.csv:2: could not convert string '{cell}'" in err
        assert main(["predict", "--table", str(truth), "--queries", str(truth),
                     "--out", str(tmp_path / "out.csv")]) == 1
        assert f"t.csv:2: could not convert string '{cell}'" in capsys.readouterr().err

    def test_eval_names_the_physical_line_after_a_two_line_cell(self, tmp_path, capsys):
        preds = tmp_path / "p.csv"
        preds.write_text('prediction,note\n0.1,"two\nlines"\n0.2,x\nabc,y\n')
        truth = tmp_path / "t.csv"
        truth.write_text("D\n0.1\n0.2\n0.3\n")
        assert main(["eval", "--predictions", str(preds), "--truth", str(truth)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "p.csv:5: could not convert string 'abc'" in err

    def test_eval_rows_must_carry_the_headers_cell_count(self, tmp_path, capsys):
        preds = tmp_path / "p.csv"
        preds.write_text("prediction,note\n0.1,a\n0.2\n")
        truth = tmp_path / "t.csv"
        truth.write_text("D\n0.1\n0.2\n")
        assert main(["eval", "--predictions", str(preds), "--truth", str(truth)]) == 1
        assert "p.csv:3: expected 2 cells" in capsys.readouterr().err


# ---------------------------------------------------------------- exit-code fuzz
# Strategies are built once, at import: building them inside every draw
# costs more than the runs they drive.


@functools.lru_cache(maxsize=None)
def _one_in(n: int):
    """True about once in ``n`` draws. Hypothesis's own draws lean to the
    ends of a range, so the odds come from a seeded ``random.Random``."""
    return st.randoms(use_true_random=True).map(lambda r: r.random() < 1.0 / n)


def _mostly(valid, invalid):
    """Draws from ``valid`` about four times in five, else from ``invalid``."""
    valid, invalid = st.sampled_from(valid), st.sampled_from(invalid)
    return _one_in(5).flatmap(lambda odd: invalid if odd else valid)


# JSON values of every kind a hand-edited file can hold
_JSON_ODDITIES = [0, -1, 2.5, 1e308, 10**400, float("inf"), float("nan"), True, None,
                  "1", "x", "", [], [1], {}]
_TEXT = st.text(max_size=30)
_UNIT_CELL = st.floats(0, 1).map(repr)
_CELLS = st.one_of(
    st.floats(-2, 2).map(repr),
    st.sampled_from(["", "nan", "inf", "1e400", "abc", '"0.5"', " 0.3", "1,2", "\x00"]),
)


@st.composite
def _csv_texts(draw):
    """A small CSV: a generic table, a feature table, a near-miss of either, or any text."""
    kind = draw(st.integers(0, 5))
    if kind == 5:
        return draw(_TEXT)
    if kind == 4:
        names = list(TABLE_COLUMNS)
    else:
        names = draw(st.sampled_from([["x1", "x2", "D"], ["x1", "D"], ["x1", "x2"],
                                      ["x1", "x2", "prediction", "D"]]))
        if kind == 3:
            names = draw(st.lists(st.sampled_from(["x1", "x2", "D", "", "x 3"]),
                                  min_size=1, max_size=4))
    # a feature table's 531 cells a row come from numpy: drawing each is slow
    wide = np.random.default_rng(draw(st.integers(0, 2**16))) if len(names) > 4 else None
    rows = []
    for _ in range(0 if draw(_one_in(8)) else draw(st.integers(1, 6))):
        if wide is None:
            row = [draw(_UNIT_CELL) for _ in names]
        else:
            row = [repr(v) for v in wide.uniform(0, 1, len(names))]
        if draw(_one_in(4)):  # one bad or missing cell, or a ragged row
            j = draw(st.integers(0, len(row)))
            row[j:j + 1] = [draw(_CELLS)] if draw(st.booleans()) else []
        rows.append(row)
    lines = [",".join(names)] + [",".join(r) for r in rows]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


_SAMPLES = st.one_of(
    st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    st.lists(st.sampled_from([0.0, 1.0, 1e-200, 1e200, float("inf"), "a", None, [1.0]]),
             max_size=4),
)


_ODD_JSON = st.sampled_from(_JSON_ODDITIES)
_CHANNEL_ID = _mostly([1, 2, 252], [0, 253] + _JSON_ODDITIES)
_RECORD_FIELDS = {
    "coupon": _mostly(["c1"], ["c2", 7, None]),
    "layup": _mostly([1, 2, 3], [4] + _JSON_ODDITIES),
    "cycles": _mostly([0, 50, 100], [101] + _JSON_ODDITIES),
    "condition": _mostly(["baseline", "clamped", "traction_free"],
                         ["loaded", "LOADED", "bad", 3, None]),
    "load": _mostly([0.0], [12.5] + _JSON_ODDITIES),
}


@st.composite
def _record_lines(draw):
    """One JSONL line: a record with some fields made odd, other JSON, or any text."""
    kind = draw(st.integers(0, 7))
    if kind == 7:
        return draw(_TEXT).replace("\n", " ")
    if kind == 6:
        return json.dumps(draw(_ODD_JSON))
    obj = {key: draw(values) for key, values in _RECORD_FIELDS.items()}
    obj["channels"] = draw(_ODD_JSON) if draw(_one_in(5)) else [
        {"id": draw(_CHANNEL_ID), "signal": draw(_SAMPLES), "baseline": draw(_SAMPLES)}
        for _ in range(draw(st.integers(0, 3)))]
    for key in list(obj):
        if draw(_one_in(10)):
            del obj[key]
    return json.dumps(obj)


_FILE_CONTENTS = st.fixed_dictionaries({
    "table.csv": _csv_texts(),
    "queries.csv": _csv_texts(),
    "records.jsonl": st.lists(_record_lines(), max_size=3).map(lambda ls: "\n".join(ls) + "\n"),
    "fc.json": _one_in(5).flatmap(lambda odd: st.text(max_size=20) if odd else (
        st.dictionaries(st.sampled_from(["c1", "c2"]), _mostly([100, 1000], _JSON_ODDITIES),
                        min_size=1, max_size=2).map(json.dumps))),
    "config.json": st.one_of(
        st.dictionaries(st.sampled_from(["train", "eval", "k", "seed", "parallel", "scaler",
                                         "it_convergence", "threshold_filter", "e1", "lenient",
                                         "func", "command"]),
                        _mostly(["2", 3, 0.5], _JSON_ODDITIES), min_size=1, max_size=12
                        ).map(json.dumps),
        st.text(max_size=20)),
})

_IN = ["missing.csv", "."]
_OUT = _mostly(["out.csv"], ["no_such_dir/out.csv", "."])
_INTS = _mostly(["1", "2", "3", "5"], ["0", "-1", "x", "1.5", ""])
_FLOATS = _mostly(["0.5", "2", "1e3"], ["0", "-1", "1e-300", "1e308", "nan", "inf", "abc"])
_PARAMS = {
    "--threshold-filter": _mostly(["0.01", "0.1"], ["0", "1", "nan", "x"]),
    "--convergence-tolerance": _mostly(["0.01", "0.1"], ["0", "-1", "inf"]),
    "--it-convergence": _mostly(["5", "20"], ["0", "-3", "2.5"]),
    "--sweep-points": _mostly(["8", "64"], ["0", "1", "x"]),
    "--max-minconvex-rounds": _mostly(["3", "20"], ["0", "-1"]),
}
# a toy always gets both sizes: the 500-point default takes seconds a run
_TOY_SIZES = st.tuples(_mostly(["10", "20"], ["0", "-1", "x"]), _mostly(["2", "3"], ["0", "x"])
                       ).map(lambda sizes: ["--train", sizes[0], "--eval", sizes[1]])
_TOY = {"--seed": _INTS, "--k": _INTS, "--out-dir": _OUT,
        "--parallel": _mostly(["1", "2"], ["0", "-2", "x"]), **_PARAMS}
# each subcommand's leading arguments, then its flags with what each takes
# (None: no value); required flags come first and are dropped one time in ten
_COMMANDS = {
    "toy-reg": ([_TOY_SIZES], {}, _TOY),
    "toy-clf": ([_TOY_SIZES], {}, _TOY),
    "clt": ([st.one_of(
        st.sampled_from(["[0/90]S", "[90_2/45/-45]_2S", "[0]", "[]", "[0/90", "[0_0]", "[x]",
                         "0/90", "[0/90]_3", "[45_3/-45]_2S", ""]),
        st.text(max_size=12)).map(lambda layup: [layup])], {},
        {"--e1": _FLOATS, "--e2": _FLOATS, "--nu12": _mostly(["0.3"], ["0.9", "-1", "x"]),
         "--g12": _FLOATS, "--thickness": _FLOATS, "--out": _OUT}),
    "features": ([_mostly(["records.jsonl"], _IN).map(lambda path: [path])],
                 {"--failure-cycles": _mostly(["fc.json"], _IN), "--out": _OUT},
                 {"--lenient": None}),
    "predict": ([], {"--table": _mostly(["table.csv"], _IN),
                     "--queries": _mostly(["queries.csv", "table.csv"], _IN), "--out": _OUT},
                {"--scaler": _mostly(["minmax_pm1", "standard", "none"], ["bad"]),
                 "--parallel": _mostly(["1", "2"], ["0", "-2", "x"]), **_PARAMS}),
    "append": ([], {"--table": _mostly(["table.csv"], _IN),
                    "--records": _mostly(["records.jsonl"], _IN),
                    "--failure-cycles": _mostly(["fc.json"], _IN)},
               {"--queries": _mostly(["queries.csv", "table.csv"], _IN),
                "--predictions": _OUT, "--lenient": None,
                "--scaler": _mostly(["minmax_pm1", "standard", "none"], ["bad"]),
                "--parallel": _mostly(["1", "2"], ["0", "-2", "x"]), **_PARAMS}),
    "eval": ([], {"--predictions": _mostly(["queries.csv", "table.csv"], _IN),
                  "--truth": _mostly(["table.csv"], _IN)},
             {"--pred-col": _mostly(["prediction", "D"], ["x1", "nope"]),
              "--truth-col": _mostly(["D"], ["prediction", "nope"]), "--out": _OUT}),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    leading, required, optional = _COMMANDS[command]
    argv = [command] + [token for tokens in leading for token in draw(tokens)]
    for flags, dropped in ((required, _one_in(10)), (optional, st.booleans())):
        for flag, values in flags.items():
            if draw(dropped):
                continue
            argv += [flag] if values is None else [flag, draw(values)]
    if draw(_one_in(2)):
        argv = ["--config", draw(_mostly(["config.json"], _IN))] + argv
    if draw(_one_in(10)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "x", "-"])))
    return argv


def _run_in_tmp(argv, files):
    """``main(argv)`` run in a fresh directory holding ``files``; (exit code, stderr)."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        err = io.StringIO()
        os.chdir(tmp)  # relative paths, config-file ones included, stay inside tmp
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(here)
    return code, err.getvalue()


_RECORD = {"coupon": "c1", "layup": 1, "cycles": 0, "condition": "baseline",
           "channels": [{"id": 1, "signal": [1.0, 2.0, 1.5], "baseline": [1.0, 1.5, 2.0]}]}
_FEATURES = ["features", "records.jsonl", "--failure-cycles", "fc.json", "--out", "out.csv"]
_TOY_RUN = ["toy-reg", "--train", "10", "--eval", "2", "--out-dir", "toy"]
_SERVE_FILES = {"t.csv": "x1,x2,D\n0.1,0.2,0.3\n0.9,,0.5\n0.4,0.8,0.6\n0.7,0.3,0.2\n",
                "q.csv": "x1,x2\n0.5,0.5\n0.3,0.4\n", "none.jsonl": "", "fc.json": '{"c1": 100}'}
_PREDICT = ["predict", "--table", "t.csv", "--queries", "q.csv"]
_APPEND = ["append", "--table", "t.csv", "--records", "none.jsonl", "--failure-cycles", "fc.json",
           "--queries", "q.csv"]


class TestExitCodeContract:
    """Every run exits 0, 1 (runtime failure) or 2 (usage or validation error),
    with its message on standard error, and never escapes ``main`` with an
    exception."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(argv=_argvs(), files=_FILE_CONTENTS)
    def test_any_arguments_and_file_contents_give_a_contract_exit_code(self, argv, files):
        code, err = _run_in_tmp(argv, files)
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert err.startswith("error: "), (argv, err)
        elif code == 2:
            assert "usage" in err, (argv, err)

    # inputs that once escaped main with an exception

    @pytest.mark.parametrize("record", [
        {**_RECORD, "cycles": float("inf")},   # JSON Infinity as an integer
        {**_RECORD, "load": 10**400},          # an integer too large for a float
        {**_RECORD, "channels": [{**_RECORD["channels"][0], "id": float("inf")}]},
    ])
    def test_unconvertible_record_numbers_are_malformed_records(self, record):
        code, err = _run_in_tmp(_FEATURES, {"records.jsonl": json.dumps(record) + "\n",
                                            "fc.json": '{"c1": 100}'})
        assert code == 1 and "malformed record" in err

    def test_huge_failure_cycle_count_gives_its_damage_fraction(self):
        code, err = _run_in_tmp(_FEATURES, {"records.jsonl": json.dumps(_RECORD) + "\n",
                                            "fc.json": json.dumps({"c1": 10**400})})
        assert code == 0, err

    # far past the cap, so a run the check misses fails inside numpy rather than running
    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--train", str(10**30)],
                                       ["--eval", str(10**30)]])
    def test_out_of_range_toy_flags_are_usage_errors(self, flags):
        code, err = _run_in_tmp(_TOY_RUN + flags, {})
        assert code == 2 and flags[0] in err

    def test_layup_past_the_ply_cap_is_a_usage_error(self):
        code, err = _run_in_tmp(["clt", f"[0_{10**30}]"], {})
        assert code == 2 and "usage" in err and "plies" in err

    @pytest.mark.parametrize("config", [{"seed": 2.5}, {"seed": -1}, {"k": [2]},
                                        {"threshold_filter": "x"}])
    def test_config_values_are_checked_as_flag_values(self, config):
        code, err = _run_in_tmp(["--config", "cfg.json"] + _TOY_RUN,
                                {"cfg.json": json.dumps(config)})
        assert code == 2 and "usage" in err

    def test_config_value_outside_the_flags_choices_is_a_usage_error(self):
        predict = ["predict", "--table", "t.csv", "--queries", "t.csv", "--out", "out.csv"]
        files = {"t.csv": "x1,D\n0.1,0.2\n0.5,0.4\n", "cfg.json": json.dumps({"scaler": "bad"})}
        code, err = _run_in_tmp(["--config", "cfg.json"] + predict, files)
        assert code == 2 and "usage" in err and "--scaler" in err and "'bad'" in err
        assert _run_in_tmp(predict + ["--scaler", "bad"], files)[0] == 2
        files["cfg.json"] = json.dumps({"scaler": "standard"})
        assert _run_in_tmp(["--config", "cfg.json"] + predict, files)[0] == 0
        assert build_parser({"scaler": "none"}).parse_args(predict).scaler == "none"

    @pytest.mark.parametrize("config", [{"seed": None}, {"k": None}, {"train": None}])
    def test_null_config_value_leaves_the_flag_at_its_default(self, config):
        toy_run = ["toy-reg", "--eval", "3", "--out-dir", "toy"]  # --train left at 500
        code, err = _run_in_tmp(["--config", "cfg.json"] + toy_run, {"cfg.json": json.dumps(config)})
        assert code == 0, err

    def test_null_scaler_in_a_config_writes_what_no_config_does(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.csv").write_text("x1,D\n0.1,0.2\n0.5,0.4\n0.9,0.3\n")
        (tmp_path / "q.csv").write_text("x1\n0.3\n")  # not a table row, so scaling shows
        (tmp_path / "cfg.json").write_text('{"scaler": null}')
        predict = ["predict", "--table", "t.csv", "--queries", "q.csv"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--config", "cfg.json"] + predict + ["--out", "config.csv"]) == 0
            assert main(predict + ["--out", "plain.csv"]) == 0
        assert (tmp_path / "config.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_config_values_of_the_flags_types_still_apply(self):
        config = {"seed": 3, "k": 2, "threshold_filter": 0.05, "parallel": None}
        args = build_parser(config).parse_args(_TOY_RUN)
        assert (args.seed, args.k, args.threshold_filter, args.parallel) == (3, 2, 0.05, 1)
        assert build_parser({"lenient": 0}).parse_args(_FEATURES).lenient == 0

    def test_a_config_parallel_on_append_writes_what_predict_writes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, text in {**_SERVE_FILES, "cfg.json": '{"parallel": "2"}'}.items():
            (tmp_path / name).write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--config", "cfg.json"] + _APPEND + ["--predictions", "append.csv"]) == 0
            assert main(["--config", "cfg.json"] + _PREDICT + ["--out", "predict.csv"]) == 0
        assert (tmp_path / "append.csv").read_bytes() == (tmp_path / "predict.csv").read_bytes()

    @pytest.mark.parametrize("value", [[2], 0.5])
    def test_a_config_parallel_on_append_is_checked_as_the_flag(self, value):
        files = {**_SERVE_FILES, "cfg.json": json.dumps({"parallel": value})}
        code, err = _run_in_tmp(["--config", "cfg.json"] + _APPEND, files)
        assert code == 2 and "--parallel" in err

    @pytest.mark.parametrize("config, argv", [
        ({"func": "x"}, _TOY_RUN), ({"func": "x"}, _PREDICT + ["--out", "out.csv"]),
        ({"scaler": "bad", "table": 3}, _TOY_RUN),  # flags of other commands
    ])
    def test_a_config_key_that_names_no_flag_is_ignored(self, config, argv):
        files = {**_SERVE_FILES, "cfg.json": json.dumps(config)}
        code, err = _run_in_tmp(["--config", "cfg.json"] + argv, files)
        assert code == 0, err
        parser = build_parser({"func": "x", "command": "x", "e1": 3})
        args = parser.parse_args(_PREDICT + ["--out", "out.csv"])
        assert args.command == "predict" and callable(args.func) and not hasattr(args, "e1")


_WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any import of scipy, or of a submodule, now raises ImportError
import maxentnn
for info in pkgutil.iter_modules(maxentnn.__path__):
    importlib.import_module("maxentnn." + info.name)
from maxentnn.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_the_package_imports_and_predicts_without_scipy(tmp_path):
    # scipy is a test dependency only; the package itself needs numpy alone
    (tmp_path / "t.csv").write_text("x1,D\n0.1,0.2\n0.5,0.4\n")
    (tmp_path / "q.csv").write_text("x1\n0.3\n0.45\n")
    src = os.path.dirname(os.path.dirname(maxentnn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["predict", "--table", "t.csv", "--queries", "q.csv", "--out", "out.csv"]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "out.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and all(0.2 <= float(r["prediction"]) <= 0.4 for r in rows)
