"""Command-line entry point.

Subcommands: toy-reg, toy-clf (toy experiments), clt (laminate stiffness),
features (records -> feature table), predict (batch prediction), append
(online ingestion), eval (metrics between predictions and targets).

Exit codes are stable for scripting: 0 success, 2 usage or validation
error, 1 runtime failure. Every setting is a flag on the command line;
there is no config file. Every command is deterministic given its flags,
input files and seed; ``--parallel`` never changes output bytes. Every
command predicts with the published defaults, ``MaxEntParams()``; other
predictor parameters are set through the library.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .core import Prediction, predict_batch
from .errors import IngestionError, LayupParseError, MaxentError
from .evaluation import ToySpec, metrics, run_toy_experiment
from .laminate import (
    PlyProperties,
    T700_PLY,
    abd_matrices,
    parse_layup,
    stiffness_feature_row,
)
from .pipeline import (FeatureTable, OnlineStore, read_numeric_column, read_numeric_csv,
                       read_records, write_csv)
# not called here; imported for perfbench/tracing.py, which wraps them as attributes of this module
from .pipeline import apply_imputer, apply_scaler, fit_imputer, fit_scaler  # noqa: F401

class _UsageError(Exception):
    pass


def _add_store_flags(sp: argparse.ArgumentParser) -> None:
    """The flags of a command that serves queries from a table's store."""
    sp.add_argument("--table", required=True, help="training CSV, target column 'D' last")
    # predict_batch runs below 1 as one thread and caps the count at os.cpu_count()
    sp.add_argument("--parallel", type=int, default=1)


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------- toy runs

# larger toys are not runs this tool can finish; far larger ones fail inside numpy
_TOY_MAX_POINTS = 1_000_000


def _cmd_toy(args, kind: str) -> int:
    if not (1 <= args.train <= _TOY_MAX_POINTS and 1 <= args.eval <= _TOY_MAX_POINTS):
        raise _UsageError(f"--train and --eval must lie in 1..{_TOY_MAX_POINTS}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    if not 1 <= args.k <= args.train:
        raise _UsageError(f"--k must lie in 1..--train ({args.train}), got {args.k}")
    spec = ToySpec(kind, args.train, args.eval, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    tag = "reg" if kind == "regression" else "clf"
    summary = {}
    for method in ("maxent", "wknn"):
        result = run_toy_experiment(spec, method, k=args.k, parallelism=args.parallel)
        result.to_csv(os.path.join(args.out_dir, f"toy_{tag}_{method}.csv"))
        summary[method] = result.metrics_json()
    _write_json(summary, os.path.join(args.out_dir, f"toy_{tag}_metrics.json"))
    print(f"toy-{tag}: wrote {args.out_dir}/toy_{tag}_{{maxent,wknn}}.csv "
          f"and toy_{tag}_metrics.json")
    return 0


# ---------------------------------------------------------------- laminate

def _cmd_clt(args) -> int:
    try:
        ply = PlyProperties(
            e1=args.e1, e2=args.e2, nu12=args.nu12, g12=args.g12, thickness=args.thickness
        )
        layup = parse_layup(args.layup, ply)
    except (LayupParseError, MaxentError) as exc:
        raise _UsageError(str(exc)) from exc
    abd = abd_matrices(layup)
    payload = {
        "layup": list(layup.angles),
        "n_plies": layup.n_plies,
        "a": abd.a.tolist(),
        "b": abd.b.tolist(),
        "d": abd.d.tolist(),
        "feature_row": stiffness_feature_row(abd).tolist(),
    }
    _write_json(payload, args.out)
    return 0


# ---------------------------------------------------------------- features

def _read_failure_cycles(path: str) -> dict:
    """Coupon id -> cycles at failure, from a JSON object of integers."""
    with open(path) as fh:
        try:
            counts = json.load(fh)
        except json.JSONDecodeError as exc:
            raise IngestionError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(counts, dict):
        raise IngestionError(f"{path}: expected a JSON object of coupon id -> cycles at failure")
    for coupon, cycles in counts.items():
        if not isinstance(cycles, int) or isinstance(cycles, bool):
            raise IngestionError(
                f"{path}: cycles at failure of {coupon!r} must be an integer, got {cycles!r}"
            )
    return counts


def _cmd_features(args) -> int:
    failure_cycles = _read_failure_cycles(args.failure_cycles)
    records, skipped = read_records(args.records, strict=not args.lenient)
    table = FeatureTable.from_records(records, failure_cycles=failure_cycles)
    table.to_csv(args.out)
    masked = int(np.isnan(table.rows).sum())
    print(f"rows={len(table)} masked_cells={masked} skipped={skipped}")
    if skipped:
        print(f"warning: skipped {skipped} malformed line(s)", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- tables

def _column_diff(expected, got) -> str:
    missing = [c for c in expected if c not in got]
    extra = [c for c in got if c not in expected]
    if missing or extra:
        return f"missing={missing[:8]} unexpected={extra[:8]}"
    if len(got) != len(expected):
        return f"{len(got)} columns for the table's {len(expected)}"
    i = next(i for i, (want, have) in enumerate(zip(expected, got)) if want != have)
    return f"column {i + 1} is {got[i]!r} where the table has {expected[i]!r}"


def _load_queries(path: str, feature_columns):
    header, data = read_numeric_csv(path)
    if header == list(feature_columns) + ["D"]:
        return data[:, :-1]
    if header == list(feature_columns):
        return data
    names = header[:-1] if header[-1:] == ["D"] else header  # a target column is ignored
    raise MaxentError(f"{path}: query columns do not match the table: "
                      + _column_diff(feature_columns, names))


def _serve(store, queries, workers, path) -> int:
    """Predict the raw ``queries`` from ``store`` and write the prediction
    CSV: one row per query, an error row for each failed one. Returns the
    number of rows written."""
    results = predict_batch(store.snapshot(), store.normalize(queries), parallelism=workers)

    rows = []
    for i, res in enumerate(results):
        if isinstance(res, Prediction):
            d = res.diagnostics()
            rows.append([i, float(np.asarray(res.value).ravel()[0]), d["n_neighbors"],
                         d["h_star"], d["exit_reason"], d["iterations"], d["residual_error"],
                         d["weight_sum_gap"], d["rounds"], None])
        else:
            rows.append([i, *[None] * 8, f"{res.error}: {res.message}"])
    write_csv(path, ["index", "prediction", "n_neighbors", "h_star", "exit_reason",
                     "iterations", "residual_error", "weight_sum_gap", "rounds", "error"], rows)
    return len(results)


def _cmd_predict(args) -> int:
    # the parsed table is imputed and scaled in place and becomes the store's rows
    store = OnlineStore.from_csv(args.table)
    queries = _load_queries(args.queries, store.columns)
    n = _serve(store, queries, args.parallel, args.out)
    print(f"predict: wrote {n} row(s) to {args.out}")
    return 0


# ---------------------------------------------------------------- online

def _cmd_append(args) -> int:
    failure_cycles = _read_failure_cycles(args.failure_cycles)
    store = OnlineStore.from_csv(args.table)
    records, skipped = read_records(args.records, strict=not args.lenient)
    if records:
        # one append for the whole file: it copies the table once into a
        # buffer with room, then writes only the new rows. Missing cells are
        # NaN, which normalize imputes as the table's were
        appended = FeatureTable.from_records(records, failure_cycles=failure_cycles)
        store.append_rows(appended.rows, appended.targets)
    print(f"appended={len(records)} skipped={skipped} rows={len(store)} "
          f"refits={store.refit_count}")

    if args.queries:
        queries = _load_queries(args.queries, store.columns)
        _serve(store, queries, args.parallel, args.predictions)
        print(f"append: wrote predictions to {args.predictions}")
    return 0


# ---------------------------------------------------------------- metrics

def _cmd_eval(args) -> int:
    preds = read_numeric_column(args.predictions, args.pred_col)
    truth = read_numeric_column(args.truth, args.truth_col)
    if preds.size != truth.size:
        raise MaxentError(
            f"row count mismatch: {preds.size} predictions vs {truth.size} targets"
        )
    # finite cells can still overflow the squared errors; NaN or infinity
    # would turn the report into invalid JSON, so that is an error, not a
    # numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        report = metrics(truth, preds)
    if not (math.isfinite(report.r2) and math.isfinite(report.mse)):
        raise MaxentError(
            f"metrics are not finite (r2={report.r2}, mse={report.mse}): "
            "the prediction errors overflow float64"
        )
    _write_json({"r2": report.r2, "mse": report.mse, "n": report.n}, args.out)
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxentnn",
        description="Self-tuning maximum-entropy neighbor prediction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for tag, kind in (("toy-reg", "regression"), ("toy-clf", "classification")):
        sp = sub.add_parser(tag, help=f"run the toy {kind} experiment")
        sp.add_argument("--seed", type=int, default=7)
        sp.add_argument("--train", type=int, default=500)
        sp.add_argument("--eval", type=int, default=50)
        sp.add_argument("--k", type=int, default=5, help="neighbors for the wknn baseline")
        sp.add_argument("--out-dir", default="toy_out")
        sp.add_argument("--parallel", type=int, default=1)
        sp.set_defaults(func=lambda a, kind=kind: _cmd_toy(a, kind))

    sp = sub.add_parser("clt", help="laminate stiffness blocks for a stacking notation")
    sp.add_argument("layup", help="notation like [90_2/45/-45]_2S")
    sp.add_argument("--e1", type=float, default=T700_PLY.e1)
    sp.add_argument("--e2", type=float, default=T700_PLY.e2)
    sp.add_argument("--nu12", type=float, default=T700_PLY.nu12)
    sp.add_argument("--g12", type=float, default=T700_PLY.g12)
    sp.add_argument("--thickness", type=float, default=T700_PLY.thickness)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_clt)

    sp = sub.add_parser("features", help="assemble a feature table from measurement records")
    sp.add_argument("records", help="one JSON record per line")
    sp.add_argument("--failure-cycles", required=True,
                    help="JSON map of coupon id -> cycles at failure")
    sp.add_argument("--out", required=True)
    sp.add_argument("--lenient", action="store_true",
                    help="skip malformed lines instead of aborting")
    sp.set_defaults(func=_cmd_features)

    sp = sub.add_parser("predict", help="predict targets for a query file")
    _add_store_flags(sp)
    sp.add_argument("--queries", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_predict)

    sp = sub.add_parser("append", help="stream records into a store, optionally predict")
    _add_store_flags(sp)
    sp.add_argument("--records", required=True)
    sp.add_argument("--failure-cycles", required=True)
    sp.add_argument("--queries", default=None)
    sp.add_argument("--predictions", default="predictions.csv")
    sp.add_argument("--lenient", action="store_true")
    sp.set_defaults(func=_cmd_append)

    sp = sub.add_parser("eval", help="R^2 / MSE between predictions and targets")
    sp.add_argument("--predictions", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--pred-col", default="prediction")
    sp.add_argument("--truth-col", default="D")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (MaxentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
