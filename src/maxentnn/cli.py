"""Command-line entry point.

Subcommands: toy-reg, toy-clf (toy experiments), clt (laminate stiffness),
features (records -> feature table), predict (batch prediction), append
(online ingestion), eval (metrics between predictions and targets).

Exit codes are stable for scripting: 0 success, 2 usage or validation
error, 1 runtime failure. Every command is deterministic given its flags,
input files and seed; ``--parallel`` never changes output bytes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from .core import MaxEntParams, Prediction, predict_batch
from .errors import IngestionError, LayupParseError, MaxentError, ParameterError
from .evaluation import ToySpec, metrics, run_toy_experiment
from .laminate import (
    PlyProperties,
    T700_PLY,
    abd_matrices,
    parse_layup,
    stiffness_feature_row,
)
from .pipeline import FeatureTable, OnlineStore, read_numeric_csv, read_records
# not called here; imported for perfbench/tracing.py, which wraps them as attributes of this module
from .pipeline import apply_imputer, apply_scaler, fit_imputer, fit_scaler  # noqa: F401

class _UsageError(Exception):
    pass


def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    group = sp.add_argument_group("predictor parameters")
    for f in dataclasses.fields(MaxEntParams):
        # annotations are strings under postponed evaluation; the default's type is not
        group.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                           type=type(f.default), default=None)


def _params_from(args) -> MaxEntParams:
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(MaxEntParams)
                 if getattr(args, f.name, None) is not None}
    try:
        return MaxEntParams(**overrides)
    except ParameterError as exc:
        raise _UsageError(str(exc)) from exc


def _parallelism(args) -> int:
    if getattr(args, "parallel", None) is not None:
        return max(1, args.parallel)
    env = os.environ.get("MAXENT_PARALLEL")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        raise _UsageError(f"MAXENT_PARALLEL must be an integer, got {env!r}") from None


def _scaler_kind(args) -> str | None:
    return None if args.scaler == "none" else args.scaler


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # cast keeps numpy scalars from printing their type name
        return repr(float(value))
    return str(value)


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
    params = _params_from(args)
    workers = _parallelism(args)
    os.makedirs(args.out_dir, exist_ok=True)
    tag = "reg" if kind == "regression" else "clf"
    summary = {}
    for method in ("maxent", "wknn"):
        result = run_toy_experiment(spec, method, k=args.k, params=params,
                                    parallelism=workers)
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
    return f"missing={missing[:8]} unexpected={extra[:8]}"


def _load_queries(path: str, feature_columns):
    header, data = read_numeric_csv(path)
    if header == list(feature_columns) + ["D"]:
        return data[:, :-1]
    if header == list(feature_columns):
        return data
    raise MaxentError(f"{path}: query columns do not match the table: "
                      + _column_diff(feature_columns, header))


def _serve(store, queries, workers, path) -> int:
    """Predict the raw ``queries`` from ``store`` and write the prediction
    CSV: one row per query, an error row for each failed one. Returns the
    number of rows written."""
    results = predict_batch(store.snapshot(), store.normalize(queries), store.params, workers)

    fields = ["index", "prediction", "n_neighbors", "h_star", "exit_reason",
              "iterations", "residual_error", "weight_sum_gap", "rounds", "error"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for i, res in enumerate(results):
            if isinstance(res, Prediction):
                d = res.diagnostics()
                writer.writerow([
                    i, _fmt(float(np.asarray(res.value).ravel()[0])),
                    d["n_neighbors"], _fmt(d["h_star"]), d["exit_reason"],
                    d["iterations"], _fmt(d["residual_error"]),
                    _fmt(d["weight_sum_gap"]), d["rounds"], "",
                ])
            else:
                writer.writerow([i, "", "", "", "", "", "", "", "",
                                 f"{res.error}: {res.message}"])
    return len(results)


def _cmd_predict(args) -> int:
    # the raw table is not kept: the store holds the imputed, scaled rows
    store = OnlineStore.from_table(FeatureTable.from_csv(args.table),
                                   params=_params_from(args), scaler_kind=_scaler_kind(args))
    queries = _load_queries(args.queries, store.columns)
    n = _serve(store, queries, _parallelism(args), args.out)
    print(f"predict: wrote {n} row(s) to {args.out}")
    return 0


# ---------------------------------------------------------------- online

def _cmd_append(args) -> int:
    failure_cycles = _read_failure_cycles(args.failure_cycles)
    store = OnlineStore.from_table(FeatureTable.from_csv(args.table),
                                   params=_params_from(args), scaler_kind=_scaler_kind(args))
    records, skipped = read_records(args.records, strict=not args.lenient)
    if records:
        # one append for the whole file: each append copies the table.
        # Missing cells are NaN, which normalize imputes as the table's were
        appended = FeatureTable.from_records(records, failure_cycles=failure_cycles)
        store.append_rows(appended.rows, appended.targets)
    print(f"appended={len(records)} skipped={skipped} rows={len(store)} "
          f"refits={store.refit_count}")

    if args.queries:
        queries = _load_queries(args.queries, store.columns)
        _serve(store, queries, _parallelism(args), args.predictions)
        print(f"append: wrote predictions to {args.predictions}")
    return 0


# ---------------------------------------------------------------- metrics

def _read_column(path: str, column: str) -> np.ndarray:
    """One named numeric column; other columns may hold arbitrary text."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MaxentError(f"{path}: empty file")
        if column not in header:
            raise MaxentError(f"{path}: no column named {column!r}")
        j = header.index(column)
        values = []
        for lineno, cells in enumerate(reader, start=2):
            if j >= len(cells):
                raise MaxentError(f"{path}:{lineno}: row has no {column!r} cell")
            try:
                values.append(float(cells[j]))
            except ValueError:
                raise MaxentError(
                    f"{path}:{lineno}: non-numeric {column!r} value {cells[j]!r}"
                ) from None
    return np.array(values)


def _cmd_eval(args) -> int:
    preds = _read_column(args.predictions, args.pred_col)
    truth = _read_column(args.truth, args.truth_col)
    if preds.size != truth.size:
        raise MaxentError(
            f"row count mismatch: {preds.size} predictions vs {truth.size} targets"
        )
    report = metrics(truth, preds)
    _write_json({"r2": report.r2, "mse": report.mse, "n": report.n}, args.out)
    return 0


# ---------------------------------------------------------------- parser

def _read_config(path: str) -> dict:
    with open(path) as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(config, dict):
        raise _UsageError(f"{path}: expected a JSON object of flag defaults")
    return config


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """CLI parser; ``defaults`` (from a config file) pre-seed every flag."""
    parser = argparse.ArgumentParser(
        prog="maxentnn",
        description="Self-tuning maximum-entropy neighbor prediction toolkit",
    )
    parser.add_argument("--config", default=None,
                        help="JSON file of flag defaults (dest names as keys)")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = []

    def add_parser(name, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        subparsers.append(sp)
        return sp

    for tag, kind in (("toy-reg", "regression"), ("toy-clf", "classification")):
        sp = add_parser(tag, help=f"run the toy {kind} experiment")
        sp.add_argument("--seed", type=int, default=7)
        sp.add_argument("--train", type=int, default=500)
        sp.add_argument("--eval", type=int, default=50)
        sp.add_argument("--k", type=int, default=5, help="neighbors for the wknn baseline")
        sp.add_argument("--out-dir", default="toy_out")
        sp.add_argument("--parallel", type=int, default=None)
        _add_param_flags(sp)
        sp.set_defaults(func=lambda a, kind=kind: _cmd_toy(a, kind))

    sp = add_parser("clt", help="laminate stiffness blocks for a stacking notation")
    sp.add_argument("layup", help="notation like [90_2/45/-45]_2S")
    sp.add_argument("--e1", type=float, default=T700_PLY.e1)
    sp.add_argument("--e2", type=float, default=T700_PLY.e2)
    sp.add_argument("--nu12", type=float, default=T700_PLY.nu12)
    sp.add_argument("--g12", type=float, default=T700_PLY.g12)
    sp.add_argument("--thickness", type=float, default=T700_PLY.thickness)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_clt)

    sp = add_parser("features", help="assemble a feature table from measurement records")
    sp.add_argument("records", help="one JSON record per line")
    sp.add_argument("--failure-cycles", required=True,
                    help="JSON map of coupon id -> cycles at failure")
    sp.add_argument("--out", required=True)
    sp.add_argument("--lenient", action="store_true",
                    help="skip malformed lines instead of aborting")
    sp.set_defaults(func=_cmd_features)

    sp = add_parser("predict", help="predict targets for a query file")
    sp.add_argument("--table", required=True, help="training CSV, target column 'D' last")
    sp.add_argument("--queries", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--scaler", choices=("minmax_pm1", "standard", "none"),
                    default="minmax_pm1")
    sp.add_argument("--parallel", type=int, default=None)
    _add_param_flags(sp)
    sp.set_defaults(func=_cmd_predict)

    sp = add_parser("append", help="stream records into a store, optionally predict")
    sp.add_argument("--table", required=True)
    sp.add_argument("--records", required=True)
    sp.add_argument("--failure-cycles", required=True)
    sp.add_argument("--queries", default=None)
    sp.add_argument("--predictions", default="predictions.csv")
    sp.add_argument("--scaler", choices=("minmax_pm1", "standard", "none"),
                    default="minmax_pm1")
    sp.add_argument("--lenient", action="store_true")
    _add_param_flags(sp)
    sp.set_defaults(func=_cmd_append)

    sp = add_parser("eval", help="R^2 / MSE between predictions and targets")
    sp.add_argument("--predictions", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--pred-col", default="prediction")
    sp.add_argument("--truth-col", default="D")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_eval)

    if defaults:
        # argparse subparsers override parent defaults, so config-file
        # values have to be planted on every subparser as well
        for child in [parser, *subparsers]:
            child.set_defaults(**defaults)
            # argparse converts only string defaults, so a flag that takes a
            # value gets the text a command line would give it, and its type
            # check with that; null leaves the flag unset
            for action in child._actions:
                if action.dest in defaults and action.nargs != 0 and action.default is not None:
                    action.default = str(action.default)
    return parser


def main(argv=None) -> int:
    try:
        if argv is None:
            argv = sys.argv[1:]
        # pre-scan for --config so file values become flag defaults
        probe = argparse.ArgumentParser(add_help=False)
        probe.add_argument("--config", default=None)
        known, _ = probe.parse_known_args(argv)
        defaults = _read_config(known.config) if known.config else None
        parser = build_parser(defaults)
        args = parser.parse_args(argv)
    except (OSError, _UsageError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MaxentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
