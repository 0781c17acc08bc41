"""Benchmark of the maxentnn predictor and its serving paths.

Run one workload, timed (end-to-end metrics) or traced (per-layer metrics):

    python3 perfbench/run.py --workload online --seed 1 --seconds 55 --trace 0

``--workload all`` runs every workload in turn from this one process. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a ``digest`` line before it
holds the sha256 of the workload's outputs. ``--record FILE`` also appends
each workload's result to a JSON-lines file, and

    python3 perfbench/run.py --compare BASE.jsonl [NEW.jsonl]

prints each metric's median and quartiles per workload from such files and
flags every end-to-end metric that got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

# BLAS is pinned to one thread before numpy loads, and every workload
# serves its queries on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MAXENT_PARALLEL", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def _load_program():
    """Import maxentnn from this checkout's sources, never from elsewhere."""
    import maxentnn

    if Path(maxentnn.__file__).resolve().parent != ROOT / "src" / "maxentnn":
        raise SystemExit(f"maxentnn was imported from {maxentnn.__file__}, not from {ROOT / 'src'}")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds``; return its result record."""
    import gc
    import statistics
    from time import perf_counter

    import numpy as np

    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    try:
        workload.prepare(np.random.default_rng(seed), workdir)
        timer, tracer = tracing.QueryTimer(), tracing.Tracer()
        probe = tracer if trace else timer
        passes, layers = [], []
        start = perf_counter()
        with probe.installed():
            # whole passes only; another starts while it is expected to end in time
            while True:
                gc.collect()
                passes.append(workload.run_pass(timer))
                if trace:
                    p = passes[-1]
                    layers.append(tracer.finish_pass(p.start, p.start + p.wall_s - p.gauge_s))
                if len(passes) > 1:
                    passes[-1].outputs = None
                if perf_counter() - start + passes[-1].wall_s > seconds:
                    break
        problems = workload.check(passes[0].outputs)
        problems += [f"{name}: pass {i} output digest differs from pass 0"
                     for i, p in enumerate(passes) if p.digest != passes[0].digest]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = _spec()
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {k: statistics.median(layer[k] for layer in layers) for k in units}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = workloads.end_to_end(passes, scaled=True)
        measured = workloads.end_to_end(passes, scaled=False)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    record = {"workload": name, "seed": seed, "trace": int(trace), "passes": len(passes),
              "digest": passes[0].digest, "result": result}
    if not trace:
        record["measured"] = measured
    return record


def _quartiles(values):
    import statistics

    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(paths) -> int:
    """Summarize run records; with two files, flag end-to-end metrics outside their bound."""
    spec = _spec()
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    sets = []
    for path in paths:
        table = {}
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                metrics = table.setdefault(rec["workload"], {})
                for k, m in rec["result"]["metrics"].items():
                    metrics.setdefault(k, []).append(m["value"])
                metrics.setdefault("digest", []).append(rec["digest"])
                if "measured" in rec:
                    metrics.setdefault("measured wall_s", []).append(rec["measured"]["wall_s"])
        sets.append(table)
    flagged = 0
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        for metric in sorted(set().union(*(s.get(workload, {}) for s in sets)) - {"digest", "measured wall_s"}):
            cells, medians = [], []
            for table in sets:
                values = table.get(workload, {}).get(metric)
                if not values:
                    cells.append("-")
                    medians.append(None)
                    continue
                q1, q2, q3 = _quartiles(values)
                medians.append(q2)
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
            flag = ""
            if len(sets) == 2 and metric in bounds and None not in medians and medians[0]:
                better, bound = bounds[metric]
                change = (medians[1] - medians[0]) / medians[0]
                worse = change > bound if better == "lower" else change < -bound
                flag = f" {change:+.1%}" + (f" WORSE than bound {bound}" if worse else "")
                flagged += worse
            print(f"  {metric:40s} " + " | ".join(cells) + flag)
        digests = [set(s.get(workload, {}).get("digest", [])) for s in sets]
        print(f"  {'output digests':40s} " + " | ".join(f"{len(d)} distinct" for d in digests)
              + (" (same)" if len(digests) == 2 and digests[0] == digests[1] else ""))
        for table in sets:
            wall = table.get(workload, {}).get("measured wall_s")
            traced = table.get(workload, {}).get("trace.wall_s")
            if wall and traced:
                overhead = _quartiles(traced)[1] - _quartiles(wall)[1]
                print(f"  {'tracing overhead (trace.wall_s - measured wall_s)':40s} {overhead:+.4g} s")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["wide-heldout", "online", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append each result to this JSON-lines file")
    parser.add_argument("--compare", nargs="+", metavar="RECORDS", default=None)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    _load_program()
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    names = ["wide-heldout", "online"] if args.workload == "all" else [args.workload]
    records = [run_workload(name, args.seed, seconds, bool(args.trace)) for name in names]
    for rec in records:
        print(f"digest {rec['workload']} sha256:{rec['digest']} passes={rec['passes']}")
        if "measured" in rec:
            print(f"measured {rec['workload']} {json.dumps(rec['measured'])}")
        if args.record:
            with open(args.record, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
    if len(records) == 1:
        result = records[0]["result"]
    else:
        for rec in records:
            print(f"result {rec['workload']} {json.dumps(rec['result'])}")
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}/{k}": v for r in records for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
