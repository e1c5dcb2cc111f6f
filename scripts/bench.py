#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on this checkout, in alternating pairs.

Usage, from the repository root:

    python scripts/bench.py --out BENCH_13.json --workload shared-scale \\
        --seeds 300 301 302 303 304 305 [--parent HEAD]
    python scripts/bench.py --out BENCH_13.json --workload experiments \\
        --seeds 7 7 7 7 7 7 [--parent HEAD]

The parent commit is exported with ``git archive`` into a temporary
directory, which is removed afterwards; the working tree of this checkout,
uncommitted edits included, is the change side.  Each seed is one pair: both
sides run ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
a fresh process, with ``T`` the ``run_seconds`` of ``BENCHMARK.json``, one
run at a time, and the side that runs first alternates from pair to pair.

The output file records the machine, the Python and numpy versions, and for
each end-to-end metric that ``perfbench/run.py`` prints: its value in every
run, the change/parent ratio of every pair, and the median, inclusive
quartiles and range of each side.  ``change_better_pairs`` and
``within_bound`` read the direction and bound of the metric from
``BENCHMARK.json``.  After each run it reads that run's per-kind table
(ops, ok, unrecovered, p50 and time share of each op kind) from the record
``perfbench/run.py`` writes to ``<tree>/.bench_out/``, and stores each
side's per-kind medians under ``kinds``, which shows where a gain sits.  The
script measures nothing itself.  Running it again with the same ``--out``
adds or replaces that workload and keeps every other key of the file.

``--workload experiments`` runs ``scripts/run_all_bounds.py --seed S`` in
place of the benchmark, in the same alternating pairs, and writes into a
temporary directory.  From each run's printed table it keeps every
experiment's result, rate, ``time_ms`` and ``report_sha``; the file's
``experiments`` section holds, per experiment and side, the spread of
``time_ms``, the distinct report hashes and rates over the runs, and the
change/parent ratio of the ``time_ms`` medians.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path("perfbench") / "run.py"
BOUNDS = Path("scripts") / "run_all_bounds.py"


def export(rev: str, directory: Path) -> str:
    """Write the tree of ``rev`` into ``directory``; return the full commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    return commit


KIND_COLUMNS = ("ops", "ok", "unrecovered", "p50_ms", "time_share")


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in a fresh process; its final JSON line, with the
    run's per-kind table under ``per_kind``."""
    argv = [sys.executable, str(BENCH), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["per_kind"] = kind_table(tree, workload, seed)
    return result


def kind_table(tree: Path, workload: str, seed: int) -> dict[str, dict]:
    """The per-kind columns of the record a ``--trace 0`` run wrote in ``tree``."""
    path = tree / ".bench_out" / f"run-{workload}-seed{seed}-trace0.json"
    record = json.loads(path.read_text())
    return {name: {column: row[column] for column in KIND_COLUMNS}
            for name, row in record["per_kind"].items()}


def summarize_kinds(runs: dict[str, list[dict]]) -> dict[str, dict]:
    """Per op kind and side: the median p50 and time share over the runs and
    the summed op counts; per kind, the change/parent ratio of the p50 medians.

    Every run covers whole cycles of the workload, so every run has every kind.
    """
    kinds: dict[str, dict] = {}
    for name in runs["parent"][0]["per_kind"]:
        sides = kinds[name] = {}
        for side, side_runs in runs.items():
            rows = [run["per_kind"][name] for run in side_runs]
            sides[side] = {
                "p50_ms": statistics.median(row["p50_ms"] for row in rows),
                "time_share": statistics.median(row["time_share"] for row in rows),
                **{column: sum(row[column] for row in rows)
                   for column in ("ops", "ok", "unrecovered")},
            }
        sides["p50_ratio"] = sides["change"]["p50_ms"] / sides["parent"]["p50_ms"]
    return kinds


def bounds_once(tree: Path, seed: int) -> dict[str, dict]:
    """One ``run_all_bounds.py --seed S`` in a fresh process, its reports
    written to a temporary directory; the rows of its table."""
    with tempfile.TemporaryDirectory(prefix="mixcara-bounds-") as out:
        argv = [sys.executable, str(BOUNDS), "--seed", str(seed), "--out", out]
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    # exit status 2 reports a violated bound, and the table is still whole
    if proc.returncode not in (0, 2):
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return bounds_table(proc.stdout)


def bounds_table(stdout: str) -> dict[str, dict]:
    """Experiment -> result, rate, time_ms and report_sha, from the table
    ``run_all_bounds.py`` prints: a header line, one row per experiment, and
    a closing line that names the report directory."""
    rows = {}
    for line in stdout.splitlines()[1:]:
        if line.startswith("reports written to"):
            break
        name, result, rate, time_ms, sha = line.split()
        rows[name] = {"result": result, "rate": rate, "time_ms": float(time_ms),
                      "report_sha": sha}
    return rows


def summarize_experiments(runs: dict[str, list[dict]]) -> dict[str, dict]:
    """Per experiment and side: the spread of ``time_ms`` and the distinct
    rates and report hashes over the runs; per experiment, the change/parent
    ratio of the ``time_ms`` medians."""
    experiments: dict[str, dict] = {}
    for name in runs["parent"][0]:
        sides = experiments[name] = {}
        for side, side_runs in runs.items():
            rows = [run[name] for run in side_runs]
            sides[side] = {
                "time_ms": spread([row["time_ms"] for row in rows]),
                "rate": sorted({row["rate"] for row in rows}),
                "report_sha": sorted({row["report_sha"] for row in rows}),
            }
        sides["time_ratio"] = (sides["change"]["time_ms"]["median"]
                               / sides["parent"]["time_ms"]["median"])
    return experiments


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(runs: dict[str, list[dict]], specs: dict[str, dict]) -> dict:
    metrics = {}
    for name, spec in specs.items():
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        rel = statistics.median(change) / statistics.median(parent) - 1.0
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": parent,
            "change": change,
            "pair_ratio": [c / p for p, c in zip(parent, change)],
            "parent_stats": spread(parent),
            "change_stats": spread(change),
            "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "median_change_rel": rel,
            "within_bound": -sign * rel <= spec["bound"],
        }
    return metrics


def machine() -> dict:
    info = {
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    import scipy  # perfbench's calibration kernel needs it; mixcara does not

    info["scipy"] = scipy.__version__
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", required=True,
                        choices=("shared-scale", "nonlinear-fit", "reduce-rank", "experiments"))
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--parent", default="HEAD")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {spec["name"]: spec for spec in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    experiments = args.workload == "experiments"
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    order = []
    with tempfile.TemporaryDirectory(prefix="mixcara-bench-") as tmp:
        parent_tree = Path(tmp)
        commit = export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for pair, seed in enumerate(args.seeds):
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            order.append(sides[0])
            for side in sides:
                if experiments:
                    rows = bounds_once(trees[side], seed)
                    runs[side].append(rows)
                    summary = f"total_ms {sum(row['time_ms'] for row in rows.values()):.1f}"
                else:
                    result = bench_once(trees[side], args.workload, seed, seconds)
                    runs[side].append(result)
                    summary = (f"ops_per_s {result['metrics']['ops_per_s']['value']:.1f}, "
                               f"correct {result['correct']}")
                print(f"{args.workload} seed {seed} {side}: {summary}", flush=True)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record["machine"] = machine()
    if experiments:
        record["experiments"] = {
            "parent_commit": commit,
            "command": f"{BOUNDS} --seed S --out <temporary directory>",
            "seeds": args.seeds,
            "first": order,
            "all_held": all(row["result"] == "held"
                            for side in runs.values() for run in side for row in run.values()),
            "rows": summarize_experiments(runs),
        }
    else:
        record.setdefault("workloads", {})[args.workload] = {
            "parent_commit": commit,
            "command": f"{BENCH} --workload {args.workload} --seed S --seconds {seconds} --trace 0",
            "seeds": args.seeds,
            "first": order,
            "all_runs_correct": all(run["correct"] for side in runs.values() for run in side),
            "attempted_ops": {side: sum(run["attempted"] for run in rs)
                              for side, rs in runs.items()},
            "failed_ops": {side: sum(run["failed"] for run in rs) for side, rs in runs.items()},
            "metrics": summarize(runs, specs),
            "kinds": summarize_kinds(runs),
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
