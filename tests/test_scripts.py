"""The desk-scale driver script runs every experiment end to end; the bench
driver summarizes its runs."""
import ast
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from mixcara.harness import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_all_bounds.py"


def test_run_all_bounds_fast(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(SCRIPT), "--fast", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    held = [line for line in proc.stdout.splitlines() if line.split()[1:2] == ["held"]]
    assert [line.split()[0] for line in held] == list(EXPERIMENTS)
    expected = {f"{e}.{ext}" for e in EXPERIMENTS for ext in ("csv", "json")}
    assert {p.name for p in out.iterdir()} == expected
    # the last column is the head of each JSON report's sha256
    assert proc.stdout.splitlines()[0].split()[-1] == "report_sha"
    assert [line.split()[-1] for line in held] == [
        hashlib.sha256((out / f"{e}.json").read_bytes()).hexdigest()[:12] for e in EXPERIMENTS
    ]


def test_bench_selftest_passes():
    # every bench op's check against the library as it stands; writes nothing
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def literal_assignment(path, name):
    """The literal value assigned to ``name`` at the top level of ``path``,
    read without importing the module."""
    (value,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
    ]
    return value


def test_benchmark_fast_trials_match_the_script():
    # importing perfbench/run.py would pin environment variables of this process
    bench = literal_assignment(ROOT / "perfbench" / "run.py", "HARNESS_FAST_TRIALS")
    assert bench == literal_assignment(SCRIPT, "FAST_TRIALS")


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_summary_reads_each_metric_direction():
    bench = load_bench()

    def run(ops, p90):
        return {"metrics": {"ops_per_s": {"value": ops}, "latency_p90_ms": {"value": p90}}}

    specs = {"ops_per_s": {"unit": "1/s", "better": "higher", "bound": 0.25},
             "latency_p90_ms": {"unit": "ms", "better": "lower", "bound": 0.25}}
    runs = {"parent": [run(100.0, 2.0), run(110.0, 2.0), run(90.0, 2.0)],
            "change": [run(150.0, 3.0), run(100.0, 1.0), run(120.0, 2.4)]}
    summary = bench.summarize(runs, specs)
    ops, p90 = summary["ops_per_s"], summary["latency_p90_ms"]
    assert ops["pair_ratio"] == [1.5, 100.0 / 110.0, 120.0 / 90.0]
    assert ops["change_better_pairs"] == 2 and p90["change_better_pairs"] == 1
    assert ops["parent_stats"] == {"median": 100.0, "q1": 95.0, "q3": 105.0,
                                   "min": 90.0, "max": 110.0}
    assert ops["median_change_rel"] == pytest.approx(0.2) and ops["within_bound"]
    # the p90 median rose 20% against a 25% bound
    assert p90["median_change_rel"] == pytest.approx(0.2) and p90["within_bound"]
    runs["change"][2] = run(120.0, 2.6)
    assert not bench.summarize(runs, specs)["latency_p90_ms"]["within_bound"]


def test_bench_kind_rows_come_from_each_run_record(tmp_path):
    bench = load_bench()

    def write_record(tree, seed, d15_p50, d5_p50):
        # the shape perfbench/run.py writes: more columns than the bench keeps
        def row(ops, ok, p50, share):
            return {"ops": ops, "ok": ok, "unrecovered": ops - ok, "wrong": 0,
                    "p50_ms": p50, "time_share": share}

        out = tree / ".bench_out"
        out.mkdir(parents=True)
        record = {"workload": "shared-scale", "metrics": {},
                  "per_kind": {"gauss-d15": row(40, 4, d15_p50, 0.5),
                               "gauss-d5": row(40, 40, d5_p50, 0.1)}}
        (out / f"run-shared-scale-seed{seed}-trace0.json").write_text(json.dumps(record))

    write_record(tmp_path / "parent", 7, 8.0, 0.6)
    write_record(tmp_path / "change", 7, 6.0, 0.6)
    parent = bench.kind_table(tmp_path / "parent", "shared-scale", 7)
    change = bench.kind_table(tmp_path / "change", "shared-scale", 7)
    assert parent["gauss-d15"] == {"ops": 40, "ok": 4, "unrecovered": 36, "p50_ms": 8.0,
                                   "time_share": 0.5}
    runs = {"parent": [{"per_kind": parent}, {"per_kind": parent}],
            "change": [{"per_kind": change}, {"per_kind": change}]}
    kinds = bench.summarize_kinds(runs)
    assert list(kinds) == ["gauss-d15", "gauss-d5"]
    assert kinds["gauss-d15"]["parent"] == {"p50_ms": 8.0, "time_share": 0.5, "ops": 80,
                                            "ok": 8, "unrecovered": 72}
    assert kinds["gauss-d15"]["change"]["p50_ms"] == 6.0
    assert kinds["gauss-d15"]["p50_ratio"] == 0.75 and kinds["gauss-d5"]["p50_ratio"] == 1.0


def test_bench_experiment_rows_come_from_the_printed_table():
    bench = load_bench()

    def table(gap_ms, gap_sha):
        # the shape scripts/run_all_bounds.py prints
        return (
            f"{'experiment':32s} {'result':10s} {'rate':>8s} {'time_ms':>8s} report_sha\n"
            f"{'na-table':32s} {'held':10s} {9:>4d}/{9:<4d} {39.6:8.1f} 14704bff1104\n"
            f"{'gap-homotopy':32s} {'held':10s} {50:>4d}/{50:<4d} {gap_ms:8.1f} {gap_sha}\n"
            "reports written to /tmp/a dir with spaces\n"
        )

    parent = bench.bounds_table(table(80.0, "a1bba9650c86"))
    assert parent == {
        "na-table": {"result": "held", "rate": "9/9", "time_ms": 39.6,
                     "report_sha": "14704bff1104"},
        "gap-homotopy": {"result": "held", "rate": "50/50", "time_ms": 80.0,
                         "report_sha": "a1bba9650c86"},
    }
    runs = {"parent": [parent, bench.bounds_table(table(90.0, "a1bba9650c86"))],
            "change": [bench.bounds_table(table(60.0, "908b6376ce9f")),
                       bench.bounds_table(table(70.0, "908b6376ce9f"))]}
    rows = bench.summarize_experiments(runs)
    assert list(rows) == ["na-table", "gap-homotopy"]
    gap = rows["gap-homotopy"]
    assert gap["parent"]["time_ms"]["median"] == 85.0 and gap["change"]["time_ms"]["min"] == 60.0
    assert gap["parent"]["report_sha"] == ["a1bba9650c86"]
    assert gap["change"] == {**gap["change"], "rate": ["50/50"], "report_sha": ["908b6376ce9f"]}
    assert gap["time_ratio"] == 65.0 / 85.0 and rows["na-table"]["time_ratio"] == 1.0
