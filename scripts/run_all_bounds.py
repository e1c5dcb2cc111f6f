#!/usr/bin/env python3
"""Run every bound-verification experiment at desk scale and write reports.

Usage:
    python scripts/run_all_bounds.py [--out out/] [--seed 7] [--fast]

Each experiment runs its own full trial count; ``--fast`` trims the counts
for a quick smoke run.  Exit status is the worst exit status across
experiments (0 = all bounds held, 2 = violation).  Each row prints the
experiment's wall time in milliseconds and ``report_sha``, the first 12 hex
digits of the sha256 of its JSON report, so two runs at one seed compare
by their printed tables.
"""
import argparse
import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mixcara.harness import EXPERIMENTS, ExperimentConfig, run_experiment

FAST_TRIALS = {
    "univariate-gaussian-bound": 10,
    "lognormal-bound": 10,
    "gap-homotopy": 5,
    "na-table": 10,
    "reduction-stress": 25,
    "prescribe-check": 5,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--fast", action="store_true")
    args = parser.parse_args()

    worst = 0
    print(f"{'experiment':32s} {'result':10s} {'rate':>8s} {'time_ms':>8s} report_sha")
    for experiment in EXPERIMENTS:
        config = ExperimentConfig(
            experiment=experiment,
            trials=FAST_TRIALS[experiment] if args.fast else None,
            seed=args.seed,
            out_dir=args.out,
        )
        start = time.perf_counter()
        report = run_experiment(config)
        elapsed = time.perf_counter() - start
        agg = report.aggregate
        verdict = "held" if report.bound_held else "VIOLATED"
        sha = hashlib.sha256((Path(args.out) / f"{experiment}.json").read_bytes()).hexdigest()
        print(
            f"{experiment:32s} {verdict:10s} "
            f"{agg['successes']:>4d}/{agg['trials']:<4d} {1e3 * elapsed:8.1f} {sha[:12]}"
        )
        worst = max(worst, report.exit_status)
    print(f"reports written to {Path(args.out).resolve()}")
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
