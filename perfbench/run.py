#!/usr/bin/env python3
"""Benchmark of mixcara: moment vector in, verified mixture (or reduction,
or rank) out.

Usage, from the repository root:

    python3 perfbench/run.py --workload shared-scale --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one process, one caller that waits for each
result, BLAS pinned to one thread.  Op inputs come from the seed through the
benchmark's own reference moments (``refmoments.py``), op kinds run
round-robin in a fixed cycle (``workloads.py``), and every result is checked
against the reference.  The loop stops at the first cycle boundary after
``--seconds`` once at least 100 ops ran, so at least 10 lie beyond p90.

Times are given at a reference host speed.  The host is a share of a machine
whose speed drifts by a third or more over seconds to minutes as its other
tenants come and go.  A fixed calibration kernel runs between ops every few
tens of milliseconds, and each op's wall time is scaled by
``CAL_REFERENCE_S`` over the median kernel time nearest that op.  The kernel
mixes what mixcara's ops spend their time on (a Python loop, small dense
LAPACK calls, a scipy special function and a tiny least-squares fit) and
calls no mixcara code.  The raw wall times are printed beside the scaled ones
and kept in the run record.  ``setup_s`` is a wall time: the kernel tracks a
fresh process's start-up too loosely to scale it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the ops
untraced for part of the time, replays the same inputs with every public
mixcara function wrapped (``spans.py``), checks that both give identical
outputs, and prints the per-layer metrics.  A readable report comes first;
the last line of standard output is the JSON result.  Run records and span
arrays go to ``.bench_out/`` in the repository root.
"""
from __future__ import annotations

import os

# before numpy loads: one BLAS thread, one harness thread
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "MIXCARA_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import refmoments as ref  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 100  # at least 10 samples beyond p90
MAX_LOOP_S = 120.0  # stop starting ops after this, whatever the cycle
CLI_REPEATS = 7  # setup_s is the median of this many timed CLI calls
TRACE_SHARE = 0.4  # share of --seconds the untraced half of a traced run takes
CAL_REFERENCE_S = 2e-3  # calibration kernel time at the reference speed
CAL_INTERVAL_S = 0.04  # least time between calibration bursts
CAL_BURST = 3  # most kernel runs per burst: one per interval since the last
CAL_NEAREST = 7  # kernel runs whose median gives an op's speed

# trial counts of ``scripts/run_all_bounds.py --fast``, for harness.<experiment>_s
HARNESS_FAST_TRIALS = {
    "univariate-gaussian-bound": 10,
    "lognormal-bound": 10,
    "gap-homotopy": 5,
    "na-table": 10,
    "reduction-stress": 25,
    "prescribe-check": 5,
}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_mixcara():
    """Import mixcara from this checkout's ``src`` and nowhere else."""
    if not (SRC / "mixcara" / "__init__.py").is_file():
        raise BenchmarkError(f"no mixcara sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mixcara

    if Path(mixcara.__file__).resolve().parent != (SRC / "mixcara").resolve():
        raise BenchmarkError(f"imported mixcara from {mixcara.__file__}, not {SRC}")
    return mixcara


# ---------------------------------------------------------- host speed


class SpeedGauge:
    """Measures the host's current speed with a fixed kernel run between ops."""

    def __init__(self) -> None:
        import scipy.linalg
        import scipy.optimize
        import scipy.special

        self._scipy = scipy
        self._matrix = np.random.default_rng(0).standard_normal((30, 30))
        self._spd = self._matrix @ self._matrix.T
        self._x = np.linspace(-1.0, 1.0, 25)
        self.stamps: list[float] = []
        self.times: list[float] = []
        self._kernel()  # lazy set-up inside scipy, not timed
        self._last = time.perf_counter()

    def _residual(self, p: np.ndarray) -> np.ndarray:
        return p[0] * np.exp(-p[1] * self._x) - np.exp(-0.5 * self._x)

    def _kernel(self) -> float:
        total = 0.0
        for i in range(300):
            total += i * 0.5
        np.linalg.svd(self._matrix)
        self._scipy.linalg.eigh(self._spd)
        self._scipy.special.gammaln(self._x + 2.0)
        self._scipy.optimize.least_squares(self._residual, [0.5, 0.1], method="lm")
        return total

    def burst(self, runs: int) -> None:
        for _ in range(runs):
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
            self.stamps.append(0.5 * (t0 + t1))
            self.times.append(t1 - t0)
        self._last = time.perf_counter()

    def tick(self) -> None:
        """A burst, if the last one is more than ``CAL_INTERVAL_S`` old.

        Longer gaps get more runs, so a long op's speed comes from runs close
        to it rather than from ops seconds away.
        """
        intervals = int((time.perf_counter() - self._last) / CAL_INTERVAL_S)
        if intervals:
            self.burst(min(intervals, CAL_BURST))

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end]."""
        stamps = np.asarray(self.stamps)
        distance = np.maximum(start - stamps, stamps - end)
        nearest = np.argsort(distance, kind="stable")[:CAL_NEAREST]
        return CAL_REFERENCE_S / float(np.median(np.asarray(self.times)[nearest]))


# ------------------------------------------------------------------ ops


@dataclass
class Op:
    index: int
    kind: object
    inp: dict
    result: object
    latency: float  # wall seconds
    start: float = 0.0
    scaled: float = 0.0  # seconds at the reference speed
    verdict: str = ""
    detail: str = ""


def timed(gauge: SpeedGauge, index: int, kind, inp: dict, call) -> Op:
    gauge.tick()
    t0 = time.perf_counter()
    result = call()
    return Op(index, kind, inp, result, time.perf_counter() - t0, start=t0)


def rescale(gauge: SpeedGauge, ops: list[Op]) -> None:
    gauge.burst(CAL_BURST)
    for op in ops:
        op.scaled = op.latency * gauge.scale(op.start, op.start + op.latency)


def op_rng(seed: int, stream: int, index: int):
    return np.random.default_rng([seed % 2**64, stream, index])


def run_loop(workload, seed: int, seconds: float, min_ops: int = MIN_OPS,
             setup: CliSetup | None = None) -> list[Op]:
    """Closed loop over whole cycles for at least ``seconds`` and ``min_ops`` ops.

    With ``setup``, its ``CLI_REPEATS`` timed calls run between ops, evenly
    over the ``seconds``; their time is not counted in the loop's.
    """
    from workloads import invoke

    cycle = workload.cycle
    gauge = SpeedGauge()
    ops: list[Op] = []
    begin = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        elapsed = time.perf_counter() - begin - paused
        if setup and len(setup.times) < CLI_REPEATS \
                and elapsed >= len(setup.times) * seconds / CLI_REPEATS:
            t0 = time.perf_counter()
            setup.timed_call()
            paused += time.perf_counter() - t0
            continue
        if i % len(cycle) == 0 and i >= min_ops and elapsed >= seconds:
            break
        if elapsed >= MAX_LOOP_S:
            break
        kind = cycle[i % len(cycle)]
        inp = kind.make(op_rng(seed, 0, i))
        ops.append(timed(gauge, i, kind, inp, lambda: invoke(kind, inp)))
        i += 1
    rescale(gauge, ops)
    return ops


def replay_traced(ops: list[Op], tracer) -> list[Op]:
    """Run the same inputs again with every mixcara layer wrapped."""
    from workloads import invoke

    gauge = SpeedGauge()
    traced = []
    tracer.install()
    try:
        for op in ops:
            traced.append(timed(gauge, op.index, op.kind, op.inp, lambda: tracer.run_op(
                op.index, op.kind.name, invoke, op.kind, op.inp)))
    finally:
        tracer.uninstall()
    rescale(gauge, traced)
    return traced


def judge(ops: list[Op]) -> None:
    for op in ops:
        op.verdict, op.detail = op.kind.check(op.inp, op.result)


def fingerprint(result) -> str:
    data = result.to_json() if hasattr(result, "to_json") else repr(result)
    return hashlib.blake2b(json.dumps(data, sort_keys=True).encode(), digest_size=16).hexdigest()


def warm_up(workload, seed: int) -> list[Op]:
    """One untimed op of each kind, so lazy imports and caches settle."""
    from workloads import invoke

    ops = []
    for j, kind in enumerate(workload.kinds):
        inp = kind.make(op_rng(seed, 1, j))
        ops.append(Op(j, kind, inp, invoke(kind, inp), 0.0))
    judge(ops)
    return ops


# ---------------------------------------------------------- cross-check


def cross_check(mixcara) -> None:
    """Compare the reference with mixcara once; disagreement stops the run."""
    def agree(what, ours, theirs, tol=1e-12):
        err = ref.relative_residual(theirs, ours)
        if not err <= tol:
            raise BenchmarkError(f"reference and mixcara disagree on {what}: {err:.3e}")

    w = np.array([0.7, 1.3, 0.4])
    for n, d in ((1, 15), (2, 4)):
        exps = ref.full_degree_exponents(d, n)
        basis = mixcara.MonomialBasis(n=n, exponents=tuple(exps))
        x = np.linspace(-1.2, 1.7, 3 * n).reshape(3, n)
        s = np.array([0.3, 0.05, 0.9])
        mix = mixcara.MixtureMeasure(kind="gaussian", weights=w, means=x, sigmas=s)
        agree(f"gaussian n={n} d={d}", ref.moments("gaussian", basis.exponents, w, x, s),
              mixcara.mixture_moments(basis, mix).values)
        atoms = mixcara.AtomicMeasure(weights=w, points=x)
        agree(f"dirac n={n} d={d}", ref.moments("dirac", basis.exponents, w, x),
              mixcara.dirac_moments(basis, atoms).values)
    basis = mixcara.MonomialBasis.univariate(range(10))
    x = np.array([[0.4], [1.1], [2.6]])
    s = np.array([0.1, 0.3, 0.2])
    mix = mixcara.MixtureMeasure(kind="lognormal", weights=w, means=x, sigmas=s)
    agree("lognormal d=9", ref.moments("lognormal", basis.exponents, w, x, s),
          mixcara.mixture_moments(basis, mix).values)
    inside = ref.moments("gaussian", basis.exponents, w, x, s)
    outside = inside.copy()
    outside[2] = 0.5 * outside[1] ** 2 / outside[0]
    for values, exterior in ((inside, False), (outside, True)):
        status = mixcara.hankel_classify(mixcara.MomentVector(values=values, basis=basis)).status
        if ref.is_exterior(values) != exterior or (status == mixcara.EXTERIOR) != exterior:
            raise BenchmarkError(f"exterior test disagrees: reference {exterior}, mixcara {status}")


# ------------------------------------------------------- fresh processes


def _fresh_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


class CliSetup:
    """Fresh ``python -m mixcara.cli`` calls on the workload's first input.

    The timed calls are spread over the measured loop, so that their median
    samples the same host states as the ops do rather than one stretch of it.
    """

    def __init__(self, workload, seed: int) -> None:
        self.kind = workload.cycle[0]
        self.inp = self.kind.make(op_rng(seed, 0, 0))
        directory = OUT / f"cli-{workload.name}"
        directory.mkdir(parents=True, exist_ok=True)
        self.argv = [sys.executable, "-m", "mixcara.cli",
                     *self.kind.cli_args(self.inp, directory)]
        self.times: list[float] = []
        self.errors: list[str] = []
        self._call()  # warms the file cache; not timed

    @property
    def command(self) -> str:
        return self.argv[3]

    def _call(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, cwd=ROOT, env=_fresh_env(), capture_output=True,
                              text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        try:
            error = self.kind.cli_check(self.inp, proc.returncode, proc.stdout)
        except (ValueError, KeyError) as exc:
            error = f"unreadable CLI output: {exc}"
        if error:
            self.errors.append(f"{' '.join(self.argv[3:5])}: {error}; "
                               f"stderr: {proc.stderr.strip()[-200:]}")
        return elapsed

    def timed_call(self) -> None:
        self.times.append(self._call())

    def finish(self) -> None:
        while len(self.times) < CLI_REPEATS:
            self.timed_call()


def cli_import_time(repeats: int = 3) -> float:
    code = ("import time; t = time.perf_counter(); import mixcara.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for attempt in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_fresh_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        if attempt:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def harness_times(mixcara, seed: int) -> dict[str, float]:
    out = {}
    for experiment, trials in HARNESS_FAST_TRIALS.items():
        config = mixcara.ExperimentConfig(experiment=experiment, trials=trials, seed=seed)
        t0 = time.perf_counter()
        mixcara.run_experiment(config)
        out[f"harness.{experiment}_s"] = time.perf_counter() - t0
    return out


# ------------------------------------------------------------- metrics


def environment(workload, seed: int) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "pinned_env": PINNED_ENV,
        "seed": seed,
        "loop": "closed, one caller",
        "cycle": [kind.name for kind in workload.cycle],
        "mix": workload.mix,
    }


def per_kind(ops: list[Op]) -> dict:
    table: dict[str, dict] = {}
    for op in ops:
        row = table.setdefault(op.kind.name, {"ops": 0, "ok": 0, "unrecovered": 0, "wrong": 0,
                                              "latencies": []})
        row["ops"] += 1
        row[op.verdict] += 1
        row["latencies"].append(op.scaled)
    busy = sum(op.scaled for op in ops)
    for row in table.values():
        latencies = row.pop("latencies")
        row["p50_ms"] = float(np.median(latencies) * 1e3)
        row["time_share"] = sum(latencies) / busy
    return table


def end_to_end(ops: list[Op], wall: bool = False) -> dict[str, float]:
    """Verified ops per second of time spent in mixcara calls, and latency percentiles.

    At the reference speed, or in wall time if ``wall``.
    """
    lat = np.array([op.latency if wall else op.scaled for op in ops])
    ok = np.array([op.verdict == "ok" for op in ops])
    return {
        "ops_per_s": float(ok.sum() / lat.sum()),
        "latency_p50_ms": float(np.percentile(lat, 50) * 1e3),
        "latency_p90_ms": float(np.percentile(lat, 90) * 1e3),
        "ok_share": float(ok.mean()),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


PER_LAYER_UNITS = {
    "moments.self_s": "s/op", "moments.calls": "count/op", "moments.table_builds": "count/op",
    "moments.evals": "count/op", "measures.constructions": "count/op", "measures.self_s": "s/op",
    "basis.evals": "count/op", "basis.self_s": "s/op", "recover.self_s": "s/op",
    "recover.calls": "count/op", "recover.schedule_steps": "count/op",
    "recover.success_ratio": "share", "recover.solver_evals": "count/op",
    "reduce.self_s": "s/op", "reduce.atoms_removed": "count/op", "reduce.removed_per_s": "1/s",
    "jacobian.self_s": "s/op", "jacobian.rank_evals": "count/op",
    "jacobian.full_rank_ratio": "share", "conegeo.self_s": "s/op",
    "conegeo.engine_calls_per_prescribe": "count", "cli.import_s": "s",
    **{f"harness.{name}_s": "s" for name in HARNESS_FAST_TRIALS},
    "trace.overhead_share": "share", "trace.unaccounted_share": "share",
}


def per_layer(tracer, untraced: list[Op], traced: list[Op]) -> dict[str, float]:
    """Layer metrics from the spans; extensive ones are divided by the op count."""
    summary = tracer.summary()
    n = len(traced)
    for name, unit in PER_LAYER_UNITS.items():
        if unit.endswith("/op") and name in summary:
            summary[name] = summary[name] / n
    untraced_time = sum(op.scaled for op in untraced)
    traced_time = sum(op.scaled for op in traced)
    # same ops on both sides, so the ops_per_s ratio is the busy-time ratio
    summary["trace.overhead_share"] = 1.0 - untraced_time / traced_time
    return summary


# ---------------------------------------------------------------- main


def report(title: str, metrics: dict, units: dict, notes: dict) -> None:
    print(title)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.6g} {units[name]}{note}")


def run(args) -> dict:
    mixcara = load_mixcara()
    import workloads

    cross_check(mixcara)
    workload = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    env = environment(workload, args.seed)
    print(f"mixcara benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['cores_usable']} of {env['cores']} cores, pinned {PINNED_ENV}")
    print(f"  cycle of {len(workload.cycle)} ops: "
          + ", ".join(f"{k} x{v}" for k, v in workload.mix.items()))

    warm = warm_up(workload, args.seed)
    problems = [f"warm-up {op.kind.name}: {op.detail}" for op in warm if op.verdict == "wrong"]
    record = {"workload": workload.name, "why": workload.why, "environment": env}

    if args.trace:
        import_s = cli_import_time()
        untraced = run_loop(workload, args.seed, TRACE_SHARE * args.seconds,
                            min_ops=len(workload.cycle))
        tracer = spans.Tracer()
        traced = replay_traced(untraced, tracer)
        mismatched = [op.index for op, again in zip(untraced, traced)
                      if fingerprint(op.result) != fingerprint(again.result)]
        if mismatched:
            problems.append(f"tracing changed the outputs of ops {mismatched[:10]}")
        ops = traced
        judge(ops)
        metrics = per_layer(tracer, untraced, traced)
        metrics["cli.import_s"] = import_s
        metrics.update(harness_times(mixcara, args.seed))
        metrics = {name: metrics[name] for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        tracer.save(OUT / f"spans-{workload.name}-seed{args.seed}.npz")
        notes = {"trace.unaccounted_share": "op time inside no mixcara span"}
        record["spans"] = len(tracer.start)
    else:
        setup = CliSetup(workload, args.seed)
        ops = run_loop(workload, args.seed, args.seconds, setup=setup)
        setup.finish()
        judge(ops)
        metrics = end_to_end(ops)
        problems.extend(setup.errors)
        metrics["setup_s"] = statistics.median(setup.times)
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END_UNITS
        beyond = sum(op.scaled * 1e3 > metrics["latency_p90_ms"] for op in ops)
        wall = end_to_end(ops, wall=True)
        notes = {name: f"wall {value:.6g}" for name, value in wall.items()}
        notes["latency_p90_ms"] += f"; {len(ops)} ops, {beyond} beyond p90"
        notes["ok_share"] = f"fail_share {1 - metrics['ok_share']:.6g}"
        notes["setup_s"] = f"median of {CLI_REPEATS} fresh `mixcara {setup.command}` calls"
        record["wall_metrics"] = wall
        record["setup_times_s"] = setup.times
        record["latencies_ms"] = [round(op.latency * 1e3, 4) for op in ops]
        record["scaled_latencies_ms"] = [round(op.scaled * 1e3, 4) for op in ops]

    wrong = [op for op in ops if op.verdict == "wrong"]
    problems.extend(f"op {op.index} {op.kind.name}: {op.detail}" for op in wrong[:20])
    kinds = per_kind(ops)
    print(f"  {'op kind':32s} {'ops':>6s} {'ok':>6s} {'unrec':>6s} {'wrong':>6s} {'p50_ms':>9s}")
    for name, row in kinds.items():
        print(f"  {name:32s} {row['ops']:6d} {row['ok']:6d} {row['unrecovered']:6d} "
              f"{row['wrong']:6d} {row['p50_ms']:9.3f}")
    report("metrics:", metrics, units, notes)
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    record.update(per_kind=kinds, metrics=metrics, problems=problems)
    (OUT / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(wrong),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("shared-scale", "nonlinear-fit", "reduce-rank"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"benchmark stopped: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
