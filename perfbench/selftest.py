#!/usr/bin/env python3
"""Self-tests of the benchmark itself, on a tiny size.

    python3 perfbench/selftest.py

Checks that every op kind's check accepts a correct result and rejects a
corrupted one, that a traced replay gives outputs identical to the untraced
run and restores every patched name, that the seed changes the inputs but
never the op mix, and that op times are scaled by the nearest kernel runs.  Exits 1 on the first failure.
"""
import dataclasses
import json
import sys

import numpy as np

import run

mixcara = run.load_mixcara()

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import OK, WRONG, Raised, invoke  # noqa: E402

ALL = [make() for make in workloads.WORKLOADS.values()]


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def corrupt(result):
    """A wrong version of a result that its check accepted."""
    if isinstance(result, mixcara.RecoveryReport):
        if not result.success:  # an honest refusal turned into a claimed success
            model = mixcara.MixtureMeasure(kind="gaussian", weights=[1.0], means=[[0.0]],
                                           sigmas=[1.0])
            return dataclasses.replace(result, success=True, model=model, k_used=1)
        return dataclasses.replace(result, model=corrupt(result.model))
    if isinstance(result, mixcara.MixtureMeasure):
        return dataclasses.replace(result, weights=result.weights * (1 + 1e-6))
    if isinstance(result, mixcara.AtomicMeasure):
        return dataclasses.replace(result, weights=result.weights * (1 + 1e-6))
    if isinstance(result, mixcara.RankSearchResult):
        return dataclasses.replace(result, value=result.value + 1)
    raise TypeError(type(result).__name__)


def test_every_kind_checked() -> None:
    for workload in ALL:
        for kind in workload.kinds:
            # the high-degree kinds fail often; any accepted draw will do
            for draw in range(40):
                inp = kind.make(run.op_rng(5, 2, draw))
                result = invoke(kind, inp)
                verdict, detail = kind.check(inp, result)
                expect(verdict != WRONG, f"{kind.name}: correct output judged wrong: {detail}")
                if verdict == OK:
                    break
            expect(verdict == OK, f"{kind.name}: no accepted result in 40 draws")
            expect(kind.check(inp, corrupt(result))[0] == WRONG,
                   f"{kind.name}: corrupted output accepted")
            expect(kind.check(inp, Raised(ValueError("x")))[0] == WRONG,
                   f"{kind.name}: untyped exception accepted")
        print(f"ok  checks accept and reject on {workload.name}")


def test_trace_keeps_outputs() -> None:
    originals = {name: getattr(mixcara, name) for name in dir(mixcara)}
    for workload in ALL:
        ops = []
        for j, kind in enumerate(workload.kinds):
            inp = kind.make(run.op_rng(3, 0, j))
            ops.append(run.Op(j, kind, inp, invoke(kind, inp), 0.0))
        tracer = spans.Tracer()
        traced = run.replay_traced(ops, tracer)
        for op, again in zip(ops, traced):
            expect(run.fingerprint(op.result) == run.fingerprint(again.result),
                   f"{op.kind.name}: tracing changed the output")
        summary = tracer.summary()
        expect(summary["trace.unaccounted_share"] < 0.5, "spans cover too little op time")
        for name, value in originals.items():
            expect(getattr(mixcara, name) is value, f"mixcara.{name} not restored")
        expect(not hasattr(mixcara.SmoothedBasis.eval_components, "__wrapped__"),
               "SmoothedBasis.eval_components not restored")
        print(f"ok  traced replay identical on {workload.name} ({len(tracer.start)} spans)")


def test_seed_changes_inputs_not_mix() -> None:
    def first_cycle(workload, seed):
        return [(kind.name, kind.make(run.op_rng(seed, 0, i)))
                for i, kind in enumerate(workload.cycle)]

    def arrays(inp):
        return [np.asarray(v) for key, v in sorted(inp.items()) if key != "basis"]

    for workload in ALL:
        a, a_again, b = (first_cycle(workload, s) for s in (1, 1, 2))
        expect([n for n, _ in a] == [n for n, _ in b], f"{workload.name}: mix depends on seed")
        for (name, x), (_, y), (_, z) in zip(a, a_again, b):
            expect(all(np.array_equal(u, v) for u, v in zip(arrays(x), arrays(y))),
                   f"{name}: same seed gave different inputs")
            expect(not all(np.array_equal(u, v) for u, v in zip(arrays(x), arrays(z))),
                   f"{name}: a new seed gave the same inputs")
        print(f"ok  seed changes inputs, not the mix, on {workload.name}")


def test_speed_gauge_uses_nearest_runs() -> None:
    gauge = run.SpeedGauge()
    # kernel runs at the reference speed until t = 10, then at half of it
    gauge.stamps = [float(t) for t in range(20)]
    gauge.times = [run.CAL_REFERENCE_S] * 10 + [2 * run.CAL_REFERENCE_S] * 10
    expect(gauge.scale(2.0, 3.5) == 1.0, "fast stretch not at the reference speed")
    expect(gauge.scale(15.0, 16.0) == 0.5, "slow stretch not scaled by half")
    op = run.Op(0, None, {}, None, 1.0, start=15.0)
    gauge.burst = lambda runs: None  # no real runs in this check
    run.rescale(gauge, [op])
    expect(op.scaled == 0.5, "rescale did not apply the nearest runs' speed")
    print("ok  op times scaled by the nearest kernel runs")


def test_metric_names_match_benchmark_json() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for section, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in declared[section]}
        expect(listed == units, f"BENCHMARK.json {section} differs from run.py")
    expect([w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")
    print("ok  metric names and units match BENCHMARK.json")


def main() -> int:
    run.cross_check(mixcara)
    print("ok  reference agrees with mixcara")
    try:
        test_metric_names_match_benchmark_json()
        test_speed_gauge_uses_nearest_runs()
        test_seed_changes_inputs_not_mix()
        test_every_kind_checked()
        test_trace_keeps_outputs()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
