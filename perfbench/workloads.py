"""The benchmark's workloads: op kinds, their inputs and their checks.

An op kind knows how to draw one input from a random generator (through the
reference moments only), how to call mixcara on it, and how to judge the
result against the reference.  A workload is a fixed cycle of op kinds that
the benchmark runs round-robin, so the seed draws parameters but never
changes the mix.

Every result gets one of three verdicts:

* ``ok`` -- a feasible input recovered (or reduced, or ranked) and checked
  against the reference, or an exterior input refused honestly;
* ``unrecovered`` -- an honest failure report, or a typed ``MixcaraError``,
  on a feasible input: the known limits of the engines;
* ``wrong`` -- a claimed success the reference rejects, a component count
  above the bound, an exterior input reported as a success, or an exception
  that is not a ``MixcaraError``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import mixcara
import refmoments as ref

OK, UNRECOVERED, WRONG = "ok", "unrecovered", "wrong"
SHORT = {"gaussian": "gauss", "lognormal": "logn", "dirac": "dirac"}

# the engines' default residual tolerance, plus room for the rounding
# difference between two implementations of the same moment map
RESIDUAL_TOL = 1e-8 + 1e-11
# relative moment drift allowed through a reduction
DRIFT_TOL = 1e-10


@dataclass(frozen=True)
class Raised:
    """An exception raised by a mixcara call, kept as the op's result."""

    error: BaseException

    @property
    def typed(self) -> bool:
        return isinstance(self.error, mixcara.MixcaraError)

    def to_json(self) -> dict:
        return {"raised": type(self.error).__name__, "message": str(self.error)}


@dataclass(frozen=True)
class OpKind:
    name: str
    make: Callable[[np.random.Generator], dict]
    call: Callable[[dict], object]
    check: Callable[[dict, object], tuple[str, str]]
    # (input, directory) -> CLI arguments after ``python -m mixcara.cli``
    cli_args: Callable[[dict, Path], list[str]] | None = None
    cli_check: Callable[[dict, int, str], str | None] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: tuple[OpKind, ...]

    @property
    def mix(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for kind in self.cycle:
            counts[kind.name] = counts.get(kind.name, 0) + 1
        return counts

    @property
    def kinds(self) -> list[OpKind]:
        seen: dict[str, OpKind] = {}
        for kind in self.cycle:
            seen.setdefault(kind.name, kind)
        return list(seen.values())


def invoke(kind: OpKind, inp: dict):
    """Call mixcara for one op; exceptions become the op's result."""
    try:
        return kind.call(inp)
    except Exception as exc:  # every exception is judged by the check
        return Raised(exc)


# ------------------------------------------------------------------ inputs


def _basis(exps) -> mixcara.MonomialBasis:
    return mixcara.MonomialBasis(n=len(exps[0]), exponents=tuple(exps))


def _spread(rng, k: int, lo: float, hi: float, sep: float) -> np.ndarray:
    """Sorted locations in [lo, hi] at pairwise distance >= sep."""
    for _ in range(100_000):
        x = np.sort(rng.uniform(lo, hi, k))
        if k == 1 or np.min(np.diff(x)) >= sep:
            return x
    raise RuntimeError(f"cannot place {k} locations {sep} apart in [{lo}, {hi}]")


def _moment_input(basis, kind, weights, means, sigmas, **extra) -> dict:
    values = ref.moments(kind, basis.exponents, weights, means, sigmas)
    return dict(basis=basis, values=values, **extra)


def _mv(inp: dict) -> mixcara.MomentVector:
    return mixcara.MomentVector(values=inp["values"], basis=inp["basis"])


def _exterior(rng, basis, kind: str) -> dict:
    """A full-degree vector outside the moment cone.

    Moments of a two-component mixture with the second moment replaced: the
    leading 2-by-2 Hankel minor turns negative, so no measure has these
    moments.  Gaussian inputs get a negative second moment.  Log-normal inputs
    get a positive one below ``s_1^2 / s_0``, because the log-normal engine
    refuses nonpositive moments before doing any work.
    """
    if kind == "lognormal":
        means = _spread(rng, 2, 0.6, 3.0, 0.3)
    else:
        means = _spread(rng, 2, -1.5, 1.5, 0.6)
    weights = rng.uniform(0.5, 2.0, 2)
    sigmas = np.full(2, rng.uniform(0.1, 0.35))
    values = ref.moments(kind, basis.exponents, weights, means, sigmas)
    if kind == "lognormal":
        values[2] = values[1] ** 2 / values[0] * rng.uniform(0.5, 0.9)
    else:
        values[2] = -values[0] * rng.uniform(0.2, 1.0)
    if not ref.is_exterior(values):
        raise RuntimeError("exterior construction landed inside the cone")
    return dict(basis=basis, values=values, exterior=True)


# ------------------------------------------------------------------ checks


def _model_check(inp: dict, model, kind: str, bound: int) -> tuple[str, str]:
    """Judge a model claimed to represent the input moments."""
    if not isinstance(model, mixcara.MixtureMeasure) or model.kind != kind:
        return WRONG, f"model is not a {kind} mixture"
    if model.k > bound:
        return WRONG, f"count-violation: {model.k} components above {bound}"
    if model.k and (np.any(model.weights <= 0) or np.any(model.sigmas <= 0)):
        return WRONG, "nonpositive weight or scale"
    achieved = ref.moments(kind, inp["basis"].exponents, model.weights, model.means, model.sigmas)
    residual = ref.relative_residual(achieved, inp["values"])
    if not residual <= RESIDUAL_TOL:
        return WRONG, f"residual {residual:.3e} above tolerance"
    return OK, ""


def _recovery_check(kind: str, bound: int, shared_scale: bool = False):
    def check(inp: dict, result) -> tuple[str, str]:
        exterior = inp.get("exterior", False)
        if isinstance(result, Raised):
            if not result.typed:
                return WRONG, f"untyped {type(result.error).__name__}: {result.error}"
            return (OK if exterior else UNRECOVERED), type(result.error).__name__
        if not isinstance(result, mixcara.RecoveryReport):
            return WRONG, f"unexpected result {type(result).__name__}"
        if not result.success:
            return (OK if exterior else UNRECOVERED), result.failure_reason or "failure"
        if exterior:
            return WRONG, "exterior vector reported as a success"
        if result.k_used > bound:
            return WRONG, f"count-violation: k_used={result.k_used} above {bound}"
        verdict = _model_check(inp, result.model, kind, bound)
        if verdict[0] == OK and shared_scale and np.ptp(result.model.sigmas) > 0:
            return WRONG, "shared-scale fit returned distinct scales"
        return verdict

    return check


def _report_cli_check(kind: str, bound: int):
    """Check the JSON report of ``mixcara recover`` (exit 0 success, 2 failure)."""

    def check(inp: dict, returncode: int, stdout: str) -> str | None:
        if returncode not in (0, 2):
            return f"exit status {returncode}"
        report = json.loads(stdout)
        if report["success"] != (returncode == 0):
            return f"exit status {returncode} disagrees with success={report['success']}"
        if not report["success"]:
            return None
        model = mixcara.MixtureMeasure.from_json(report["model"])
        verdict, detail = _model_check(inp, model, kind, bound)
        return None if verdict == OK else detail

    return check


def _write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _moments_file(inp: dict, directory: Path) -> str:
    data = {"basis": inp["basis"].to_json(), "values": [float(v) for v in inp["values"]]}
    return _write_json(directory / "moments.json", data)


# ------------------------------------------------------- shared-scale kinds


def gaussian_recovery(d: int, lo: float, hi: float, sep: float) -> OpKind:
    """Shared-scale Gaussian recovery at odd degree d with k = ceil((d+1)/2)."""
    k = math.ceil((d + 1) / 2)
    basis = _basis(ref.full_degree_exponents(d))

    def make(rng):
        means = _spread(rng, k, lo, hi, sep)
        weights = rng.uniform(0.5, 2.0, k)
        sigmas = np.full(k, rng.uniform(0.05, 0.3))
        return _moment_input(basis, "gaussian", weights, means, sigmas)

    def call(inp):
        return mixcara.recover_shared_sigma_gaussian(_mv(inp), k=k)

    def cli_args(inp, directory):
        return ["recover", "--moments", _moments_file(inp, directory),
                "--engine", "shared-sigma", "--k", str(k)]

    return OpKind(f"gauss-d{d}", make, call, _recovery_check("gaussian", k),
                  cli_args, _report_cli_check("gaussian", k))


def lognormal_recovery(d: int) -> OpKind:
    k = math.ceil((d + 1) / 2)
    basis = _basis(ref.full_degree_exponents(d))

    def make(rng):
        means = _spread(rng, k, 0.6, 3.0, 0.3)
        weights = rng.uniform(0.5, 2.0, k)
        sigmas = np.full(k, rng.uniform(0.1, 0.35))
        return _moment_input(basis, "lognormal", weights, means, sigmas)

    def call(inp):
        return mixcara.recover_shared_sigma_lognormal(_mv(inp), k=k)

    return OpKind(f"logn-d{d}", make, call, _recovery_check("lognormal", k))


def exterior_recovery(d: int, kind: str) -> OpKind:
    basis = _basis(ref.full_degree_exponents(d))
    engine = f"recover_shared_sigma_{kind}"

    def call(inp):
        # looked up per call, so a traced run sees the wrapped engine
        return getattr(mixcara, engine)(_mv(inp))

    return OpKind(f"exterior-{SHORT[kind]}-d{d}", lambda rng: _exterior(rng, basis, kind), call,
                  _recovery_check(kind, math.ceil((d + 1) / 2)))


def prescribe(d: int) -> OpKind:
    """A representation containing a prescribed component, bound ceil((d+1)/2) + 1."""
    basis = _basis(ref.full_degree_exponents(d))
    bound = math.ceil((d + 1) / 2) + 1

    def make(rng):
        means = _spread(rng, 2, -1.5, 1.5, 0.5)
        weights = rng.uniform(0.5, 2.0, 2)
        sigmas = rng.uniform(0.1, 0.4, 2)
        inp = _moment_input(basis, "gaussian", weights, means, sigmas)
        inp["x0"] = float(rng.uniform(-3.0, 3.0))
        inp["sigma0"] = float(rng.uniform(0.1, 0.6))
        return inp

    def call(inp):
        return mixcara.represent_with_prescribed_component(
            basis, "gaussian", _mv(inp), inp["x0"], inp["sigma0"]
        )

    def check(inp, result):
        if isinstance(result, Raised):
            if not result.typed:
                return WRONG, f"untyped {type(result.error).__name__}: {result.error}"
            return UNRECOVERED, type(result.error).__name__
        verdict = _model_check(inp, result, "gaussian", bound)
        if verdict[0] != OK:
            return verdict
        contains = any(
            c > 0 and abs(xi[0] - inp["x0"]) < 1e-12 and abs(s - inp["sigma0"]) < 1e-12
            for c, xi, s in result.components()
        )
        return (OK, "") if contains else (WRONG, "prescribed component missing")

    return OpKind(f"prescribe-d{d}", make, call, check)


# ------------------------------------------------------ nonlinear-fit kinds


def homotopy(degrees: tuple[int, ...]) -> OpKind:
    """Gap-basis recovery with k = 3 from a shared-scale (0.05) Gaussian mixture."""
    basis = _basis([(e,) for e in degrees])

    def make(rng):
        means = _spread(rng, 3, -2.0, 2.0, 0.5)
        weights = rng.uniform(0.5, 2.0, 3)
        return _moment_input(basis, "gaussian", weights, means, np.full(3, 0.05),
                             seed=int(rng.integers(2**31)))

    def call(inp):
        return mixcara.homotopy_gap_recovery(basis, _mv(inp), k=3, seed=inp["seed"])

    def cli_args(inp, directory):
        return ["recover", "--moments", _moments_file(inp, directory),
                "--engine", "homotopy", "--k", "3", "--seed", str(inp["seed"])]

    name = "homotopy-" + "".join(str(e) for e in degrees)
    return OpKind(name, make, call, _recovery_check("gaussian", 3),
                  cli_args, _report_cli_check("gaussian", 3))


def lm(d: int, k: int, shared: bool) -> OpKind:
    basis = _basis(ref.full_degree_exponents(d))

    def make(rng):
        means = _spread(rng, k, -1.5, 1.5, 0.6)
        weights = rng.uniform(0.5, 2.0, k)
        sigmas = np.full(k, rng.uniform(0.2, 0.6)) if shared else rng.uniform(0.2, 0.6, k)
        return _moment_input(basis, "gaussian", weights, means, sigmas,
                             seed=int(rng.integers(2**31)))

    def call(inp):
        return mixcara.lm_fit(basis, "gaussian", _mv(inp), k=k,
                              free_sigma_per_component=not shared, seed=inp["seed"])

    name = f"lm-{'shared' if shared else 'free'}-d{d}k{k}"
    return OpKind(name, make, call, _recovery_check("gaussian", k, shared_scale=shared))


def lm_exterior(k: int, n_starts: int) -> OpKind:
    """lm_fit on the exterior vector c * (1, 0, -1, 0, 1, 0), with a bounded start count.

    The negative second moment puts the whole ray outside the cone.  The fit
    is scale-invariant along the ray and its start seed is fixed, so the op's
    cost does not vary with the workload seed; today each such op runs its
    start to max_nfev.
    """
    basis = _basis(ref.full_degree_exponents(5))
    ray = np.array([1.0, 0.0, -1.0, 0.0, 1.0, 0.0])

    def make(rng):
        values = ray * rng.uniform(0.5, 2.0)
        if not ref.is_exterior(values):
            raise RuntimeError("exterior ray landed inside the cone")
        return dict(basis=basis, values=values, exterior=True, seed=0)

    def call(inp):
        return mixcara.lm_fit(basis, "gaussian", _mv(inp), k=k, seed=inp["seed"],
                              n_starts=n_starts)

    return OpKind("lm-exterior-d5", make, call, _recovery_check("gaussian", k))


# -------------------------------------------------------- reduce-rank kinds


def _subset_rows(out: np.ndarray, inp: np.ndarray) -> bool:
    rows = {row.tobytes() for row in np.ascontiguousarray(inp)}
    return all(row.tobytes() in rows for row in np.ascontiguousarray(out))


def reduction(kind: str, n: int, d: int, k_in: int) -> OpKind:
    """Reduce k_in atoms or components to at most m = basis size."""
    exps = ref.full_degree_exponents(d, n)
    basis = _basis(exps)
    m = basis.m

    def make(rng):
        weights = rng.uniform(0.1, 1.5, k_in)
        if kind == "lognormal":
            return dict(basis=basis, weights=weights, means=rng.uniform(0.5, 2.0, (k_in, 1)),
                        sigmas=rng.uniform(0.1, 0.5, k_in))
        means = rng.uniform(-1.0, 1.0, (k_in, n))
        sigmas = None if kind == "dirac" else rng.uniform(0.1, 0.8, k_in)
        return dict(basis=basis, weights=weights, means=means, sigmas=sigmas)

    def call(inp):
        if kind == "dirac":
            mu = mixcara.AtomicMeasure(weights=inp["weights"], points=inp["means"])
            return mixcara.reduce_atoms(basis, mu)
        mu = mixcara.MixtureMeasure(kind=kind, weights=inp["weights"], means=inp["means"],
                                    sigmas=inp["sigmas"])
        return mixcara.reduce_mixture_components(basis, kind, mu)

    def stacked(weights, means, sigmas):
        cols = [means] if sigmas is None else [means, np.asarray(sigmas).reshape(-1, 1)]
        return np.hstack(cols), ref.moments(kind, basis.exponents, weights, means, sigmas)

    def judge(inp, weights, means, sigmas) -> tuple[str, str]:
        if len(weights) > m:
            return WRONG, f"count-violation: {len(weights)} components above m={m}"
        if np.any(np.asarray(weights) <= 0):
            return WRONG, "nonpositive weight"
        rows_out, after = stacked(weights, means, sigmas)
        rows_in, before = stacked(inp["weights"], inp["means"], inp["sigmas"])
        if not _subset_rows(rows_out, rows_in):
            return WRONG, "output components are not a subset of the input"
        drift = ref.relative_residual(after, before)
        if not drift <= DRIFT_TOL:
            return WRONG, f"moment drift {drift:.3e}"
        return OK, ""

    def check(inp, result):
        if isinstance(result, Raised):
            if not result.typed:
                return WRONG, f"untyped {type(result.error).__name__}: {result.error}"
            return UNRECOVERED, type(result.error).__name__
        if kind == "dirac":
            if not isinstance(result, mixcara.AtomicMeasure):
                return WRONG, "result is not an atomic measure"
            return judge(inp, result.weights, result.points, None)
        if not isinstance(result, mixcara.MixtureMeasure) or result.kind != kind:
            return WRONG, f"result is not a {kind} mixture"
        return judge(inp, result.weights, result.means, result.sigmas)

    def cli_args(inp, directory):
        model = {"kind": "dirac", "components": [
            {"c": float(c), "x": [float(v) for v in x]}
            for c, x in zip(inp["weights"], inp["means"])
        ]}
        return ["reduce", "--basis", _write_json(directory / "basis.json", basis.to_json()),
                "--model", _write_json(directory / "model.json", model)]

    def cli_check(inp, returncode, stdout):
        if returncode != 0:
            return f"exit status {returncode}"
        out = mixcara.AtomicMeasure.from_json(json.loads(stdout)["model"], n=n)
        verdict, detail = judge(inp, out.weights, out.points, None)
        return None if verdict == OK else detail

    name = f"reduce-{SHORT[kind]}-n{n}-m{m}-k{k_in}"
    if kind != "dirac":
        return OpKind(name, make, call, check)
    return OpKind(name, make, call, check, cli_args, cli_check)


def _reference_threshold(exps, kind: str, max_k: int) -> int | None:
    """Smallest k whose reference Jacobian has full row rank at two random draws."""
    n = len(exps[0])
    for k in range(1, max_k + 1):
        full = []
        for draw in range(2):
            rng = np.random.default_rng((20181804, k, draw))
            w = rng.uniform(0.5, 2.0, k)
            x = rng.uniform(-1.0, 1.0, (k, n))
            if kind == "dirac":
                J = ref.dirac_jacobian(exps, w, x)
            else:
                J = ref.gaussian_jacobian(exps, w, x, rng.uniform(0.1, 1.0, k))
            full.append(ref.full_row_rank(J))
        if all(full):
            return k
    return None


def rank_search(kind: str, n: int, d: int, max_k: int, trials: int) -> OpKind:
    """Sampled search for the smallest full-rank atom or component count.

    The expected value comes from the reference Jacobian; for univariate
    atoms it must also equal the table value ceil((d+1)/2).
    """
    exps = ref.full_degree_exponents(d, n)
    basis = _basis(exps)
    expected = _reference_threshold(exps, kind, max_k)
    if kind == "dirac" and n == 1 and expected != math.ceil((d + 1) / 2):
        raise RuntimeError(f"reference rank {expected} disagrees with the table at d={d}")

    def make(rng):
        return dict(basis=basis, seed=int(rng.integers(2**31)))

    def call(inp):
        if kind == "dirac":
            return mixcara.min_full_rank_atoms(basis, max_k=max_k, trials=trials, seed=inp["seed"])
        return mixcara.min_full_rank_components(basis, kind, max_k=max_k, trials=trials,
                                                seed=inp["seed"])

    def check(inp, result):
        if isinstance(result, Raised):
            if not result.typed:
                return WRONG, f"untyped {type(result.error).__name__}: {result.error}"
            return UNRECOVERED, type(result.error).__name__
        if result.value != expected:
            return WRONG, f"rank value {result.value}, reference {expected}"
        return OK, ""

    return OpKind(f"rank-{SHORT[kind]}-n{n}-d{d}", make, call, check)


# ---------------------------------------------------------------- workloads


def _interleave(groups: list[tuple[OpKind, int]]) -> tuple[OpKind, ...]:
    """Spread each kind's copies evenly over one cycle, in a fixed order.

    The cycle opens with one copy of every kind in the listed order, so the
    first listed kind gives the workload's first input.
    """
    slots = []
    for order, (kind, count) in enumerate(groups):
        slots.extend((j / count, order, kind) for j in range(count))
    return tuple(kind for _, _, kind in sorted(slots, key=lambda s: (s[0], s[1])))


def shared_scale() -> Workload:
    cycle = _interleave([
        (gaussian_recovery(5, -2.0, 2.0, 0.4), 1),
        (gaussian_recovery(7, -2.0, 2.0, 0.4), 1),
        (gaussian_recovery(9, -2.0, 2.0, 0.4), 1),
        (gaussian_recovery(11, -2.0, 2.0, 0.4), 1),
        # means spread over a wide interval: the known high-degree breakdown
        (gaussian_recovery(13, -6.0, 6.0, 0.5), 1),
        (gaussian_recovery(15, -6.0, 6.0, 0.5), 1),
        (lognormal_recovery(5), 1),
        (lognormal_recovery(7), 1),
        (lognormal_recovery(9), 1),
        (exterior_recovery(5, "gaussian"), 1),
        (exterior_recovery(11, "gaussian"), 1),
        (exterior_recovery(7, "lognormal"), 1),
        # the slowest kind, at under a tenth of the cycle: the tail beyond p90
        (prescribe(5), 1),
    ])
    return Workload(
        "shared-scale",
        "Prony/Hankel and transfer-matrix recovery in ms-scale ops, with the high-degree breakdown",
        cycle,
    )


def nonlinear_fit() -> Workload:
    cycle = _interleave([
        # first in the cycle, so setup_s runs the kind with the steadiest cost
        (homotopy((0, 1, 3, 4, 6)), 2),
        # one copy: this basis has a long tail of slow homotopy paths
        (homotopy((0, 2, 3, 5, 6)), 1),
        (lm(6, 2, shared=True), 2),
        (lm(6, 2, shared=False), 1),
        # runs to max_nfev at a fixed cost; one op in seven puts p90 well
        # inside this cluster instead of in the spread-out interior tail
        (lm_exterior(1, n_starts=1), 1),
    ])
    return Workload(
        "nonlinear-fit",
        "optimizer loops over single-point smoothed-basis evaluations and mixture constructions",
        cycle,
    )


def reduce_rank() -> Workload:
    cycle = _interleave([
        (reduction("dirac", 1, 14, 200), 1),
        (reduction("dirac", 1, 7, 80), 1),
        (reduction("dirac", 2, 4, 200), 1),
        (reduction("dirac", 2, 3, 60), 1),
        (reduction("gaussian", 1, 11, 150), 1),
        (reduction("gaussian", 1, 7, 60), 1),
        (reduction("gaussian", 2, 3, 120), 1),
        (reduction("lognormal", 1, 5, 40), 1),
        (rank_search("dirac", 1, 7, 6, 10), 1),
        (rank_search("dirac", 1, 9, 7, 10), 1),
        # three copies put p50 inside this kind's tight cluster, not in a gap
        (rank_search("dirac", 2, 4, 8, 8), 3),
        (rank_search("gaussian", 1, 8, 5, 10), 1),
        (rank_search("gaussian", 2, 3, 5, 10), 1),
    ])
    return Workload(
        "reduce-rank",
        "one SVD per removed atom and rank sampling over batched columns, univariate and bivariate",
        cycle,
    )


WORKLOADS = {"shared-scale": shared_scale, "nonlinear-fit": nonlinear_fit,
             "reduce-rank": reduce_rank}
