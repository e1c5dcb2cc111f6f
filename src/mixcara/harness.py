"""Randomized desk-scale experiments checking the component-count bounds.

Each experiment draws instances from fixed parameter ranges, runs the
relevant engine, and aggregates per-trial success into a pass/fail verdict
for the bound under test.  Reports are written as CSV (rows only, schema
version in row 1) and JSON (rows plus full models plus aggregates) and are
byte-identical for identical configurations and seeds.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .basis import MonomialBasis
from .conegeo import represent_with_prescribed_component
from .errors import ConfigError, MixcaraError
from .jacobian import min_full_rank_atoms
from .measures import AtomicMeasure, sample_random_mixture
from .moments import dirac_moments, mixture_moments
from .recover import (
    homotopy_gap_recovery,
    recover_shared_sigma_gaussian,
    recover_shared_sigma_lognormal,
)
from .reduce import reduce_atoms, reduce_mixture_components

__all__ = ["ExperimentConfig", "ExperimentReport", "TrialRow", "run_experiment", "EXPERIMENTS"]

SCHEMA_VERSION = 1

EXPERIMENTS = (
    "univariate-gaussian-bound",
    "lognormal-bound",
    "gap-homotopy",
    "na-table",
    "reduction-stress",
    "prescribe-check",
)

# a.e.-type claims tolerate a small failure fraction; universal claims do not
_DEFAULT_THRESHOLDS = {
    "univariate-gaussian-bound": 0.95,
    "lognormal-bound": 0.95,
    "gap-homotopy": 0.9,
    "na-table": 1.0,
    "reduction-stress": 1.0,
    "prescribe-check": 1.0,
}

_BOUND_STATEMENTS = {
    "univariate-gaussian-bound": (
        "moment vectors of shared-scale Gaussian mixtures over {1,...,x^5} admit a "
        "shared-scale Gaussian representation with k <= ceil((d+1)/2) = 3 components"
    ),
    "lognormal-bound": (
        "moment vectors of log-normal mixtures over {1,...,x^5} (m = 6 moments) admit a "
        "log-normal representation with k <= ceil(m/2) = 3 components"
    ),
    "gap-homotopy": (
        "almost every moment vector over {1, x^2, x^3, x^5, x^6} from a shared-scale "
        "Gaussian mixture admits a shared-scale Gaussian representation with k <= 3"
    ),
    "na-table": (
        "for {1,...,x^d} the smallest atom count with full-rank moment-map Jacobian "
        "equals ceil((d+1)/2), and never drops below ceil(m/(n+1))"
    ),
    "reduction-stress": (
        "null-vector stepping reduces any representing measure to at most m components "
        "while preserving every moment"
    ),
    "prescribe-check": (
        "every interior moment vector has a mixture representation containing an "
        "arbitrarily prescribed component with positive mass"
    ),
}

_CSV_COLUMNS = ("trial", "sub_seed", "engine", "k_used", "residual", "success", "truth", "detail")


@dataclass(frozen=True)
class TrialRow:
    trial: int
    sub_seed: str
    engine: str
    k_used: int
    residual: float
    success: bool
    truth: str
    detail: str = ""
    models: dict = field(default_factory=dict)

    def csv_values(self) -> list[str]:
        return [
            str(self.trial),
            self.sub_seed,
            self.engine,
            str(self.k_used),
            repr(self.residual),
            str(self.success),
            self.truth,
            self.detail,
        ]

    def to_json(self) -> dict:
        data = {
            "trial": self.trial,
            "sub_seed": self.sub_seed,
            "engine": self.engine,
            "k_used": self.k_used,
            "residual": self.residual,
            "success": self.success,
            "truth": self.truth,
            "detail": self.detail,
        }
        if self.models:
            data["models"] = self.models
        return data


@dataclass
class ExperimentConfig:
    """Dataclass mirror of the JSON experiment configuration."""

    experiment: str
    trials: int = 100
    seed: int = 0
    kind: str | None = None
    basis: MonomialBasis | None = None
    tolerances: dict = field(default_factory=dict)
    ranges: dict = field(default_factory=dict)
    success_threshold: float | None = None
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; pick one of {EXPERIMENTS}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ConfigError("trials must be a positive integer")
        if self.success_threshold is not None and not 0 <= self.success_threshold <= 1:
            raise ConfigError("success_threshold must lie in [0, 1]")

    @property
    def threshold(self) -> float:
        if self.success_threshold is not None:
            return self.success_threshold
        return _DEFAULT_THRESHOLDS[self.experiment]

    def tolerance(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))

    def range_pair(self, name: str, default: tuple[float, float]) -> tuple[float, float]:
        lo, hi = self.ranges.get(name, default)
        return float(lo), float(hi)

    def range_scalar(self, name: str, default: float) -> float:
        return float(self.ranges.get(name, default))

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "trials": self.trials,
            "seed": self.seed,
            "kind": self.kind,
            "basis": None if self.basis is None else self.basis.to_json(),
            "tolerances": dict(self.tolerances),
            "ranges": {k: list(v) if isinstance(v, (tuple, list)) else v for k, v in self.ranges.items()},
            "success_threshold": self.success_threshold,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        if "experiment" not in data:
            raise ConfigError("config needs an 'experiment' field")
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema version {version!r}")
        basis = data.get("basis")
        return cls(
            experiment=data["experiment"],
            trials=int(data.get("trials", 100)),
            seed=int(data.get("seed", 0)),
            kind=data.get("kind"),
            basis=None if basis is None else MonomialBasis.from_json(basis),
            tolerances=dict(data.get("tolerances", {})),
            ranges={k: tuple(v) if isinstance(v, list) else v for k, v in data.get("ranges", {}).items()},
            success_threshold=data.get("success_threshold"),
            out_dir=data.get("out_dir"),
        )


@dataclass
class ExperimentReport:
    experiment: str
    bound: str
    config: ExperimentConfig
    rows: list[TrialRow]
    threshold: float

    @property
    def aggregate(self) -> dict:
        successes = sum(1 for r in self.rows if r.success)
        count_violations = sum(1 for r in self.rows if r.detail.startswith("count-violation"))
        rate = successes / len(self.rows) if self.rows else 0.0
        return {
            "trials": len(self.rows),
            "successes": successes,
            "success_rate": rate,
            "count_violations": count_violations,
            "threshold": self.threshold,
            "bound_held": rate >= self.threshold and count_violations == 0,
        }

    @property
    def bound_held(self) -> bool:
        return bool(self.aggregate["bound_held"])

    @property
    def exit_status(self) -> int:
        return 0 if self.bound_held else 2

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["schema_version", SCHEMA_VERSION])
        writer.writerow(_CSV_COLUMNS)
        for row in self.rows:
            writer.writerow(row.csv_values())
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "bound": self.bound,
            "config": self.config.to_json(),
            "rows": [r.to_json() for r in self.rows],
            "aggregate": self.aggregate,
            "exit_status": self.exit_status,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, out_dir) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{self.experiment}.csv"
        json_path = out / f"{self.experiment}.json"
        csv_path.write_text(self.to_csv_text())
        json_path.write_text(self.to_json_text())
        return csv_path, json_path


def _gaussian_bound_trial(config: ExperimentConfig, basis: MonomialBasis, trial: int) -> TrialRow:
    sub = (config.seed, trial)
    rng = np.random.default_rng(sub)
    residual_tol = config.tolerance("residual_rel", 1e-8)
    k_limit = (basis.max_degree + 2) // 2
    mixture = sample_random_mixture(
        "gaussian",
        k=3,
        rng=rng,
        weight_range=config.range_pair("weight", (0.5, 2.0)),
        mean_range=config.range_pair("mean", (-2.0, 2.0)),
        sigma_range=config.range_pair("sigma", (0.05, 0.3)),
        min_separation=config.range_scalar("separation", 0.5),
        shared_sigma=True,
    )
    s = mixture_moments(basis, mixture)
    report = recover_shared_sigma_gaussian(s, rel_tol=residual_tol)
    success = report.success and report.k_used <= k_limit
    detail = ""
    if report.success and report.k_used > k_limit:
        detail = f"count-violation: k={report.k_used} above {k_limit}"
    elif not report.success:
        detail = report.failure_reason or ""
    return TrialRow(
        trial=trial,
        sub_seed=str(sub),
        engine=report.engine,
        k_used=report.k_used,
        residual=report.residual,
        success=success,
        truth=f"k=3;sigma={mixture.sigmas[0]!r}",
        detail=detail,
        models={
            "truth": mixture.to_json(),
            "recovered": None if report.model is None else report.model.to_json(),
        },
    )


def _lognormal_bound_trial(config: ExperimentConfig, basis: MonomialBasis, trial: int) -> TrialRow:
    sub = (config.seed, trial)
    rng = np.random.default_rng(sub)
    residual_tol = config.tolerance("residual_rel", 1e-8)
    k_limit = math.ceil(basis.m / 2)
    mixture = sample_random_mixture(
        "lognormal",
        k=3,
        rng=rng,
        weight_range=config.range_pair("weight", (0.5, 2.0)),
        mean_range=config.range_pair("mean", (0.7, 2.5)),
        sigma_range=config.range_pair("sigma", (0.1, 0.35)),
        min_separation=config.range_scalar("separation", 0.35),
        shared_sigma=True,
    )
    s = mixture_moments(basis, mixture)
    report = recover_shared_sigma_lognormal(s, rel_tol=residual_tol)
    success = report.success and report.k_used <= k_limit
    detail = ""
    if report.success and report.k_used > k_limit:
        detail = f"count-violation: k={report.k_used} above {k_limit}"
    elif not report.success:
        detail = report.failure_reason or ""
    return TrialRow(
        trial=trial,
        sub_seed=str(sub),
        engine=report.engine,
        k_used=report.k_used,
        residual=report.residual,
        success=success,
        truth=f"k=3;sigma={mixture.sigmas[0]!r}",
        detail=detail,
        models={
            "truth": mixture.to_json(),
            "recovered": None if report.model is None else report.model.to_json(),
        },
    )


def _gap_homotopy_trial(config: ExperimentConfig, basis: MonomialBasis, trial: int) -> TrialRow:
    sub = (config.seed, trial)
    rng = np.random.default_rng(sub)
    residual_tol = config.tolerance("residual_rel", 1e-8)
    sigma = config.range_scalar("shared_sigma", 0.05)
    mixture = sample_random_mixture(
        "gaussian",
        k=3,
        rng=rng,
        weight_range=config.range_pair("weight", (0.5, 2.0)),
        mean_range=config.range_pair("mean", (-2.0, 2.0)),
        sigma_range=(sigma, sigma),
        min_separation=config.range_scalar("separation", 0.5),
        shared_sigma=True,
    )
    s = mixture_moments(basis, mixture)
    report = homotopy_gap_recovery(basis, s, k=3, seed=sub, rel_tol=residual_tol)
    success = report.success and report.k_used <= 3
    detail = ""
    if report.success and report.k_used > 3:
        detail = f"count-violation: k={report.k_used} above 3"
    elif not report.success:
        detail = report.failure_reason or ""
    return TrialRow(
        trial=trial,
        sub_seed=str(sub),
        engine=report.engine,
        k_used=report.k_used,
        residual=report.residual,
        success=success,
        truth=f"k=3;sigma={sigma!r}",
        detail=detail,
        models={
            "truth": mixture.to_json(),
            "recovered": None if report.model is None else report.model.to_json(),
        },
    )


def _na_table_trial(config: ExperimentConfig, _basis, d: int) -> TrialRow:
    basis = MonomialBasis.full_degree(d)
    expected = (d + 2) // 2  # ceil((d+1)/2)
    lower = math.ceil(basis.m / 2)
    result = min_full_rank_atoms(
        basis, max_k=expected + 2, trials=config.trials, seed=config.seed
    )
    success = result.value == expected and (result.value or 0) >= lower
    freq = result.frequencies.get(result.value, 0.0) if result.found else 0.0
    return TrialRow(
        trial=d,
        sub_seed=str((config.seed, d)),
        engine="rank-sampling",
        k_used=result.value if result.found else -1,
        residual=0.0,
        success=success,
        truth=f"d={d};expected={expected}",
        detail=f"freq_at_value={freq!r}",
    )


def _reduction_trial(config: ExperimentConfig, _basis, trial: int) -> TrialRow:
    sub = (config.seed, trial)
    rng = np.random.default_rng(sub)
    preservation = config.tolerance("preservation_abs", 1e-10)
    m = int(rng.integers(1, 9))
    basis = MonomialBasis.full_degree(m - 1)
    k_in = int(rng.integers(m + 1, 51))
    use_mixture = trial % 2 == 1
    if use_mixture:
        mixture = sample_random_mixture(
            "gaussian",
            k=k_in,
            rng=rng,
            weight_range=config.range_pair("weight", (0.1, 1.5)),
            mean_range=config.range_pair("mean", (-1.0, 1.0)),
            sigma_range=config.range_pair("sigma", (0.1, 0.8)),
        )
        before = mixture_moments(basis, mixture).values
        reduced = reduce_mixture_components(basis, "gaussian", mixture)
        after = mixture_moments(basis, reduced).values
        k_out = reduced.k
    else:
        atoms = AtomicMeasure(
            weights=rng.uniform(0.1, 1.5, size=k_in),
            points=rng.uniform(-1.0, 1.0, size=(k_in, 1)),
        )
        before = dirac_moments(basis, atoms).values
        reduced_atoms = reduce_atoms(basis, atoms)
        after = dirac_moments(basis, reduced_atoms).values
        k_out = reduced_atoms.k
    drift = float(np.max(np.abs(after - before)))
    success = k_out <= m and drift <= preservation
    detail = "" if k_out <= m else f"count-violation: k={k_out} above m={m}"
    return TrialRow(
        trial=trial,
        sub_seed=str(sub),
        engine="null-step-reduction",
        k_used=k_out,
        residual=drift,
        success=success,
        truth=f"m={m};k_in={k_in};{'mixture' if use_mixture else 'atoms'}",
        detail=detail,
    )


def _prescribe_trial(config: ExperimentConfig, basis: MonomialBasis, trial: int) -> TrialRow:
    sub = (config.seed, trial)
    rng = np.random.default_rng(sub)
    residual_tol = config.tolerance("residual_rel", 1e-8)
    mixture = sample_random_mixture(
        "gaussian",
        k=2,
        rng=rng,
        weight_range=config.range_pair("weight", (0.5, 2.0)),
        mean_range=config.range_pair("mean", (-1.5, 1.5)),
        sigma_range=config.range_pair("sigma", (0.1, 0.4)),
        min_separation=config.range_scalar("separation", 0.5),
    )
    x0 = rng.uniform(*config.range_pair("x0", (-3.0, 3.0)))
    sigma0 = rng.uniform(*config.range_pair("sigma0", (0.1, 0.6)))
    s = mixture_moments(basis, mixture)
    try:
        combined = represent_with_prescribed_component(
            basis, "gaussian", s, x0, sigma0, rel_tol=residual_tol
        )
    except MixcaraError as exc:
        return TrialRow(
            trial=trial,
            sub_seed=str(sub),
            engine="prescribe+shared-sigma",
            k_used=-1,
            residual=math.inf,
            success=False,
            truth=f"x0={x0!r};sigma0={sigma0!r}",
            detail=str(exc),
        )
    achieved = mixture_moments(basis, combined).values
    residual = float(np.max(np.abs(achieved - s.values))) / (1.0 + float(np.max(np.abs(s.values))))
    contains = any(
        abs(xi[0] - x0) < 1e-12 and abs(sg - sigma0) < 1e-12 and c > 0
        for c, xi, sg in combined.components()
    )
    success = contains and residual <= residual_tol
    return TrialRow(
        trial=trial,
        sub_seed=str(sub),
        engine="prescribe+shared-sigma",
        k_used=combined.k,
        residual=residual,
        success=success,
        truth=f"x0={x0!r};sigma0={sigma0!r}",
        detail="" if contains else "prescribed component missing",
        models={"truth": mixture.to_json(), "combined": combined.to_json()},
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all trials of the configured experiment; write reports if asked."""
    if config.experiment == "na-table":
        basis = None
        indices = list(range(1, 10))
        runner = _na_table_trial
    else:
        default_basis = {
            "univariate-gaussian-bound": MonomialBasis.full_degree(5),
            "lognormal-bound": MonomialBasis.full_degree(5),
            "gap-homotopy": MonomialBasis.univariate([0, 2, 3, 5, 6]),
            "reduction-stress": None,
            "prescribe-check": MonomialBasis.full_degree(5),
        }[config.experiment]
        basis = config.basis if config.basis is not None else default_basis
        indices = list(range(config.trials))
        runner = {
            "univariate-gaussian-bound": _gaussian_bound_trial,
            "lognormal-bound": _lognormal_bound_trial,
            "gap-homotopy": _gap_homotopy_trial,
            "reduction-stress": _reduction_trial,
            "prescribe-check": _prescribe_trial,
        }[config.experiment]

    def one(i: int) -> TrialRow:
        try:
            return runner(config, basis, i)
        except MixcaraError as exc:
            return TrialRow(
                trial=i,
                sub_seed=str((config.seed, i)),
                engine=config.experiment,
                k_used=-1,
                residual=math.inf,
                success=False,
                truth="",
                detail=f"engine error: {exc}",
            )

    rows = [one(i) for i in indices]
    report = ExperimentReport(
        experiment=config.experiment,
        bound=_BOUND_STATEMENTS[config.experiment],
        config=config,
        rows=rows,
        threshold=config.threshold,
    )
    if config.out_dir:
        report.write(config.out_dir)
    return report
