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
import numbers
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .basis import MonomialBasis
from .conegeo import represent_with_prescribed_component
from .errors import ConfigError, MixcaraError
from .jacobian import min_full_rank_atoms
from .measures import AtomicMeasure, sample_random_mixture
from .moments import _relative_residual, dirac_moments, mixture_moments
from .recover import (
    RecoveryReport,
    homotopy_gap_recovery,
    recover_shared_sigma_gaussian,
    recover_shared_sigma_lognormal,
)
from .reduce import reduce_atoms, reduce_mixture_components

__all__ = ["ExperimentConfig", "ExperimentReport", "TrialRow", "run_experiment", "EXPERIMENTS"]

SCHEMA_VERSION = 1

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
        return [str(getattr(self, name)) for name in _CSV_COLUMNS]

    def to_json(self) -> dict:
        data = {name: getattr(self, name) for name in _CSV_COLUMNS}
        if self.models:
            data["models"] = self.models
        return data


@dataclass
class ExperimentConfig:
    """Dataclass mirror of the JSON experiment configuration.

    ``trials`` defaults to the experiment's full-run count.  ``ranges`` and
    ``tolerances`` may set only keys the experiment reads, each with the shape
    of its default (a pair of numbers or one number; a tolerance is finite
    and above 0); unset keys take the experiment's default.
    """

    experiment: str
    trials: int | None = None
    seed: int = 0
    basis: MonomialBasis | None = None
    tolerances: dict = field(default_factory=dict)
    ranges: dict = field(default_factory=dict)
    success_threshold: float | None = None
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; pick one of {EXPERIMENTS}")
        spec = _EXPERIMENTS[self.experiment]
        if self.trials is None:
            self.trials = spec.trials
        if not _is_integer(self.trials) or self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        if not _is_integer(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, (str, os.PathLike)):
            raise ConfigError(f"out_dir must be a path, got {self.out_dir!r}")
        if self.success_threshold is not None and not (
            _is_number(self.success_threshold) and 0 <= self.success_threshold <= 1
        ):
            raise ConfigError("success_threshold must lie in [0, 1]")
        if self.basis is not None and spec.basis is None:
            raise ConfigError(f"{self.experiment} builds its own bases and reads no basis")
        for section in ("ranges", "tolerances"):
            given, defaults = getattr(self, section), getattr(spec, section)
            if not isinstance(given, dict):
                raise ConfigError(f"{section} must be an object")
            for name, value in given.items():
                if name not in defaults:
                    raise ConfigError(
                        f"{self.experiment} reads no {section} key {name!r}; "
                        f"it reads {sorted(defaults)}"
                    )
                if isinstance(defaults[name], tuple):
                    shape = "a pair of numbers"
                    ok = isinstance(value, (tuple, list)) and len(value) == 2
                    ok = ok and all(map(_is_number, value))
                else:
                    shape, ok = "a number", _is_number(value)
                if section == "tolerances":
                    shape = "a finite number above 0"
                    ok = ok and math.isfinite(value) and value > 0
                if not ok:
                    raise ConfigError(f"{section}.{name} must be {shape}, got {value!r}")

    @property
    def threshold(self) -> float:
        if self.success_threshold is not None:
            return self.success_threshold
        return _EXPERIMENTS[self.experiment].threshold

    def _value(self, section: str, name: str) -> float | tuple[float, float]:
        """``ranges`` or ``tolerances`` entry ``name``: the config's value if
        set, else the experiment's default; a pair as a float tuple."""
        default = getattr(_EXPERIMENTS[self.experiment], section)[name]
        value = getattr(self, section).get(name, default)
        if isinstance(value, (tuple, list)):
            return float(value[0]), float(value[1])
        return float(value)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "trials": self.trials,
            "seed": self.seed,
            "basis": None if self.basis is None else self.basis.to_json(),
            "tolerances": dict(self.tolerances),
            "ranges": {k: list(v) if isinstance(v, (tuple, list)) else v for k, v in self.ranges.items()},
            "success_threshold": self.success_threshold,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"a config is a JSON object, got {type(data).__name__}")
        if "experiment" not in data:
            raise ConfigError("config needs an 'experiment' field")
        known = {f.name for f in fields(cls)} | {"schema_version"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config fields {unknown}; known fields are {sorted(known)}")
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema version {version!r}")
        settings = {name: value for name, value in data.items() if name != "schema_version"}
        if settings.get("basis") is not None:
            try:
                settings["basis"] = MonomialBasis.from_json(settings["basis"])
            except ValueError as exc:
                raise ConfigError(f"basis: {exc}") from exc
        return cls(**settings)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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


def _bound_trial(config: ExperimentConfig, basis: MonomialBasis, sub: tuple[int, int]) -> dict:
    spec = _EXPERIMENTS[config.experiment]
    rng = np.random.default_rng(sub)
    residual_tol = config._value("tolerances", "residual_rel")
    k_limit = spec.k_limit(basis)
    if "shared_sigma" in spec.ranges:  # one fixed scale shared by every trial
        sigma = config._value("ranges", "shared_sigma")
        sigma_range = (sigma, sigma)
    else:
        sigma_range = config._value("ranges", "sigma")
    mixture = sample_random_mixture(
        spec.kind,
        k=3,
        rng=rng,
        weight_range=config._value("ranges", "weight"),
        mean_range=config._value("ranges", "mean"),
        sigma_range=sigma_range,
        min_separation=config._value("ranges", "separation"),
        shared_sigma=True,
    )
    s = mixture_moments(basis, mixture)
    report = spec.engine(basis, s, sub, residual_tol)
    success = report.success and report.k_used <= k_limit
    detail = ""
    if report.success and report.k_used > k_limit:
        detail = f"count-violation: k={report.k_used} above {k_limit}"
    elif not report.success:
        detail = report.failure_reason or ""
    return dict(
        engine=report.engine,
        k_used=report.k_used,
        residual=report.residual,
        success=success,
        truth=f"k=3;sigma={float(mixture.sigmas[0])!r}",
        detail=detail,
        models={
            "truth": mixture.to_json(),
            "recovered": None if report.model is None else report.model.to_json(),
        },
    )


def _na_table_trial(config: ExperimentConfig, _basis, sub: tuple[int, int]) -> dict:
    d = sub[1]
    basis = MonomialBasis.full_degree(d)
    expected = (d + 2) // 2  # ceil((d+1)/2)
    result = min_full_rank_atoms(
        basis, max_k=expected + 2, trials=config.trials, seed=config.seed
    )
    success = result.value == expected and (result.value or 0) >= result.lower_bound
    freq = result.frequencies.get(result.value, 0.0) if result.found else 0.0
    return dict(
        engine="rank-sampling",
        k_used=result.value if result.found else -1,
        residual=0.0,
        success=success,
        truth=f"d={d};expected={expected}",
        detail=f"freq_at_value={freq!r}",
    )


def _reduction_trial(config: ExperimentConfig, _basis, sub: tuple[int, int]) -> dict:
    rng = np.random.default_rng(sub)
    preservation = config._value("tolerances", "preservation_abs")
    weight_range = config._value("ranges", "weight")
    mean_range = config._value("ranges", "mean")
    m = int(rng.integers(1, 9))
    basis = MonomialBasis.full_degree(m - 1)
    k_in = int(rng.integers(m + 1, 51))
    use_mixture = sub[1] % 2 == 1
    if use_mixture:
        mixture = sample_random_mixture(
            "gaussian",
            k=k_in,
            rng=rng,
            weight_range=weight_range,
            mean_range=mean_range,
            sigma_range=config._value("ranges", "sigma"),
        )
        before = mixture_moments(basis, mixture).values
        reduced = reduce_mixture_components(basis, "gaussian", mixture)
        after = mixture_moments(basis, reduced).values
        k_out = reduced.k
    else:
        atoms = AtomicMeasure(
            weights=rng.uniform(*weight_range, size=k_in),
            points=rng.uniform(*mean_range, size=(k_in, 1)),
        )
        before = dirac_moments(basis, atoms).values
        reduced_atoms = reduce_atoms(basis, atoms)
        after = dirac_moments(basis, reduced_atoms).values
        k_out = reduced_atoms.k
    drift = float(np.max(np.abs(after - before)))
    success = k_out <= m and drift <= preservation
    detail = "" if k_out <= m else f"count-violation: k={k_out} above m={m}"
    return dict(
        engine="null-step-reduction",
        k_used=k_out,
        residual=drift,
        success=success,
        truth=f"m={m};k_in={k_in};{'mixture' if use_mixture else 'atoms'}",
        detail=detail,
    )


def _prescribe_trial(config: ExperimentConfig, basis: MonomialBasis, sub: tuple[int, int]) -> dict:
    rng = np.random.default_rng(sub)
    residual_tol = config._value("tolerances", "residual_rel")
    mixture = sample_random_mixture(
        "gaussian",
        k=2,
        rng=rng,
        weight_range=config._value("ranges", "weight"),
        mean_range=config._value("ranges", "mean"),
        sigma_range=config._value("ranges", "sigma"),
        min_separation=config._value("ranges", "separation"),
    )
    x0 = rng.uniform(*config._value("ranges", "x0"))
    sigma0 = rng.uniform(*config._value("ranges", "sigma0"))
    s = mixture_moments(basis, mixture)
    cells = {"engine": "prescribe+shared-sigma", "truth": f"x0={x0!r};sigma0={sigma0!r}"}
    try:
        combined = represent_with_prescribed_component(
            basis, "gaussian", s, x0, sigma0, rel_tol=residual_tol
        )
    except MixcaraError as exc:
        return dict(cells, k_used=-1, residual=math.inf, success=False, detail=str(exc))
    residual = _relative_residual(mixture_moments(basis, combined).values, s.values)
    contains = any(
        abs(xi[0] - x0) < 1e-12 and abs(sg - sigma0) < 1e-12 and c > 0
        for c, xi, sg in combined.components()
    )
    success = contains and residual <= residual_tol
    return dict(
        cells,
        k_used=combined.k,
        residual=residual,
        success=success,
        detail="" if contains else "prescribed component missing",
        models={"truth": mixture.to_json(), "combined": combined.to_json()},
    )


@dataclass(frozen=True)
class _Experiment:
    """Everything one experiment fixes: the bound it checks, the verdict
    threshold, the trial function, the full-run trial count, every range and
    tolerance key the trial reads with its default, the default basis and,
    when not ``range(trials)``, the trial indices.  A trial takes
    ``(config, basis, sub)``, where ``sub = (config.seed, index)`` seeds it,
    and returns the cells of its row after ``trial`` and ``sub_seed``.
    Bound trials also fix the sampled kind, the engine call and the count
    limit; a ``shared_sigma`` range in place of ``sigma`` gives every trial
    that one scale."""

    bound: str
    threshold: float
    trial: Callable[..., dict]
    trials: int
    ranges: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    basis: MonomialBasis | None = None
    indices: tuple[int, ...] | None = None
    kind: str | None = None
    engine: Callable[..., RecoveryReport] | None = None
    k_limit: Callable[[MonomialBasis], int] | None = None


# a.e.-type claims tolerate a small failure fraction; universal claims do not
_EXPERIMENTS = {
    "univariate-gaussian-bound": _Experiment(
        bound=(
            "moment vectors of shared-scale Gaussian mixtures over {1,...,x^5} admit a "
            "shared-scale Gaussian representation with k <= ceil((d+1)/2) = 3 components"
        ),
        threshold=0.95,
        trial=_bound_trial,
        trials=100,
        ranges={"weight": (0.5, 2.0), "mean": (-2.0, 2.0), "sigma": (0.05, 0.3), "separation": 0.5},
        tolerances={"residual_rel": 1e-8},
        basis=MonomialBasis.full_degree(5),
        kind="gaussian",
        engine=lambda basis, s, seed, tol: recover_shared_sigma_gaussian(s, rel_tol=tol),
        k_limit=lambda basis: (basis.max_degree + 2) // 2,
    ),
    "lognormal-bound": _Experiment(
        bound=(
            "moment vectors of log-normal mixtures over {1,...,x^5} (m = 6 moments) admit a "
            "log-normal representation with k <= ceil(m/2) = 3 components"
        ),
        threshold=0.95,
        trial=_bound_trial,
        trials=100,
        ranges={"weight": (0.5, 2.0), "mean": (0.7, 2.5), "sigma": (0.1, 0.35), "separation": 0.35},
        tolerances={"residual_rel": 1e-8},
        basis=MonomialBasis.full_degree(5),
        kind="lognormal",
        engine=lambda basis, s, seed, tol: recover_shared_sigma_lognormal(s, rel_tol=tol),
        k_limit=lambda basis: math.ceil(basis.m / 2),
    ),
    "gap-homotopy": _Experiment(
        bound=(
            "almost every moment vector over {1, x^2, x^3, x^5, x^6} from a shared-scale "
            "Gaussian mixture admits a shared-scale Gaussian representation with k <= 3"
        ),
        threshold=0.9,
        trial=_bound_trial,
        trials=50,
        ranges={"weight": (0.5, 2.0), "mean": (-2.0, 2.0), "shared_sigma": 0.05, "separation": 0.5},
        tolerances={"residual_rel": 1e-8},
        basis=MonomialBasis.univariate([0, 2, 3, 5, 6]),
        kind="gaussian",
        engine=lambda basis, s, seed, tol: homotopy_gap_recovery(
            basis, s, k=3, seed=seed, rel_tol=tol
        ),
        k_limit=lambda basis: 3,
    ),
    "na-table": _Experiment(
        bound=(
            "for {1,...,x^d} the smallest atom count with full-rank moment-map Jacobian "
            "equals ceil((d+1)/2), and never drops below ceil(m/(n+1))"
        ),
        threshold=1.0,
        trial=_na_table_trial,
        trials=30,  # rank samples per degree; the rows are the degrees
        indices=tuple(range(1, 10)),
    ),
    "reduction-stress": _Experiment(
        bound=(
            "null-vector stepping reduces any representing measure to at most m components "
            "while preserving every moment"
        ),
        threshold=1.0,
        trial=_reduction_trial,
        trials=500,
        ranges={"weight": (0.1, 1.5), "mean": (-1.0, 1.0), "sigma": (0.1, 0.8)},
        tolerances={"preservation_abs": 1e-10},
    ),
    "prescribe-check": _Experiment(
        bound=(
            "every interior moment vector has a mixture representation containing an "
            "arbitrarily prescribed component with positive mass"
        ),
        threshold=1.0,
        trial=_prescribe_trial,
        trials=20,
        ranges={
            "weight": (0.5, 2.0),
            "mean": (-1.5, 1.5),
            "sigma": (0.1, 0.4),
            "separation": 0.5,
            "x0": (-3.0, 3.0),
            "sigma0": (0.1, 0.6),
        },
        tolerances={"residual_rel": 1e-8},
        basis=MonomialBasis.full_degree(5),
    ),
}

EXPERIMENTS = tuple(_EXPERIMENTS)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all trials of the configured experiment; write reports if asked."""
    spec = _EXPERIMENTS[config.experiment]
    basis = config.basis if config.basis is not None else spec.basis
    indices = spec.indices if spec.indices is not None else range(config.trials)

    def one(i: int) -> TrialRow:
        sub = (config.seed, i)
        try:
            cells = spec.trial(config, basis, sub)
        except MixcaraError as exc:
            cells = dict(engine=config.experiment, k_used=-1, residual=math.inf, success=False,
                         truth="", detail=f"engine error: {exc}")
        return TrialRow(trial=i, sub_seed=str(sub), **cells)

    rows = [one(i) for i in indices]
    report = ExperimentReport(
        experiment=config.experiment,
        bound=spec.bound,
        config=config,
        rows=rows,
        threshold=config.threshold,
    )
    if config.out_dir:
        report.write(config.out_dir)
    return report
