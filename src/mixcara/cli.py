"""Command-line interface.

Subcommands mirror the library surface: forward moments, rank estimation,
measure reduction, cone classification, prescribed-component representation,
mixture recovery, and the bound-verification experiment harness.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .basis import MonomialBasis
from .conegeo import hankel_classify, represent_with_prescribed_component
from .errors import MixcaraError
from .harness import ExperimentConfig, _json_text, run_experiment
from .jacobian import min_full_rank_atoms, min_full_rank_components
from .measures import AtomicMeasure, model_from_json
from .moments import MomentVector, dirac_moments, mixture_moments
from .recover import (
    homotopy_gap_recovery,
    lm_fit,
    recover_shared_sigma_gaussian,
    recover_shared_sigma_lognormal,
)
from .reduce import reduce_atoms, reduce_mixture_components

__all__ = ["main"]


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _emit(data: dict, out: str | None) -> None:
    text = _json_text(data)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_moments(args) -> int:
    basis = MonomialBasis.from_json(_load_json(args.basis))
    model = model_from_json(_load_json(args.model))
    if isinstance(model, AtomicMeasure):
        s = dirac_moments(basis, model)
    else:
        s = mixture_moments(basis, model)
    _emit(s.to_json(), args.out)
    return 0


def _cmd_rank(args) -> int:
    basis = MonomialBasis.from_json(_load_json(args.basis))
    if args.kind == "dirac":
        result = min_full_rank_atoms(basis, max_k=args.max_k, trials=args.trials, seed=args.seed)
    else:
        result = min_full_rank_components(
            basis, args.kind, max_k=args.max_k, trials=args.trials, seed=args.seed
        )
    _emit(result.to_json(), args.out)
    return 0


def _cmd_reduce(args) -> int:
    basis = MonomialBasis.from_json(_load_json(args.basis))
    model = model_from_json(_load_json(args.model))
    if isinstance(model, AtomicMeasure):
        before = dirac_moments(basis, model)
        reduced = reduce_atoms(basis, model)
        after = dirac_moments(basis, reduced)
    else:
        before = mixture_moments(basis, model)
        reduced = reduce_mixture_components(basis, model.kind, model)
        after = mixture_moments(basis, reduced)
    drift = float(max(abs(a - b) for a, b in zip(after.values, before.values)))
    _emit(
        {
            "model": reduced.to_json(),
            "preservation": {
                "components_before": model.k,
                "components_after": reduced.k,
                "max_abs_moment_drift": drift,
            },
        },
        args.out,
    )
    return 0


def _cmd_classify(args) -> int:
    s = MomentVector.from_json(_load_json(args.moments))
    _emit(hankel_classify(s).to_json(), args.out)
    return 0


def _cmd_prescribe(args) -> int:
    s = MomentVector.from_json(_load_json(args.moments))
    mixture = represent_with_prescribed_component(
        s.basis, args.kind, s, args.x0, args.sigma0
    )
    _emit(mixture.to_json(), args.out)
    return 0


def _cmd_recover(args) -> int:
    s = MomentVector.from_json(_load_json(args.moments))
    if args.engine == "shared-sigma":
        if args.kind == "lognormal":
            report = recover_shared_sigma_lognormal(s, k=args.k)
        else:
            report = recover_shared_sigma_gaussian(s, k=args.k)
    elif args.engine == "homotopy":
        if args.kind != "gaussian":
            raise MixcaraError("the homotopy engine recovers Gaussian mixtures only")
        if args.k is None:
            raise MixcaraError("the homotopy engine needs --k")
        report = homotopy_gap_recovery(s.basis, s, k=args.k, seed=args.seed)
    elif args.engine == "lm":
        if args.k is None:
            raise MixcaraError("the lm engine needs --k")
        report = lm_fit(
            s.basis, args.kind, s, k=args.k,
            free_sigma_per_component=not args.shared_sigma, seed=args.seed,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise MixcaraError(f"unknown engine {args.engine}")
    _emit(report.to_json(), args.out)
    return 0 if report.success else 2


def _cmd_verify_bounds(args) -> int:
    config = ExperimentConfig.from_json(_load_json(args.config))
    overrides = {"trials": args.trials, "seed": args.seed, "out_dir": args.out}
    config = dataclasses.replace(
        config, **{name: value for name, value in overrides.items() if value is not None}
    )
    report = run_experiment(config)
    summary = {
        "experiment": report.experiment,
        "bound": report.bound,
        "aggregate": report.aggregate,
        "exit_status": report.exit_status,
    }
    _emit(summary, None)
    return report.exit_status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixcara",
        description="Truncated moments of Gaussian/log-normal mixtures: forward maps, "
        "reduction, cone geometry, recovery, and bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="forward moments of a model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--basis", required=True, help="basis JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("rank", help="estimate the smallest full-rank component count")
    p.add_argument("--basis", required=True)
    p.add_argument("--kind", choices=("dirac", "gaussian", "lognormal"), default="dirac")
    p.add_argument("--max-k", dest="max_k", type=int, default=8)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("reduce", help="reduce a model to at most m components")
    p.add_argument("--basis", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("classify", help="interior/boundary/exterior cone classification")
    p.add_argument("--moments", required=True, help="moment vector JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("prescribe", help="representation containing a prescribed component")
    p.add_argument("--moments", required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--sigma0", type=float, required=True)
    p.add_argument("--kind", choices=("gaussian", "lognormal"), default="gaussian")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_prescribe)

    p = sub.add_parser("recover", help="recover a mixture from a moment vector")
    p.add_argument("--moments", required=True)
    p.add_argument("--engine", choices=("shared-sigma", "homotopy", "lm"), default="shared-sigma")
    p.add_argument("--kind", choices=("gaussian", "lognormal"), default="gaussian")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shared-sigma", action="store_true", help="lm engine: one shared scale")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("verify-bounds", help="run a bound-verification experiment")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="report output directory")
    p.set_defaults(func=_cmd_verify_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MixcaraError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
