"""Finitely atomic measures and finite Gaussian/log-normal mixtures.

Both types are immutable value objects.  A mixture component is a triple
``(c, xi, sigma)`` with positive weight ``c``, location ``xi`` and a scalar
scale ``sigma > 0`` (isotropic ``sigma * id`` in several variables).
Log-normal mixtures are univariate with strictly positive locations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenerationError

__all__ = [
    "AtomicMeasure",
    "MixtureMeasure",
    "sample_random_mixture",
    "model_from_json",
]

KINDS = ("gaussian", "lognormal")
# sample_random_mixture: location draws allowed before giving up on a
# separation constraint
_MAX_PLACEMENT_TRIES = 1000


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False, slots=True)
class AtomicMeasure:
    """Positive combination of Dirac points: weights ``c_i > 0`` at ``x_i``."""

    weights: np.ndarray
    points: np.ndarray

    def __post_init__(self) -> None:
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        p = np.asarray(self.points, dtype=float)
        if p.ndim == 1:
            p = p.reshape(-1, 1)
        if p.ndim != 2:
            raise ValueError("points must be a k-by-n array")
        if w.shape[0] != p.shape[0]:
            raise ValueError(f"{w.shape[0]} weights but {p.shape[0]} points")
        if w.size and (not np.all(np.isfinite(w)) or np.any(w <= 0)):
            raise ValueError("weights must be finite and strictly positive")
        if p.size and not np.all(np.isfinite(p)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "points", _readonly(p))

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    @classmethod
    def empty(cls, n: int = 1) -> "AtomicMeasure":
        return cls(weights=np.zeros(0), points=np.zeros((0, n)))

    def to_json(self) -> dict:
        return {
            "kind": "dirac",
            "components": [
                {"c": float(c), "x": [float(v) for v in x]}
                for c, x in zip(self.weights, self.points)
            ],
        }

    @classmethod
    def from_json(cls, data: dict, n: int = 1) -> "AtomicMeasure":
        try:
            comps = data.get("components", [])
            weights, points = (
                np.array([c[key] for c in comps], dtype=float) for key in ("c", "x")
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(
                f"a Dirac model is an object with a list of components {{'c', 'x'}}, got {data!r}"
            ) from exc
        if not comps:
            return cls.empty(n)
        return cls(weights=weights, points=points)


@dataclass(frozen=True, eq=False, slots=True)
class MixtureMeasure:
    """Finite mixture of Gaussian or log-normal components with scalar scales."""

    kind: str
    weights: np.ndarray
    means: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        mu = np.asarray(self.means, dtype=float)
        if mu.ndim == 1:
            mu = mu.reshape(-1, 1)
        sg = np.atleast_1d(np.asarray(self.sigmas, dtype=float))
        if mu.ndim != 2 or w.shape[0] != mu.shape[0] or w.shape[0] != sg.shape[0]:
            raise ValueError("weights, means and sigmas must have matching leading length")
        if w.size:
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("weights must be finite and strictly positive")
            if not np.all(np.isfinite(sg)) or np.any(sg <= 0):
                raise ValueError("sigmas must be finite and strictly positive")
            if not np.all(np.isfinite(mu)):
                raise ValueError("means must be finite")
        if self.kind == "lognormal":
            if mu.shape[1] != 1:
                raise ValueError("log-normal mixtures are univariate")
            if mu.size and np.any(mu <= 0):
                raise ValueError("log-normal locations must be strictly positive")
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "means", _readonly(mu))
        object.__setattr__(self, "sigmas", _readonly(sg))

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def n(self) -> int:
        return self.means.shape[1]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def components(self):
        """Yield (weight, mean vector, sigma) triples."""
        for c, xi, s in zip(self.weights, self.means, self.sigmas):
            yield float(c), xi, float(s)

    @classmethod
    def empty(cls, kind: str = "gaussian", n: int = 1) -> "MixtureMeasure":
        return cls(kind=kind, weights=np.zeros(0), means=np.zeros((0, n)), sigmas=np.zeros(0))

    def with_component(self, c: float, xi, sigma: float) -> "MixtureMeasure":
        """New mixture with one extra component prepended."""
        return MixtureMeasure(
            kind=self.kind,
            weights=np.concatenate(([c], self.weights)),
            means=np.vstack((np.atleast_1d(xi), self.means)),
            sigmas=np.concatenate(([sigma], self.sigmas)),
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "components": [
                {"c": float(c), "xi": [float(v) for v in xi], "sigma": float(s)}
                for c, xi, s in self.components()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MixtureMeasure":
        try:
            kind, comps = data["kind"], data.get("components", [])
            weights, means, sigmas = (
                np.array([c[key] for c in comps], dtype=float) for key in ("c", "xi", "sigma")
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(
                "a mixture model is an object with 'kind' and a list of components "
                f"{{'c', 'xi', 'sigma'}}, got {data!r}"
            ) from exc
        if not comps:
            return cls.empty(kind=kind)
        return cls(kind=kind, weights=weights, means=means, sigmas=sigmas)


def model_from_json(data: dict):
    """Dispatch a model literal to AtomicMeasure or MixtureMeasure."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "dirac":
        return AtomicMeasure.from_json(data)
    if kind in KINDS:
        return MixtureMeasure.from_json(data)
    raise ValueError(
        f"a model is an object whose 'kind' is one of {('dirac', *KINDS)}, got {data!r}"
    )


def _separated(candidate: np.ndarray, chosen: list[np.ndarray], min_sep: float) -> bool:
    if min_sep <= 0 or not chosen:
        return True
    return bool(np.min(np.linalg.norm(np.asarray(chosen) - candidate, axis=1)) >= min_sep)


def sample_random_mixture(
    kind: str,
    k: int,
    n: int = 1,
    *,
    rng,
    weight_range: tuple[float, float] = (0.5, 2.0),
    mean_range: tuple[float, float] = (-2.0, 2.0),
    sigma_range: tuple[float, float] = (0.1, 1.0),
    min_separation: float = 0.0,
    shared_sigma: bool = False,
) -> MixtureMeasure:
    """Draw a random mixture, deterministic for a given rng state.

    Components are sorted by location so that equal seeds give identical
    output regardless of draw order.  A ``min_separation`` on the locations
    is enforced by rejection, giving up after 1000 location draws.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    if k < 0:
        raise ValueError("component count must be nonnegative")
    if sigma_range[0] <= 0:
        raise ValueError("sigma range must be positive")
    if kind == "lognormal":
        if n != 1:
            raise ValueError("log-normal mixtures are univariate")
        if mean_range[0] <= 0:
            raise ValueError("log-normal location range must be positive")
    if k == 0:
        return MixtureMeasure.empty(kind=kind, n=n)

    means: list[np.ndarray] = []
    tries = 0
    while len(means) < k:
        candidate = rng.uniform(mean_range[0], mean_range[1], size=n)
        if _separated(candidate, means, min_separation):
            means.append(candidate)
        tries += 1
        if tries > _MAX_PLACEMENT_TRIES:
            raise GenerationError(
                f"could not place {k} locations with separation {min_separation} "
                f"in {mean_range} after {_MAX_PLACEMENT_TRIES} tries"
            )
    weights = rng.uniform(weight_range[0], weight_range[1], size=k)
    if shared_sigma:
        sigmas = np.full(k, rng.uniform(sigma_range[0], sigma_range[1]))
    else:
        sigmas = rng.uniform(sigma_range[0], sigma_range[1], size=k)

    order = np.lexsort(np.array(means).T[::-1])
    return MixtureMeasure(
        kind=kind,
        weights=weights[order],
        means=np.array(means)[order],
        sigmas=sigmas[order],
    )

