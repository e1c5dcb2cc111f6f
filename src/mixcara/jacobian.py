"""Jacobians of the moment maps, numeric ranks, and rank-threshold estimates.

The k-atom Dirac moment map has one weight and n position coordinates per
atom; its Jacobian is assembled atom by atom as ``[s(x_i), c_i * ds(x_i)]``.
The mixture map adds a scale coordinate per component.  The smallest k at
which these Jacobians reach full row rank is estimated by sampling random
parameters and thresholding singular values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import MonomialBasis, eval_jacobian, eval_point
from .moments import component_moments

__all__ = [
    "RankReport",
    "RankSearchResult",
    "atomic_jacobian",
    "mixture_jacobian",
    "numeric_rank",
    "min_full_rank_atoms",
    "min_full_rank_components",
]

# per-component parameter counts differ between the two advertised lower
# bounds; ranks are always computed directly, the note just surfaces it
_DENOMINATOR_NOTE = (
    "lower bound shown uses ceil(m / (n1 + n2)); each component carries "
    "n1 + n2 + 1 free parameters (weight, position, scale), which would give "
    "ceil(m / (n1 + n2 + 1)). Ranks are computed directly from the Jacobian "
    "and assume neither denominator."
)


@dataclass(frozen=True)
class RankReport:
    """Singular-value based rank of an assembled Jacobian.

    ``full_rank`` means rank equal to the number of rows (the moment count),
    which is the surjectivity notion the rank thresholds are defined with.
    """

    rows: int
    cols: int
    singular_values: tuple[float, ...]
    numeric_rank: int
    tolerance: float
    full_rank: bool
    k: int | None = None

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "rows": self.rows,
            "cols": self.cols,
            "singular_values": list(self.singular_values),
            "numeric_rank": self.numeric_rank,
            "tolerance": self.tolerance,
            "full_rank": self.full_rank,
        }


def atomic_jacobian(basis: MonomialBasis, weights, points) -> np.ndarray:
    """Jacobian of the k-atom Dirac moment map, m rows by k*(n+1) columns.

    Column blocks per atom: the moment vector of the atom, then the weighted
    partial derivatives with respect to each position coordinate.
    """
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        p = p.reshape(-1, 1)
    k = w.shape[0]
    if k < 1:
        raise ValueError("need at least one atom")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    if p.shape != (k, basis.n):
        raise ValueError(f"points have shape {p.shape}, expected ({k}, {basis.n})")
    n = basis.n
    out = np.zeros((basis.m, k * (n + 1)))
    for i in range(k):
        out[:, i * (n + 1)] = eval_point(basis, p[i])
        out[:, i * (n + 1) + 1 : (i + 1) * (n + 1)] = w[i] * eval_jacobian(basis, p[i])
    return out


def mixture_jacobian(basis: MonomialBasis, kind: str, weights, means, sigmas) -> np.ndarray:
    """Jacobian of the k-component mixture moment map, m by k*(n+2).

    Column blocks per component: the component moment vector, the weighted
    derivatives in each location coordinate, then the weighted derivative in
    the scale.  Values and derivatives of both kinds come from the moment
    kernel ``component_moments`` (the recurrence for Gaussians, the closed
    form for log-normals).
    """
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    sg = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if w.shape[0] < 1:
        raise ValueError("need at least one component")
    if np.any(sg <= 0):
        raise ValueError("sigmas must be positive")
    B, dmean, dsigma = component_moments(basis, kind, means, sg, derivatives=True)
    blocks = np.concatenate(
        [B[:, None, :], w[:, None, None] * dmean, (w[:, None] * dsigma)[:, None, :]], axis=1
    )
    return blocks.reshape(-1, basis.m).T


def numeric_rank(matrix, rel_tol: float = 1e-9, *, k: int | None = None) -> RankReport:
    """Rank by counting singular values above ``rel_tol`` times the largest."""
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("matrix must be nonempty and two-dimensional")
    sv = np.linalg.svd(A, compute_uv=False)
    cutoff = rel_tol * sv[0] if sv[0] > 0 else 0.0
    rank = int(np.sum(sv > cutoff)) if sv[0] > 0 else 0
    return RankReport(
        rows=A.shape[0],
        cols=A.shape[1],
        singular_values=tuple(float(s) for s in sv),
        numeric_rank=rank,
        tolerance=rel_tol,
        full_rank=rank == A.shape[0],
        k=k,
    )


@dataclass(frozen=True)
class RankSearchResult:
    """Outcome of sampling for the smallest full-rank component count.

    ``value`` is None when no k up to ``max_k`` reached full rank; that case
    is reported, not raised.  ``frequencies`` maps each k to the fraction of
    random draws at which the Jacobian had full row rank.
    """

    value: int | None
    frequencies: dict[int, float] = field(default_factory=dict)
    trials: int = 0
    max_k: int = 0
    lower_bound: int = 0
    tolerance: float = 1e-9
    warning: str | None = None
    note: str | None = None

    @property
    def found(self) -> bool:
        return self.value is not None

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "frequencies": {str(k): v for k, v in sorted(self.frequencies.items())},
            "trials": self.trials,
            "max_k": self.max_k,
            "lower_bound": self.lower_bound,
            "tolerance": self.tolerance,
            "warning": self.warning,
            "note": self.note,
        }


def _search(sample_matrix, max_k: int, trials: int, rel_tol: float, lower_bound: int,
            note: str | None) -> RankSearchResult:
    freqs: dict[int, float] = {}
    for k in range(1, max_k + 1):
        hits = 0
        for t in range(trials):
            if numeric_rank(sample_matrix(k, t), rel_tol).full_rank:
                hits += 1
        freqs[k] = hits / trials
    value = next((k for k in range(1, max_k + 1) if freqs[k] > 0), None)
    warning = None
    if value is None:
        warning = f"not found <= {max_k}"
    elif 0 < freqs[value] < 1:
        warning = (
            f"full rank at k={value} seen in only {freqs[value]:.0%} of draws; "
            "likely conditioning, not a different threshold"
        )
    return RankSearchResult(
        value=value,
        frequencies=freqs,
        trials=trials,
        max_k=max_k,
        lower_bound=lower_bound,
        tolerance=rel_tol,
        warning=warning,
        note=note,
    )


def min_full_rank_atoms(
    basis: MonomialBasis,
    max_k: int,
    trials: int = 50,
    seed: int = 0,
    rel_tol: float = 1e-9,
    weight_range: tuple[float, float] = (0.5, 2.0),
    point_range: tuple[float, float] = (-1.0, 1.0),
) -> RankSearchResult:
    """Smallest atom count whose Dirac-map Jacobian reaches full rank.

    Generic parameters attain the generic rank almost everywhere, so the
    per-k frequency is expected to sit at 0 or 1; anything in between is
    flagged as a conditioning warning.
    """
    lower = math.ceil(basis.m / (basis.n + 1))
    if max_k < lower:
        raise ValueError(f"max_k={max_k} is below the lower bound {lower}")

    def sample(k: int, trial: int) -> np.ndarray:
        rng = np.random.default_rng((seed, k, trial))
        w = rng.uniform(*weight_range, size=k)
        p = rng.uniform(*point_range, size=(k, basis.n))
        return atomic_jacobian(basis, w, p)

    return _search(sample, max_k, trials, rel_tol, lower, note=None)


def min_full_rank_components(
    basis: MonomialBasis,
    kind: str,
    max_k: int,
    trials: int = 50,
    seed: int = 0,
    rel_tol: float = 1e-9,
    weight_range: tuple[float, float] = (0.5, 2.0),
    mean_range: tuple[float, float] | None = None,
    sigma_range: tuple[float, float] = (0.1, 1.0),
) -> RankSearchResult:
    """Smallest mixture component count whose Jacobian reaches full rank."""
    if kind not in ("gaussian", "lognormal"):
        raise ValueError(f"unknown kind {kind!r}")
    if mean_range is None:
        mean_range = (0.5, 2.0) if kind == "lognormal" else (-1.0, 1.0)
    n1, n2 = basis.n, 1
    lower = math.ceil(basis.m / (n1 + n2))

    def sample(k: int, trial: int) -> np.ndarray:
        rng = np.random.default_rng((seed, k, trial))
        w = rng.uniform(*weight_range, size=k)
        mu = rng.uniform(*mean_range, size=(k, basis.n))
        sg = rng.uniform(*sigma_range, size=k)
        return mixture_jacobian(basis, kind, w, mu, sg)

    return _search(sample, max_k, trials, rel_tol, lower, note=_DENOMINATOR_NOTE)
