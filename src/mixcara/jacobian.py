"""Jacobians of the moment maps, numeric ranks, and rank-threshold estimates.

The k-atom Dirac moment map has one weight and n position coordinates per
atom; its Jacobian has the column blocks ``[s(x_i), c_i * ds(x_i)]``, taken
from the moment kernel at scale 0.  The mixture map adds a scale coordinate
per component.  The smallest k at which these Jacobians reach full row rank
is estimated by sampling random parameters and thresholding singular values.
A search draws every trial of one count from that trial's own generator,
assembles all of the count's Jacobians with one kernel call into a stack
and takes their singular values with one batched SVD.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import MonomialBasis
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

# rank searches: singular-value cutoff and the uniform sampling ranges of
# weights, atom positions (each coordinate), locations and scales
_SEARCH_REL_TOL = 1e-9
_WEIGHT_RANGE = (0.5, 2.0)
_POINT_RANGE = (-1.0, 1.0)
_MEAN_RANGE = {"gaussian": (-1.0, 1.0), "lognormal": (0.5, 2.0)}
_SIGMA_RANGE = (0.1, 1.0)


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

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "singular_values": list(self.singular_values),
            "numeric_rank": self.numeric_rank,
            "tolerance": self.tolerance,
            "full_rank": self.full_rank,
        }


def _jacobian_stack(basis: MonomialBasis, kind: str, trials: int, weights: np.ndarray,
                    means, sigmas: np.ndarray | None = None) -> np.ndarray:
    """Jacobians of ``trials`` parameter sets at once, shape (trials, m, cols).

    The arrays hold the components of all trials in order, trial-major:
    ``weights`` and ``sigmas`` have trials*k entries and ``means`` is what
    ``component_moments`` takes for trials*k rows.  ``sigmas=None`` means
    atoms, scale 0 and no scale column, so cols is k*(n+1), else k*(n+2).
    """
    scales = np.zeros(weights.shape[0]) if sigmas is None else sigmas
    B, dmean, dsigma = component_moments(basis, kind, means, scales, derivatives=True)
    blocks = [B[:, None, :], weights[:, None, None] * dmean]
    if sigmas is not None:
        blocks.append((weights[:, None] * dsigma)[:, None, :])
    return np.concatenate(blocks, axis=1).reshape(trials, -1, basis.m).transpose(0, 2, 1)


def _checked_components(basis: MonomialBasis, weights, points, what: str):
    """Weights and (k, n) locations of k >= 1 positively weighted components."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        p = p.reshape(-1, 1)
    k = w.shape[0]
    if k < 1:
        raise ValueError(f"need at least one {what}")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    if p.shape != (k, basis.n):
        raise ValueError(f"points have shape {p.shape}, expected ({k}, {basis.n})")
    return w, p


def atomic_jacobian(basis: MonomialBasis, weights, points) -> np.ndarray:
    """Jacobian of the k-atom Dirac moment map, m rows by k*(n+1) columns.

    Column blocks per atom: the moment vector of the atom, then the weighted
    partial derivatives with respect to each position coordinate.
    """
    w, p = _checked_components(basis, weights, points, "atom")
    return _jacobian_stack(basis, "gaussian", 1, w, p)[0]


def mixture_jacobian(basis: MonomialBasis, kind: str, weights, means, sigmas) -> np.ndarray:
    """Jacobian of the k-component mixture moment map, m by k*(n+2).

    Column blocks per component: the component moment vector, the weighted
    derivatives in each location coordinate, then the weighted derivative in
    the scale.  Values and derivatives of both kinds come from the moment
    kernel ``component_moments`` (the recurrence for Gaussians, the closed
    form for log-normals).
    """
    w, p = _checked_components(basis, weights, means, "component")
    sg = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if np.any(sg <= 0):
        raise ValueError("sigmas must be positive")
    return _jacobian_stack(basis, kind, 1, w, p, sg)[0]


def _ranks(sv: np.ndarray, rel_tol: float) -> np.ndarray:
    """Numeric rank of each row of descending singular values ``sv``.

    Counts the values above ``rel_tol`` times the row's largest; a row whose
    largest value is not positive has rank 0.
    """
    top = sv[..., :1]
    return ((sv > rel_tol * top) & (top > 0)).sum(axis=-1)


def numeric_rank(matrix, rel_tol: float = 1e-9) -> RankReport:
    """Rank by counting singular values above ``rel_tol`` times the largest."""
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("matrix must be nonempty and two-dimensional")
    sv = np.linalg.svd(A, compute_uv=False)
    rank = int(_ranks(sv, rel_tol))
    return RankReport(
        rows=A.shape[0],
        cols=A.shape[1],
        singular_values=tuple(sv.tolist()),
        numeric_rank=rank,
        tolerance=rel_tol,
        full_rank=rank == A.shape[0],
    )


@dataclass(frozen=True, slots=True)
class RankSearchResult:
    """Outcome of sampling for the smallest full-rank component count.

    ``value`` is None when no k up to ``max_k`` reached full rank; that case
    is reported, not raised.  ``frequencies`` maps each k to the fraction of
    random draws at which the Jacobian had full row rank.  ``lower_bound``
    is ceil(m / p) for the p parameters of one sampled component, n + 1 for
    atoms and n + 2 for mixture components: below it the Jacobian has fewer
    columns than rows.
    """

    value: int | None
    frequencies: dict[int, float] = field(default_factory=dict)
    trials: int = 0
    max_k: int = 0
    lower_bound: int = 0
    tolerance: float = 1e-9
    warning: str | None = None

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
        }


def _search(basis: MonomialBasis, kind: str | None, max_k: int, trials: int, seed: int,
            lower_bound: int) -> RankSearchResult:
    """Full-rank frequency of each count k = 1..max_k, then the smallest hit.

    ``kind`` None samples atoms, otherwise components of that kind.  Trial t
    of count k draws weights, locations and (components) scales, in that
    order, from ``np.random.default_rng((seed, k, t))``.  Each count makes
    one ``component_moments`` call on the stacked draws of all its trials
    and one batched SVD of their Jacobians.
    """
    if trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    location_range = _POINT_RANGE if kind is None else _MEAN_RANGE[kind]
    freqs: dict[int, float] = {}
    for k in range(1, max_k + 1):
        w = np.empty((trials, k))
        x = np.empty((trials, k, basis.n))
        sg = None if kind is None else np.empty((trials, k))
        for t in range(trials):
            rng = np.random.default_rng((seed, k, t))
            w[t] = rng.uniform(*_WEIGHT_RANGE, size=k)
            x[t] = rng.uniform(*location_range, size=(k, basis.n))
            if sg is not None:
                sg[t] = rng.uniform(*_SIGMA_RANGE, size=k)
        J = _jacobian_stack(basis, kind or "gaussian", trials, w.reshape(-1),
                            x.reshape(-1, basis.n), None if sg is None else sg.reshape(-1))
        ranks = _ranks(np.linalg.svd(J, compute_uv=False), _SEARCH_REL_TOL)
        freqs[k] = int(np.count_nonzero(ranks == basis.m)) / trials
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
        tolerance=_SEARCH_REL_TOL,
        warning=warning,
    )


def min_full_rank_atoms(
    basis: MonomialBasis, max_k: int, trials: int = 50, seed: int = 0
) -> RankSearchResult:
    """Smallest atom count whose Dirac-map Jacobian reaches full rank.

    Weights are drawn from [0.5, 2] and position coordinates from [-1, 1];
    rank counts singular values above 1e-9 times the largest.  Generic
    parameters attain the generic rank almost everywhere, so the per-k
    frequency is expected to sit at 0 or 1; anything in between is flagged
    as a conditioning warning.
    """
    lower = math.ceil(basis.m / (basis.n + 1))
    if max_k < lower:
        raise ValueError(f"max_k={max_k} is below the lower bound {lower}")
    return _search(basis, None, max_k, trials, seed, lower)


def min_full_rank_components(
    basis: MonomialBasis, kind: str, max_k: int, trials: int = 50, seed: int = 0
) -> RankSearchResult:
    """Smallest mixture component count whose Jacobian reaches full rank.

    Weights are drawn from [0.5, 2], location coordinates from [-1, 1]
    (log-normal: [0.5, 2]) and scales from [0.1, 1]; the rank cutoff is the
    one of ``min_full_rank_atoms``.
    """
    if kind not in _MEAN_RANGE:
        raise ValueError(f"unknown kind {kind!r}")
    lower = math.ceil(basis.m / (basis.n + 2))
    return _search(basis, kind, max_k, trials, seed, lower)
