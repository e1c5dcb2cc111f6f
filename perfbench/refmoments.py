"""Reference moment maps, written without any part of mixcara.

The benchmark generates every input and checks every output with these
functions, so inputs stay bit-identical when mixcara changes and a checked
result never relies on the code under test.

* Gaussian raw moments follow the recurrence
  ``p_0 = 1, p_1 = x, p_i = x p_{i-1} + (i-1) sigma^2 p_{i-2}``
  and factor over coordinates for an isotropic scale.
* Log-normal moments use the closed form ``xi^i exp(i^2 sigma^2 / 2)``.
* Dirac moments are plain monomial powers.
* The exterior test is the smallest eigenvalue of the Hankel matrix
  ``(s_{i+j})`` of a full-degree univariate vector.

Exponents are passed as a sequence of tuples, one per moment, so the result
is in whatever order the caller lists them.
"""
from __future__ import annotations

import numpy as np


def full_degree_exponents(d: int, n: int = 1) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree at most ``d`` in ``n`` variables."""
    if n == 1:
        return [(i,) for i in range(d + 1)]
    out = []
    for first in range(d, -1, -1):
        out.extend((first,) + rest for rest in full_degree_exponents(d - first, n - 1))
    return sorted(out, key=lambda a: (sum(a), tuple(-e for e in a)))


def _gaussian_table(x: np.ndarray, sigma: np.ndarray, dmax: int) -> np.ndarray:
    """Raw moments ``E[(x + sigma Z)^i]`` for i = 0..dmax, one row per component."""
    table = np.empty((x.shape[0], dmax + 1))
    table[:, 0] = 1.0
    if dmax >= 1:
        table[:, 1] = x
    s2 = sigma * sigma
    for i in range(2, dmax + 1):
        table[:, i] = x * table[:, i - 1] + (i - 1) * s2 * table[:, i - 2]
    return table


def _tables(exps, means: np.ndarray, sigmas: np.ndarray) -> list[np.ndarray]:
    dmax = max(max(a) for a in exps)
    return [_gaussian_table(means[:, j], sigmas, dmax) for j in range(means.shape[1])]


def component_columns(kind: str, exps, means, sigmas) -> np.ndarray:
    """Moment vectors of unit-mass components, one column per component.

    ``kind`` is ``"gaussian"``, ``"lognormal"`` or ``"dirac"`` (which ignores
    ``sigmas``).
    """
    means = np.asarray(means, dtype=float).reshape(len(sigmas), -1)
    sigmas = np.asarray(sigmas, dtype=float)
    if kind == "lognormal":
        degs = np.array([a[0] for a in exps], dtype=float)
        logs = degs[:, None] * np.log(means[:, 0])[None, :]
        return np.exp(logs + 0.5 * (degs * degs)[:, None] * (sigmas * sigmas)[None, :])
    if kind == "dirac":
        sigmas = np.zeros_like(sigmas)
    elif kind != "gaussian":
        raise ValueError(f"unknown kind {kind!r}")
    tables = _tables(exps, means, sigmas)
    cols = np.ones((len(exps), means.shape[0]))
    for r, alpha in enumerate(exps):
        for j, e in enumerate(alpha):
            if e:
                cols[r] *= tables[j][:, e]
    return cols


def moments(kind: str, exps, weights, means, sigmas=None) -> np.ndarray:
    """Moment vector of a weighted mixture (or atomic measure for ``dirac``)."""
    weights = np.asarray(weights, dtype=float)
    if sigmas is None:
        sigmas = np.zeros(weights.shape[0])
    if weights.shape[0] == 0:
        return np.zeros(len(exps))
    return component_columns(kind, exps, means, sigmas) @ weights


def gaussian_jacobian(exps, weights, means, sigmas) -> np.ndarray:
    """Jacobian of the isotropic Gaussian mixture map, blocks (c, xi, sigma).

    Uses ``d/dx p_i = i p_{i-1}`` and ``d/dsigma p_i = i (i-1) sigma p_{i-2}``.
    """
    means = np.asarray(means, dtype=float)
    k, n = means.shape
    tables = _tables(exps, means, np.asarray(sigmas, dtype=float))
    out = np.zeros((len(exps), k * (n + 2)))
    for r, alpha in enumerate(exps):
        factors = [tables[j][:, e] for j, e in enumerate(alpha)]
        value = np.prod(factors, axis=0)
        d_sigma = np.zeros(k)
        for j, e in enumerate(alpha):
            others = np.prod([f for l, f in enumerate(factors) if l != j], axis=0) if n > 1 else 1.0
            if e >= 1:
                out[r, np.arange(k) * (n + 2) + 1 + j] = weights * e * tables[j][:, e - 1] * others
            if e >= 2:
                d_sigma += e * (e - 1) * sigmas * tables[j][:, e - 2] * others
        out[r, np.arange(k) * (n + 2)] = value
        out[r, np.arange(k) * (n + 2) + n + 1] = weights * d_sigma
    return out


def dirac_jacobian(exps, weights, points) -> np.ndarray:
    """Jacobian of the atomic moment map, blocks (c, x)."""
    points = np.asarray(points, dtype=float)
    k, n = points.shape
    zero = np.zeros(k)
    full = gaussian_jacobian(exps, np.asarray(weights, dtype=float), points, zero)
    keep = [i * (n + 2) + j for i in range(k) for j in range(n + 1)]
    return full[:, keep]


def full_row_rank(matrix: np.ndarray, rel_tol: float = 1e-9) -> bool:
    sv = np.linalg.svd(matrix, compute_uv=False)
    return bool(sv[0] > 0 and np.sum(sv > rel_tol * sv[0]) == matrix.shape[0])


def relative_residual(achieved, target) -> float:
    """``max|achieved - target| / (1 + max|target|)``."""
    target = np.asarray(target, dtype=float)
    return float(np.max(np.abs(np.asarray(achieved) - target))) / (1.0 + float(np.max(np.abs(target))))


def hankel_margin(values) -> float:
    """Smallest Hankel eigenvalue of a full-degree vector, relative to its size."""
    values = np.asarray(values, dtype=float)
    r = (values.shape[0] - 1) // 2
    H = np.array([[values[i + j] for j in range(r + 1)] for i in range(r + 1)])
    return float(np.linalg.eigvalsh(H)[0]) / (1.0 + float(np.max(np.abs(values))))


def is_exterior(values, margin: float = 1e-6) -> bool:
    return hankel_margin(values) < -margin
