"""Forward moment maps for Dirac measures and Gaussian/log-normal mixtures.

Every mixture moment, and every derivative of one, is evaluated by
``component_moments``.  Integrating a monomial ``x^i`` against a Gaussian
centred at ``x`` with scale ``sigma`` gives the polynomial

    p_0 = 1,   p_1 = x,   p_i = x * p_{i-1} + (i - 1) * sigma**2 * p_{i-2},

which the kernel runs numerically for all components at once, one
coordinate at a time, and multiplies across coordinates (isotropic scales
factor).  Its derivatives follow from the same table through the
heat-equation identities ``d/dx_j b_a = a_j b_{a-e_j}`` and
``d/dsigma b_a = sigma * sum_j a_j (a_j - 1) b_{a-2e_j}``.  Log-normal
moments come from the closed form ``xi**i * exp(i**2 * sigma**2 / 2)``,
computed in log space.  Both kinds report overflow instead of returning
``inf``.

``gaussian_smoothed_basis`` builds the same polynomials as exact integer
coefficient tables; those tables are an output in their own right and are
not used for evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .basis import MonomialBasis, eval_point
from .errors import MomentOverflowError, UnsupportedBasisError
from .measures import AtomicMeasure, MixtureMeasure

__all__ = [
    "MomentVector",
    "SmoothedBasis",
    "gaussian_smoothed_basis",
    "lognormal_moment",
    "dirac_moments",
    "mixture_moments",
    "component_moment_vector",
    "component_moments",
    "transfer_matrix_gaussian",
]

# A smoothed polynomial is stored as {(beta, sigma_power): integer coefficient}
# where beta is the monomial multi-index in the location variables.
SmoothedPoly = dict[tuple[tuple[int, ...], int], int]

_MAX_EXP_ARG = math.log(np.finfo(float).max)  # ~709.78


@dataclass(frozen=True, eq=False)
class MomentVector:
    """A point of the moment cone, tagged with the basis it lives over."""

    values: np.ndarray
    basis: MonomialBasis
    kind_tag: str | None = None

    def __post_init__(self) -> None:
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.shape != (self.basis.m,):
            raise ValueError(f"expected {self.basis.m} moment values, got shape {vals.shape}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def with_values(self, values, kind_tag: str | None = None) -> "MomentVector":
        return MomentVector(values=np.asarray(values, dtype=float), basis=self.basis, kind_tag=kind_tag)

    def to_json(self) -> dict:
        data = {"basis": self.basis.to_json(), "values": [float(v) for v in self.values]}
        if self.kind_tag is not None:
            data["kind_tag"] = self.kind_tag
        return data

    @classmethod
    def from_json(cls, data: dict) -> "MomentVector":
        return cls(
            values=np.array(data["values"], dtype=float),
            basis=MonomialBasis.from_json(data["basis"]),
            kind_tag=data.get("kind_tag"),
        )


def _univariate_tables(max_exp: int) -> list[dict[tuple[int, int], int]]:
    """Integer tables of the smoothed monomials in one variable.

    Entry ``i`` maps (x_power, sigma_power) to the coefficient in the
    polynomial for exponent ``i``; only even sigma powers occur.
    """
    tables: list[dict[tuple[int, int], int]] = [{(0, 0): 1}]
    if max_exp >= 1:
        tables.append({(1, 0): 1})
    for i in range(2, max_exp + 1):
        table: dict[tuple[int, int], int] = {}
        for (xp, sp), c in tables[i - 1].items():
            key = (xp + 1, sp)
            table[key] = table.get(key, 0) + c
        for (xp, sp), c in tables[i - 2].items():
            key = (xp, sp + 2)
            table[key] = table.get(key, 0) + (i - 1) * c
        tables.append(table)
    return tables


@dataclass(frozen=True, eq=False)
class SmoothedBasis:
    """Exact coefficient tables of the Gaussian-smoothed basis monomials.

    ``polynomials[i]`` is the table for the i-th basis exponent: a map from
    ``(beta, sigma_power)`` to an integer coefficient, with leading term
    ``x^alpha`` (coefficient 1) and only even sigma powers.  Setting
    ``sigma = 0`` recovers the plain monomial.  The tables are an output;
    numeric evaluation goes through ``component_moments``.
    """

    basis: MonomialBasis
    polynomials: tuple[SmoothedPoly, ...]

    def eval_components(self, xi, sigma: float) -> np.ndarray:
        """Vector of smoothed monomials at location ``xi`` and scale ``sigma``."""
        return component_moment_vector(self.basis, "gaussian", xi, sigma)


def gaussian_smoothed_basis(basis: MonomialBasis) -> SmoothedBasis:
    """Build the exact smoothed-polynomial tables for every basis exponent.

    Multivariate exponents factor coordinate-wise because the scale is
    isotropic, so each table is a product of univariate tables.
    """
    max_exp = int(basis.exponent_array.max()) if basis.m else 0
    tables = _univariate_tables(max_exp)
    polys = []
    for alpha in basis.exponents:
        acc: SmoothedPoly = {((), 0): 1}
        for a_j in alpha:
            nxt: SmoothedPoly = {}
            for (beta, sp), c in acc.items():
                for (xp, sp2), c2 in tables[a_j].items():
                    key = (beta + (xp,), sp + sp2)
                    nxt[key] = nxt.get(key, 0) + c * c2
            acc = nxt
        polys.append(acc)
    return SmoothedBasis(basis=basis, polynomials=tuple(polys))


def lognormal_moment(i: int, xi: float, sigma: float) -> float:
    """Raw moment of order ``i`` of a log-normal component.

    Evaluated in log space; exponents in the tens of thousands overflow the
    float range and raise instead of silently returning ``inf``.
    """
    if i < 0 or int(i) != i:
        raise ValueError(f"moment order must be a nonnegative integer, got {i!r}")
    if xi <= 0 or sigma <= 0:
        raise ValueError(f"need xi > 0 and sigma > 0, got xi={xi}, sigma={sigma}")
    if i == 0:
        return 1.0
    log_value = i * math.log(xi) + 0.5 * i * i * sigma * sigma
    if log_value > _MAX_EXP_ARG:
        raise MomentOverflowError(
            f"moment of order {i} at xi={xi}, sigma={sigma} exceeds the float range"
        )
    return math.exp(log_value)


def dirac_moments(basis: MonomialBasis, mu: AtomicMeasure) -> MomentVector:
    """Moment vector of a finitely atomic measure; empty measures give zero."""
    if mu.k and mu.n != basis.n:
        raise ValueError(f"measure has dimension {mu.n}, basis expects {basis.n}")
    values = np.zeros(basis.m)
    for c, x in zip(mu.weights, mu.points):
        values += c * eval_point(basis, x)
    return MomentVector(values=values, basis=basis, kind_tag="dirac")


def component_moments(basis: MonomialBasis, kind: str, means, sigmas, derivatives: bool = False):
    """Moment vectors of k unit-mass components at once, one row each.

    ``means`` has shape (k, n) (or (k,) when n == 1) and ``sigmas`` shape
    (k,); Gaussian scales may be 0, which gives Dirac moments.  Returns B of
    shape (k, m), or with ``derivatives`` the triple ``(B, dB/dmean,
    dB/dsigma)`` with shapes (k, n, m) and (k, m).
    """
    x = np.asarray(means, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    s = np.asarray(sigmas, dtype=float)
    if x.shape != (s.shape[0], basis.n):
        raise ValueError(
            f"means have shape {x.shape} and sigmas {s.shape}; expected (k, {basis.n}) and (k,)"
        )
    E = basis.exponent_array
    if kind == "gaussian":
        out = _gaussian_components(E, x, s, derivatives)
    elif kind == "lognormal":
        out = _lognormal_components(E, x, s, derivatives)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if not all(np.isfinite(a).all() for a in out):
        raise MomentOverflowError(
            f"{kind} moments up to degree {basis.max_degree} exceed the float range"
        )
    return out if derivatives else out[0]


def _gaussian_components(E: np.ndarray, x: np.ndarray, s: np.ndarray, derivatives: bool):
    k, n = x.shape
    top = int(E.max())
    # P[j, e] holds p_e at coordinate j of every component
    P = np.empty((n, top + 1, k))
    xt = x.T
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.arange(-1.0, top)[:, None] * (s * s)  # c[e] = (e - 1) sigma^2
        P[:, 0] = 1.0
        if top:
            P[:, 1] = xt
        for e in range(2, top + 1):
            P[:, e] = xt * P[:, e - 1] + c[e] * P[:, e - 2]
        factors = [P[j].take(E[:, j], axis=0) for j in range(n)]  # each (m, k)
        B = reduce(np.multiply, factors)
        if not derivatives:
            return (B.T,)
        dmean = np.empty((k, n, E.shape[0]))
        dsigma = 0.0
        for j in range(n):
            a = E[:, j, None]
            rest = reduce(np.multiply, factors[:j] + factors[j + 1 :], 1.0)
            dmean[:, j] = (a * P[j].take(np.maximum(a[:, 0] - 1, 0), axis=0) * rest).T
            dsigma = dsigma + a * (a - 1) * P[j].take(np.maximum(a[:, 0] - 2, 0), axis=0) * rest
        return B.T, dmean, s[:, None] * dsigma.T


def _lognormal_components(E: np.ndarray, x: np.ndarray, s: np.ndarray, derivatives: bool):
    if E.shape[1] != 1:
        raise UnsupportedBasisError("log-normal moments are univariate")
    if not (np.all(x > 0) and np.all(s > 0)):
        raise ValueError("log-normal components need xi > 0 and sigma > 0")
    e = E[:, 0].astype(float)
    sg = s[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        B = np.exp(e * np.log(x) + 0.5 * e * e * sg * sg)
        if not derivatives:
            return (B,)
        return B, (e / x * B)[:, None, :], e * e * sg * B


def component_moment_vector(basis: MonomialBasis, kind: str, xi, sigma: float) -> np.ndarray:
    """Moment vector of a single unit-mass component of the given kind."""
    return component_moments(basis, kind, np.reshape(xi, (1, -1)), [sigma])[0]


def mixture_moments(basis: MonomialBasis, mu: MixtureMeasure) -> MomentVector:
    """Moment vector of a finite mixture."""
    if mu.kind == "lognormal" and basis.n != 1:
        raise UnsupportedBasisError("log-normal mixtures need a univariate basis")
    if not mu.k:
        return MomentVector(values=np.zeros(basis.m), basis=basis, kind_tag=mu.kind)
    if mu.n != basis.n:
        raise ValueError(f"mixture has dimension {mu.n}, basis expects {basis.n}")
    values = mu.weights @ component_moments(basis, mu.kind, mu.means, mu.sigmas)
    return MomentVector(values=values, basis=basis, kind_tag=mu.kind)


def _double_factorial(j: int) -> int:
    return math.prod(range(j, 0, -2))


def transfer_matrix_gaussian(basis: MonomialBasis, sigma: float) -> np.ndarray:
    """Matrix sending full-degree Dirac moments to shared-scale Gaussian moments.

    Row ``i`` holds the coefficients of the smoothed polynomial for the i-th
    basis exponent ``a`` in the monomial basis ``{1, x, ..., x^max_degree}``:
    ``C(a, j) (a-j-1)!! sigma^(a-j)`` in column ``j`` when ``a - j`` is even.
    For a gap-free univariate basis the matrix is square, unit
    lower-triangular and therefore invertible for every ``sigma``.
    """
    if basis.n != 1:
        raise UnsupportedBasisError("the transfer matrix is defined for univariate bases")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    M = np.zeros((basis.m, basis.max_degree + 1))
    for row, a in enumerate(basis.univariate_degrees()):
        for j in range(a % 2, a + 1, 2):
            M[row, j] = math.comb(a, j) * _double_factorial(a - j - 1) * sigma ** (a - j)
    return M
