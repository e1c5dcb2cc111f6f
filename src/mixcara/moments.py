"""Forward moment maps for Dirac measures and Gaussian/log-normal mixtures.

Every moment, and every derivative of one, is evaluated by
``component_moments``, the one public evaluator: Dirac moments, and the
plain monomials with their gradients, are its Gaussian case at scale 0.
Integrating a monomial ``x^i`` against a Gaussian centred at ``x`` with
scale ``sigma`` gives the polynomial

    p_0 = 1,   p_1 = x,   p_i = x * p_{i-1} + (i - 1) * sigma**2 * p_{i-2},

which the kernel runs numerically for all components at once, one
coordinate at a time, and multiplies across coordinates (isotropic scales
factor).  What it needs of a basis (the largest exponent, the ``e - 1``
factors and the table rows each value and derivative reads) is built once
per basis and cached, so a call on two or three components costs little
more than the recurrence.  Its derivatives follow from the same table through the
heat-equation identities ``d/dx_j b_a = a_j b_{a-e_j}`` and
``d/dsigma b_a = sigma * sum_j a_j (a_j - 1) b_{a-2e_j}``.  Log-normal
moments come from the closed form ``xi**i * exp(i**2 * sigma**2 / 2)``,
computed in log space.  Both kinds report overflow instead of returning
``inf``.

``gaussian_smoothed_basis`` builds the same polynomials as exact integer
coefficient tables; those tables are an output in their own right and are
not used for evaluation (``SmoothedBasis.eval_components`` returns one row
of the kernel).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .basis import MonomialBasis
from .errors import MomentOverflowError, UnsupportedBasisError
from .measures import AtomicMeasure, MixtureMeasure

__all__ = [
    "MomentVector",
    "SmoothedBasis",
    "gaussian_smoothed_basis",
    "dirac_moments",
    "mixture_moments",
    "component_moments",
    "transfer_matrix_gaussian",
]

# A smoothed polynomial is stored as {(beta, sigma_power): integer coefficient}
# where beta is the monomial multi-index in the location variables.
SmoothedPoly = dict[tuple[tuple[int, ...], int], int]


@dataclass(frozen=True, eq=False)
class MomentVector:
    """A point of the moment cone, tagged with the basis it lives over."""

    values: np.ndarray
    basis: MonomialBasis

    def __post_init__(self) -> None:
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.shape != (self.basis.m,):
            raise ValueError(f"expected {self.basis.m} moment values, got shape {vals.shape}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def with_values(self, values) -> "MomentVector":
        return MomentVector(values=np.asarray(values, dtype=float), basis=self.basis)

    def to_json(self) -> dict:
        return {"basis": self.basis.to_json(), "values": [float(v) for v in self.values]}

    @classmethod
    def from_json(cls, data: dict) -> "MomentVector":
        try:
            values = np.array(data["values"], dtype=float)
            basis = MonomialBasis.from_json(data["basis"])
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"a moment vector is an object with 'values' and 'basis', got {data!r}"
            ) from exc
        return cls(values=values, basis=basis)


def _double_factorial(j: int) -> int:
    return math.prod(range(j, 0, -2))


def _smoothed_terms(a: int) -> tuple[tuple[int, int], ...]:
    """Terms ``(j, C(a, j) (a-j-1)!!)`` of the smoothed monomial ``x^a``: the
    coefficient of ``x^j sigma^(a-j)``, for ``a - j`` even and nonnegative."""
    return tuple(
        (j, math.comb(a, j) * _double_factorial(a - j - 1)) for j in range(a % 2, a + 1, 2)
    )


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
        return component_moments(self.basis, "gaussian", np.reshape(xi, (1, -1)), [sigma])[0]


def gaussian_smoothed_basis(basis: MonomialBasis) -> SmoothedBasis:
    """Build the exact smoothed-polynomial tables for every basis exponent.

    Multivariate exponents factor coordinate-wise because the scale is
    isotropic, so each table is a product of the univariate closed forms
    ``C(a, j) (a-j-1)!!`` that also fill the transfer matrix.
    """
    polys = []
    for alpha in basis.exponents:
        poly: SmoothedPoly = {((), 0): 1}
        for a in alpha:
            poly = {
                (beta + (j,), sp + a - j): c * cj
                for (beta, sp), c in poly.items()
                for j, cj in _smoothed_terms(a)
            }
        polys.append(poly)
    return SmoothedBasis(basis=basis, polynomials=tuple(polys))


def dirac_moments(basis: MonomialBasis, mu: AtomicMeasure) -> MomentVector:
    """Moment vector of a finitely atomic measure; empty measures give zero."""
    if not mu.k:
        return MomentVector(values=np.zeros(basis.m), basis=basis)
    if mu.n != basis.n:
        raise ValueError(f"measure has dimension {mu.n}, basis expects {basis.n}")
    values = mu.weights @ component_moments(basis, "gaussian", mu.points, np.zeros(mu.k))
    return MomentVector(values=values, basis=basis)


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
    plan = _kernel_plan(basis)
    if kind == "gaussian":
        out = _gaussian_components(plan, x, s, derivatives)
    elif kind == "lognormal":
        out = _lognormal_components(plan, x, s, derivatives)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    # count_nonzero costs a fraction of ``.all()`` on arrays this small
    finite = np.count_nonzero(np.isfinite(out[0])) == out[0].size
    if derivatives:
        finite = (finite and np.count_nonzero(np.isfinite(out[1])) == out[1].size
                  and np.count_nonzero(np.isfinite(out[2])) == out[2].size)
    if not finite:
        raise MomentOverflowError(
            f"{kind} moments up to degree {basis.max_degree} exceed the float range"
        )
    return out if derivatives else out[0]


class _KernelPlan(NamedTuple):
    """The per-basis constants of the moment kernel."""

    exponents: np.ndarray  # (m, n) float
    top: int  # largest exponent in any coordinate
    lower: np.ndarray  # (top + 1, 1, 1): e - 1, the sigma**2 factor of p_{e-2} in p_e
    # per coordinate j, with a = exponents[:, j]: the rows of p_a, p_{max(a-1, 0)}
    # and p_{max(a-2, 0)} at coordinate j in the flattened table, and the
    # columns a and a (a - 1)
    coords: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]


@lru_cache(maxsize=64)
def _kernel_plan(basis: MonomialBasis) -> _KernelPlan:
    E = basis.exponent_array
    n = basis.n
    top = int(E.max())
    coords = tuple(
        (a * n + j, np.maximum(a - 1, 0) * n + j, np.maximum(a - 2, 0) * n + j,
         a[:, None].astype(float), (a * (a - 1))[:, None].astype(float))
        for j, a in enumerate(E.T)
    )
    plan = _KernelPlan(E.astype(float), top, np.arange(-1.0, top)[:, None, None], coords)
    for array in (plan.exponents, plan.lower, *(a for c in coords for a in c)):
        array.setflags(write=False)
    return plan


def _gaussian_components(plan: _KernelPlan, x: np.ndarray, s: np.ndarray, derivatives: bool):
    k, n = x.shape
    top = plan.top
    # P[e, j] holds p_e at coordinate j of every component; row e * n + j of table
    table = np.empty(((top + 1) * n, k))
    P = table.reshape(top + 1, n, k)
    xt = x.T
    with np.errstate(over="ignore", invalid="ignore"):
        c = plan.lower * (s * s)  # c[e] = (e - 1) sigma^2
        P[0] = 1.0
        if top:
            P[1] = xt
        for e in range(2, top + 1):
            row = np.multiply(xt, P[e - 1], P[e])
            row += c[e] * P[e - 2]
        factors = [table.take(coord[0], axis=0) for coord in plan.coords]  # each (m, k)
        B = reduce(np.multiply, factors)
        if not derivatives:
            return (B.T,)
        dmean = np.empty((k, n, B.shape[0]))
        dsigma = 0.0
        for j, (_, below1, below2, a, aa1) in enumerate(plan.coords):
            dm = np.multiply(a, table.take(below1, axis=0), out=dmean[:, j].T)
            ds = aa1 * table.take(below2, axis=0)
            if n > 1:  # times the other coordinates' factors
                rest = reduce(np.multiply, factors[:j] + factors[j + 1 :])
                dm *= rest
                ds *= rest
            dsigma = dsigma + ds
        return B.T, dmean, s[:, None] * dsigma.T


def _lognormal_components(plan: _KernelPlan, x: np.ndarray, s: np.ndarray, derivatives: bool):
    if plan.exponents.shape[1] != 1:
        raise UnsupportedBasisError("log-normal moments are univariate")
    if not (np.all(x > 0) and np.all(s > 0)):
        raise ValueError("log-normal components need xi > 0 and sigma > 0")
    e = plan.exponents[:, 0]
    sg = s[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        B = np.exp(e * np.log(x) + 0.5 * e * e * sg * sg)
        if not derivatives:
            return (B,)
        return B, (e / x * B)[:, None, :], e * e * sg * B


def mixture_moments(basis: MonomialBasis, mu: MixtureMeasure) -> MomentVector:
    """Moment vector of a finite mixture."""
    if mu.kind == "lognormal" and basis.n != 1:
        raise UnsupportedBasisError("log-normal mixtures need a univariate basis")
    if not mu.k:
        return MomentVector(values=np.zeros(basis.m), basis=basis)
    if mu.n != basis.n:
        raise ValueError(f"mixture has dimension {mu.n}, basis expects {basis.n}")
    values = mu.weights @ component_moments(basis, mu.kind, mu.means, mu.sigmas)
    return MomentVector(values=values, basis=basis)


def _relative_residual(achieved: np.ndarray, target: np.ndarray) -> float:
    """``max|achieved - target| / (1 + max|target|)``, the residual every
    engine and check judges success by."""
    scale = 1.0 + float(np.max(np.abs(target))) if target.size else 1.0
    return float(np.max(np.abs(achieved - target))) / scale if target.size else 0.0


@lru_cache(maxsize=64)
def _transfer_tables(basis: MonomialBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Coefficients ``C(a, j) (a-j-1)!!`` of the transfer matrix, the same
    coefficients with the inverse's sign ``(-1)^((a-j)/2)``, and sigma powers
    ``a - j`` (coefficient 0 and power 0 where ``a - j`` is odd or negative),
    with the largest power used."""
    degrees = basis.univariate_degrees()
    coef = np.zeros((basis.m, basis.max_degree + 1))
    power = np.zeros(coef.shape, dtype=np.intp)
    for row, a in enumerate(degrees):
        for j, c in _smoothed_terms(a):
            coef[row, j] = c
            power[row, j] = a - j
    signed = np.where(power % 4 == 2, -coef, coef)
    for table in (coef, signed, power):
        table.setflags(write=False)
    return coef, signed, power, int(power.max())


def _transfer_parts(
    basis: MonomialBasis, sigma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The plain and the signed coefficient table of ``basis``, and
    ``sigma^(a-j)`` at every entry of its transfer matrix."""
    if basis.n != 1:
        raise UnsupportedBasisError("the transfer matrix is defined for univariate bases")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    coef, signed, power, top = _transfer_tables(basis)
    # scalar pow per power, not an array pow: numpy's differs in the last bit
    return coef, signed, np.array([sigma**p for p in range(top + 1)])[power]


def transfer_matrix_gaussian(basis: MonomialBasis, sigma: float) -> np.ndarray:
    """Matrix sending full-degree Dirac moments to shared-scale Gaussian moments.

    Row ``i`` holds the coefficients of the smoothed polynomial for the i-th
    basis exponent ``a`` in the monomial basis ``{1, x, ..., x^max_degree}``:
    ``C(a, j) (a-j-1)!! sigma^(a-j)`` in column ``j`` when ``a - j`` is even.
    For a gap-free univariate basis the matrix is square, unit
    lower-triangular and therefore invertible for every ``sigma``.
    """
    coef, _, powers = _transfer_parts(basis, sigma)
    return coef * powers


def _inverse_transfer_matrix(basis: MonomialBasis, sigma: float) -> np.ndarray:
    """The inverse of ``transfer_matrix_gaussian(basis, sigma)`` in closed form,
    for the basis {1, x, ..., x^d}.

    Smoothing twice adds the variances, ``M(s) M(t) = M(sqrt(s^2 + t^2))``,
    and every entry is a polynomial in sigma^2, so ``M(sigma)^-1 = M(i
    sigma)``: the same matrix with the sign ``(-1)^((a-j)/2)`` on the entry of
    sigma power ``a - j``.  One product of the signed coefficient table and
    the sigma powers; negation is exact, so the entries are bit for bit the
    negated entries of the forward matrix where the sign is minus.
    """
    _, signed, powers = _transfer_parts(basis, sigma)
    return signed * powers
