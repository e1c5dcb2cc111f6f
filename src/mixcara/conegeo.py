"""Moment-cone geometry for univariate bases of consecutive exponents.

One classifier, ``_classify``, tests consecutive moments against the cone of
measures on a support.  On the real line (Hamburger) the maximal Hankel
matrix (s_{i+j}) that fits within degree d must be positive semidefinite; on
the half-line (0, inf) (Stieltjes) the Hankel matrix of the shifted sequence
(s_{i+j+1}) must be too.  The half-line test also covers a basis
{x^a, ..., x^(a+d)}, whose moments are those of the positive measure
x^a dmu.  ``hankel_classify`` is the public real-line test on
{1, x, ..., x^d}; ``_cone_support`` picks the test that fits a mixture kind
on a basis, and ``represent_with_prescribed_component`` certifies its input
with that test only, refusing a basis that has none.  The eigenvalue
threshold is a proxy: points within the tolerance band of the boundary are
classified "boundary" rather than resolved exactly.  ``_hankel_index`` is
the one cached builder of Hankel indices, also for the Prony solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .basis import MonomialBasis
from .errors import (
    InfeasibleMomentsError,
    NotRepresentableError,
    PrescriptionError,
    UnboundedStripError,
    UnsupportedBasisError,
)
from .measures import MixtureMeasure
from .moments import MomentVector, _relative_residual, component_moments, mixture_moments

__all__ = [
    "INTERIOR",
    "BOUNDARY",
    "EXTERIOR",
    "ConeClassification",
    "hankel_classify",
    "strip_mass",
    "represent_with_prescribed_component",
]

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"

# eigenvalue tolerance of the Hankel tests, relative to 1 + max|s|
_HANKEL_REL_TOL = 1e-10
# the supports ``_classify`` knows, by the name an exterior reason gives them
_SUPPORT_NAME = {"real": "real-line", "positive": "half-line"}
# strip_mass: bisection width, and the cap on the mass (relative to
# (1 + max|s|) / max|v|) beyond which a direction counts as unbounded
_STRIP_ABS_TOL = 1e-10
_STRIP_CAP_FACTOR = 1e6
# prescribed component: smallest mass tried, relative to the total mass
_MIN_EPS_FACTOR = 1e-12


@dataclass(frozen=True)
class ConeClassification:
    status: str
    margin: float
    tolerance: float

    def to_json(self) -> dict:
        return {"status": self.status, "margin": self.margin, "tolerance": self.tolerance}


@cache
def _hankel_index(rows: int, cols: int) -> np.ndarray:
    """Indices i + j of the rows-by-cols Hankel matrix of a sequence,
    read-only because every call shares them."""
    index = np.add.outer(np.arange(rows), np.arange(cols))
    index.setflags(write=False)
    return index


def _classify(values: np.ndarray, support: str) -> tuple[str, float, float]:
    """Status, margin and tolerance of consecutive moments s_0, ..., s_d
    against the cone of measures on ``support``.

    "real": the Hankel matrix (s_{i+j}) of order d//2 + 1 must be positive
    semidefinite.  "positive" (the half-line (0, inf)): so must the one of
    the shifted sequence (s_{i+j+1}), of order (d+1)//2.  The margin is the
    smallest eigenvalue over the blocks, one ``eigvalsh`` each; margin >= tol
    is the interior proxy, margin < -tol exterior, anything between boundary.
    The tolerance is ``1e-10 * (1 + max|s|)``.
    """
    m = len(values)
    order = (m + 1) // 2
    margin = np.linalg.eigvalsh(values[_hankel_index(order, order)])[0]
    if support == "positive" and m > 1:
        margin = min(margin, np.linalg.eigvalsh(values[1:][_hankel_index(m // 2, m // 2)])[0])
    margin = float(margin)
    tol = _HANKEL_REL_TOL * (1.0 + float(np.max(np.abs(values))))
    if margin >= tol:
        return INTERIOR, margin, tol
    if margin < -tol:
        return EXTERIOR, margin, tol
    return BOUNDARY, margin, tol


def _cone_support(basis: MonomialBasis, kind: str) -> str | None:
    """The support whose cone test fits moments of ``kind`` mixtures on
    ``basis``, or None when no test applies.

    Log-normal mixtures live on (0, inf), so any univariate basis of
    consecutive exponents takes the half-line test; Gaussian mixtures take
    the real-line test on {1, x, ..., x^d} only.
    """
    exps = basis.exponents
    # univariate exponents are distinct and sorted, so these span a run
    if basis.n != 1 or exps[-1][0] - exps[0][0] != len(exps) - 1:
        return None
    if kind == "lognormal":
        return "positive"
    if kind == "gaussian" and exps[0][0] == 0:
        return "real"
    return None


def hankel_classify(s: MomentVector) -> ConeClassification:
    """Classify a moment vector against the cone via Hankel eigenvalues.

    The real-line test of ``_classify`` on the basis {1, x, ..., x^d}:
    margin >= tol everywhere -> interior proxy; any eigenvalue < -tol ->
    exterior; otherwise boundary.  The tolerance is ``1e-10 * (1 + max|s|)``.
    """
    if not s.basis.is_full_degree():
        raise UnsupportedBasisError(
            "hankel classification needs the gap-free univariate basis {1, x, ..., x^d}"
        )
    status, margin, tol = _classify(s.values, "real")
    return ConeClassification(status=status, margin=margin, tolerance=tol)


def strip_mass(s: MomentVector, v: MomentVector) -> tuple[float, MomentVector]:
    """Largest mass c such that s - c*v stays in the cone, by bisection.

    Returns the supremal mass, to within 1e-10, and the stripped vector,
    which sits on the feasible side of the boundary (boundary or interior
    within tolerance).  Directions still feasible past the cap
    ``1e6 * (1 + max|s|) / max|v|`` raise.
    """
    if s.basis != v.basis:
        raise ValueError("moment vectors must share a basis")
    if hankel_classify(s).status == EXTERIOR:
        raise NotRepresentableError("cannot strip mass from a vector outside the cone")

    sv, vv = s.values, v.values
    vnorm = float(np.max(np.abs(vv)))
    if vnorm == 0:
        raise ValueError("direction vector is zero")
    cap = _STRIP_CAP_FACTOR * (1.0 + float(np.max(np.abs(sv)))) / vnorm

    def feasible(c: float) -> bool:
        return _classify(sv - c * vv, "real")[0] != EXTERIOR

    lo = 0.0
    hi = max(_STRIP_ABS_TOL, (1.0 + float(np.max(np.abs(sv)))) / vnorm * 1e-3)
    while feasible(hi):
        lo = hi
        hi *= 2.0
        if hi > cap:
            raise UnboundedStripError(
                f"direction still feasible at mass {lo:.3e} (cap {cap:.3e})"
            )
    while hi - lo > _STRIP_ABS_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, s.with_values(sv - lo * vv)


def represent_with_prescribed_component(
    basis: MonomialBasis,
    kind: str,
    s: MomentVector,
    x0,
    sigma0: float,
    *,
    rel_tol: float = 1e-8,
) -> MixtureMeasure:
    """Mixture representation of s containing the component (eps, x0, sigma0).

    Interior vectors keep a slack in every direction, so some positive mass
    of the prescribed component can be split off and the remainder recovered
    by the shared-scale engine of ``kind``.  The cone test of ``kind`` (see
    ``_cone_support``) must certify s as interior: the real-line Hankel test
    for Gaussian vectors on {1, x, ..., x^d}, the half-line test for
    log-normal vectors on any basis of consecutive exponents.  A basis with
    no test for ``kind`` raises ``UnsupportedBasisError`` before any engine
    call.  The mass starts at half the total and halves, down to ``1e-12``
    of the total, until the remainder is recoverable.  A remainder that the
    cone test certifies as exterior is skipped without an engine call,
    because no mixture has its moments.  A remainder the engine refuses
    outright (a log-normal remainder with a nonpositive moment inside the
    tolerance band) counts as not recoverable.
    """
    if s.basis != basis:
        raise ValueError("moment vector basis does not match")
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    from . import recover as _recover

    if kind == "gaussian":
        engine = _recover.recover_shared_sigma_gaussian
    elif kind == "lognormal":
        engine = _recover.recover_shared_sigma_lognormal
    else:
        raise ValueError(f"unknown kind {kind!r}")

    support = _cone_support(basis, kind)
    if support is None:
        raise UnsupportedBasisError(f"no cone test certifies {kind} moments on this basis")
    status, margin, tol = _classify(s.values, support)
    if status != INTERIOR:
        raise NotRepresentableError(
            "prescribing a component needs a strictly interior moment vector: "
            f"{_SUPPORT_NAME[support]} Hankel margin {margin:.3e} below {tol:.3e}"
        )

    t0 = component_moments(basis, kind, np.reshape(x0, (1, -1)), [sigma0])[0]
    mass = float(s.values[0]) if basis.exponents[0] == (0,) * basis.n else 1.0
    eps = mass
    last_reason = "no attempt made"
    while (eps := eps / 2.0) >= _MIN_EPS_FACTOR * mass:
        remainder = s.values - eps * t0
        if _classify(remainder, support)[0] == EXTERIOR:
            last_reason = "remainder outside the moment cone"
            continue
        try:
            report = engine(s.with_values(remainder))
        except InfeasibleMomentsError as exc:
            last_reason = f"remainder refused: {exc}"
            continue
        if not (report.success and isinstance(report.model, MixtureMeasure)):
            last_reason = report.failure_reason or "engine failure"
            continue
        combined = report.model.with_component(eps, x0, sigma0)
        residual = _relative_residual(mixture_moments(basis, combined).values, s.values)
        if residual <= rel_tol:
            return combined
        last_reason = f"combined residual {residual:.3e} above {rel_tol:.1e}"
    # the loop ends on the first eps below the floor; the last one tried is twice that
    raise PrescriptionError(
        f"no recoverable remainder down to eps={2.0 * eps:.3e}: {last_reason}"
    )
