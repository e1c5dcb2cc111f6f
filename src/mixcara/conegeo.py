"""Moment-cone geometry for univariate full-degree bases.

Membership in the cone of a gap-free basis {1, x, ..., x^d} is decided by
positive semidefiniteness of the maximal Hankel matrix (s_{i+j}) that fits
within degree d.  The eigenvalue threshold is a proxy: points within the
tolerance band of the boundary are classified "boundary" rather than
resolved exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import MonomialBasis
from .errors import (
    NotRepresentableError,
    PrescriptionError,
    UnboundedStripError,
    UnsupportedBasisError,
)
from .measures import MixtureMeasure
from .moments import MomentVector, component_moment_vector, mixture_moments

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


@dataclass(frozen=True)
class ConeClassification:
    status: str
    margin: float
    tolerance: float

    def to_json(self) -> dict:
        return {"status": self.status, "margin": self.margin, "tolerance": self.tolerance}


def hankel_classify(s: MomentVector, rel_tol: float = 1e-10) -> ConeClassification:
    """Classify a moment vector against the cone via Hankel eigenvalues.

    margin >= tol everywhere -> interior proxy; any eigenvalue < -tol ->
    exterior; otherwise boundary.  The tolerance scales with the vector.
    """
    basis = s.basis
    if not basis.is_full_degree():
        raise UnsupportedBasisError(
            "hankel classification needs the gap-free univariate basis {1, x, ..., x^d}"
        )
    d = basis.max_degree
    r = d // 2
    vals = s.values
    H = vals[np.add.outer(np.arange(r + 1), np.arange(r + 1))]
    eigs = np.linalg.eigvalsh(H)
    margin = float(eigs[0])
    tol = rel_tol * (1.0 + float(np.max(np.abs(vals))))
    if margin >= tol:
        status = INTERIOR
    elif margin < -tol:
        status = EXTERIOR
    else:
        status = BOUNDARY
    return ConeClassification(status=status, margin=margin, tolerance=tol)


def strip_mass(
    s: MomentVector,
    v: MomentVector,
    oracle: Callable[[MomentVector], ConeClassification] | None = None,
    *,
    abs_tol: float = 1e-10,
    cap_factor: float = 1e6,
) -> tuple[float, MomentVector]:
    """Largest mass c such that s - c*v stays in the cone, by bisection.

    Returns the supremal mass and the stripped vector, which sits on the
    feasible side of the boundary (boundary or interior within tolerance).
    Directions that never leave the cone up to the scaled cap raise.
    """
    if oracle is None:
        oracle = hankel_classify
    if s.basis != v.basis:
        raise ValueError("moment vectors must share a basis")
    if oracle(s).status == EXTERIOR:
        raise NotRepresentableError("cannot strip mass from a vector outside the cone")

    sv, vv = s.values, v.values
    vnorm = float(np.max(np.abs(vv)))
    if vnorm == 0:
        raise ValueError("direction vector is zero")
    cap = cap_factor * (1.0 + float(np.max(np.abs(sv)))) / vnorm

    def feasible(c: float) -> bool:
        return oracle(s.with_values(sv - c * vv)).status != EXTERIOR

    lo = 0.0
    hi = max(abs_tol, (1.0 + float(np.max(np.abs(sv)))) / vnorm * 1e-3)
    while feasible(hi):
        lo = hi
        hi *= 2.0
        if hi > cap:
            raise UnboundedStripError(
                f"direction still feasible at mass {lo:.3e} (cap {cap:.3e})"
            )
    while hi - lo > abs_tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, s.with_values(sv - lo * vv, kind_tag=None)


def represent_with_prescribed_component(
    basis: MonomialBasis,
    kind: str,
    s: MomentVector,
    x0,
    sigma0: float,
    engine: Callable[[MomentVector], "object"] | None = None,
    *,
    rel_tol: float = 1e-8,
    min_eps_factor: float = 1e-12,
) -> MixtureMeasure:
    """Mixture representation of s containing the component (eps, x0, sigma0).

    Interior vectors keep a slack in every direction, so some positive mass
    of the prescribed component can be split off and the remainder recovered
    by the supplied engine.  The mass starts at half the total and halves
    until the remainder is recoverable.
    """
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    if engine is None:
        from . import recover as _recover

        if kind == "gaussian":
            engine = _recover.recover_shared_sigma_gaussian
        elif kind == "lognormal":
            engine = _recover.recover_shared_sigma_lognormal
        else:
            raise ValueError(f"unknown kind {kind!r}")

    if basis.is_full_degree():
        if hankel_classify(s).status != INTERIOR:
            raise NotRepresentableError(
                "prescribing a component needs a strictly interior moment vector"
            )
    else:
        # gap basis: recoverability of s itself serves as the interior certificate
        probe = engine(s)
        if not probe.success:
            raise NotRepresentableError(
                f"no interior certificate for the gap basis: {probe.failure_reason}"
            )

    t0 = component_moment_vector(basis, kind, x0, sigma0)
    mass = float(s.values[0]) if basis.exponents[0] == (0,) * basis.n else 1.0
    eps = mass / 2.0
    scale = 1.0 + float(np.max(np.abs(s.values)))
    last_reason = "no attempt made"
    while eps >= min_eps_factor * mass:
        remainder = s.with_values(s.values - eps * t0)
        report = engine(remainder)
        if report.success and isinstance(report.model, MixtureMeasure):
            combined = report.model.with_component(eps, x0, sigma0)
            achieved = mixture_moments(basis, combined)
            residual = float(np.max(np.abs(achieved.values - s.values))) / scale
            if residual <= rel_tol:
                return combined
            last_reason = f"combined residual {residual:.3e} above {rel_tol:.1e}"
        else:
            last_reason = report.failure_reason or "engine failure"
        eps /= 2.0
    raise PrescriptionError(
        f"no recoverable remainder down to eps={eps:.3e}: {last_reason}"
    )
