"""Moment-cone geometry on principal Hankel blocks.

Every principal submatrix of the moment matrix (s_{a+b}) whose entries a
basis holds is positive semidefinite for any measure, and on the positive
orthant so is every one of the localizing matrix (s_{a+b+e}), e a 0/1 vector
(Curto & Fialkow 1991; Lasserre 2001).  ``_cone_blocks`` lists the maximal
ones per basis and mixture kind, and ``_classify``, the one cone test, takes
the smallest eigenvalue over them: on {1, x, ..., x^d} the Hankel matrix
(Hamburger), for log-normals on consecutive exponents also its shift
(Stieltjes).  The eigenvalue threshold is a proxy: points within the
tolerance band of the boundary are classified "boundary" rather than
resolved exactly.  ``_require_hankel_basis`` is the one rule for the bases
where the blocks are the whole Hankel test and a Prony solve reads
consecutive moments.  ``_itp_bracket`` is the one root-bracketing loop, an
ITP search that ends in at most one step more than bisection, also for the
largest-scale step of the shared-scale recovery engines.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .basis import MonomialBasis
from .errors import (
    MomentOverflowError,
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
# the support of each mixture kind, by the name a cone margin's reason gives it
_SUPPORT_NAME = {"gaussian": "real-line", "lognormal": "half-line"}
# strip_mass: final bracket width, and the cap on the mass (relative to
# (1 + max|s|) / max|v|) beyond which a direction counts as unbounded
_STRIP_ABS_TOL = 1e-10
_STRIP_CAP_FACTOR = 1e6
# ITP bracket: truncation factor kappa1 relative to the starting width (the
# truncation exponent kappa2 is 2, and the slack n0 one step)
_ITP_KAPPA1 = 2.0
# prescribed component: smallest mass tried, relative to the total mass
_MIN_EPS_FACTOR = 1e-12


@dataclass(frozen=True)
class ConeClassification:
    status: str
    margin: float
    tolerance: float

    def to_json(self) -> dict:
        return {"status": self.status, "margin": self.margin, "tolerance": self.tolerance}


def _itp_bracket(f, lo: float, hi: float, width: float) -> tuple[float, float]:
    """Shrink [lo, hi] to at most ``width`` around the sign change of ``f``,
    keeping ``lo`` where ``f > 0`` and ``hi`` where ``f <= 0``.

    ITP steps (Oliveira & Takahashi 2020, ACM TOMS 47(1)): each step moves
    the regula falsi point toward the midpoint by ``2 w^2 / w0`` (w the
    bracket width, w0 the starting one), at least half of ``width``, then
    projects it to within the radius about the midpoint that still ends in
    at most one step more than bisection.  A smooth ``f`` takes a few
    steps; none takes more.  ``f`` runs at both ends first.  When an end
    lies on the wrong side, the bracket is what bisection of a monotone
    ``f`` gives, the other end halved toward it, with no further call; a
    bracket already within ``width`` is returned with no call at all.
    """
    if hi - lo <= width:
        return lo, hi
    f_lo, f_hi = f(lo), f(hi)
    if not f_lo > 0:
        while hi - lo > width:
            hi = 0.5 * (lo + hi)
        return lo, hi
    if f_hi > 0:
        while hi - lo > width:
            lo = 0.5 * (lo + hi)
        return lo, hi
    # the step j = 0, 1, ... may end at most top / 2^j wide: the last step
    # allowed, one after bisection's count, ends a few rounding units
    # inside ``width``.  Bisection's midpoints round, which can save it the
    # last halving, so the count takes a width within a unit as reached
    unit = math.ulp(max(abs(lo), abs(hi)))
    top = width - 4.0 * unit
    w = hi - lo
    while w > width + unit:
        w *= 0.5
        top *= 2.0
    kappa1 = _ITP_KAPPA1 / (hi - lo)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        radius = max(top - 0.5 * (hi - lo), 0.0)
        delta = max(kappa1 * (hi - lo) ** 2, 0.5 * width)
        falsi = (hi * f_lo - lo * f_hi) / (f_lo - f_hi)
        toward = math.copysign(1.0, mid - falsi)
        x = falsi + toward * delta if delta <= abs(mid - falsi) else mid
        if not abs(x - mid) <= radius:
            x = mid - toward * radius
        y = f(x)
        if y > 0:
            lo, f_lo = x, y
        else:
            hi, f_hi = x, y
        top *= 0.5
    return lo, hi


def _maximal_cliques(links: list[set[int]]) -> list[list[int]]:
    """The maximal cliques, each sorted, of the graph whose vertex v has the
    neighbours ``links[v]``, in sorted order: Bron & Kerbosch (1973), where a
    clique grows one candidate at a time, a tried candidate moves to the
    excluded set, and only candidates not linked to a pivot start a branch.
    """
    cliques = []

    def grow(clique: list[int], candidates: set[int], excluded: set[int]) -> None:
        if not candidates and not excluded:
            cliques.append(sorted(clique))
            return
        pivot = max(candidates | excluded, key=lambda v: len(links[v] & candidates))
        for v in sorted(candidates - links[pivot]):
            grow(clique + [v], candidates & links[v], excluded & links[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    if links:  # the empty graph has no clique to list
        grow([], set(range(len(links))), set())
    return sorted(cliques)


@cache
def _cone_blocks(basis: MonomialBasis, kind: str) -> tuple[np.ndarray, ...]:
    """Read-only index matrices into the moment vector of the maximal
    principal submatrices of (s_{a+b+e}) that ``basis`` holds: for each
    shift e, the maximal cliques of the graph on the rows a with 2a + e in
    the basis, a and b linked when a + b + e is in it, rows in the basis
    order of 2a + e.  Log-normal mixtures live on the positive orthant, so
    e runs over every 0/1 vector; other kinds take e = 0 alone."""
    position = {alpha: i for i, alpha in enumerate(basis.exponents)}
    exps = basis.exponent_array
    blocks = []
    for e in itertools.product((0, 1) if kind == "lognormal" else (0,), repeat=basis.n):
        rows = (exps - e)[np.all((exps >= e) & ((exps - e) % 2 == 0), axis=1)] // 2
        # entry[i][j]: the position of x^(a_i + a_j + e) in the basis, None if missing
        entry = [[position.get(tuple(alpha)) for alpha in row]
                 for row in (rows[:, None] + rows[None, :] + e).tolist()]
        links = [{j for j, p in enumerate(row) if p is not None and j != i}
                 for i, row in enumerate(entry)]
        for clique in _maximal_cliques(links):
            block = np.array([[entry[i][j] for j in clique] for i in clique])
            block.setflags(write=False)
            blocks.append(block)
    return tuple(blocks)


def _classify(values: np.ndarray, blocks: tuple[np.ndarray, ...]) -> ConeClassification:
    """Status, margin and tolerance of a moment vector against the cone: the
    margin is the smallest eigenvalue over ``blocks`` (infinite with none),
    the tolerance ``1e-10 * (1 + max|s|)``; margin >= tol is the interior
    proxy, margin < -tol exterior, anything between boundary."""
    margin = min((float(np.linalg.eigvalsh(values[b])[0]) for b in blocks), default=math.inf)
    tol = _HANKEL_REL_TOL * (1.0 + float(np.max(np.abs(values))))
    status = INTERIOR if margin >= tol else EXTERIOR if margin < -tol else BOUNDARY
    return ConeClassification(status=status, margin=margin, tolerance=tol)


def _require_hankel_basis(basis: MonomialBasis, kind: str) -> None:
    """Raise ``UnsupportedBasisError`` unless ``basis`` is one the Hankel
    machinery takes for ``kind``: any univariate run of consecutive
    exponents {x^a, ..., x^(a+d)} for log-normal moments, {1, x, ..., x^d}
    for every other kind.  There the blocks of ``_cone_blocks`` are the
    whole Hankel test, and the moments are the consecutive ones a Prony
    solve reads."""
    low = basis.exponents[0][0] if kind == "lognormal" else 0
    if basis.n != 1 or basis.max_degree - low != basis.m - 1:
        need = ("consecutive univariate exponents {x^a, ..., x^(a+d)}" if kind == "lognormal"
                else "the basis {1, x, ..., x^d}")
        raise UnsupportedBasisError(f"the Hankel test of {kind} moments needs {need}")


def hankel_classify(s: MomentVector) -> ConeClassification:
    """Classify a moment vector against the cone via Hankel eigenvalues.

    The real-line test of ``_classify`` on the basis {1, x, ..., x^d}, the
    only basis it takes: margin >= tol everywhere -> interior proxy; any
    eigenvalue < -tol -> exterior; otherwise boundary.  The tolerance is
    ``1e-10 * (1 + max|s|)``.
    """
    _require_hankel_basis(s.basis, "gaussian")
    return _classify(s.values, _cone_blocks(s.basis, "gaussian"))


def strip_mass(s: MomentVector, v: MomentVector) -> tuple[float, MomentVector]:
    """Largest mass c such that s - c*v stays in the cone, as the real-line
    Hankel test classifies it.

    The mass doubles until s - c*v is exterior, then ``_itp_bracket``
    closes in on a sign change of the signed cone margin, to a bracket
    1e-10 wide.  Returns the bracket's feasible end and the stripped vector:
    s - c*v is never exterior (boundary or interior within tolerance), and
    a mass at most 1e-10 above c is.  That is not the supremal mass to
    within 1e-10.  The test admits eigenvalues down to ``-1e-10 * (1 +
    max|s|)``, and on a boundary vector the margin stays within eigenvalue
    rounding of that threshold over a band of masses, where its sign may
    flip several times: stripping one atom of a three-atom Dirac vector on
    {1, x, ..., x^6} returns up to about 2e-8 more than the atom's weight.
    Directions still feasible past the cap ``1e6 * (1 + max|s|) / max|v|``
    raise.
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
    blocks = _cone_blocks(s.basis, "gaussian")

    def signed_margin(c: float) -> float:
        """The cone margin of s - c*v over the exterior threshold, below 0
        exactly where s - c*v is exterior."""
        verdict = _classify(sv - c * vv, blocks)
        return verdict.margin + verdict.tolerance

    lo = 0.0
    hi = max(_STRIP_ABS_TOL, (1.0 + float(np.max(np.abs(sv)))) / vnorm * 1e-3)
    while signed_margin(hi) > 0:
        lo = hi
        hi *= 2.0
        if hi > cap:
            raise UnboundedStripError(
                f"direction still feasible at mass {lo:.3e} (cap {cap:.3e})"
            )
    lo, _ = _itp_bracket(signed_margin, lo, hi, _STRIP_ABS_TOL)
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
    by the shared-scale engine of ``kind``.  ``x0`` must be finite and
    ``sigma0`` finite and positive.  The cone test of ``kind`` must certify
    s as interior on a basis that ``_require_hankel_basis`` takes, where its
    blocks are the whole Hankel test: the real-line test for Gaussian
    vectors on {1, x, ..., x^d}, the half-line test for log-normal vectors
    on any univariate basis of consecutive exponents.  Any other basis
    raises ``UnsupportedBasisError`` before any engine call.  The mass
    starts at half the total and halves, down to ``1e-12`` of the total,
    until the remainder is recoverable; a first mass whose remainder leaves
    the float range raises ``MomentOverflowError``, naming ``x0`` and
    ``sigma0``, before any cone test of a remainder.  A remainder that the
    cone test certifies as exterior is skipped without an engine call,
    because no mixture has its moments; the engine's failed report on any
    other counts as not recoverable.
    """
    if s.basis != basis:
        raise ValueError("moment vector basis does not match")
    if not (sigma0 > 0 and math.isfinite(sigma0)):
        raise ValueError(f"sigma0 must be finite and positive, got {sigma0}")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be finite, got {x0}")
    from . import recover as _recover

    if kind == "gaussian":
        engine = _recover.recover_shared_sigma_gaussian
    elif kind == "lognormal":
        engine = _recover.recover_shared_sigma_lognormal
    else:
        raise ValueError(f"unknown kind {kind!r}")

    _require_hankel_basis(basis, kind)
    blocks = _cone_blocks(basis, kind)
    verdict = _classify(s.values, blocks)
    if verdict.status != INTERIOR:
        raise NotRepresentableError(
            "prescribing a component needs a strictly interior moment vector: "
            f"{_SUPPORT_NAME[kind]} Hankel margin {verdict.margin:.3e} "
            f"below {verdict.tolerance:.3e}"
        )

    t0 = component_moments(basis, kind, np.reshape(x0, (1, -1)), [sigma0])[0]
    mass = float(s.values[0]) if basis.exponents[0] == (0,) * basis.n else 1.0
    # each |s - eps t0| is convex in eps, so over the masses tried it is
    # largest at 0 or at the first, mass / 2
    with np.errstate(over="ignore"):
        if not np.isfinite(s.values - 0.5 * mass * t0).all():
            raise MomentOverflowError(
                f"the component at x0={x0}, sigma0={sigma0} with mass {0.5 * mass:.3e} has "
                "moments beyond the float range"
            )
    eps = mass
    last_reason = "no attempt made"
    while (eps := eps / 2.0) >= _MIN_EPS_FACTOR * mass:
        remainder = s.values - eps * t0
        if _classify(remainder, blocks).status == EXTERIOR:
            last_reason = "remainder outside the moment cone"
            continue
        report = engine(s.with_values(remainder))
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
