"""Mixture recovery engines.

Five routes from a moment vector back to a measure:

* ``prony_dirac`` -- atoms as roots of the polynomial in the Hankel null
  space, weights from a Vandermonde solve.
* ``recover_shared_sigma_gaussian`` -- descend a scale schedule, deconvolve
  through the triangular transfer matrix, and Prony the result.  Small
  enough scales always succeed for interior vectors.
* ``recover_shared_sigma_lognormal`` -- descale each moment by the
  closed-form factor, Prony the resulting ordinary moments, keep only
  positive atoms.
* ``homotopy_gap_recovery`` -- for bases with exponent gaps: find a Dirac
  representation by multistart least squares, check the Jacobian has full
  rank, then continue the solution in the scale from 0 upward.
* ``lm_fit`` -- generic moment matching by Levenberg-Marquardt with
  log-parameterized positive parameters; the classical method-of-moments
  fallback when nothing structural applies.

Success is always judged by the moment residual, never by parameter
closeness: distinct parameter sets can represent the same moments.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .basis import MonomialBasis
from .errors import (
    ConditioningError,
    InfeasibleMomentsError,
    InfeasibleWeightsError,
    NonrealAtomsError,
    UnsupportedBasisError,
)
from .jacobian import numeric_rank
from .measures import AtomicMeasure, MixtureMeasure
from .moments import (
    MomentVector,
    component_moments,
    dirac_moments,
    mixture_moments,
    transfer_matrix_gaussian,
)

__all__ = [
    "RecoveryReport",
    "prony_dirac",
    "recover_shared_sigma_gaussian",
    "recover_shared_sigma_lognormal",
    "homotopy_gap_recovery",
    "lm_fit",
    "match_components",
    "default_sigma_schedule",
]

_IMAG_TOL = 1e-8
_WEIGHT_TOL = 1e-10
_RANK_TOL = 1e-10


@dataclass
class RecoveryReport:
    """Outcome of a recovery attempt.

    ``residual`` is ``max|moments(model) - s| / (1 + max|s|)``.  ``success``
    implies the residual is at or below the engine tolerance and all model
    weights (and scales, and log-normal locations) are strictly positive.
    """

    success: bool
    model: AtomicMeasure | MixtureMeasure | None
    residual: float
    engine: str
    sigma_used: float | None = None
    k_used: int = 0
    iterations: int = 0
    sigma_steps: int = 0
    failure_reason: str | None = None

    def to_json(self) -> dict:
        return {
            "success": self.success,
            "model": None if self.model is None else self.model.to_json(),
            "residual": self.residual,
            "engine": self.engine,
            "sigma_used": self.sigma_used,
            "k_used": self.k_used,
            "iterations": self.iterations,
            "sigma_steps": self.sigma_steps,
            "failure_reason": self.failure_reason,
        }


def default_sigma_schedule(start: float = 1.0, ratio: float = 0.5, steps: int = 40):
    """Geometrically descending scale schedule."""
    return [start * ratio**j for j in range(steps)]


def _relative_residual(achieved: np.ndarray, target: np.ndarray) -> float:
    scale = 1.0 + float(np.max(np.abs(target))) if target.size else 1.0
    return float(np.max(np.abs(achieved - target))) / scale if target.size else 0.0


def _hankel_slice(u: np.ndarray, k: int) -> np.ndarray:
    return np.array([[u[i + j] for j in range(k + 1)] for i in range(k)])


def _prony_consecutive(u: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and weights of a k-atom measure matching consecutive moments.

    The polynomial with the atoms as roots has coefficients in the null
    space of the k-by-(k+1) Hankel slice; weights come from the Vandermonde
    least-squares solve over all supplied moments.  Raises the typed errors
    on non-real roots, negative weights, or untrustworthy conditioning.
    """
    if k == 0:
        return np.zeros(0), np.zeros(0)
    if 2 * k > len(u):
        raise ValueError(f"need at least {2 * k} consecutive moments for {k} atoms")
    H = _hankel_slice(u, k)
    _, sv, vt = np.linalg.svd(H)
    coeffs = vt[-1]  # p_0 + p_1 x + ... + p_k x^k
    lead = coeffs[-1]
    if abs(lead) <= 1e-12 * np.linalg.norm(coeffs):
        raise ConditioningError("vanishing leading coefficient; atom count too high")
    roots = np.roots(coeffs[::-1] / lead)
    if np.any(np.abs(roots.imag) > _IMAG_TOL * (1.0 + np.abs(roots.real))):
        raise NonrealAtomsError(f"complex atoms {roots.tolist()}")
    atoms = np.sort(roots.real)
    V = np.vander(atoms, N=len(u), increasing=True).T
    try:
        w, *_ = np.linalg.lstsq(V, u, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"Vandermonde solve failed: {exc}") from exc
    wscale = 1.0 + float(np.max(np.abs(u)))
    if np.any(w < -_WEIGHT_TOL * wscale):
        raise InfeasibleWeightsError(f"negative weights {w.tolist()}")
    w = np.clip(w, 0.0, None)
    keep = w > 0
    return atoms[keep], w[keep]


def prony_dirac(s: MomentVector, k: int, rel_tol: float = 1e-8) -> AtomicMeasure:
    """Recover a k-atom measure from a full-degree univariate moment vector."""
    basis = s.basis
    if not basis.is_full_degree():
        raise UnsupportedBasisError("Prony recovery needs the basis {1, x, ..., x^d}")
    d = basis.max_degree
    if k < 0 or 2 * k - 1 > d:
        raise ValueError(f"k={k} needs moments up to degree {2 * k - 1}, only {d} available")
    atoms, w = _prony_consecutive(s.values, k)
    measure = (
        AtomicMeasure(weights=w, points=atoms.reshape(-1, 1))
        if len(w)
        else AtomicMeasure.empty(1)
    )
    residual = _relative_residual(dirac_moments(basis, measure).values, s.values)
    if residual > rel_tol:
        raise ConditioningError(f"reconstruction residual {residual:.3e} above {rel_tol:.1e}")
    return measure


def _descending_k_attempt(u: np.ndarray, k_target: int):
    """Try Prony at the largest feasible atom count, honouring rank deficiency.

    A rank-deficient Hankel slice means fewer atoms suffice, so the count is
    lowered until the slice has full rank; infeasibility at that count means
    the whole vector is infeasible at this scale.
    """
    for k in range(k_target, 0, -1):
        H = _hankel_slice(u, k)
        sv = np.linalg.svd(H, compute_uv=False)
        if sv[0] == 0 or sv[min(k, len(sv)) - 1] <= _RANK_TOL * sv[0]:
            continue  # deficient: fewer atoms suffice
        return _prony_consecutive(u, k)
    return _prony_consecutive(u, 0)


def recover_shared_sigma_gaussian(
    s: MomentVector,
    sigma_schedule=None,
    *,
    k: int | None = None,
    rel_tol: float = 1e-8,
) -> RecoveryReport:
    """Recover a Gaussian mixture whose components share one scale.

    For each scale in the descending schedule the moment vector is pulled
    back through the unit-triangular transfer matrix; a successful Prony
    recovery of the pulled-back vector gives the mixture directly.  Interior
    vectors succeed once the scale is small enough.
    """
    basis = s.basis
    if not basis.is_full_degree():
        raise UnsupportedBasisError("shared-scale recovery needs the basis {1, x, ..., x^d}")
    d = basis.max_degree
    engine = "shared-sigma-gaussian"
    if not np.any(s.values):
        return RecoveryReport(
            success=True,
            model=MixtureMeasure.empty("gaussian"),
            residual=0.0,
            engine=engine,
        )
    # largest atom count the moment span supports: 2k - 1 <= d
    k_cap = (d + 1) // 2
    k_target = min(k, k_cap) if k is not None else k_cap
    schedule = list(sigma_schedule) if sigma_schedule is not None else default_sigma_schedule()
    best_residual = math.inf
    for step, sigma in enumerate(schedule, start=1):
        M = transfer_matrix_gaussian(basis, sigma)
        u = scipy.linalg.solve_triangular(M, s.values, lower=True, unit_diagonal=True)
        try:
            atoms, w = _descending_k_attempt(u, k_target)
        except (NonrealAtomsError, InfeasibleWeightsError, ConditioningError):
            continue
        model = (
            MixtureMeasure(
                kind="gaussian",
                weights=w,
                means=atoms.reshape(-1, 1),
                sigmas=np.full(len(w), sigma),
            )
            if len(w)
            else MixtureMeasure.empty("gaussian")
        )
        residual = _relative_residual(mixture_moments(basis, model).values, s.values)
        best_residual = min(best_residual, residual)
        if residual <= rel_tol:
            return RecoveryReport(
                success=True,
                model=model,
                residual=residual,
                engine=engine,
                sigma_used=sigma,
                k_used=model.k,
                sigma_steps=step,
            )
    return RecoveryReport(
        success=False,
        model=None,
        residual=best_residual,
        engine=engine,
        sigma_steps=len(schedule),
        failure_reason="schedule exhausted without a feasible recovery",
    )


def recover_shared_sigma_lognormal(
    s: MomentVector,
    sigma_schedule=None,
    *,
    k: int | None = None,
    rel_tol: float = 1e-8,
) -> RecoveryReport:
    """Recover a log-normal mixture with one shared scale.

    Dividing each moment by the closed-form growth factor turns the vector
    into ordinary moments of the atom locations (weights absorb the leading
    exponent), which Prony then recovers; only strictly positive atoms are
    accepted, and scales for which atoms come out nonpositive are skipped.
    """
    basis = s.basis
    if basis.n != 1:
        raise UnsupportedBasisError("log-normal recovery is univariate")
    degs = basis.univariate_degrees()
    m = len(degs)
    d1 = degs[0]
    if degs != tuple(range(d1, d1 + m)):
        raise UnsupportedBasisError("log-normal recovery needs consecutive exponents")
    engine = "shared-sigma-lognormal"
    if not np.any(s.values):
        return RecoveryReport(
            success=True, model=MixtureMeasure.empty("lognormal"), residual=0.0, engine=engine
        )
    if np.any(s.values <= 0):
        raise InfeasibleMomentsError(
            "moments of a measure on the positive axis must be strictly positive"
        )
    k_cap = m // 2
    k_target = min(k, k_cap) if k is not None else k_cap
    schedule = list(sigma_schedule) if sigma_schedule is not None else default_sigma_schedule()
    dd = np.array(degs, dtype=float)
    best_residual = math.inf
    for step, sigma in enumerate(schedule, start=1):
        u = s.values * np.exp(-0.5 * dd * dd * sigma * sigma)
        try:
            atoms, w_lifted = _descending_k_attempt(u, k_target)
        except (NonrealAtomsError, InfeasibleWeightsError, ConditioningError):
            continue
        if np.any(atoms <= 0):
            continue  # atoms must land in (0, inf); try a smaller scale
        weights = w_lifted / atoms**d1 if d1 else w_lifted
        model = (
            MixtureMeasure(
                kind="lognormal",
                weights=weights,
                means=atoms.reshape(-1, 1),
                sigmas=np.full(len(weights), sigma),
            )
            if len(weights)
            else MixtureMeasure.empty("lognormal")
        )
        residual = _relative_residual(mixture_moments(basis, model).values, s.values)
        best_residual = min(best_residual, residual)
        if residual <= rel_tol:
            return RecoveryReport(
                success=True,
                model=model,
                residual=residual,
                engine=engine,
                sigma_used=sigma,
                k_used=model.k,
                sigma_steps=step,
            )
    return RecoveryReport(
        success=False,
        model=None,
        residual=best_residual,
        engine=engine,
        sigma_steps=len(schedule),
        failure_reason="schedule exhausted without positive atoms and matching moments",
    )


def _data_scale(s: MomentVector) -> float:
    """Rough support radius from the even moments, for start boxes."""
    vals, scale = s.values, 1.0
    s0 = vals[0] if s.basis.exponents[0] == (0,) * s.basis.n else None
    if s0 is not None and s0 > 0:
        for alpha, v in zip(s.basis.exponents, vals):
            deg = sum(alpha)
            if deg and deg % 2 == 0 and v > 0:
                scale = max(scale, (v / s0) ** (1.0 / deg))
    return scale


def _interleaved_theta(weights: np.ndarray, points: np.ndarray) -> np.ndarray:
    k, n = points.shape
    theta = np.empty(k * (n + 1))
    for i in range(k):
        theta[i * (n + 1)] = weights[i]
        theta[i * (n + 1) + 1 : (i + 1) * (n + 1)] = points[i]
    return theta


def _split_theta(theta: np.ndarray, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    blocks = theta.reshape(k, n + 1)
    return blocks[:, 0], blocks[:, 1:]


def homotopy_gap_recovery(
    basis: MonomialBasis,
    s: MomentVector,
    k: int,
    *,
    seed: int = 0,
    n_starts: int = 32,
    sigma_target: float = 0.1,
    sigma_min: float = 1e-4,
    min_step: float = 1e-8,
    newton_rel_tol: float = 1e-9,
    rel_tol: float = 1e-8,
    start_rank_tol: float = 1e-4,
) -> RecoveryReport:
    """Gaussian recovery over a basis with exponent gaps, by scale continuation.

    Stage 1 finds a k-atom Dirac representation of s by multistart bounded
    least squares.  Stage 2 requires its Jacobian to have full row rank; the
    set of vectors whose representations are all singular has measure zero
    and is reported, not repaired.  Stage 3 tracks the solution of the
    smoothed moment equations as the shared scale grows from 0 toward the
    target, halving the scale step whenever the corrector fails.
    """
    if basis.n != 1:
        raise UnsupportedBasisError("gap recovery is implemented for univariate bases")
    if s.basis != basis:
        raise ValueError("moment vector basis does not match")
    m, n = basis.m, basis.n
    if k * (n + 1) < m:
        raise ValueError(f"k={k} gives {k * (n + 1)} parameters, fewer than m={m}")
    engine = "homotopy-gap"
    rng = np.random.default_rng(seed)
    target = s.values
    scale = 1.0 + float(np.max(np.abs(target)))
    box = 1.5 * _data_scale(s)

    def moment_residual(theta: np.ndarray, sigma: float) -> np.ndarray:
        w, pts = _split_theta(theta, k, n)
        return w @ component_moments(basis, "gaussian", pts, np.full(k, sigma)) - target

    def moment_jac(theta: np.ndarray, sigma: float) -> np.ndarray:
        w, pts = _split_theta(theta, k, n)
        B, dmean, _ = component_moments(basis, "gaussian", pts, np.full(k, sigma), True)
        return np.concatenate([B[:, None, :], w[:, None, None] * dmean], axis=1).reshape(-1, m).T

    lower = np.array(([0.0] + [-np.inf] * n) * k)
    upper = np.full(k * (n + 1), np.inf)

    iterations = 0

    def corrector(theta: np.ndarray, sigma: float, tol: float | None = None,
                  max_iter: int = 40):
        """Damped Gauss-Newton with minimum-norm steps; the moment system is
        underdetermined by one, so the min-norm least-squares step follows
        the solution manifold instead of zig-zagging across it."""
        th = theta.copy()
        goal = newton_rel_tol * scale if tol is None else tol
        nonlocal iterations
        for _ in range(max_iter):
            r = moment_residual(th, sigma)
            iterations += 1
            if np.max(np.abs(r)) <= goal:
                return th, True
            J = moment_jac(th, sigma)
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
            if not np.all(np.isfinite(step)):
                return th, False
            base = np.max(np.abs(r))
            damp = 1.0
            while damp > 1e-6:
                cand = th + damp * step
                if np.max(np.abs(moment_residual(cand, sigma))) < base:
                    th = cand
                    break
                damp *= 0.5
            else:
                return th, False
        return th, np.max(np.abs(moment_residual(th, sigma))) <= goal

    # stage 1: multistart search for a Dirac representation, polished to
    # machine precision so coalescing atoms show up in the rank check
    solution = None
    saw_residual_fit = False
    for _ in range(n_starts):
        pts0 = rng.uniform(-box, box, size=(k, n))
        w0 = np.full(k, max(target[0], scale * 1e-3) / k)
        theta0 = _interleaved_theta(w0, pts0)
        res = scipy.optimize.least_squares(
            moment_residual,
            theta0,
            jac=moment_jac,
            args=(0.0,),
            bounds=(lower, upper),
            method="trf",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
            max_nfev=400,
        )
        iterations += res.nfev
        if np.max(np.abs(res.fun)) > newton_rel_tol * scale:
            continue
        polished, _ = corrector(res.x, 0.0, tol=1e-12 * scale)
        w, pts = _split_theta(polished, k, n)
        if np.any(w < -1e-12 * scale):
            continue
        w = np.maximum(w, 0.0)
        polished = _interleaved_theta(w, pts)
        saw_residual_fit = True
        # stage 2: the continuation argument needs a regular starting point;
        # nearly coalesced atoms leave a singular value of order sqrt(residual)
        if numeric_rank(moment_jac(polished, 0.0), rel_tol=start_rank_tol).full_rank:
            solution = polished
            break
    if solution is None:
        reason = (
            "singular-start: every Dirac representation found has a rank-deficient Jacobian"
            if saw_residual_fit
            else "no-dirac-representation: all starts stalled"
        )
        return RecoveryReport(
            success=False,
            model=None,
            residual=math.inf,
            engine=engine,
            iterations=iterations,
            failure_reason=reason,
        )

    # stage 3: predictor-corrector continuation in the shared scale
    sigma_cur = 0.0
    theta = solution
    step_size = sigma_target / 10.0
    sigma_steps = 0
    corrector_calls = 0
    while sigma_cur < sigma_target and step_size >= min_step and corrector_calls < 200:
        sigma_try = min(sigma_cur + step_size, sigma_target)
        candidate, converged = corrector(theta, sigma_try)
        corrector_calls += 1
        w_cand, _ = _split_theta(candidate, k, n)
        if converged and np.all(w_cand >= 0):
            theta = candidate
            sigma_cur = sigma_try
            sigma_steps += 1
            step_size = min(step_size * 1.6, sigma_target - sigma_cur + min_step)
        else:
            step_size *= 0.5

    w, pts = _split_theta(theta, k, n)
    keep = w > 1e-12 * max(1.0, float(np.sum(w)))
    sigma_out = max(sigma_cur, 0.0)
    if sigma_cur < sigma_min:
        return RecoveryReport(
            success=False,
            model=None,
            residual=math.inf,
            engine=engine,
            sigma_used=sigma_out,
            iterations=iterations,
            sigma_steps=sigma_steps,
            failure_reason=f"continuation stalled at sigma={sigma_cur:.3e} below {sigma_min:.1e}",
        )
    model = MixtureMeasure(
        kind="gaussian",
        weights=w[keep],
        means=pts[keep],
        sigmas=np.full(int(np.sum(keep)), sigma_out),
    )
    residual = _relative_residual(mixture_moments(basis, model).values, target)
    return RecoveryReport(
        success=residual <= rel_tol,
        model=model,
        residual=residual,
        engine=engine,
        sigma_used=sigma_out,
        k_used=model.k,
        iterations=iterations,
        sigma_steps=sigma_steps,
        failure_reason=None if residual <= rel_tol else "final residual above tolerance",
    )


def lm_fit(
    basis: MonomialBasis,
    kind: str,
    s: MomentVector,
    k: int,
    free_sigma_per_component: bool = True,
    *,
    seed: int = 0,
    n_starts: int = 16,
    rel_tol: float = 1e-8,
    sigma_start_range: tuple[float, float] = (0.1, 1.0),
) -> RecoveryReport:
    """Generic method-of-moments fit by multistart Levenberg-Marquardt.

    Weights and scales (and log-normal locations) are optimized in log space
    so positivity needs no constraints; the Jacobian is the analytic one of
    the moment kernel, taken through the log parameters by the chain rule.
    The best start by moment residual wins; success is residual at or below
    ``rel_tol``.
    """
    if kind not in ("gaussian", "lognormal"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "lognormal" and basis.n != 1:
        raise UnsupportedBasisError("log-normal fits are univariate")
    if s.basis != basis:
        raise ValueError("moment vector basis does not match")
    m, n = basis.m, basis.n
    n_params = k * (1 + n) + (k if free_sigma_per_component else 1)
    if n_params > m:
        warnings.warn(
            f"{n_params} parameters against {m} moments; the fit is underdetermined",
            stacklevel=2,
        )
    engine = "lm"
    rng = np.random.default_rng(seed)
    target = s.values
    scale = 1.0 + float(np.max(np.abs(target)))
    box = 1.5 * _data_scale(s)
    # parameters optimized in log space; Gaussian locations are taken as they are
    logged = np.ones(n_params, dtype=bool)
    if kind == "gaussian":
        logged[k : k + k * n] = False

    def unpack(theta: np.ndarray):
        with np.errstate(over="ignore"):
            params = np.where(logged, np.exp(theta), theta)
        if not (np.all(np.isfinite(params)) and np.all(params[logged] > 0)):
            raise ValueError("parameters left the finite positive range")
        weights = params[:k]
        means = params[k : k + k * n].reshape(k, n)
        sigmas = params[k + k * n :]
        if not free_sigma_per_component:
            sigmas = np.repeat(sigmas, k)
        return weights, means, sigmas, params

    def residual(theta: np.ndarray) -> np.ndarray:
        weights, means, sigmas, _ = unpack(theta)
        return weights @ component_moments(basis, kind, means, sigmas) - target

    def jac(theta: np.ndarray) -> np.ndarray:
        weights, means, sigmas, params = unpack(theta)
        B, dmean, dsigma = component_moments(basis, kind, means, sigmas, derivatives=True)
        dsigma = weights[:, None] * dsigma
        if not free_sigma_per_component:
            dsigma = dsigma.sum(axis=0, keepdims=True)
        J = np.concatenate([B, (weights[:, None, None] * dmean).reshape(k * n, m), dsigma]).T
        # chain rule through the log parameters: d exp(t) / dt = exp(t)
        return J * np.where(logged, params, 1.0)

    best = None
    iterations = 0
    for _ in range(n_starts):
        g0 = np.log(np.full(k, max(target[0], 1e-3) / k if target[0] > 0 else 1.0 / k))
        if kind == "lognormal":
            loc0 = np.log(rng.uniform(0.3 * box, box, size=(k, n)))
        else:
            loc0 = rng.uniform(-box, box, size=(k, n))
        tau_n = k if free_sigma_per_component else 1
        tau0 = np.log(rng.uniform(*sigma_start_range, size=tau_n))
        theta0 = np.concatenate([g0, loc0.ravel(), tau0])
        method = "lm" if m >= theta0.size else "trf"
        try:
            res = scipy.optimize.least_squares(
                residual, theta0, jac=jac, method=method, xtol=1e-15, ftol=1e-15,
                gtol=1e-15, max_nfev=2000,
            )
        except (ValueError, OverflowError):
            continue
        iterations += res.nfev
        r = float(np.max(np.abs(res.fun))) / scale
        if best is None or r < best[0]:
            best = (r, res.x.copy())
        if r <= rel_tol:
            break
    if best is None:
        return RecoveryReport(
            success=False, model=None, residual=math.inf, engine=engine,
            iterations=iterations, failure_reason="all starts failed to evaluate",
        )
    r, theta = best
    weights, means, sigmas, _ = unpack(theta)
    model = MixtureMeasure(kind=kind, weights=weights, means=means, sigmas=sigmas)
    return RecoveryReport(
        success=r <= rel_tol,
        model=model,
        residual=r,
        engine=engine,
        k_used=model.k,
        iterations=iterations,
        failure_reason=None if r <= rel_tol else "best start stalled above tolerance",
    )


def match_components(reference_means: np.ndarray, found_means: np.ndarray,
                     reference_weights=None, found_weights=None) -> np.ndarray:
    """Permutation aligning found components to reference ones.

    Minimal-cost assignment on location distance, with weight distance as a
    tie-breaking contribution.  Returns indices into the found components.
    """
    ref = np.atleast_2d(np.asarray(reference_means, dtype=float))
    got = np.atleast_2d(np.asarray(found_means, dtype=float))
    if ref.shape[0] != got.shape[0]:
        raise ValueError("component counts differ; nothing to match")
    cost = np.linalg.norm(ref[:, None, :] - got[None, :, :], axis=2)
    if reference_weights is not None and found_weights is not None:
        rw = np.asarray(reference_weights, dtype=float)
        fw = np.asarray(found_weights, dtype=float)
        cost = cost + 1e-3 * np.abs(rw[:, None] - fw[None, :])
    _, cols = scipy.optimize.linear_sum_assignment(cost)
    return cols
