"""Mixture recovery engines.

Five routes from a moment vector back to a measure:

* ``prony_dirac`` -- atoms as the eigenvalues of the symmetric Jacobi
  matrix of the Hankel blocks (Golub-Welsch), weights from a Vandermonde
  solve.
* ``recover_shared_sigma_gaussian`` -- descend a scale schedule, deconvolve
  through the closed-form inverse of the triangular transfer matrix, and
  Prony the result.  Small enough scales always succeed for interior
  vectors.
* ``recover_shared_sigma_lognormal`` -- descale each moment by the
  closed-form factor, Prony the resulting ordinary moments, keep only
  positive atoms.  Both shared-scale engines run one descent loop and
  differ only in this pull-back to ordinary moments.
* ``homotopy_gap_recovery`` -- for bases with exponent gaps: find a Dirac
  representation by running the damped least-squares solver at scale 0
  from random starts, check the Jacobian has full rank, then continue the
  solution in the scale from 0 upward with the same solver as corrector.
  The first scale step tries the target scale itself, and a corrector run
  fails at its first iteration that does not halve the residual norm.
* ``lm_fit`` -- generic moment matching by the same solver with
  log-parameterized positive parameters; the classical method-of-moments
  fallback when nothing structural applies.

Both nonlinear engines run ``_damped_least_squares``, a Levenberg descent
that factors the Jacobian once per iteration by SVD and tries the
minimum-norm Gauss-Newton step first.  An engine hands it two maps: a point
to its residual and Jacobian (one kernel call with derivatives), and a stack
of points to their residuals (one values-only kernel call), which evaluates
every damped step of a rejected iteration at once.  Besides the goal, a run
stops when no damped step lowers the residual, at a step that lowers the
squared residual by less than a relative 1e-8, and when its last 50
iterations lowered it by less than 1%; a homotopy corrector run also stops,
as failed, at an iteration that does not halve the residual norm.

Success is always judged by the moment residual, never by parameter
closeness: distinct parameter sets can represent the same moments.  Both
shared-scale engines and ``lm_fit`` first refuse vectors that a cone test
certifies as exterior, before any schedule step or solver start: the
real-line Hankel test for Gaussian vectors on {1, x, ..., x^d}, the
half-line test for log-normal vectors on any basis of consecutive exponents.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .basis import MonomialBasis
from .conegeo import _SUPPORT_NAME, EXTERIOR, _classify, _cone_support, _hankel_index
from .errors import (
    ConditioningError,
    InfeasibleMomentsError,
    InfeasibleWeightsError,
    NotRepresentableError,
    UnsupportedBasisError,
)
from .jacobian import numeric_rank
from .measures import AtomicMeasure, MixtureMeasure
from .moments import (
    MomentVector,
    _inverse_transfer_matrix,
    _relative_residual,
    component_moments,
    dirac_moments,
    mixture_moments,
)

__all__ = [
    "RecoveryReport",
    "prony_dirac",
    "recover_shared_sigma_gaussian",
    "recover_shared_sigma_lognormal",
    "homotopy_gap_recovery",
    "lm_fit",
    "default_sigma_schedule",
]

# goal of prony_dirac and lm_fit: the moment residual max|moments - s| / (1 + max|s|)
_REL_TOL = 1e-8
_WEIGHT_TOL = 1e-10
_RANK_TOL = 1e-10
# default scale schedule of the shared-scale engines: 1, 1/2, 1/4, ...
_SCHEDULE_START = 1.0
_SCHEDULE_RATIO = 0.5
_SCHEDULE_STEPS = 40
# homotopy: starts, continuation target and floor, smallest scale step,
# corrector goal relative to the vector, the solver's iteration cap along the
# continuation and from a random Dirac start, the share of |r| a corrector
# iteration along the continuation may keep, the Dirac start's goal and
# weight floor relative to the vector, and the singular-value cutoff of its
# rank check
_HOMOTOPY_STARTS = 32
_SIGMA_TARGET = 0.1
_SIGMA_MIN = 1e-4
_MIN_STEP = 1e-8
_NEWTON_REL_TOL = 1e-9
_CORRECTOR_ITERS = 15
_CORRECTOR_CONTRACTION = 0.5
_START_REL_TOL = 1e-12
_START_RANK_TOL = 1e-4
# damped least squares: the Levenberg dampings tried in one batch after a
# rejected step, 38 values 2x apart from 1e-12 times the largest squared
# singular value (or 2x the rejected damping); the share of the predicted
# residual drop above which an accepted step divides the damping by 8; and
# the relative pseudo-inverse cutoff of the undamped step
_LADDER_START = 1e-12
_LADDER_RATIO = 2.0
_LADDER = _LADDER_RATIO ** np.arange(38)
_GAIN_DROP = 0.75
_DAMPING_DROP = 1.0 / 8.0
_SVD_CUTOFF = np.finfo(float).eps
# a step that lowers the squared residual by less than a relative 1e-8, or 50
# iterations that together lower it by less than 1%, end the descent: it has
# reached a plateau short of the goal
_MIN_PROGRESS = 1e-8
_WINDOW = 50
_WINDOW_PROGRESS = 0.01
# lm_fit: scales of each start are drawn uniformly from this interval, and
# the iteration cap of each start
_LM_SIGMA_STARTS = (0.1, 1.0)
_LM_ITERS = 2000


@dataclass(slots=True)
class RecoveryReport:
    """Outcome of a recovery attempt.

    ``residual`` is ``max|moments(model) - s| / (1 + max|s|)``.  Every
    report comes from one of two rules: ``_failed`` gives no model,
    ``k_used`` 0 and a reason; ``_judged`` keeps a model, sets ``k_used`` to
    its component count and succeeds iff the residual is at or below the
    engine tolerance, with a reason only when it fails.  The models of all
    engines have strictly positive weights (and scales, and log-normal
    locations).  ``iterations`` counts the iterations of the damped
    least-squares solver in the two nonlinear engines, summed over all starts
    and corrector calls; it is 0 for the shared-scale engines.
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
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["model"] = None if self.model is None else self.model.to_json()
        return data


def _failed(engine: str, reason: str, residual: float = math.inf, **counts) -> RecoveryReport:
    """A failed report with no model; ``counts`` sets ``sigma_used``,
    ``iterations`` and ``sigma_steps``."""
    return RecoveryReport(
        success=False, model=None, residual=residual, engine=engine, failure_reason=reason,
        **counts,
    )


def _judged(
    engine: str, model: MixtureMeasure, residual: float, tol: float, reason: str | None, **counts
) -> RecoveryReport:
    """A report on ``model`` that succeeds iff ``residual <= tol``, giving
    ``reason`` only when it fails."""
    success = bool(residual <= tol)
    return RecoveryReport(
        success=success, model=model, residual=residual, engine=engine, k_used=model.k,
        failure_reason=None if success else reason, **counts,
    )


def default_sigma_schedule():
    """Geometrically descending scale schedule: 40 halvings from 1."""
    return [_SCHEDULE_START * _SCHEDULE_RATIO**j for j in range(_SCHEDULE_STEPS)]


def _exterior_refusal(s: MomentVector, kind: str, engine: str) -> RecoveryReport | None:
    """A failed report when the cone test of ``kind`` certifies ``s`` as exterior.

    No mixture has moments outside the cone, so such vectors are refused
    before any solver work.  Bases without a test for ``kind`` (see
    ``conegeo._cone_support``) and interior or boundary vectors get ``None``.
    """
    support = _cone_support(s.basis, kind)
    if support is None:
        return None
    status, margin, tol = _classify(s.values, support)
    if status != EXTERIOR:
        return None
    return _failed(
        engine, f"exterior: {_SUPPORT_NAME[support]} Hankel margin {margin:.3e} below -{tol:.3e}"
    )


def _prony(u: np.ndarray, k_target: int) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and weights of a measure with at most ``k_target`` atoms
    matching consecutive moments.

    One SVD per tried count k of the k-by-(k+1) Hankel slice: a
    rank-deficient slice means fewer atoms suffice, so the count is lowered
    until the slice has full rank.  At that count the atoms are the Gauss
    quadrature nodes of the moments (Golub & Welsch 1969): with the Hankel
    block ``H0 = L L^T`` and its shift ``H1``, they are the eigenvalues of
    the symmetric Jacobi matrix ``L^-1 H1 L^-T``, real and sorted.  Weights
    come from the Vandermonde least-squares solve over all supplied moments.
    Raises ``NotRepresentableError`` when ``H0`` is not positive definite
    (the vector is not strictly inside the cone), and the typed errors on
    negative weights or a failed solve; infeasibility at the full-rank count
    means the whole vector is infeasible.
    """
    for k in range(k_target, 0, -1):
        _, sv, _ = np.linalg.svd(u[_hankel_index(k, k + 1)])
        if sv[-1] > _RANK_TOL * sv[0]:
            break
    else:
        return np.zeros(0), np.zeros(0)
    index = _hankel_index(k, k)
    try:
        L = np.linalg.cholesky(u[index])
    except np.linalg.LinAlgError as exc:
        raise NotRepresentableError(f"Hankel block of order {k} is not positive definite") from exc
    # eigvalsh reads one triangle of the Jacobi matrix and sorts its eigenvalues
    atoms = np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, u[1:][index]).T))
    V = np.vander(atoms, N=len(u), increasing=True).T
    try:
        w, *_ = np.linalg.lstsq(V, u, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"Vandermonde solve failed: {exc}") from exc
    wscale = 1.0 + float(np.abs(u).max())
    if (w < -_WEIGHT_TOL * wscale).any():
        raise InfeasibleWeightsError(f"negative weights {w.tolist()}")
    w = np.clip(w, 0.0, None)
    keep = w > 0
    return atoms[keep], w[keep]


def prony_dirac(s: MomentVector, k: int) -> AtomicMeasure:
    """Recover a measure with at most k atoms from a full-degree univariate
    moment vector; a rank-deficient Hankel slice lowers the atom count.  A
    reconstruction whose moment residual exceeds 1e-8 raises."""
    basis = s.basis
    if not basis.is_full_degree():
        raise UnsupportedBasisError("Prony recovery needs the basis {1, x, ..., x^d}")
    d = basis.max_degree
    if k < 0 or 2 * k - 1 > d:
        raise ValueError(f"k={k} needs moments up to degree {2 * k - 1}, only {d} available")
    atoms, w = _prony(s.values, k)
    measure = (
        AtomicMeasure(weights=w, points=atoms.reshape(-1, 1))
        if len(w)
        else AtomicMeasure.empty(1)
    )
    residual = _relative_residual(dirac_moments(basis, measure).values, s.values)
    if residual > _REL_TOL:
        raise ConditioningError(f"reconstruction residual {residual:.3e} above {_REL_TOL:.1e}")
    return measure


_SHARED_SCALE_ENGINE = {"gaussian": "shared-sigma-gaussian", "lognormal": "shared-sigma-lognormal"}
_EXHAUSTED_REASON = {
    "gaussian": "schedule exhausted without a feasible recovery",
    "lognormal": "schedule exhausted without positive atoms and matching moments",
}


def _shared_scale_descent(
    s: MomentVector, kind: str, k_cap: int, k: int | None, pull_back, sigma_schedule, rel_tol: float
) -> RecoveryReport:
    """Descend the scale schedule until a pulled-back vector Prony-recovers.

    A vector that the cone test of ``kind`` certifies as exterior is refused
    before the first step.  ``pull_back(sigma)`` maps the moment vector to
    ordinary moments of the atom locations at that scale; the first scale
    whose recovered mixture matches ``s`` to ``rel_tol`` wins.
    """
    if k is not None and k < 1:
        raise ValueError(f"k={k}: a recovery needs at least one component")
    basis = s.basis
    engine = _SHARED_SCALE_ENGINE[kind]
    if not np.any(s.values):  # the empty mixture matches exactly, whatever rel_tol is
        return _judged(engine, MixtureMeasure.empty(kind), 0.0, 0.0, None)
    refusal = _exterior_refusal(s, kind, engine)
    if refusal is not None:
        return refusal
    k_target = min(k, k_cap) if k is not None else k_cap
    schedule = list(sigma_schedule) if sigma_schedule is not None else default_sigma_schedule()
    d1 = basis.exponents[0][0]
    best_residual = math.inf
    for step, sigma in enumerate(schedule, start=1):
        try:
            atoms, w = _prony(pull_back(sigma), k_target)
        except (NotRepresentableError, InfeasibleWeightsError, ConditioningError):
            continue
        if kind == "lognormal" and np.any(atoms <= 0):
            continue  # atoms must land in (0, inf); try a smaller scale
        # pulled-back moments start at degree d1, so their weights carry atoms**d1
        weights = w / atoms**d1 if d1 else w
        model = MixtureMeasure(
            kind=kind,
            weights=weights,
            means=atoms.reshape(-1, 1),
            sigmas=np.full(len(weights), sigma),
        )
        residual = _relative_residual(mixture_moments(basis, model).values, s.values)
        best_residual = min(best_residual, residual)
        if residual <= rel_tol:
            return _judged(
                engine, model, residual, rel_tol, None, sigma_used=sigma, sigma_steps=step
            )
    return _failed(engine, _EXHAUSTED_REASON[kind], best_residual, sigma_steps=len(schedule))


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
    vectors succeed once the scale is small enough; a vector that the
    real-line Hankel test certifies as exterior is refused at once.
    """
    basis = s.basis
    if not basis.is_full_degree():
        raise UnsupportedBasisError("shared-scale recovery needs the basis {1, x, ..., x^d}")

    def pull_back(sigma: float) -> np.ndarray:
        return _inverse_transfer_matrix(basis, sigma) @ s.values

    # largest atom count the moment span supports: 2k - 1 <= d
    k_cap = (basis.max_degree + 1) // 2
    return _shared_scale_descent(s, "gaussian", k_cap, k, pull_back, sigma_schedule, rel_tol)


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
    A vector with a nonpositive moment raises; one that the half-line
    Hankel test certifies as exterior is refused at once.
    """
    basis = s.basis
    if basis.n != 1:
        raise UnsupportedBasisError("log-normal recovery is univariate")
    degs = basis.univariate_degrees()
    m = len(degs)
    if degs != tuple(range(degs[0], degs[0] + m)):
        raise UnsupportedBasisError("log-normal recovery needs consecutive exponents")
    # the zero vector is the empty mixture; any other needs positive moments
    if np.any(s.values) and np.any(s.values <= 0):
        raise InfeasibleMomentsError(
            "moments of a measure on the positive axis must be strictly positive"
        )
    dd = np.array(degs, dtype=float)

    def pull_back(sigma: float) -> np.ndarray:
        return s.values * np.exp(-0.5 * dd * dd * sigma * sigma)

    return _shared_scale_descent(s, "lognormal", m // 2, k, pull_back, sigma_schedule, rel_tol)


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
    return np.column_stack((weights, points)).ravel()


def _split_theta(theta: np.ndarray, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    blocks = theta.reshape(k, n + 1)
    return blocks[:, 0], blocks[:, 1:]


def _stack_costs(values, thetas: np.ndarray) -> np.ndarray:
    """Squared residual norm at each point of a stack, inf where a point does
    not evaluate: one ``values`` call, and one per point only when a point's
    parameters or moments leave the float range."""
    try:
        rows = values(thetas)
    except (ValueError, OverflowError):
        if len(thetas) == 1:
            return np.array([math.inf])
        return np.concatenate([_stack_costs(values, theta[None]) for theta in thetas])
    return np.einsum("ij,ij->i", rows, rows)


@dataclass(slots=True)
class _Run:
    """One solver run: its last point, the residual and Jacobian there,
    whether the goal was met and the iterations (SVDs) spent."""

    theta: np.ndarray
    r: np.ndarray
    J: np.ndarray
    converged: bool
    iterations: int


def _damped_least_squares(
    point, values, theta: np.ndarray, goal: float, max_iters: int, contraction: float | None = None
) -> _Run:
    """Levenberg descent of ``|r(theta)|^2`` until ``max|r| <= goal``.

    ``point(theta)`` returns the residual and its Jacobian at one point (one
    kernel call with derivatives); ``values(thetas)`` returns the residual
    rows of a stack of points (one values-only kernel call).  Each iteration
    factors J once by SVD and tries the step at the current damping, which
    starts at 0: the minimum-norm Gauss-Newton step, which on an
    underdetermined system follows the solution manifold instead of
    zig-zagging across it.  An accepted step that achieves at least 3/4 of
    the residual drop the linear model predicts divides the damping by 8.
    When the step does not lower the residual, every step of the damping
    ladder above it is evaluated in one ``values`` call and the least-damped
    one that lowers it is taken, keeping its damping.  The descent stops
    short of the goal when no ladder step lowers the residual, when a step
    lowers ``|r|^2`` by less than a relative 1e-8, when the last 50
    iterations lowered it by less than 1%, and, given a ``contraction``,
    when a step leaves ``|r|`` above that share of its previous value.
    """
    r, J = point(theta)
    damping = 0.0
    # the largest share of the last squared residual that an iteration may keep
    keep = 1.0 - _MIN_PROGRESS if contraction is None else contraction * contraction
    costs = []
    # a residual that overflows has an infinite or undefined cost, which no
    # comparison accepts
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(max_iters):
            if np.abs(r).max() <= goal:
                return _Run(theta, r, J, True, iteration)
            cost = r @ r
            if costs and (
                cost > costs[-1] * keep  # a plateau, or a corrector that does not contract
                or iteration >= _WINDOW
                and cost > costs[-_WINDOW] * (1.0 - _WINDOW_PROGRESS)  # a long, slow crawl
            ):
                return _Run(theta, r, J, False, iteration)
            costs.append(cost)
            try:
                u, sv, vt = np.linalg.svd(J)
            except np.linalg.LinAlgError:  # a Jacobian entry overflowed
                return _Run(theta, r, J, False, iteration)
            if not sv[0] > 0:  # no direction lowers the residual
                return _Run(theta, r, J, False, iteration)
            g = u[:, : len(sv)].T @ r
            vt = vt[: len(sv)]
            if damping:
                inv = sv / (sv * sv + damping)
            else:  # the pseudo-inverse, with the singular-value cutoff of lstsq
                kept = sv > _SVD_CUTOFF * max(J.shape) * sv[0]
                inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=kept)
            trial = theta - (inv * g) @ vt
            try:
                r_trial, J_trial = point(trial)
            except (ValueError, OverflowError):
                r_trial = None  # the step left the range where moments evaluate
            if r_trial is not None and (cost_trial := r_trial @ r_trial) < cost:
                if damping:
                    # the linear model's drop is |g|^2 - |f g|^2, f = damping / (sv^2 + damping)
                    fg = damping / (sv * sv + damping) * g
                    if cost - cost_trial >= _GAIN_DROP * (g @ g - fg @ fg):
                        damping *= _DAMPING_DROP
                theta, r, J = trial, r_trial, J_trial
                continue
            lambdas = max(damping * _LADDER_RATIO, _LADDER_START * sv[0] * sv[0]) * _LADDER
            cands = theta - (sv / (sv * sv + lambdas[:, None]) * g) @ vt
            for j in np.flatnonzero(_stack_costs(values, cands) < cost):
                try:
                    r, J = point(cands[j])
                except (ValueError, OverflowError):
                    continue  # only a derivative overflowed
                theta, damping = cands[j], lambdas[j]
                break
            else:
                return _Run(theta, r, J, False, iteration + 1)
    return _Run(theta, r, J, bool(np.abs(r).max() <= goal), max_iters)


def homotopy_gap_recovery(
    basis: MonomialBasis,
    s: MomentVector,
    k: int,
    *,
    seed: int = 0,
    rel_tol: float = 1e-8,
) -> RecoveryReport:
    """Gaussian recovery over a basis with exponent gaps, by scale continuation.

    Stage 1 finds a k-atom Dirac representation of s: from each random start
    the damped least-squares solver runs at scale 0 for at most 15
    iterations, and a start that does not converge or ends with a
    negative weight gives way to the next.  Stage 2 requires every weight to
    exceed the corrector goal and the Jacobian to have full row rank; the
    set of vectors whose representations are all singular has measure zero
    and is reported, not repaired.  Stage 3 tracks the solution of the
    smoothed moment equations while the shared scale grows from 0 toward
    0.1, with the same solver as corrector started from the last accepted
    solution.  Three rules end stalled corrector runs early: the first
    scale step tries 0.1 itself, and the step is halved after a failure and
    grown 1.6x after a success; a corrector run fails at its first
    iteration that does not halve the residual norm; and, as in every
    solver run, 50 iterations that together lower the squared residual by
    less than 1% end the run.  A continuation that stalls below 1e-4 is
    reported as a failure.  The moment system is underdetermined by one, so
    the solver's undamped minimum-norm step follows the solution manifold.
    ``iterations`` counts the solver iterations of stages 1 and 3.
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

    def system(sigma: float):
        """The solver's residual maps at one shared scale."""
        # scales of one point and of the largest stack the solver evaluates
        sigmas = np.full(k, sigma)
        stack_sigmas = np.full(len(_LADDER) * k, sigma)

        def point(theta: np.ndarray):
            w, pts = _split_theta(theta, k, n)
            B, dmean, _ = component_moments(basis, "gaussian", pts, sigmas, True)
            J = np.concatenate([B[:, None, :], w[:, None, None] * dmean], axis=1).reshape(-1, m).T
            return w @ B - target, J

        def values(thetas: np.ndarray) -> np.ndarray:
            w, pts = _split_theta(thetas, len(thetas) * k, n)
            B = component_moments(basis, "gaussian", pts, stack_sigmas[: w.shape[0]])
            return np.einsum("ck,ckm->cm", w.reshape(-1, k), B.reshape(-1, k, m)) - target

        return point, values

    # stage 1: multistart search for a Dirac representation by the solver
    # at sigma = 0, converged to machine precision so coalescing atoms show
    # up in the rank check
    solution = None
    saw_residual_fit = False
    iterations = 0
    floor, goal = _START_REL_TOL * scale, _NEWTON_REL_TOL * scale
    dirac_point, dirac_values = system(0.0)
    for _ in range(_HOMOTOPY_STARTS):
        pts0 = rng.uniform(-box, box, size=(k, n))
        w0 = np.full(k, max(target[0], scale * 1e-3) / k)
        theta0 = _interleaved_theta(w0, pts0)
        run = _damped_least_squares(dirac_point, dirac_values, theta0, floor, _CORRECTOR_ITERS)
        iterations += run.iterations
        w, _ = _split_theta(run.theta, k, n)
        if not run.converged or np.any(w < -floor):
            continue
        saw_residual_fit = True
        # stage 2: the continuation argument needs a regular starting point.
        # An atom with weight within the corrector goal is one the corrector
        # cannot tell from no atom: its position columns are zero, yet its
        # s(x) column still adds rank.  Nearly coalesced atoms leave a
        # singular value of order sqrt(residual)
        if np.any(w <= goal):
            continue
        if numeric_rank(run.J, rel_tol=_START_RANK_TOL).full_rank:
            solution = run.theta
            break
    if solution is None:
        reason = (
            "singular-start: every Dirac representation found has a zero weight "
            "or a rank-deficient Jacobian"
            if saw_residual_fit
            else "no-dirac-representation: all starts stalled"
        )
        return _failed(engine, reason, iterations=iterations)

    # stage 3: continuation in the shared scale; each corrector run starts
    # from the last accepted solution, with no predictor step, and the first
    # tries the target scale itself
    sigma_cur = 0.0
    theta = solution
    step_size = _SIGMA_TARGET
    sigma_steps = 0
    corrector_calls = 0
    while sigma_cur < _SIGMA_TARGET and step_size >= _MIN_STEP and corrector_calls < 200:
        sigma_try = min(sigma_cur + step_size, _SIGMA_TARGET)
        run = _damped_least_squares(
            *system(sigma_try), theta, goal, _CORRECTOR_ITERS, _CORRECTOR_CONTRACTION
        )
        iterations += run.iterations
        corrector_calls += 1
        w_cand, _ = _split_theta(run.theta, k, n)
        if run.converged and np.all(w_cand >= 0):
            theta = run.theta
            sigma_cur = sigma_try
            sigma_steps += 1
            step_size = min(step_size * 1.6, _SIGMA_TARGET - sigma_cur + _MIN_STEP)
        else:
            step_size *= 0.5

    w, pts = _split_theta(theta, k, n)
    keep = w > 1e-12 * max(1.0, float(np.sum(w)))
    counts = {"sigma_used": sigma_cur, "iterations": iterations, "sigma_steps": sigma_steps}
    if sigma_cur < _SIGMA_MIN:
        return _failed(
            engine, f"continuation stalled at sigma={sigma_cur:.3e} below {_SIGMA_MIN:.1e}",
            **counts,
        )
    model = MixtureMeasure(
        kind="gaussian",
        weights=w[keep],
        means=pts[keep],
        sigmas=np.full(int(np.sum(keep)), sigma_cur),
    )
    residual = _relative_residual(mixture_moments(basis, model).values, target)
    return _judged(engine, model, residual, rel_tol, "final residual above tolerance", **counts)


def lm_fit(
    basis: MonomialBasis,
    kind: str,
    s: MomentVector,
    k: int,
    free_sigma_per_component: bool = True,
    *,
    seed: int = 0,
    n_starts: int = 16,
) -> RecoveryReport:
    """Generic method-of-moments fit by multistart damped least squares.

    Weights and scales (and log-normal locations) are optimized in log space
    so positivity needs no constraints; the Jacobian is the analytic one of
    the moment kernel, taken through the log parameters by the chain rule.
    Each start runs the solver for at most 2000 iterations, stopping at a
    moment residual of 1e-8 or at a plateau, such as 50 iterations that
    together lower the squared residual by less than 1%; the best start by
    moment residual wins, and success is a residual at or below 1e-8.
    ``k`` and ``n_starts`` must be positive.  A vector that the cone test of
    ``kind`` certifies as exterior is refused before any start.
    """
    if kind not in ("gaussian", "lognormal"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "lognormal" and basis.n != 1:
        raise UnsupportedBasisError("log-normal fits are univariate")
    if s.basis != basis:
        raise ValueError("moment vector basis does not match")
    if k < 1:
        raise ValueError(f"k={k}: a fit needs at least one component")
    if n_starts < 1:
        raise ValueError(f"n_starts={n_starts}: a fit needs at least one start")
    engine = "lm"
    refusal = _exterior_refusal(s, kind, engine)
    if refusal is not None:
        return refusal
    m, n = basis.m, basis.n
    n_params = k * (1 + n) + (k if free_sigma_per_component else 1)
    if n_params > m:
        warnings.warn(
            f"{n_params} parameters against {m} moments; the fit is underdetermined",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    target = s.values
    scale = 1.0 + float(np.max(np.abs(target)))
    box = 1.5 * _data_scale(s)
    # parameters optimized in log space; Gaussian locations are taken as they are
    logged = np.ones(n_params, dtype=bool)
    if kind == "gaussian":
        logged[k : k + k * n] = False

    def unpack(thetas: np.ndarray):
        """Weights, locations and scales of a stack of parameter points."""
        with np.errstate(over="ignore"):
            params = np.where(logged, np.exp(thetas), thetas)
        if not (np.isfinite(params).all() and (params[:, logged] > 0).all()):
            raise ValueError("parameters left the finite positive range")
        c = len(params)
        weights = params[:, :k]
        means = params[:, k : k + k * n].reshape(c * k, n)
        sigmas = params[:, k + k * n :]
        if not free_sigma_per_component:
            sigmas = np.repeat(sigmas, k, axis=1)
        return weights, means, sigmas.ravel(), params

    # huge weights times large moments overflow to inf, which the solver
    # rejects as a step
    def point(theta: np.ndarray):
        weights, means, sigmas, params = unpack(theta[None])
        weights = weights[0]
        B, dmean, dsigma = component_moments(basis, kind, means, sigmas, derivatives=True)
        with np.errstate(over="ignore"):
            dsigma = weights[:, None] * dsigma
            if not free_sigma_per_component:
                dsigma = dsigma.sum(axis=0, keepdims=True)
            J = np.concatenate([B, (weights[:, None, None] * dmean).reshape(k * n, m), dsigma]).T
            # chain rule through the log parameters: d exp(t) / dt = exp(t)
            return weights @ B - target, J * np.where(logged, params[0], 1.0)

    def values(thetas: np.ndarray) -> np.ndarray:
        weights, means, sigmas, _ = unpack(thetas)
        B = component_moments(basis, kind, means, sigmas).reshape(-1, k, m)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.einsum("ck,ckm->cm", weights, B) - target

    best = None
    iterations = 0
    for _ in range(n_starts):
        g0 = np.log(np.full(k, max(target[0], 1e-3) / k if target[0] > 0 else 1.0 / k))
        if kind == "lognormal":
            loc0 = np.log(rng.uniform(0.3 * box, box, size=(k, n)))
        else:
            loc0 = rng.uniform(-box, box, size=(k, n))
        tau_n = k if free_sigma_per_component else 1
        tau0 = np.log(rng.uniform(*_LM_SIGMA_STARTS, size=tau_n))
        theta0 = np.concatenate([g0, loc0.ravel(), tau0])
        try:
            run = _damped_least_squares(point, values, theta0, _REL_TOL * scale, _LM_ITERS)
        except (ValueError, OverflowError):
            continue  # the start itself does not evaluate
        iterations += run.iterations
        r = float(np.max(np.abs(run.r))) / scale
        if best is None or r < best[0]:
            best = (r, run.theta)
        if r <= _REL_TOL:
            break
    if best is None:
        return _failed(engine, "all starts failed to evaluate", iterations=iterations)
    r, theta = best
    weights, means, sigmas, _ = unpack(theta[None])
    model = MixtureMeasure(kind=kind, weights=weights[0], means=means, sigmas=sigmas)
    return _judged(
        engine, model, r, _REL_TOL, "best start stalled above tolerance", iterations=iterations
    )
