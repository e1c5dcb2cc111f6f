"""Mixture recovery engines.

Five routes from a moment vector back to a measure:

* ``prony_dirac`` -- atoms as the eigenvalues of the symmetric Jacobi
  matrix of the Hankel blocks (Golub-Welsch), weights from a Vandermonde
  solve.
* ``recover_shared_sigma_gaussian`` and ``recover_shared_sigma_lognormal``
  -- the structural step alone, judged at the caller's tolerance.
* ``lm_fit`` -- generic moment matching by the damped least-squares solver
  with log-parameterized positive parameters; the classical
  method-of-moments fallback when nothing structural applies.  The
  structural step comes first: a try that meets 1e-8 is the fit, and a
  miss with k components is the first start.
* ``homotopy_gap_recovery`` -- made for bases with exponent gaps: a
  shared-scale ``lm_fit`` judged at the caller's tolerance; from the Dirac
  start its scale moves with the weights and means.

``_structural_fit`` is the structural step of every engine, and the one
place that picks it for a basis, kind and count.  It first caps the count
at what the basis determines (``_structural_count``): m // 2 for m moments
on a Hankel basis, D // 2 for top degree D on any other, so a count above
the cap gets the try with the capped count.  Each of its three steps fits
one shared scale with no solver.  ``_pull_back`` maps a vector at a trial
scale to moments of the atom locations: the closed-form inverse of the
triangular transfer matrix for Gaussian vectors, each moment over its
growth factor for log-normal ones.  The largest-scale step
``_largest_scale`` finds the common scale where the pulled-back Hankel
block of the sought count turns singular (Lindsay 1989), bracketed by ITP
steps on its smallest eigenvalue (``conegeo._itp_bracket``), and one Prony
solve there gives the mixture.  The schedule descent Prony-solves the
pull-back at each scale of ``_SCHEDULE``.  The completion step
(``_completed_dirac``) serves bases with gaps: the pull-back at scale 0.1 is
affine in the missing moments, and a singular positive semidefinite Hankel
completion of it gives k atoms whose mixture at 0.1 has the given moments.

``lm_fit`` runs ``_damped_least_squares``, a Levenberg descent that factors
the Jacobian once per iteration by SVD and tries the minimum-norm
Gauss-Newton step first.  The fit hands it two maps: a point to its
residual and Jacobian (one kernel call with derivatives), and a stack of
points to their residuals (one values-only kernel call), which evaluates
every damped step of a rejected iteration at once.  Besides the goal, a run
stops when no damped step lowers the residual, at a step that lowers the
squared residual by less than a relative 1e-8, and when its last 50
iterations lowered it by less than 1%.

Success is always judged by the moment residual, never by parameter
closeness: distinct parameter sets can represent the same moments.  Every
engine but ``prony_dirac`` first refuses vectors that a cone test certifies
as exterior, before any schedule step or solver start: the smallest
eigenvalue over every principal block of the moment matrix (s_{a+b}) whose
entries the basis holds, and for log-normal vectors of its shifts
(s_{a+b+e}) too (``conegeo._cone_blocks``).  That test is the only refusal
of a vector; ``MomentVector`` admits finite values alone, and
``conegeo._is_hankel_basis`` is the one basis rule of the Prony-based
engines and of the structural step.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .basis import MonomialBasis
from .conegeo import (
    _SUPPORT_NAME,
    EXTERIOR,
    _classify,
    _cone_blocks,
    _is_hankel_basis,
    _itp_bracket,
    _require_hankel_basis,
)
from .errors import (
    ConditioningError,
    InfeasibleWeightsError,
    NotRepresentableError,
    UnsupportedBasisError,
)
from .measures import AtomicMeasure, MixtureMeasure
from .moments import (
    MomentVector,
    _inverse_transfer_matrix,
    _kernel_plan,
    _relative_residual,
    component_moments,
    dirac_moments,
)

__all__ = [
    "RecoveryReport",
    "prony_dirac",
    "recover_shared_sigma_gaussian",
    "recover_shared_sigma_lognormal",
    "homotopy_gap_recovery",
    "lm_fit",
]

# goal of prony_dirac and lm_fit: the moment residual max|moments - s| / (1 + max|s|)
_REL_TOL = 1e-8
_WEIGHT_TOL = 1e-10
_RANK_TOL = 1e-10
# scale schedule of the shared-scale descent: 40 halvings from 1
_SCHEDULE = tuple(0.5**j for j in range(40))
# largest-scale step: floor of the first scale, and width of the final scale
# bracket relative to the first scale, 34 halvings of [0, sd]
_SCALE_FLOOR = 1e-10
_SCALE_REL_WIDTH = 1e-10
# gap bases: the scale at which the completion step first completes the
# pulled-back moments, and the scale of its try
_SIGMA_TARGET = 0.1
# Hankel completion step: Newton steps of the ascent on the smallest
# eigenvalue, the longest step relative to the largest moment, and halvings
# of one step before the ascent gives up
_COMPLETION_STEPS = 20
_COMPLETION_REACH = 0.25
_COMPLETION_HALVINGS = 30
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
    least-squares solver in ``lm_fit`` and the gap route, summed over all
    starts; it is 0 for the shared-scale engines, and for an ``lm_fit`` that
    ``_structural_fit`` settles without the solver.  ``sigma_steps`` counts
    the scales the schedule descent of a shared-scale engine at 2k = m
    tried, the accepted one included; it is 0 for the largest-scale step
    (2k < m), ``lm_fit`` and the gap route.  ``sigma_used`` is the common
    scale of every model that has one shared scale by construction: a
    shared-scale engine's, a structural fit's, and an ``lm_fit`` solver fit
    with ``free_sigma_per_component=False``, the gap route's included.  It
    is None for a free-scale solver fit and for a report with no model.
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


def _exterior_refusal(s: MomentVector, kind: str, engine: str) -> RecoveryReport | None:
    """A failed report when ``conegeo._classify`` on the blocks of ``kind``
    certifies ``s`` as exterior, None otherwise: no mixture has moments
    outside the cone, so such vectors are refused before any solver work."""
    verdict = _classify(s.values, _cone_blocks(s.basis, kind))
    if verdict.status != EXTERIOR:
        return None
    return _failed(
        engine,
        f"exterior: {_SUPPORT_NAME[kind]} Hankel margin {verdict.margin:.3e} "
        f"below -{verdict.tolerance:.3e}",
    )


@functools.cache
def _hankel_index(rows: int, cols: int) -> np.ndarray:
    """Indices i + j of the rows-by-cols Hankel matrix of a sequence,
    read-only because every call shares them."""
    index = np.add.outer(np.arange(rows), np.arange(cols))
    index.setflags(write=False)
    return index


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
    negative weights, a Vandermonde matrix beyond the float range or a
    failed solve; infeasibility at the full-rank count means the whole
    vector is infeasible.
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
    if not np.isfinite(V).all():  # LAPACK prints a complaint to stdout on inf
        raise ConditioningError("Vandermonde matrix beyond the float range")
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


@np.errstate(all="ignore")
def prony_dirac(s: MomentVector, k: int) -> AtomicMeasure:
    """Recover a measure with at most k atoms from a full-degree univariate
    moment vector; a rank-deficient Hankel slice lowers the atom count.  A
    reconstruction whose moment residual exceeds 1e-8 raises."""
    basis = s.basis
    _require_hankel_basis(basis, "dirac")
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


def _pull_back(s: MomentVector, kind: str, sigma: float) -> np.ndarray:
    """Moments of the component locations of a shared-scale vector of ``kind``
    at scale ``sigma``: the inverse transfer matrix for Gaussian vectors, each
    moment over its growth factor for log-normal ones.  For a larger common
    scale c, either gives the same mixture's moments at sqrt(c^2 - sigma^2)."""
    if kind == "gaussian":
        return _inverse_transfer_matrix(s.basis, sigma) @ s.values
    dd = _kernel_plan(s.basis).exponents[:, 0]
    return s.values * np.exp(-0.5 * dd * dd * sigma * sigma)


@dataclass(slots=True)
class _ScaleFit:
    """One Prony attempt at one scale: the component weights, the locations
    as a (k, 1) column and the moment residual, with no model built."""

    sigma: float
    weights: np.ndarray
    means: np.ndarray
    residual: float

    def model(self, kind: str) -> MixtureMeasure:
        sigmas = np.full(len(self.weights), self.sigma)
        return MixtureMeasure(kind=kind, weights=self.weights, means=self.means, sigmas=sigmas)


def _scale_fit(
    s: MomentVector, kind: str, sigma: float, weights: np.ndarray, means: np.ndarray
) -> _ScaleFit:
    """The mixture of ``kind`` with these weights and (k, 1) locations at the
    common scale ``sigma``, and its moment residual against ``s``."""
    values = weights @ component_moments(s.basis, kind, means, np.full(len(weights), sigma))
    return _ScaleFit(sigma, weights, means, _relative_residual(values, s.values))


def _fit_at_scale(s: MomentVector, kind: str, sigma: float, k: int) -> _ScaleFit | None:
    """The mixture of ``kind`` at scale ``sigma`` whose at most ``k`` atoms
    ``_prony`` finds in the pull-back of ``s`` at that scale, and its
    residual; None when Prony raises, a log-normal atom is not positive or
    a weight leaves (0, inf) once divided by its atom's power d1.  The
    residual comes straight from the moment kernel, so a try that no caller
    returns builds no ``MixtureMeasure``."""
    try:
        atoms, w = _prony(_pull_back(s, kind, sigma), k)
    except (NotRepresentableError, InfeasibleWeightsError, ConditioningError):
        return None
    if kind == "lognormal" and np.any(atoms <= 0):
        return None  # atoms must land in (0, inf)
    # pulled-back moments start at degree d1, so their weights carry atoms**d1;
    # _prony's weights are positive, but dividing it out can leave the float range
    d1 = s.basis.exponents[0][0]
    if d1:
        w = w / atoms**d1
        if not (np.isfinite(w).all() and (w > 0).all()):
            return None
    return _scale_fit(s, kind, sigma, w, atoms.reshape(-1, 1))


def _largest_scale(s: MomentVector, kind: str, k: int, tol: float) -> _ScaleFit | None:
    """The best shared-scale fit of ``kind`` with at most ``k`` components
    that the common scales of ``s`` give, 1 <= k and 2k < m, with no
    descent and no random start.

    A vector with a j-component shared-scale representation has a pull-back
    whose (j+1)-by-(j+1) Hankel block H_j is positive definite below the
    common scale and singular at it (Lindsay 1989, Ann. Statist. 17); for
    both kinds the pull-back at t holds the mixture's moments at scale
    sqrt(sigma^2 - t^2).  Each block leads the next, so the scale where H_j
    leaves the definite side falls with j, and orders are tried from 1 up.
    H_1 is singular at ``sqrt(s2/s0 - (s1/s0)^2)`` for Gaussian vectors and
    ``sqrt(log s0 + log s2 - 2 log s1)`` for log-normal ones, floored at
    1e-10 so that a one-atom vector still gets its fit; each higher order
    brackets the sign change of its block's smallest eigenvalue with
    ``_itp_bracket``, from 0 to the last order's upper end, down to 1e-10
    of the first scale.  ``_prony`` with at most j atoms runs at both
    positive ends.  The first order whose better end meets ``tol`` gives
    the fit; otherwise the try with the smallest residual is returned, for
    the caller to judge.  None when no try ran: ``s0 <= 0`` (for log-normal
    vectors also ``s1`` or ``s2 <= 0``) or no end gave a fit.  The bracketed
    block's order must not exceed the count sought: a larger block has
    several eigenvalues that vanish at the common scale, and the smallest
    loses its sign to rounding well before it.
    """
    s0, s1, s2 = s.values[:3]
    if kind == "gaussian" and s0 > 0:
        variance = s2 / s0 - (s1 / s0) ** 2
    elif kind == "lognormal" and s0 > 0 and s1 > 0 and s2 > 0:
        variance = math.log(s0) + math.log(s2) - 2.0 * math.log(s1)
    else:
        return None
    sd = max(math.sqrt(max(variance, 0.0)), _SCALE_FLOOR)
    lo = hi = sd
    best = None
    for order in range(1, k + 1):
        if order > 1:
            index = _hankel_index(order + 1, order + 1)

            def smallest_eigenvalue(sigma: float) -> float:
                return np.linalg.eigvalsh(_pull_back(s, kind, sigma)[index])[0]

            lo, hi = _itp_bracket(smallest_eigenvalue, 0.0, hi, _SCALE_REL_WIDTH * sd)
        for sigma in (lo,) if lo == hi else (lo, hi):
            if not sigma > 0:
                continue
            fit = _fit_at_scale(s, kind, sigma, order)
            if fit is not None and (best is None or fit.residual < best.residual):
                best = fit
        if best is not None and best.residual <= tol:
            break
    return best


def _structural_count(basis: MonomialBasis, kind: str, k: int) -> int:
    """The most components the structural step fits to a vector on
    ``basis`` when ``k`` are asked for: at most m // 2 on a basis that
    ``conegeo._is_hankel_basis`` takes for ``kind``, where a Prony solve for
    j atoms reads 2j of the m moments, and at most D // 2 on any other, D
    the top degree, where the completion step reads a Hankel block of order
    D/2 + 1."""
    if _is_hankel_basis(basis, kind):
        return min(k, basis.m // 2)
    return min(k, basis.max_degree // 2)


def _structural_fit(s: MomentVector, kind: str, k: int, tol: float) -> _ScaleFit | None:
    """The structural step of every engine, the one route rule: a fit of
    ``kind`` with at most ``k`` components to ``s`` with no solver and no
    random draw, for the caller to judge.

    The count is first capped by ``_structural_count``, so every k gets a
    try.  On a basis that ``conegeo._is_hankel_basis`` takes for ``kind``,
    with m moments: 2k < m takes the largest-scale step (``_largest_scale``);
    2k = m, where Prony reads every moment, descends ``_SCHEDULE`` and
    returns the first ``_fit_at_scale`` that meets ``tol``, else the try
    with the smallest residual.  On any other univariate basis a Gaussian
    fit takes the completion step (``_completed_dirac``), which serves the
    capped count D/2 at an even top degree D: the moments pulled back to
    scale 0.1, then, if that gives fewer than D/2 atoms, the moments
    themselves at scale 0; the first with D/2 atoms, every scale at 0.1, is
    the try.  None when the capped count is 0, no step applies or no try
    gave a fit.
    """
    basis = s.basis
    k = _structural_count(basis, kind, k)
    if _is_hankel_basis(basis, kind):
        if 2 * k < basis.m:
            return _largest_scale(s, kind, k, tol) if k else None
        best = None
        for sigma in _SCHEDULE:
            fit = _fit_at_scale(s, kind, sigma, k)
            # an infinite or undefined residual is never the best
            if fit is not None and fit.residual < (math.inf if best is None else best.residual):
                best = fit
                if best.residual <= tol:
                    break
        return best
    if kind == "gaussian" and basis.n == 1:
        # the atoms of the completion at 0 are put at 0.1 as well
        for sigma in (_SIGMA_TARGET, 0.0):
            completion = _completed_dirac(s, k, sigma)
            if completion is not None and len(completion[1]) == k:
                atoms, weights = completion
                return _scale_fit(s, kind, _SIGMA_TARGET, weights, atoms.reshape(k, 1))
    return None


# one string per kind, shared by every report instead of built per call
_ENGINE = {"gaussian": "shared-sigma-gaussian", "lognormal": "shared-sigma-lognormal"}
_EXHAUSTED_REASON = {
    "gaussian": "schedule exhausted without a feasible recovery",
    "lognormal": "schedule exhausted without positive atoms and matching moments",
}


@np.errstate(all="ignore")
def _shared_scale_descent(
    s: MomentVector, kind: str, k: int | None, rel_tol: float
) -> RecoveryReport:
    """Recover a shared-scale mixture of ``kind`` with at most ``k``
    components, and at most floor(m/2): a Prony solve for k atoms reads 2k
    of the m moments.

    The basis and ``k`` are checked first, and a vector that the cone test
    of ``kind`` certifies as exterior is refused.  Then ``_structural_fit``
    alone, judged at ``rel_tol``: on success ``sigma_steps`` is the scale's
    place in ``_SCHEDULE`` when the count took the schedule (2k = m), else 0.
    A miss reports the best residual with no model.  Overflow raises no
    warning; a model's moments or a Gaussian pull-back's scale powers beyond
    the float range raise ``MomentOverflowError``.
    """
    _require_hankel_basis(s.basis, kind)
    if k is not None and k < 1:
        raise ValueError(f"k={k}: a recovery needs at least one component")
    engine = _ENGINE[kind]
    if not np.any(s.values):  # the empty mixture matches exactly, whatever rel_tol is
        return _judged(engine, MixtureMeasure.empty(kind), 0.0, 0.0, None)
    refusal = _exterior_refusal(s, kind, engine)
    if refusal is not None:
        return refusal
    k_target = _structural_count(s.basis, kind, s.basis.m if k is None else k)
    on_schedule = 2 * k_target == s.basis.m
    fit = _structural_fit(s, kind, k_target, rel_tol)
    if fit is not None and fit.residual <= rel_tol:
        steps = _SCHEDULE.index(fit.sigma) + 1 if on_schedule else 0
        return _judged(engine, fit.model(kind), fit.residual, rel_tol, None,
                       sigma_used=fit.sigma, sigma_steps=steps)
    residual = math.inf if fit is None else fit.residual
    if on_schedule:
        return _failed(engine, _EXHAUSTED_REASON[kind], residual, sigma_steps=len(_SCHEDULE))
    return _failed(engine, f"no shared-scale fit with at most {k_target} components", residual)


def recover_shared_sigma_gaussian(
    s: MomentVector, *, k: int | None = None, rel_tol: float = 1e-8
) -> RecoveryReport:
    """Recover a Gaussian mixture whose components share one scale.

    ``k`` is capped at ``floor((d+1)/2)``, the cap when None, and picks the
    route; a vector that the real-line Hankel test certifies as exterior is
    refused at once.  With 2k <= d (every count at even d) the largest-scale
    step alone looks for a representation with at most k components at one
    common scale; the report has ``sigma_steps`` 0 and, on success, the
    scale as ``sigma_used``, and a miss reports the best residual the step
    reached, with no model.  At the cap of an odd d (2k = d + 1) the vector
    is pulled back through the unit-triangular transfer matrix at each scale
    of the descending schedule, and the first successful Prony recovery
    gives the mixture; interior vectors succeed once the scale is small
    enough.
    """
    return _shared_scale_descent(s, "gaussian", k, rel_tol)


def recover_shared_sigma_lognormal(
    s: MomentVector, *, k: int | None = None, rel_tol: float = 1e-8
) -> RecoveryReport:
    """Recover a log-normal mixture with one shared scale on consecutive
    exponents {x^a, ..., x^(a+d)}.

    Dividing each moment by the closed-form growth factor turns the vector
    into ordinary moments of the atom locations (weights absorb the leading
    exponent), which Prony then recovers; only strictly positive atoms are
    accepted.  ``k`` is capped at ``floor(m/2)`` for m moments, the cap when
    None, and picks the route as in the Gaussian engine: with 2k < m (every
    count at odd m) the largest-scale step alone, at 2k = m the schedule.  A
    vector that the half-line Hankel test certifies as exterior, such as
    one with a negative moment, is refused at once.
    """
    return _shared_scale_descent(s, "lognormal", k, rel_tol)


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


def _damped_least_squares(point, values, theta: np.ndarray, goal: float, max_iters: int) -> _Run:
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
    lowers ``|r|^2`` by less than a relative 1e-8, and when the last 50
    iterations lowered it by less than 1%.
    """
    r, J = point(theta)
    damping = 0.0
    costs = []
    # a residual that overflows has an infinite or undefined cost, which no
    # comparison accepts
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(max_iters):
            if np.abs(r).max() <= goal:
                return _Run(theta, r, J, True, iteration)
            cost = r @ r
            if costs and (
                cost > costs[-1] * (1.0 - _MIN_PROGRESS)  # a plateau
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


@functools.cache
def _completion_tables(k: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The inverse transfer matrix ``T_sigma^-1`` on {1, x, ..., x^2k} and,
    stacked by degree g, the Hankel matrix ``P_g`` of its column g, so that
    the (k+1)-by-(k+1) Hankel block of ``T_sigma^-1 y`` is ``sum_g y_g P_g``.
    At sigma 0 they are the identity and the 0/1 patterns of each degree.
    Read-only, because every call with one (k, sigma) shares them."""
    inverse = _inverse_transfer_matrix(MonomialBasis.full_degree(2 * k), sigma)
    hankels = inverse.T[:, _hankel_index(k + 1, k + 1)]
    for table in (inverse, hankels):
        table.setflags(write=False)
    return inverse, hankels


def _completed_dirac(
    s: MomentVector, k: int, sigma: float = 0.0
) -> tuple[np.ndarray, np.ndarray] | None:
    """Atoms and weights of a measure whose shared-scale Gaussian mixture at
    ``sigma`` has the moments of ``s``, read off a completion of the missing
    moments, when the basis is univariate, holds degree 0, has top degree
    d = 2k and misses a degree below d.  At sigma 0 the measure itself has
    the moments of ``s``.

    The smoothed sequence y = [s; z] on {1, x, ..., x^2k}, with z the
    missing moments, pulls back to ``u(z) = T_sigma^-1 y``, affine in z;
    smoothing at sigma maps the moments of a measure to y, and ``M(sigma)
    M(i sigma) = I``.  A sequence u_0..u_2k whose (k+1)-by-(k+1) Hankel block
    H is positive semidefinite and singular has a unique representing
    measure, with rank(H) atoms (Curto & Fialkow 1991, Houston J. Math. 17),
    so that measure smoothed at sigma has exactly the moments of ``s``.  The
    step is homogeneous in the sequence, so it runs on s scaled to max|s| = 1
    and scales the weights back.  The missing moments start at 0 for odd
    degrees and at half the geometric interpolation of the nearest given even
    moments for even ones.  Newton steps raise the smallest eigenvalue of H,
    a concave function of z: its gradient at degree g is ``v^T P_g v``, with
    v the eigenvector and P_g the Hankel matrix of column g of
    ``T_sigma^-1`` (the 0/1 pattern of degree g at sigma 0), and its Hessian
    ``2 sum_l (v^T P_g v_l)(v_l^T P_h v) / (lam_0 - lam_l)`` over the other
    eigenpairs.  A step reaches at most a quarter of the largest moment and
    is halved until the eigenvalue rises, at most 30 times; the ascent stops
    at the first positive eigenvalue, within 20 steps.  With H = L L^T
    there, the largest missing moment moves to the boundary in closed form:
    H turns singular at both ends z_g - 1/mu of the interval where it stays
    definite, mu the smallest and the largest eigenvalue of
    ``L^-1 P_g L^-T`` (of both signs, because P_g is indefinite), with
    kernel ``q = L^-T y``, y the eigenvector.  q holds the coefficients of
    the polynomial that vanishes on the atoms, and the end with the smaller
    root bound ``max|q_i| / |q_k|`` is taken: at the other end an atom often
    runs off with a vanishing weight.  ``_prony`` reads the measure off the
    completed pull-back; the pair is empty when Prony raises, and holds fewer
    than k atoms when H has lower rank.  None when the step does not apply
    or finds no positive-definite completion, as for a vector with every
    moment 0.
    """
    degrees = s.basis.univariate_degrees()
    gaps = sorted(set(range(2 * k)) - set(degrees))
    size = float(np.abs(s.values).max())
    if not (degrees[0] == 0 and degrees[-1] == 2 * k and gaps and size > 0):
        return None
    y = np.zeros(2 * k + 1)
    y[list(degrees)] = s.values / size
    given_even = [g for g in range(0, 2 * k + 1, 2) if g not in gaps]
    for g in (g for g in gaps if g % 2 == 0):
        a = max(e for e in given_even if e < g)
        b = min(e for e in given_even if e > g)
        if not (y[a] > 0 and y[b] > 0):
            return None  # a diagonal entry of H is not positive
        t = (g - a) / (b - a)
        y[g] = 0.5 * y[a] ** (1.0 - t) * y[b] ** t
    inverse, hankels = _completion_tables(k, sigma)
    patterns = hankels[gaps]
    index = _hankel_index(k + 1, k + 1)
    u = inverse @ y
    lam, V = np.linalg.eigh(u[index])
    for _ in range(_COMPLETION_STEPS):
        if lam[0] > 0:
            break
        # C[l, g] = v_l^T P_g v, v = v_0 the eigenvector of the smallest eigenvalue
        C = V.T @ (patterns @ V[:, 0]).T
        spread = np.maximum(lam[1:] - lam[0], _SVD_CUTOFF * np.abs(lam).max())
        neg_hessian = 2.0 * (C[1:].T / spread) @ C[1:]
        step = np.linalg.lstsq(neg_hessian, C[0], rcond=None)[0]
        reach, longest = _COMPLETION_REACH * np.abs(y).max(), np.abs(step).max()
        if longest > reach:
            step *= reach / longest
        for _ in range(_COMPLETION_HALVINGS):
            trial = y.copy()
            trial[gaps] += step
            u_trial = inverse @ trial
            lam_t, V_t = np.linalg.eigh(u_trial[index])
            if lam_t[0] > lam[0]:
                y, u, lam, V = trial, u_trial, lam_t, V_t
                break
            step *= 0.5
        else:
            return None
    if not lam[0] > 0:
        return None
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(u[index]))
    except np.linalg.LinAlgError:
        return None
    mu, Y = np.linalg.eigh(L_inv @ patterns[-1] @ L_inv.T)
    q = np.abs(L_inv.T @ Y[:, [0, -1]])
    lead, rest = q[-1], q[:-1].max(axis=0)
    end = 0 if lead[0] * rest[1] >= lead[1] * rest[0] else -1
    y[gaps[-1]] -= 1.0 / mu[end]
    try:
        atoms, weights = _prony(inverse @ y, k)
    except (NotRepresentableError, InfeasibleWeightsError, ConditioningError):
        return np.zeros(0), np.zeros(0)
    return atoms, weights * size


def homotopy_gap_recovery(
    basis: MonomialBasis,
    s: MomentVector,
    k: int,
    *,
    seed: int = 0,
    rel_tol: float = 1e-8,
) -> RecoveryReport:
    """Shared-scale Gaussian recovery, made for bases with exponent gaps:
    ``lm_fit`` with one scale for every component, judged at ``rel_tol``.

    The fit tries ``_structural_fit`` first, on a univariate basis with gaps
    the completion step: where it matches ``s`` the report has
    ``iterations`` 0, and otherwise, when it has k atoms, they start the
    solver at scale 0.1, from where the scale moves with the weights and
    means, so no Dirac representation needs to exist.  Every basis and
    count that ``lm_fit`` takes is taken.  A vector that the real-line cone
    test certifies as exterior is refused before any start.
    ``sigma_used`` is ``lm_fit``'s, the fitted scale, ``iterations`` the
    solver iterations over all starts, and ``sigma_steps`` 0.
    """
    engine = "homotopy-gap"
    fit = lm_fit(basis, "gaussian", s, k, free_sigma_per_component=False, seed=seed)
    if fit.model is None:
        return _failed(engine, fit.failure_reason, fit.residual, iterations=fit.iterations)
    return _judged(engine, fit.model, fit.residual, rel_tol, "final residual above tolerance",
                   sigma_used=fit.sigma_used, iterations=fit.iterations)


@np.errstate(all="ignore")
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
    """Generic method-of-moments fit by multistart damped least squares,
    after the structural step.

    ``_structural_fit`` tries first, for both kinds, with one shared scale
    or free ones and at every k; it fits at most the count the basis
    determines.  A try at or below 1e-8 is the fit, with ``iterations`` 0,
    no random draw and possibly fewer than k components.  Otherwise the
    try, when it has exactly k components, is one extra start before the
    ``n_starts`` random ones, every scale at its common one, and runs like
    any start; the random starts are drawn as they would be without it.
    ``sigma_used`` is the common scale of a structural fit and of a solver
    fit with one shared scale, None for a free-scale solver fit.

    Weights and scales (and log-normal locations) are optimized in log space
    so positivity needs no constraints; the Jacobian is the analytic one of
    the moment kernel, taken through the log parameters by the chain rule.
    Each start runs the solver for at most 2000 iterations, stopping at a
    moment residual of 1e-8 or at a plateau, such as 50 iterations that
    together lower the squared residual by less than 1%; the best start by
    moment residual wins, and success is a residual at or below 1e-8.
    ``k`` and ``n_starts`` must be positive.  A vector that the cone test of
    ``kind`` certifies as exterior on some principal block of its moment
    matrices is refused before any start.  Floating-point overflow raises no
    warning: a point whose moments leave the float range is a rejected step.
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
    step = _structural_fit(s, kind, k, _REL_TOL)
    if step is not None and step.residual <= _REL_TOL:
        return _judged(engine, step.model(kind), step.residual, _REL_TOL, None,
                       sigma_used=step.sigma)
    # a structural first start: weights, (k, 1) locations and one common scale
    first = step if step is not None and len(step.weights) == k else None
    m, n = basis.m, basis.n
    n_params = k * (1 + n) + (k if free_sigma_per_component else 1)
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
        params = np.where(logged, np.exp(thetas), thetas)
        if not (np.isfinite(params).all() and (params[:, logged] > 0).all()):
            raise ValueError("parameters left the finite positive range")
        weights = params[:, :k]
        means = params[:, k : k + k * n].reshape(len(params) * k, n)
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
        dsigma = weights[:, None] * dsigma
        if not free_sigma_per_component:
            dsigma = dsigma.sum(axis=0, keepdims=True)
        J = np.concatenate([B, (weights[:, None, None] * dmean).reshape(k * n, m), dsigma]).T
        # chain rule through the log parameters: d exp(t) / dt = exp(t)
        return weights @ B - target, J * np.where(logged, params[0], 1.0)

    def values(thetas: np.ndarray) -> np.ndarray:
        weights, means, sigmas, _ = unpack(thetas)
        B = component_moments(basis, kind, means, sigmas).reshape(-1, k, m)
        return np.einsum("ck,ckm->cm", weights, B) - target

    tau_n = k if free_sigma_per_component else 1

    def starts():
        """The structural first start, every scale at its common one, then
        the ``n_starts`` random starts, each drawn only when reached."""
        if first is not None:
            params = np.concatenate([first.weights, first.means.ravel(), [first.sigma] * tau_n])
            yield np.where(logged, np.log(params), params)
        for _ in range(n_starts):
            g0 = np.log(np.full(k, max(target[0], 1e-3) / k if target[0] > 0 else 1.0 / k))
            if kind == "lognormal":
                loc0 = np.log(rng.uniform(0.3 * box, box, size=(k, n)))
            else:
                loc0 = rng.uniform(-box, box, size=(k, n))
            tau0 = np.log(rng.uniform(*_LM_SIGMA_STARTS, size=tau_n))
            yield np.concatenate([g0, loc0.ravel(), tau0])

    best = None
    iterations = 0
    for theta0 in starts():
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
    sigma_used = None if free_sigma_per_component else float(sigmas[0])
    return _judged(engine, model, r, _REL_TOL, "best start stalled above tolerance",
                   iterations=iterations, sigma_used=sigma_used)
