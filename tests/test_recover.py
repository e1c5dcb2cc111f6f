import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcara import recover
from mixcara.basis import MonomialBasis
from mixcara.conegeo import _hankel_index, hankel_classify
from mixcara.errors import (
    ConditioningError,
    InfeasibleMomentsError,
    InfeasibleWeightsError,
    MixcaraError,
    MomentOverflowError,
    NotRepresentableError,
    UnsupportedBasisError,
)
from mixcara.measures import AtomicMeasure, MixtureMeasure, sample_random_mixture
from mixcara.moments import (
    MomentVector,
    _inverse_transfer_matrix,
    _relative_residual,
    dirac_moments,
    mixture_moments,
)
from mixcara.recover import (
    default_sigma_schedule,
    homotopy_gap_recovery,
    lm_fit,
    prony_dirac,
    recover_shared_sigma_gaussian,
    recover_shared_sigma_lognormal,
)

GAP = MonomialBasis.univariate([0, 2, 3, 5, 6])


def mv(values, basis):
    return MomentVector(values=np.asarray(values, dtype=float), basis=basis)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every moment-kernel call the engines make, as (means, derivatives)."""
    calls = []
    real = recover.component_moments

    def spy(basis, kind, means, sigmas, derivatives=False):
        calls.append((np.array(means, dtype=float), derivatives))
        return real(basis, kind, means, sigmas, derivatives)

    monkeypatch.setattr(recover, "component_moments", spy)
    return calls


@pytest.fixture
def solver_runs(monkeypatch):
    """The closures and start point of every damped least-squares run."""
    runs = []
    real = recover._damped_least_squares

    def spy(point, values, theta, goal, max_iters):
        runs.append((point, values, theta.copy()))
        return real(point, values, theta, goal, max_iters)

    monkeypatch.setattr(recover, "_damped_least_squares", spy)
    return runs


# ---------------------------------------------------------------- prony


def test_prony_single_atom_at_one():
    s = mv([1, 1, 1, 1], MonomialBasis.full_degree(3))
    atoms = prony_dirac(s, 1)
    np.testing.assert_allclose(atoms.weights, [1.0])
    np.testing.assert_allclose(atoms.points, [[1.0]])


def test_prony_symmetric_pair():
    s = mv([1, 0, 1, 0, 1, 0], MonomialBasis.full_degree(5))
    atoms = prony_dirac(s, 2)
    np.testing.assert_allclose(np.sort(atoms.points.ravel()), [-1.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(atoms.weights, [0.5, 0.5], atol=1e-10)


def test_prony_hand_computed_two_atoms():
    # 1*delta_1 + 3*delta_2 over {1, x, x^2, x^3}
    s = mv([4, 7, 13, 25], MonomialBasis.full_degree(3))
    atoms = prony_dirac(s, 2)
    order = np.argsort(atoms.points.ravel())
    np.testing.assert_allclose(atoms.points.ravel()[order], [1.0, 2.0], atol=1e-9)
    np.testing.assert_allclose(atoms.weights[order], [1.0, 3.0], atol=1e-9)


def test_prony_needs_enough_moments():
    s = mv([1, 1, 1, 1], MonomialBasis.full_degree(3))
    with pytest.raises(ValueError):
        prony_dirac(s, 3)  # needs moments up to degree 5


def test_prony_rejects_gap_basis():
    with pytest.raises(UnsupportedBasisError):
        prony_dirac(mv(np.ones(5), GAP), 2)


def test_prony_exterior_vector_fails():
    # the Hankel block [[1, 0], [0, -1]] is not positive definite
    s = mv([1, 0, -1, 0], MonomialBasis.full_degree(3))
    with pytest.raises(NotRepresentableError, match="Hankel block of order 2"):
        prony_dirac(s, 2)


def test_prony_lowers_count_on_rank_deficient_slice():
    # two atoms asked for as three: the 3-by-4 Hankel slice has rank 2
    basis = MonomialBasis.full_degree(5)
    mu = AtomicMeasure(weights=[1.0, 2.0], points=[[0.3], [-0.7]])
    rec = prony_dirac(dirac_moments(basis, mu), 3)
    assert rec.k == 2
    np.testing.assert_allclose(rec.points.ravel(), [-0.7, 0.3], atol=1e-12)
    np.testing.assert_allclose(rec.weights, [2.0, 1.0], atol=1e-12)


def test_prony_zero_vector_has_no_atoms():
    # every Hankel slice of the zero vector is zero, so no count has full rank
    rec = prony_dirac(mv(np.zeros(4), MonomialBasis.full_degree(3)), 2)
    assert rec.k == 0


def test_prony_roundtrip_many_seeds():
    basis = MonomialBasis.full_degree(5)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        pts = np.sort(rng.uniform(-1.5, 1.5, 3))
        while np.min(np.diff(pts)) < 0.2:
            pts = np.sort(rng.uniform(-1.5, 1.5, 3))
        w = rng.uniform(0.5, 2.0, 3)
        mu = AtomicMeasure(weights=w, points=pts.reshape(-1, 1))
        s = dirac_moments(basis, mu)
        rec = prony_dirac(s, 3)
        np.testing.assert_allclose(np.sort(rec.points.ravel()), pts, rtol=1e-7)


# the reference's tolerance on the imaginary part of a root
_IMAG_TOL = 1e-8


def _prony_reference(u, k_target):
    """``recover._prony`` as it was before Golub-Welsch atoms: the roots of
    the Hankel null vector's polynomial by np.roots, with a vanishing-lead
    guard and a rejection of nonreal roots (raised as NotRepresentableError,
    the type the shared-scale descent now catches in its place)."""
    for k in range(k_target, 0, -1):
        _, sv, vt = np.linalg.svd(u[_hankel_index(k, k + 1)])
        if sv[-1] > recover._RANK_TOL * sv[0]:
            break
    else:
        return np.zeros(0), np.zeros(0)
    coeffs = vt[-1]
    lead = coeffs[-1]
    if abs(lead) <= 1e-12 * np.linalg.norm(coeffs):
        raise ConditioningError("vanishing leading coefficient; atom count too high")
    roots = np.roots(coeffs[::-1] / lead)
    if np.any(np.abs(roots.imag) > _IMAG_TOL * (1.0 + np.abs(roots.real))):
        raise NotRepresentableError(f"complex atoms {roots.tolist()}")
    atoms = np.sort(roots.real)
    V = np.vander(atoms, N=len(u), increasing=True).T
    try:
        w, *_ = np.linalg.lstsq(V, u, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"Vandermonde solve failed: {exc}") from exc
    wscale = 1.0 + float(np.max(np.abs(u)))
    if np.any(w < -recover._WEIGHT_TOL * wscale):
        raise InfeasibleWeightsError(f"negative weights {w.tolist()}")
    w = np.clip(w, 0.0, None)
    keep = w > 0
    return atoms[keep], w[keep]


def same_bits(a, b):
    """Equal dtype, shape and bytes: -0.0 differs from 0.0, NaN equals itself."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# atoms of the Golub-Welsch step and of the reference differ by at most this,
# relative to 1 + |atom|, wherever the reference fit is exact
ATOM_AGREEMENT = 1e-6


def assert_prony_agrees(u, k):
    """Wherever the reference fits ``u`` exactly (moment residual at most
    1e-8), ``_prony`` returns as many atoms, within ``ATOM_AGREEMENT``; where
    the reference raises, ``_prony`` raises too."""
    try:
        atoms, weights = _prony_reference(u, k)
    except MixcaraError:
        with pytest.raises(MixcaraError):
            recover._prony(u, k)
        return
    fit = np.vander(atoms, N=len(u), increasing=True).T @ weights
    if _relative_residual(fit, u) > 1e-8:
        return
    got, _ = recover._prony(u, k)
    assert len(got) == len(atoms), (got, atoms)
    np.testing.assert_array_less(np.abs(got - atoms), ATOM_AGREEMENT * (1.0 + np.abs(atoms)))


@pytest.mark.parametrize(
    "weights, points",
    [([1.0], [0.0]),
     ([1.0, 1.0], [0.0, 1.0]),
     ([1.0, 1.0, 1.0], [0.0, -0.5, 2.0]),
     ([1.0, 1.0, 1.0], [-1.0, 0.0, 1.0]),
     ([2.0, 1.0, 2.0], [-3.0, 0.0, 3.0])],
    ids=["d0", "d0+d1", "d0+d-0.5+d2", "symmetric", "symmetric-wide"],
)
def test_prony_atoms_at_zero_agree_with_the_reference(weights, points):
    # an atom at 0 made the constant coefficient of the reference's
    # polynomial exactly 0 (a single atom at 0; symmetric measures at k = 3)
    mu = AtomicMeasure(weights=weights, points=np.reshape(points, (-1, 1)))
    for d in range(2 * len(weights) - 1, 14):
        u = dirac_moments(MonomialBasis.full_degree(d), mu).values
        for k in range(1, (d + 1) // 2 + 1):
            assert_prony_agrees(u, k)


def test_prony_single_atom_at_zero_is_plus_zero():
    atoms, weights = recover._prony(np.array([1.0, 0.0, 0.0]), 1)
    assert same_bits(atoms, np.array([0.0])) and same_bits(weights, np.array([1.0]))


def test_prony_random_vectors_agree_with_the_reference():
    # interior, noisy and pulled-back vectors
    for seed in range(40):
        rng = np.random.default_rng([20, seed])
        d = int(rng.integers(3, 16))
        k = (d + 1) // 2
        basis = MonomialBasis.full_degree(d)
        mu = AtomicMeasure(weights=rng.uniform(0.2, 2.0, k),
                           points=rng.uniform(-2.0, 2.0, (k, 1)))
        u = dirac_moments(basis, mu).values
        assert_prony_agrees(u, k)
        assert_prony_agrees(u + rng.normal(scale=1e-3, size=u.size), k)
        for sigma in default_sigma_schedule()[::8]:
            assert_prony_agrees(_inverse_transfer_matrix(basis, sigma) @ u, k)


def test_prony_calls_no_np_roots(monkeypatch):
    def no_roots(p):
        raise AssertionError("np.roots called")

    monkeypatch.setattr(np, "roots", no_roots)
    basis = MonomialBasis.full_degree(5)
    mu = AtomicMeasure(weights=[1.0, 2.0, 0.5], points=[[-1.0], [0.3], [1.2]])
    atoms, _ = recover._prony(dirac_moments(basis, mu).values, 3)
    np.testing.assert_allclose(atoms, [-1.0, 0.3, 1.2], atol=1e-9)


@pytest.mark.parametrize("kind", ["gaussian", "lognormal"])
def test_shared_scale_engines_match_the_reference_prony(monkeypatch, kind):
    # same verdict, count and schedule step as with the reference's roots
    engine, mean_range, sigma_range = {
        "gaussian": (recover_shared_sigma_gaussian, (-2.0, 2.0), (0.05, 0.3)),
        "lognormal": (recover_shared_sigma_lognormal, (0.6, 3.0), (0.1, 0.35)),
    }[kind]
    cases = []
    for d in range(5, 14):
        basis = MonomialBasis.full_degree(d)
        for seed in range(4):
            mix = sample_random_mixture(
                kind, (d + 1) // 2, rng=np.random.default_rng([21, d, seed]),
                mean_range=mean_range, sigma_range=sigma_range, min_separation=0.2,
                shared_sigma=True,
            )
            cases.append(mixture_moments(basis, mix))
    got = [engine(s) for s in cases]
    monkeypatch.setattr(recover, "_prony", _prony_reference)
    want = [engine(s) for s in cases]
    assert [(r.success, r.k_used, r.sigma_steps) for r in got] == \
        [(r.success, r.k_used, r.sigma_steps) for r in want]


# ------------------------------------------------- shared-sigma gaussian


def test_shared_sigma_gaussian_roundtrip_pair():
    basis = MonomialBasis.full_degree(5)
    mix = MixtureMeasure(
        kind="gaussian", weights=[0.5, 0.5], means=[[-1.0], [1.0]], sigmas=[0.3, 0.3]
    )
    s = mixture_moments(basis, mix)
    report = recover_shared_sigma_gaussian(s)
    assert report.success
    assert report.k_used <= 3
    assert report.residual <= 1e-8


def test_shared_sigma_gaussian_exact_scale_in_schedule():
    """With the true scale reachable, parameters match after permutation."""
    basis = MonomialBasis.full_degree(5)
    rng = np.random.default_rng(6)
    mix = sample_random_mixture(
        "gaussian", 3, rng=rng, sigma_range=(0.25, 0.25), min_separation=0.6,
        shared_sigma=True,
    )
    s = mixture_moments(basis, mix)
    schedule = [1.0, 0.5, 0.25, 0.125]
    report = recover_shared_sigma_gaussian(s, sigma_schedule=schedule)
    assert report.success and report.sigma_used == 0.25
    # the sampler sorts components by location; align the recovered ones the same way
    perm = np.argsort(report.model.means[:, 0])
    np.testing.assert_allclose(report.model.means[perm], mix.means, rtol=1e-5)
    np.testing.assert_allclose(report.model.weights[perm], mix.weights, rtol=1e-5)


def test_shared_sigma_gaussian_single_component_like_dirac():
    basis = MonomialBasis.full_degree(3)
    mix = MixtureMeasure(kind="gaussian", weights=[1.0], means=[[0.7]], sigmas=[0.2])
    s = mixture_moments(basis, mix)
    schedule = [0.8, 0.4, 0.2, 0.1]
    report = recover_shared_sigma_gaussian(s, sigma_schedule=schedule)
    assert report.success
    assert report.k_used == 1
    assert report.sigma_used == pytest.approx(0.2)
    assert report.model.means[0, 0] == pytest.approx(0.7, rel=1e-8)


def test_shared_sigma_gaussian_zero_vector():
    basis = MonomialBasis.full_degree(3)
    report = recover_shared_sigma_gaussian(mv(np.zeros(4), basis))
    assert report.success and report.model.k == 0 and report.residual == 0.0


def test_shared_sigma_gaussian_count_bound_random():
    basis = MonomialBasis.full_degree(5)
    successes = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        mix = sample_random_mixture(
            "gaussian", 3, rng=rng, sigma_range=(0.05, 0.3), min_separation=0.5,
            shared_sigma=True,
        )
        s = mixture_moments(basis, mix)
        report = recover_shared_sigma_gaussian(s)
        if report.success:
            successes += 1
            assert report.k_used <= 3
            assert report.residual <= 1e-8
    assert successes >= 29


def test_shared_sigma_gaussian_exterior_fails_honestly():
    basis = MonomialBasis.full_degree(5)
    report = recover_shared_sigma_gaussian(mv([1, 0, -1, 0, 1, 0], basis))
    assert not report.success
    assert report.failure_reason is not None


# ------------------------------------------------ shared-sigma lognormal


def test_shared_sigma_lognormal_single_component():
    basis = MonomialBasis.full_degree(5)
    mix = MixtureMeasure(kind="lognormal", weights=[1.0], means=[[2.0]], sigmas=[0.4])
    s = mixture_moments(basis, mix)
    schedule = [0.8, 0.4, 0.2]
    report = recover_shared_sigma_lognormal(s, sigma_schedule=schedule)
    assert report.success
    assert report.k_used == 1
    assert report.sigma_used == pytest.approx(0.4)
    assert report.model.means[0, 0] == pytest.approx(2.0, rel=1e-7)


def test_shared_sigma_lognormal_three_components():
    basis = MonomialBasis.full_degree(5)
    successes = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        mix = sample_random_mixture(
            "lognormal", 3, rng=rng, mean_range=(0.7, 2.5), sigma_range=(0.1, 0.35),
            min_separation=0.35, shared_sigma=True,
        )
        s = mixture_moments(basis, mix)
        report = recover_shared_sigma_lognormal(s)
        if report.success:
            successes += 1
            assert report.k_used <= 3
            assert report.residual <= 1e-8
            assert np.all(report.model.means > 0)
    assert successes >= 29


def test_shared_sigma_lognormal_negative_moment_rejected():
    basis = MonomialBasis.full_degree(3)
    with pytest.raises(InfeasibleMomentsError):
        recover_shared_sigma_lognormal(mv([1, 2, -1, 3], basis))


def test_shared_sigma_lognormal_shifted_exponents():
    """Consecutive exponents starting above zero factor through the locations."""
    basis = MonomialBasis.univariate([2, 3, 4, 5])
    mix = MixtureMeasure(kind="lognormal", weights=[1.5], means=[[1.3]], sigmas=[0.3])
    s = mixture_moments(basis, mix)
    report = recover_shared_sigma_lognormal(s, sigma_schedule=[0.6, 0.3, 0.15])
    assert report.success
    assert report.model.means[0, 0] == pytest.approx(1.3, rel=1e-7)
    assert report.model.weights[0] == pytest.approx(1.5, rel=1e-7)


def test_shared_sigma_lognormal_nonconsecutive_rejected():
    with pytest.raises(UnsupportedBasisError):
        recover_shared_sigma_lognormal(mv(np.ones(5), GAP))


# ----------------------------------------------------------- homotopy


def gap_roundtrip_moments():
    rng = np.random.default_rng(40)
    mix = sample_random_mixture(
        "gaussian", 3, rng=rng, sigma_range=(0.05, 0.05), min_separation=0.5,
        shared_sigma=True,
    )
    return mixture_moments(GAP, mix)


def test_homotopy_gap_roundtrip():
    s = gap_roundtrip_moments()
    report = homotopy_gap_recovery(GAP, s, k=3, seed=40)
    assert report.success
    assert report.k_used <= 3
    assert report.residual <= 1e-9
    assert report.sigma_used >= 1e-4


def test_homotopy_mass_mean_basis():
    basis = MonomialBasis.full_degree(1)
    s = mv([1.0, 0.5], basis)
    report = homotopy_gap_recovery(basis, s, k=1, seed=0)
    assert report.success
    assert report.model.means[0, 0] == pytest.approx(0.5, abs=1e-9)
    assert report.model.weights[0] == pytest.approx(1.0, abs=1e-9)


def test_homotopy_singular_start_reported():
    # the only representations of these moments coalesce both atoms at 0
    basis = MonomialBasis.full_degree(2)
    s = mv([1.0, 0.0, 0.0], basis)
    report = homotopy_gap_recovery(basis, s, k=2, seed=1)
    assert not report.success
    assert "singular-start" in (report.failure_reason or "")


@pytest.mark.parametrize("seed", range(8))
def test_homotopy_zero_weight_start_is_singular(seed):
    # one atom at 0.3: a two-atom fit either coalesces or gives an atom weight 0,
    # whose s(x) Jacobian column still adds rank
    basis = MonomialBasis.full_degree(2)
    report = homotopy_gap_recovery(basis, mv([1.0, 0.3, 0.09], basis), k=2, seed=seed)
    assert not report.success
    assert "singular-start" in (report.failure_reason or "")


def test_import_loads_no_scipy():
    code = "import sys, mixcara.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    # the child imports mixcara from where this process did, installed or not
    src = str(Path(recover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_homotopy_kernel_call_count(kernel_calls):
    # one call per residual and Jacobian, and one for all damped steps of a
    # rejected full step; halving the step call by call took 108 here
    report = homotopy_gap_recovery(GAP, gap_roundtrip_moments(), k=3, seed=40)
    assert report.success
    assert len(kernel_calls) <= 80


def test_homotopy_rejected_full_step_makes_one_batched_call(kernel_calls):
    k = 3
    rungs = len(recover._LADDER)
    homotopy_gap_recovery(GAP, gap_roundtrip_moments(), k=k, seed=40)
    batched = [i for i, (means, _) in enumerate(kernel_calls) if len(means) != k]
    assert batched  # this run backtracks
    for i in batched:
        means, derivatives = kernel_calls[i]
        assert len(means) == rungs * k and not derivatives
        # right after the rejected trial step, which was evaluated with its Jacobian
        trial, trial_der = kernel_calls[i - 1]
        assert len(trial) == k and trial_der
        # the next call evaluates one point with its Jacobian, never another ladder
        if i + 1 < len(kernel_calls):
            after, after_der = kernel_calls[i + 1]
            assert len(after) == k and after_der
    # an accepted ladder step is the point evaluated next
    assert any(
        np.any(np.all(kernel_calls[i][0].reshape(rungs, k) == kernel_calls[i + 1][0][:, 0], axis=1))
        for i in batched if i + 1 < len(kernel_calls)
    )


def test_solver_ladder_follows_a_rejected_gauss_newton_step():
    # r(t) = (t0 - 1, 10 (t1 - t0^2)) from (-1.2, 1): the full Gauss-Newton
    # step raises the residual, so every damping on the ladder is tried at once
    def residual(t):
        return np.array([t[0] - 1.0, 10.0 * (t[1] - t[0] ** 2)])

    def point(t):
        return residual(t), np.array([[1.0, 0.0], [-20.0 * t[0], 10.0]])

    stacks = []

    def values(ts):
        stacks.append(ts.copy())
        return np.array([residual(t) for t in ts])

    theta0 = np.array([-1.2, 1.0])
    r0, J0 = point(theta0)
    run = recover._damped_least_squares(point, values, theta0, 1e-10, 1)
    assert run.iterations == 1 and len(stacks) == 1
    u, sv, vt = np.linalg.svd(J0)
    lambdas = recover._LADDER_START * sv[0] ** 2 * recover._LADDER
    expected = theta0 - (sv / (sv**2 + lambdas[:, None]) * (u.T @ r0)) @ vt
    np.testing.assert_allclose(stacks[0], expected, rtol=1e-12, atol=1e-15)
    costs = np.array([residual(t) @ residual(t) for t in expected])
    first = np.flatnonzero(costs < r0 @ r0)[0]
    assert first > 0  # the least damped steps still overshoot
    np.testing.assert_array_equal(run.theta, stacks[0][first])
    assert run.r @ run.r < r0 @ r0 and not run.converged


def stage3_runs(monkeypatch, s):
    """Squared residuals at every point of every stage-3 corrector run, with
    whether the run converged; stage 3 is the solver goal of 1e-9 * scale."""
    goal3 = recover._NEWTON_REL_TOL * (1.0 + float(np.max(np.abs(s.values))))
    runs = []
    real = recover._damped_least_squares

    def spy(point, values, theta, goal, max_iters, *rest):
        costs = []

        def recorded(t):
            r, J = point(t)
            costs.append(r @ r)
            return r, J

        run = real(recorded, values, theta, goal, max_iters, *rest)
        if goal == goal3:
            runs.append((costs, run.converged))
        return run

    monkeypatch.setattr(recover, "_damped_least_squares", spy)
    return runs


def accepted_costs(costs):
    """The squared residuals of a run's accepted iterates: every evaluated
    point that lowers the residual is the solver's next iterate."""
    accepted = [costs[0]]
    for cost in costs[1:]:
        if cost < accepted[-1]:
            accepted.append(cost)
    return accepted


def test_homotopy_gap_roundtrip_reaches_the_target_in_one_corrector_call(monkeypatch):
    s = gap_roundtrip_moments()
    runs = stage3_runs(monkeypatch, s)
    report = homotopy_gap_recovery(GAP, s, k=3, seed=40)
    assert report.success
    assert len(runs) == 1 and runs[0][1]
    assert report.sigma_used == recover._SIGMA_TARGET and report.sigma_steps == 1


def test_homotopy_failed_correctors_stop_at_the_first_step_that_does_not_contract(
    monkeypatch, kernel_calls
):
    # a gap-basis input whose continuation stalls at sigma 0.0810, short of the
    # 0.1 target; a first scale step of 0.01 and correctors that need not
    # contract took 846 kernel calls here
    seed = 6
    mix = sample_random_mixture(
        "gaussian", 3, rng=np.random.default_rng(seed), sigma_range=(0.05, 0.05),
        min_separation=0.5, shared_sigma=True,
    )
    s = mixture_moments(GAP, mix)
    runs = stage3_runs(monkeypatch, s)
    report = homotopy_gap_recovery(GAP, s, k=3, seed=seed)
    assert report.success
    assert report.sigma_used == pytest.approx(0.0810107644, abs=1e-6)
    assert len(kernel_calls) <= 846 // 2
    stopped = 0
    for costs, converged in runs:
        accepted = accepted_costs(costs)
        # |r| halves at every iteration; only a failed run's last step may not
        ratios = [b / a for a, b in zip(accepted, accepted[1:])]
        assert all(ratio <= 0.25 for ratio in ratios[:-1])
        if ratios and ratios[-1] > 0.25:
            assert not converged
            stopped += 1
    assert stopped


def test_homotopy_reports_a_stall_when_every_corrector_run_fails(monkeypatch):
    # stage 3 alone passes the corrector contraction; failing those runs
    # halves the scale step from 0.1 down past 1e-8 without leaving sigma = 0
    real = recover._damped_least_squares
    corrector_runs = []

    def failing_corrector(point, values, theta, goal, max_iters, *contraction):
        run = real(point, values, theta, goal, max_iters, *contraction)
        if contraction:
            corrector_runs.append(run.iterations)
            run.converged = False
        return run

    monkeypatch.setattr(recover, "_damped_least_squares", failing_corrector)
    report = homotopy_gap_recovery(GAP, gap_roundtrip_moments(), k=3, seed=40)
    assert not report.success and report.model is None
    assert report.failure_reason == "continuation stalled at sigma=0.000e+00 below 1.0e-04"
    assert report.sigma_used == 0.0 and report.sigma_steps == 0
    assert len(corrector_runs) == 24  # 0.1 / 2**24 < 1e-8 <= 0.1 / 2**23


def test_solver_stops_after_a_window_of_slow_progress():
    # r(t) = (1, t) creeps toward the floor |r|^2 = 1: the Jacobian is 100x
    # too steep, so each Gauss-Newton step covers 1% of the way to t = 0 and
    # lowers |r|^2 by far more than the per-step 1e-8 until t is about 1e-3
    costs = []

    def point(t):
        r = np.array([1.0, t[0]])
        costs.append(r @ r)
        return r, np.array([[0.0], [100.0]])

    def values(ts):
        return np.column_stack([np.ones(len(ts)), ts[:, 0]])

    window = 50
    run = recover._damped_least_squares(point, values, np.array([10.0]), 0.5, 5000)
    assert not run.converged
    # every step is accepted, so the i-th evaluated point is the i-th iterate
    assert len(costs) == run.iterations + 1
    first = next(
        i for i in range(window, len(costs)) if costs[i] > 0.99 * costs[i - window]
    )
    assert run.iterations == first
    assert all(b < a * (1.0 - recover._MIN_PROGRESS) for a, b in zip(costs, costs[1:]))


def test_homotopy_parameter_count_validated():
    with pytest.raises(ValueError):
        homotopy_gap_recovery(GAP, mv(np.ones(5), GAP), k=2)


# ----------------------------------------------------------------- lm


def test_lm_fit_two_gaussians_free_sigma_roundtrip():
    basis = MonomialBasis.full_degree(5)
    truth = MixtureMeasure(
        kind="gaussian", weights=[0.4, 0.6], means=[[-1.0], [1.5]], sigmas=[0.5, 0.8]
    )
    s = mixture_moments(basis, truth)
    report = lm_fit(basis, "gaussian", s, k=2, free_sigma_per_component=True, seed=3)
    assert report.success
    perm = np.argsort(report.model.means[:, 0])  # truth means are ascending
    np.testing.assert_allclose(report.model.means[perm], truth.means, rtol=1e-5)
    np.testing.assert_allclose(report.model.weights[perm], truth.weights, rtol=1e-5)
    np.testing.assert_allclose(report.model.sigmas[perm], truth.sigmas, rtol=1e-5)


@pytest.mark.parametrize(
    "kind, free, means",
    [
        ("gaussian", True, [[-0.8], [0.9]]),
        ("gaussian", False, [[-0.8], [0.9]]),
        ("lognormal", True, [[0.8], [1.6]]),
    ],
    ids=["gaussian-free", "gaussian-shared", "lognormal-free"],
)
def test_lm_fit_analytic_jacobian_matches_central_differences(solver_runs, kind, free, means):
    basis = MonomialBasis.full_degree(5)
    truth = MixtureMeasure(kind=kind, weights=[0.7, 1.3], means=means, sigmas=[0.3, 0.4])
    lm_fit(basis, kind, mixture_moments(basis, truth), k=2,
           free_sigma_per_component=free, n_starts=1)
    point, values, theta = solver_runs[0]
    h = 1e-6
    fd = np.column_stack([(point(theta + h * e)[0] - point(theta - h * e)[0]) / (2 * h)
                          for e in np.eye(theta.size)])
    r, J = point(theta)
    np.testing.assert_allclose(J, fd, rtol=1e-6, atol=1e-6)
    # the batched residuals agree with the one-point residual
    np.testing.assert_allclose(values(np.stack([theta, theta + h]))[0], r, rtol=1e-14)


def test_lm_fit_kernel_call_count(kernel_calls):
    # one kernel call per parameter point; separate residual and Jacobian
    # calls took 82 here
    basis = MonomialBasis.full_degree(6)
    truth = MixtureMeasure(kind="gaussian", weights=[0.7, 1.3], means=[[-0.8], [0.9]],
                           sigmas=[0.3, 0.45])
    report = lm_fit(basis, "gaussian", mixture_moments(basis, truth), k=2, seed=1)
    assert report.success
    assert len(kernel_calls) <= 65


def test_lm_fit_jacobian_reuses_the_residual_kernel_call(monkeypatch, kernel_calls):
    basis = MonomialBasis.full_degree(6)
    truth = MixtureMeasure(kind="gaussian", weights=[0.7, 1.3], means=[[-0.8], [0.9]],
                           sigmas=[0.3, 0.45])
    evaluations, runs = [], []
    real = recover._damped_least_squares

    def spy(point, values, theta, goal, max_iters):
        runs.append((point, values, theta.copy()))

        def counted_point(t):
            evaluations.append(True)
            return point(t)

        def counted_values(ts):
            evaluations.append(False)
            return values(ts)

        return real(counted_point, counted_values, theta, goal, max_iters)

    monkeypatch.setattr(recover, "_damped_least_squares", spy)
    report = lm_fit(basis, "gaussian", mixture_moments(basis, truth), k=2, seed=1)
    assert report.success
    # every point the solver evaluates costs one kernel call with derivatives,
    # every stack one values-only call, and nothing else calls the kernel
    assert [derivatives for _, derivatives in kernel_calls] == evaluations
    point, values, theta = runs[0]
    kernel_calls.clear()
    r, J = point(theta)
    assert len(kernel_calls) == 1 and kernel_calls[0][1]
    assert r.shape == (7,) and J.shape == (7, theta.size)
    rows = values(theta + np.linspace(0.0, 1e-3, 5)[:, None])
    assert rows.shape == (5, 7)
    assert len(kernel_calls) == 2 and not kernel_calls[1][1]
    np.testing.assert_allclose(rows[0], r, rtol=1e-14)


def test_lm_fit_rejects_a_step_whose_derivative_overflows(monkeypatch):
    # at scale 6.27 the x^6 log-normal moment is finite but its scale
    # derivative is not; the first trial step is sent there
    basis = MonomialBasis.full_degree(6)
    s = mixture_moments(basis, MixtureMeasure(kind="lognormal", weights=[1.0], means=[[1.2]],
                                              sigmas=[0.3]))
    overflow = np.array([0.0, 0.0, math.log(6.27)])
    raised = []
    real = recover._damped_least_squares

    def spy(point, values, theta, goal, max_iters):
        assert np.all(np.isfinite(values(overflow[None])))
        calls = []

        def redirected(t):
            calls.append(t)
            if len(calls) == 2:  # the first trial step
                try:
                    return point(overflow)
                except MomentOverflowError:
                    raised.append(t)
                    raise
            return point(t)

        return real(redirected, values, theta, goal, max_iters)

    monkeypatch.setattr(recover, "_damped_least_squares", spy)
    report = lm_fit(basis, "lognormal", s, k=1, n_starts=1)
    assert len(raised) == 1
    assert report.success
    assert report.model.sigmas[0] == pytest.approx(0.3, rel=1e-6)


def test_lm_fit_single_gaussian_exact():
    basis = MonomialBasis.full_degree(2)
    truth = MixtureMeasure(kind="gaussian", weights=[2.0], means=[[0.3]], sigmas=[0.7])
    s = mixture_moments(basis, truth)
    report = lm_fit(basis, "gaussian", s, k=1, seed=0)
    assert report.success
    assert report.model.means[0, 0] == pytest.approx(0.3, rel=1e-6)
    assert report.model.sigmas[0] == pytest.approx(0.7, rel=1e-6)


def test_lm_fit_exterior_fails():
    basis = MonomialBasis.full_degree(5)
    s = mv([1, 0, -1, 0, 1, 0], basis)
    report = lm_fit(basis, "gaussian", s, k=2, seed=0, n_starts=4)
    assert not report.success
    assert report.residual > 1e-3


def test_lm_fit_survives_overflowing_start():
    # one start of this seed drives weights @ moments past the float range;
    # the suite turns the overflow RuntimeWarning into an error
    basis = MonomialBasis.full_degree(6)
    s = mv([2.1890459869185483, 1.9896829905398783, 2.5378074772479717, 3.3516856549139837,
            4.846750269365384, 7.2610793022435365, 11.460644819518814], basis)
    report = lm_fit(basis, "gaussian", s, k=2, seed=1620675823)
    assert report.success


def test_lm_fit_reports_when_no_start_evaluates():
    # x^1000 overflows at every start location, so no solver run begins
    basis = MonomialBasis.univariate([0, 2, 1000])
    report = lm_fit(basis, "gaussian", mv([1.0, 1e4, 1e300], basis), k=1)
    assert not report.success and report.model is None
    assert report.failure_reason == "all starts failed to evaluate"
    assert report.iterations == 0 and report.k_used == 0 and report.residual == math.inf


def test_lm_fit_lognormal():
    basis = MonomialBasis.full_degree(3)
    truth = MixtureMeasure(kind="lognormal", weights=[1.0], means=[[1.8]], sigmas=[0.4])
    s = mixture_moments(basis, truth)
    report = lm_fit(basis, "lognormal", s, k=1, seed=0)
    assert report.success
    assert report.model.means[0, 0] == pytest.approx(1.8, rel=1e-5)


@pytest.mark.parametrize("counts", [dict(k=0), dict(k=-1), dict(k=2, n_starts=0),
                                    dict(k=2, n_starts=-1)])
def test_lm_fit_rejects_nonpositive_counts(solver_runs, counts):
    basis = MonomialBasis.full_degree(5)
    s = mixture_moments(basis, MixtureMeasure(kind="gaussian", weights=[1.0], means=[[0.2]],
                                              sigmas=[0.4]))
    with pytest.raises(ValueError, match="at least one"):
        lm_fit(basis, "gaussian", s, **counts)
    assert not solver_runs


@pytest.mark.parametrize("k", [0, -1])
def test_shared_scale_engines_reject_nonpositive_k(k):
    basis = MonomialBasis.full_degree(5)
    gauss = mixture_moments(basis, MixtureMeasure(kind="gaussian", weights=[1.0],
                                                  means=[[0.2]], sigmas=[0.4]))
    logn = mixture_moments(basis, MixtureMeasure(kind="lognormal", weights=[1.0],
                                                 means=[[1.2]], sigmas=[0.3]))
    with pytest.raises(ValueError, match="at least one"):
        recover_shared_sigma_gaussian(gauss, k=k)
    with pytest.raises(ValueError, match="at least one"):
        recover_shared_sigma_lognormal(logn, k=k)
    # the zero vector is checked too, though it needs no component
    with pytest.raises(ValueError, match="at least one"):
        recover_shared_sigma_gaussian(mv(np.zeros(6), basis), k=k)


def test_lm_fit_underdetermined_warns():
    basis = MonomialBasis.full_degree(2)
    s = mv([1, 0, 1], basis)
    with pytest.warns(UserWarning):
        lm_fit(basis, "gaussian", s, k=2, seed=0, n_starts=2)


# ------------------------------------------------ exterior refusal


def _exterior_ray(basis):
    return mv(1.7 * np.array([1.0, 0.0, -1.0, 0.0, 1.0, 0.0]), basis)


def _exterior_lognormal(basis):
    # positive moments, but s_2 < s_1^2 / s_0 breaks the leading Hankel minor
    mix = MixtureMeasure(kind="lognormal", weights=[0.8, 1.2], means=[[0.9], [2.1]],
                         sigmas=[0.2, 0.2])
    values = mixture_moments(basis, mix).values.copy()
    values[2] = 0.7 * values[1] ** 2 / values[0]
    return mv(values, basis)


@pytest.mark.parametrize("vector", [_exterior_ray, _exterior_lognormal], ids=["ray", "lognormal"])
@pytest.mark.parametrize("kind", ["gaussian", "lognormal"])
def test_lm_fit_refuses_exterior_before_any_start(monkeypatch, kernel_calls, vector, kind):
    basis = MonomialBasis.full_degree(5)
    s = vector(basis)
    assert hankel_classify(s).status == "exterior"

    def no_start(*args, **kwargs):
        raise AssertionError("the solver ran on an exterior vector")

    monkeypatch.setattr(recover, "_damped_least_squares", no_start)
    report = lm_fit(basis, kind, s, k=2, seed=0)
    assert not kernel_calls
    assert not report.success
    assert report.failure_reason.startswith("exterior:")
    assert report.residual == math.inf
    assert report.model is None


@pytest.fixture
def prony_calls(monkeypatch):
    """Every Prony solve the shared-scale engines make."""
    calls = []
    real = recover._prony

    def spy(u, k_target):
        calls.append(k_target)
        return real(u, k_target)

    monkeypatch.setattr(recover, "_prony", spy)
    return calls


def assert_refused(report, support):
    assert not report.success
    assert report.failure_reason.startswith(f"exterior: {support} Hankel margin")
    assert report.residual == math.inf
    assert report.model is None
    assert report.sigma_steps == 0


@pytest.mark.parametrize(
    "engine, vector, support",
    [(recover_shared_sigma_gaussian, _exterior_ray, "real-line"),
     (recover_shared_sigma_lognormal, _exterior_lognormal, "half-line")],
    ids=["gaussian", "lognormal"],
)
def test_shared_scale_engines_refuse_exterior_before_any_step(prony_calls, engine, vector, support):
    s = vector(MonomialBasis.full_degree(5))
    assert hankel_classify(s).status == "exterior"
    assert_refused(engine(s), support)
    assert not prony_calls


def _negative_axis_mass(basis):
    # N(2, 0.1^2) + 0.1 N(-0.5, 0.1^2): every moment is positive and the
    # real-line test finds the vector interior (the bare atoms at 2 and -0.5
    # would sit on its boundary), but the mass at -0.5 makes the shifted
    # Hankel block indefinite
    mix = MixtureMeasure(kind="gaussian", weights=[1.0, 0.1], means=[[2.0], [-0.5]],
                         sigmas=[0.1, 0.1])
    return mixture_moments(basis, mix)


def test_lognormal_engines_refuse_mass_on_the_negative_axis(
    monkeypatch, kernel_calls, prony_calls
):
    basis = MonomialBasis.full_degree(5)
    s = _negative_axis_mass(basis)
    assert np.all(s.values > 0)
    assert hankel_classify(s).status == "interior"

    def no_start(*args, **kwargs):
        raise AssertionError("the solver ran on an exterior vector")

    monkeypatch.setattr(recover, "_damped_least_squares", no_start)
    assert_refused(recover_shared_sigma_lognormal(s), "half-line")
    assert not prony_calls
    report = lm_fit(basis, "lognormal", s, k=2, seed=0)
    assert not kernel_calls
    assert report.failure_reason.startswith("exterior: half-line Hankel margin")
    assert report.residual == math.inf


def test_lognormal_refusal_covers_bases_without_the_constant(prony_calls):
    # moments 1..6 of the same measure: x dmu still puts mass on (-inf, 0)
    basis = MonomialBasis.univariate(range(1, 7))
    s = _negative_axis_mass(basis)
    assert np.all(s.values > 0)
    assert_refused(recover_shared_sigma_lognormal(s), "half-line")
    assert not prony_calls


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "lognormal"]),
    d=st.integers(3, 11),
    k=st.integers(1, 8),
    shift=st.integers(0, 2),
    sigma_floor=st.sampled_from([1e-3, 0.05, 0.3]),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_refusal_never_fires_on_mixture_moments(kind, d, k, shift, sigma_floor, shared, seed):
    # many components at tiny scales put the vector within the tolerance
    # band of the boundary, where a too-tight test would refuse it
    if kind == "gaussian":
        basis = MonomialBasis.full_degree(d)
        mean_range = (-4.0, 4.0)
    else:
        basis = MonomialBasis.univariate(range(shift, shift + d + 1))
        mean_range = (0.2, 3.0)
    mix = sample_random_mixture(kind, k, rng=seed, mean_range=mean_range,
                                sigma_range=(sigma_floor, 1.0), shared_sigma=shared)
    s = mixture_moments(basis, mix)
    assert recover._exterior_refusal(s, kind, "probe") is None


def test_default_schedule_shape():
    sched = default_sigma_schedule()
    assert len(sched) == 40
    assert sched[0] == 1.0
    assert sched[1] == 0.5
