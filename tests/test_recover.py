import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcara import recover
from mixcara.basis import MonomialBasis
from mixcara.conegeo import EXTERIOR, hankel_classify, represent_with_prescribed_component
from mixcara.errors import (
    ConditioningError,
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
        _, sv, vt = np.linalg.svd(u[recover._hankel_index(k, k + 1)])
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
        for sigma in recover._SCHEDULE[::8]:
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
    """With the true scale on the schedule, parameters match after permutation."""
    basis = MonomialBasis.full_degree(5)
    rng = np.random.default_rng(6)
    mix = sample_random_mixture(
        "gaussian", 3, rng=rng, sigma_range=(0.25, 0.25), min_separation=0.6,
        shared_sigma=True,
    )
    s = mixture_moments(basis, mix)
    report = recover_shared_sigma_gaussian(s)
    assert report.success and report.sigma_used == 0.25 and report.sigma_steps == 3
    # the sampler sorts components by location; align the recovered ones the same way
    perm = np.argsort(report.model.means[:, 0])
    np.testing.assert_allclose(report.model.means[perm], mix.means, rtol=1e-5)
    np.testing.assert_allclose(report.model.weights[perm], mix.weights, rtol=1e-5)


def test_shared_sigma_gaussian_single_component_like_dirac():
    # at the cap the descent reaches the scale 0.25, where the pulled-back
    # Hankel slice is rank-deficient and Prony lowers the count to 1
    basis = MonomialBasis.full_degree(3)
    mix = MixtureMeasure(kind="gaussian", weights=[1.0], means=[[0.7]], sigmas=[0.25])
    s = mixture_moments(basis, mix)
    report = recover_shared_sigma_gaussian(s)
    assert report.success
    assert report.k_used == 1
    assert report.sigma_used == 0.25
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
    mix = MixtureMeasure(kind="lognormal", weights=[1.0], means=[[2.0]], sigmas=[0.5])
    s = mixture_moments(basis, mix)
    report = recover_shared_sigma_lognormal(s)
    assert report.success
    assert report.k_used == 1
    assert report.sigma_used == 0.5 and report.sigma_steps == 2
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
    # the half-line cone test refuses it, with the report lm_fit gives
    s = mv([1, 2, -1, 3], MonomialBasis.full_degree(3))
    report = recover_shared_sigma_lognormal(s)
    assert not report.success and report.model is None
    assert report.sigma_steps == 0 and report.residual == math.inf
    assert report.failure_reason == "exterior: half-line Hankel margin -2.236e+00 below -4.000e-10"
    assert report.failure_reason == lm_fit(s.basis, "lognormal", s, k=1).failure_reason


def test_shared_sigma_lognormal_shifted_exponents():
    """Consecutive exponents starting above zero factor through the locations;
    with 2k < m the scale is the closed-form one of the first three moments."""
    basis = MonomialBasis.univariate([2, 3, 4, 5])
    mix = MixtureMeasure(kind="lognormal", weights=[1.5], means=[[1.3]], sigmas=[0.3])
    s = mixture_moments(basis, mix)
    report = recover_shared_sigma_lognormal(s, k=1)
    assert report.success and report.sigma_steps == 0
    assert report.sigma_used == pytest.approx(0.3, rel=1e-7)
    assert report.model.means[0, 0] == pytest.approx(1.3, rel=1e-7)
    assert report.model.weights[0] == pytest.approx(1.5, rel=1e-7)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_shared_sigma_lognormal_recovers_the_default_count_at_odd_m(d):
    # m = d + 1 is odd, so the cap k = d/2 has 2k < m: the largest-scale
    # step finds the common scale, which the schedule meets only by chance
    basis = MonomialBasis.full_degree(d)
    successes = 0
    for seed in range(40):
        truth = sample_random_mixture(
            "lognormal", d // 2, rng=np.random.default_rng([9, d, seed]),
            mean_range=(0.5, 2.5), sigma_range=(0.1, 0.35), min_separation=0.2,
            shared_sigma=True,
        )
        report = recover_shared_sigma_lognormal(mixture_moments(basis, truth))
        if report.success:
            successes += 1
            assert report.residual <= 1e-8 and report.sigma_steps == 0
            assert report.sigma_used == pytest.approx(truth.sigmas[0], rel=1e-6)
    assert successes >= 39


@pytest.mark.parametrize("low, top", [(1, 6), (2, 8), (1, 7), (3, 7)])
def test_shared_sigma_lognormal_recovers_every_count_below_the_cap_on_shifted_bases(low, top):
    basis = MonomialBasis.univariate(list(range(low, top + 1)))
    for k in range(1, (basis.m + 1) // 2):
        for seed in range(10):
            truth = sample_random_mixture(
                "lognormal", k, rng=np.random.default_rng([3, low, top, seed]),
                mean_range=(0.5, 2.5), sigma_range=(0.1, 0.35), min_separation=0.2,
                shared_sigma=True,
            )
            report = recover_shared_sigma_lognormal(mixture_moments(basis, truth), k=k)
            assert report.success and report.k_used == k and report.sigma_steps == 0


def test_shared_sigma_lognormal_nonconsecutive_rejected():
    with pytest.raises(UnsupportedBasisError):
        recover_shared_sigma_lognormal(mv(np.ones(5), GAP))


# ----------------------------------------------------------- homotopy


def gap_roundtrip_moments(basis=GAP):
    rng = np.random.default_rng(40)
    mix = sample_random_mixture(
        "gaussian", 3, rng=rng, sigma_range=(0.05, 0.05), min_separation=0.5,
        shared_sigma=True,
    )
    return mixture_moments(basis, mix)


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


def test_homotopy_recovers_where_no_dirac_representation_was_found():
    # the Dirac-first route stalled on every start here; the shared-scale fit
    # moves the scale with the weights and means, and needs no Dirac stage
    basis = MonomialBasis.univariate([0, 1, 3, 5, 7])
    mix = sample_random_mixture("gaussian", 3, rng=8, sigma_range=(0.05, 0.05),
                                min_separation=0.5, shared_sigma=True)
    report = homotopy_gap_recovery(basis, mixture_moments(basis, mix), k=3, seed=8)
    assert report.success and report.residual <= 1e-8
    assert report.sigma_steps == 0 and report.sigma_used == report.model.sigmas[0]
    assert np.all(report.model.sigmas == report.sigma_used)


def test_gap_fit_starts_from_the_completion_then_random_starts_as_without_it(monkeypatch):
    s = gap_roundtrip_moments()
    atoms, weights = recover._completed_dirac(s, 3)
    first = np.concatenate([np.log(weights), atoms, [math.log(0.1)]])
    real = recover._damped_least_squares
    starts = []

    def spy(point, values, theta, goal, max_iters):
        # the completion's start takes no iteration, so the random starts follow
        starts.append(theta.copy())
        return real(point, values, theta, goal, 0 if np.array_equal(theta, first) else max_iters)

    monkeypatch.setattr(recover, "_damped_least_squares", spy)

    def fit_starts(completion):
        """The report and the start points of the fit, given a completion."""
        starts.clear()
        monkeypatch.setattr(recover, "_completed_dirac", lambda s, k, sigma: completion)
        return lm_fit(GAP, "gaussian", s, 3, free_sigma_per_component=False, seed=40), starts[:]

    seeded, seeded_starts = fit_starts((atoms, weights))
    plain, plain_starts = fit_starts(None)
    np.testing.assert_array_equal(seeded_starts[0], first)
    assert len(seeded_starts) == len(plain_starts) + 1
    for got, want in zip(seeded_starts[1:], plain_starts):
        np.testing.assert_array_equal(got, want)
    assert seeded.success and plain.success and seeded.residual == plain.residual
    # a completion with fewer than k atoms gives no start
    _, short_starts = fit_starts((atoms[:2], weights[:2]))
    np.testing.assert_array_equal(short_starts, plain_starts)


def test_import_loads_no_scipy():
    code = "import sys, mixcara.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    # the child imports mixcara from where this process did, installed or not
    src = str(Path(recover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_homotopy_kernel_call_count(kernel_calls):
    # the completion at scale 0.1 is the fit: one values-only kernel call for
    # its residual, and no solver iteration
    report = homotopy_gap_recovery(GAP, gap_roundtrip_moments(), k=3, seed=40)
    assert report.success and report.iterations == 0
    assert len(kernel_calls) == report.iterations + 1 and not kernel_calls[0][1]


def test_homotopy_rejected_full_step_makes_one_batched_call(kernel_calls):
    # top degree 7 is odd, so the fit runs the random starts alone
    k = 3
    rungs = len(recover._LADDER)
    basis = MonomialBasis.univariate([0, 2, 3, 5, 7])
    homotopy_gap_recovery(basis, gap_roundtrip_moments(basis), k=k, seed=40)
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


@pytest.mark.parametrize("values", [(1.0, 0.3, 0.09), (1.0, 0.0, 0.0)], ids=["at-0.3", "at-0"])
def test_counts_above_the_cap_take_the_structural_step(solver_runs, values):
    # {1, x, x^2} determines one component: k = 2 is capped at m // 2 = 1,
    # and the one-atom vector on the cone boundary is that component, so no
    # solver start runs
    basis = MonomialBasis.full_degree(2)
    s = mv(values, basis)
    for report in (lm_fit(basis, "gaussian", s, 2, free_sigma_per_component=False),
                   lm_fit(basis, "gaussian", s, 2),
                   homotopy_gap_recovery(basis, s, 2)):
        assert report.success and report.k_used == 1 and report.iterations == 0
        assert report.model.means[0, 0] == pytest.approx(values[1], abs=1e-12)
        assert report.sigma_used == report.model.sigmas[0]
    assert solver_runs == []


def test_gap_route_reports_the_empty_fit_of_the_zero_vector():
    # the empty model has no component to read a scale from: the report
    # takes lm_fit's sigma_used instead
    basis = MonomialBasis.full_degree(1)
    report = homotopy_gap_recovery(basis, mv([0.0, 0.0], basis), 1)
    assert report.success and report.k_used == 0 and report.residual == 0.0
    assert report.sigma_used == lm_fit(basis, "gaussian", mv([0.0, 0.0], basis), 1).sigma_used


def test_gap_route_fits_fewer_components_than_half_the_moments():
    # k = 2 on {1, x^2, x^3, x^5, x^6} gives 5 parameters for 5 moments: the
    # completion step needs top degree 2k, so the random starts fit it
    mix = sample_random_mixture("gaussian", 3, rng=np.random.default_rng(9),
                                sigma_range=(0.05, 0.3), min_separation=0.5)
    report = homotopy_gap_recovery(GAP, mixture_moments(GAP, mix), k=2)
    assert report.success and report.k_used == 2 and report.iterations > 0
    assert report.residual <= 1e-8 and np.all(report.model.sigmas == report.sigma_used)


def test_gap_route_fits_a_bivariate_basis():
    basis = MonomialBasis.full_degree(3, n=2)
    mix = sample_random_mixture("gaussian", 4, n=2, rng=0, sigma_range=(0.2, 0.5),
                                shared_sigma=True)
    report = homotopy_gap_recovery(basis, mixture_moments(basis, mix), k=4)
    assert report.success and report.k_used == 4 and report.residual <= 1e-8
    assert report.engine == "homotopy-gap" and np.all(report.model.sigmas == report.sigma_used)


@pytest.mark.parametrize("degrees", [[0, 1, 3, 4, 6], [0, 2, 3, 5, 6]], ids=["01346", "02356"])
def test_gap_route_above_half_the_top_degree_takes_the_completion(solver_runs, degrees):
    # k = 4 is capped at D // 2 = 3, the count the completion step reads
    basis = MonomialBasis.univariate(degrees)
    report = homotopy_gap_recovery(basis, gap_roundtrip_moments(basis), k=4, seed=40)
    assert report.success and report.iterations == 0 and report.k_used == 3
    assert report.sigma_used == 0.1 and solver_runs == []


def test_lm_fit_reports_the_scale_of_every_model_with_one_shared_scale():
    # the structural step fits one shared scale, with free scales too
    basis = MonomialBasis.full_degree(5)
    s = mixture_moments(basis, sample_random_mixture(
        "gaussian", 2, rng=3, sigma_range=(0.2, 0.5), min_separation=0.5, shared_sigma=True))
    step = lm_fit(basis, "gaussian", s, 2)
    assert step.success and step.iterations == 0
    assert step.sigma_used == step.model.sigmas[0]
    # a bivariate basis has no structural step: the solver fits it
    plane = MonomialBasis.full_degree(2, n=2)
    s = mixture_moments(plane, sample_random_mixture(
        "gaussian", 1, n=2, rng=3, sigma_range=(0.2, 0.5)))
    shared = lm_fit(plane, "gaussian", s, 1, free_sigma_per_component=False)
    free = lm_fit(plane, "gaussian", s, 2)
    assert shared.success and shared.iterations > 0
    assert shared.sigma_used == shared.model.sigmas[0]
    assert free.success and free.iterations > 0 and free.sigma_used is None


# ------------------------------------------------- Hankel completion step


@pytest.mark.parametrize(
    "degrees, k",
    [([0, 1, 3, 4, 6], 3), ([0, 2, 3, 5, 6], 3), ([0, 1, 3, 4, 6, 7, 8], 4)],
    ids=["01346", "02356", "0134678"],
)
def test_completed_dirac_is_an_exact_k_atom_representation(degrees, k):
    basis = MonomialBasis.univariate(degrees)
    for seed in range(20):
        mix = sample_random_mixture(
            "gaussian", k, rng=np.random.default_rng(seed), sigma_range=(0.05, 0.05),
            min_separation=0.5, shared_sigma=True,
        )
        s = mixture_moments(basis, mix)
        atoms, weights = recover._completed_dirac(s, k)
        assert len(atoms) == k and np.all(weights > 0)
        measure = AtomicMeasure(weights=weights, points=atoms.reshape(-1, 1))
        assert _relative_residual(dirac_moments(basis, measure).values, s.values) <= 1e-12


@pytest.mark.parametrize(
    "degrees, k",
    [(range(7), 3), ([0, 2, 3, 5, 6], 4), ([0, 2, 3, 5], 2), ([1, 2, 3, 5, 6], 3)],
    ids=["full-degree", "d-below-2k", "d-above-2k", "no-degree-0"],
)
def test_completed_dirac_applies_only_to_gap_bases_with_top_degree_2k(degrees, k):
    basis = MonomialBasis.univariate(list(degrees))
    assert recover._completed_dirac(gap_roundtrip_moments(basis), k) is None


def test_completed_dirac_finds_no_completion_of_an_exterior_vector():
    # s_0 s_2 < s_1^2: whatever fills degrees 3 and 5, the Hankel matrix has
    # an indefinite leading 2-by-2 block
    basis = MonomialBasis.univariate([0, 1, 2, 4, 6])
    s = mv([1.0, 0.5, 0.2, 0.3, 1.0], basis)
    full = MonomialBasis.full_degree(6)
    for fill in np.random.default_rng(0).normal(scale=10.0, size=(20, 2)):
        values = np.insert(s.values, [3, 4], fill)
        assert hankel_classify(mv(values, full)).status == EXTERIOR
    assert recover._completed_dirac(s, 3) is None
    # s_0 s_4 < s_2^2 makes the principal block of degrees 0, 2, 4
    # indefinite: the cone test reads that block and refuses the vector
    across = mv([1.0, 0.0, 1.0, 0.5, 1.0], basis)
    assert recover._completed_dirac(across, 3) is None
    refusal = recover._exterior_refusal(across, "gaussian", "probe")
    assert refusal.failure_reason.startswith("exterior: real-line Hankel margin -")
    # every 2-by-2 block here is definite, yet no s_3, s_5 complete a
    # positive semidefinite Hankel matrix (a Nelder-Mead search over them
    # finds a best smallest eigenvalue of about -0.10): only the missing
    # moments show it exterior
    hidden = mv([1.0, 0.8, 0.7, 1.8, 5.7], basis)
    assert recover._exterior_refusal(hidden, "gaussian", "probe") is None
    assert recover._completed_dirac(hidden, 3) is None
    # so the gap route runs the random starts alone, and each stalls short of it
    report = homotopy_gap_recovery(basis, hidden, k=3)
    assert not report.success and report.residual > 1e-3
    assert report.failure_reason == "final residual above tolerance"


def shared_truth_moments(basis, seed):
    """Moments of a 3-component shared-scale (0.05) truth, drawn as the
    completion tests draw theirs."""
    mix = sample_random_mixture(
        "gaussian", 3, rng=np.random.default_rng(seed), sigma_range=(0.05, 0.05),
        min_separation=0.5, shared_sigma=True,
    )
    return mixture_moments(basis, mix)


@pytest.mark.parametrize(
    "degrees, misses", [([0, 1, 3, 4, 6], []), ([0, 2, 3, 5, 6], [6])], ids=["01346", "02356"]
)
def test_completion_at_scale_0_1_is_an_exact_shared_scale_fit(degrees, misses):
    # the pulled-back moments at 0.1 of truths at 0.05 have a singular
    # positive semidefinite completion, whose measure smoothed at 0.1 has
    # the given moments; seed 6 on {0,2,3,5,6} has none
    basis = MonomialBasis.univariate(degrees)
    missed = []
    for seed in range(20):
        s = shared_truth_moments(basis, seed)
        completion = recover._completed_dirac(s, 3, 0.1)
        if completion is None:
            missed.append(seed)
            continue
        atoms, weights = completion
        assert len(atoms) == 3 and np.all(weights > 0)
        model = MixtureMeasure(
            kind="gaussian", weights=weights, means=atoms.reshape(-1, 1), sigmas=np.full(3, 0.1)
        )
        assert _relative_residual(mixture_moments(basis, model).values, s.values) <= 1e-10
    assert missed == misses


@pytest.mark.parametrize("degrees", [[0, 1, 3, 4, 6], [0, 2, 3, 5, 6]], ids=["01346", "02356"])
def test_gap_fit_is_the_completion_at_scale_0_1_with_no_iteration(degrees):
    basis = MonomialBasis.univariate(degrees)
    s = gap_roundtrip_moments(basis)
    for free in (False, True):
        fits = [lm_fit(basis, "gaussian", s, 3, free_sigma_per_component=free, seed=seed)
                for seed in (0, 1)]
        assert fits[0].success and fits[0].iterations == 0
        np.testing.assert_array_equal(fits[0].model.sigmas, np.full(3, 0.1))
        # nothing is drawn from the random generator, so the seed changes nothing
        assert fits[0].to_json() == fits[1].to_json()
    report = homotopy_gap_recovery(basis, s, k=3, seed=40)
    assert report.success and report.iterations == 0 and report.sigma_used == 0.1


def test_gap_fit_without_a_completion_at_scale_0_1_starts_from_the_dirac_one(kernel_calls):
    s = shared_truth_moments(GAP, 6)
    assert recover._completed_dirac(s, 3, 0.1) is None
    atoms, _ = recover._completed_dirac(s, 3, 0.0)
    report = homotopy_gap_recovery(GAP, s, k=3, seed=6)
    assert report.success and report.iterations > 0 and report.sigma_used != 0.1
    # the Dirac atoms at 0.1 take one values-only call for their residual;
    # from there every Gauss-Newton step is accepted: one kernel call per
    # point, for its residual and Jacobian together, and no ladder
    np.testing.assert_array_equal(kernel_calls[0][0][:, 0], atoms)
    assert [derivatives for _, derivatives in kernel_calls] == [False] + [True] * (
        report.iterations + 1
    )


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
def test_lm_fit_analytic_jacobian_matches_central_differences(
    monkeypatch, solver_runs, kind, free, means
):
    basis = MonomialBasis.full_degree(5)
    truth = MixtureMeasure(kind=kind, weights=[0.7, 1.3], means=means, sigmas=[0.3, 0.4])
    s = mixture_moments(basis, truth)
    lm_fit(basis, kind, s, k=2, free_sigma_per_component=free, n_starts=1)
    if kind == "gaussian":
        # 2k <= d: the first start is the largest-scale step's best try, one
        # common scale for every component; the random start comes after it
        # or, without the step, first
        step = recover._largest_scale(s, "gaussian", 2, 1e-8)
        assert step.residual > 1e-8
        np.testing.assert_array_equal(solver_runs[0][2][4:], math.log(step.sigma))
        monkeypatch.setattr(recover, "_largest_scale", lambda s, kind, k, tol: None)
        lm_fit(basis, kind, s, k=2, free_sigma_per_component=free, n_starts=1)
        assert len(solver_runs) >= 2
    h = 1e-6
    for point, values, theta in solver_runs:
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
    evaluations, runs, before = [], [], []
    real = recover._damped_least_squares

    def spy(point, values, theta, goal, max_iters):
        if not runs:
            before.append(len(kernel_calls))
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
    # the largest-scale step's tries come first, one values-only call each;
    # then every point the solver evaluates costs one kernel call with
    # derivatives, every stack one values-only call, and nothing else calls
    # the kernel
    step_calls, solver_calls = kernel_calls[: before[0]], kernel_calls[before[0]:]
    assert step_calls and not any(derivatives for _, derivatives in step_calls)
    assert [derivatives for _, derivatives in solver_calls] == evaluations
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
    # the structural step fits this vector with no solver run; without it, the solver runs
    monkeypatch.setattr(recover, "_structural_fit", lambda s, kind, k, tol: None)
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


def test_lm_fit_underdetermined_fit_matches_without_a_warning():
    # 6 parameters against 3 moments: the minimum-norm step follows the
    # solution manifold, so the fit needs no warning
    basis = MonomialBasis.full_degree(2)
    s = mv([1, 0, 1], basis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = lm_fit(basis, "gaussian", s, k=2, seed=0, n_starts=2)
    assert report.success


# ------------------------------------------------ largest-scale step


def _shared_truth(k, seed, kind="gaussian"):
    if kind == "lognormal":
        return sample_random_mixture("lognormal", k, rng=seed, mean_range=(0.5, 2.5),
                                     sigma_range=(0.1, 0.35), min_separation=0.2,
                                     shared_sigma=True)
    span = 2.5 if k >= 4 else 1.5
    return sample_random_mixture("gaussian", k, rng=seed, mean_range=(-span, span),
                                 sigma_range=(0.2, 0.6), min_separation=0.6, shared_sigma=True)


SHARED_ENGINES = {"gaussian": recover_shared_sigma_gaussian,
                  "lognormal": recover_shared_sigma_lognormal}


def _shared_fits(s, k):
    """The shared-scale lm_fit and the shared-scale engine, both asked for k."""
    return [
        lm_fit(s.basis, "gaussian", s, k, free_sigma_per_component=False, seed=1, n_starts=4),
        recover_shared_sigma_gaussian(s, k=k),
    ]


@pytest.fixture
def step_calls(monkeypatch):
    """The count k of every largest-scale step."""
    calls = []
    real = recover._largest_scale

    def spy(s, kind, k, tol):
        calls.append(k)
        return real(s, kind, k, tol)

    monkeypatch.setattr(recover, "_largest_scale", spy)
    return calls


@pytest.mark.parametrize("d, k", [(6, 2), (8, 3), (10, 4), (12, 5)])
def test_largest_scale_step_returns_the_truth(solver_runs, d, k):
    basis = MonomialBasis.full_degree(d)
    for seed in range(3):
        truth = _shared_truth(k, seed)
        for report in _shared_fits(mixture_moments(basis, truth), k):
            assert report.success and report.k_used == k
            assert report.iterations == 0 and report.sigma_steps == 0
            np.testing.assert_allclose(report.model.sigmas, truth.sigmas, rtol=1e-8)
            np.testing.assert_allclose(np.sort(report.model.means[:, 0]), truth.means[:, 0],
                                       rtol=1e-6, atol=1e-8)
            assert report.residual <= 1e-9
        assert report.sigma_used == report.model.sigmas[0]
    assert not solver_runs


@pytest.mark.parametrize("values, seed", [
    # lm-shared-d6k2 inputs of the nonlinear-fit benchmark, workload seeds 81
    # (op 492), 2203 (op 832) and 2214 (op 6421): every one of the 16 descent
    # starts stalled, at residuals 2.57e-3, 2.13e-3 and 2.09e-3
    ([2.2959002892288627, -1.8103845589605276, 1.930399667780662, -2.3772445187915388,
      3.2665928749919093, -4.856896256208354, 7.686218438585389], 862868750),
    ([2.3048082176005957, -2.2878437721113984, 2.636193850769116, -3.389744036628689,
      4.7562604663038135, -7.160958626815058, 11.420640211116037], 470107709),
    ([2.5413994856542415, -1.9564812244614322, 2.503119834987035, -3.5610988359057756,
      5.907793005763907, -10.63460468874636, 20.804066354996316], 588489774),
], ids=["seed81-op492", "seed2203-op832", "seed2214-op6421"])
def test_lm_fit_shared_recovers_inputs_where_every_start_stalled(values, seed):
    basis = MonomialBasis.full_degree(6)
    report = lm_fit(basis, "gaussian", mv(values, basis), k=2, free_sigma_per_component=False,
                    seed=seed)
    assert report.success and report.iterations == 0 and report.k_used == 2
    assert report.residual <= 1e-10


def _three_at_one_scale(kind="gaussian"):
    # three components at one scale have no two-component shared-scale fit
    means = [[-1.2], [0.1], [1.3]] if kind == "gaussian" else [[0.6], [1.2], [2.0]]
    truth = MixtureMeasure(kind=kind, weights=[0.8, 1.1, 0.6], means=means,
                           sigmas=[0.35, 0.35, 0.35])
    return mixture_moments(MonomialBasis.full_degree(6), truth)


def test_largest_scale_miss_is_the_first_start_of_the_descent(monkeypatch, solver_runs):
    s = _three_at_one_scale()
    step = recover._largest_scale(s, "gaussian", 2, 1e-8)
    assert step.residual > 1e-8 and len(step.weights) == 2
    seeded = np.concatenate([np.log(step.weights), step.means[:, 0], [math.log(step.sigma)]])
    report = _shared_fits(s, 2)[0]
    assert not report.success and report.iterations > 0
    # every solver step lowers the residual, so the fit ends below the try
    assert report.residual <= step.residual
    np.testing.assert_array_equal(solver_runs[0][2], seeded)
    seeded_starts = [theta for _, _, theta in solver_runs[1:]]
    # without a try, the random starts are drawn exactly as before
    solver_runs.clear()
    monkeypatch.setattr(recover, "_largest_scale", lambda s, kind, k, tol: None)
    _shared_fits(s, 2)
    random_starts = [theta for _, _, theta in solver_runs]
    assert len(random_starts) == len(seeded_starts) == 4
    for got, want in zip(seeded_starts, random_starts):
        np.testing.assert_array_equal(got, want)


def test_largest_scale_miss_reports_its_best_residual():
    s = _three_at_one_scale()
    step = recover._largest_scale(s, "gaussian", 2, 1e-8)
    report = recover_shared_sigma_gaussian(s, k=2)
    assert not report.success and report.model is None and report.k_used == 0
    assert report.residual == step.residual and math.isfinite(report.residual)
    assert report.failure_reason == "no shared-scale fit with at most 2 components"


def test_largest_scale_step_runs_for_gaussian_fits_on_full_bases_with_2k_at_most_d(step_calls):
    truth = MixtureMeasure(kind="gaussian", weights=[0.7, 1.3], means=[[-0.8], [0.9]],
                           sigmas=[0.3, 0.3])
    d5, d6 = MonomialBasis.full_degree(5), MonomialBasis.full_degree(6)
    s5, s6 = mixture_moments(d5, truth), mixture_moments(d6, truth)
    # 2k = m takes the schedule, not the step
    lm_fit(d5, "gaussian", s5, k=3, free_sigma_per_component=False, n_starts=1)
    assert step_calls == []
    # log-normal fits take it as well
    logn = mixture_moments(d6, MixtureMeasure(kind="lognormal", weights=[1.0, 1.0],
                                              means=[[0.8], [1.6]], sigmas=[0.3, 0.3]))
    report = lm_fit(d6, "lognormal", logn, k=2, free_sigma_per_component=False, n_starts=1)
    assert report.success and report.iterations == 0
    assert step_calls == [2]
    # free and shared scales alike
    for free in (True, False):
        report = lm_fit(d6, "gaussian", s6, k=2, free_sigma_per_component=free)
        assert report.success and report.iterations == 0
    assert step_calls == [2, 2, 2]


@pytest.mark.parametrize("kind", ["gaussian", "lognormal"])
def test_shared_scale_engines_route_on_2k_below_m_alone(step_calls, kind):
    # every count with 2k < m takes the largest-scale step, and 2k = m (the
    # cap of an even m) the schedule descent, for both kinds
    truth = _shared_truth(2, 3, kind)
    routes = []
    for d in (4, 5, 6):
        s = mixture_moments(MonomialBasis.full_degree(d), truth)
        for k in range(1, (d + 1) // 2 + 1):
            del step_calls[:]
            report = SHARED_ENGINES[kind](s, k=k)
            assert report.success == (k >= 2)
            routes.append((d, k, "step" if step_calls == [k] else "descent"))
            assert (report.sigma_steps > 0) == (routes[-1][2] == "descent")
    assert routes == [(4, 1, "step"), (4, 2, "step"), (5, 1, "step"), (5, 2, "step"),
                      (5, 3, "descent"), (6, 1, "step"), (6, 2, "step"), (6, 3, "step")]


def _lognormal_truth(components, rng, shared):
    return sample_random_mixture("lognormal", components, rng=rng, mean_range=(0.5, 2.5),
                                 sigma_range=(0.1, 0.35), min_separation=0.2,
                                 shared_sigma=shared)


@pytest.mark.parametrize("d, k, components, shared", [
    (6, 3, 3, True), (5, 2, 2, True), (5, 3, 3, True), (6, 3, 3, False),
], ids=["d6k3-shared", "d5k2-shared", "d5k3-shared-2k-is-m", "d6k3-free"])
def test_lm_fit_lognormal_takes_the_structural_step(d, k, components, shared):
    # the solver crawled for up to 2 s on some of these vectors when only
    # Gaussian fits had a structural step
    basis = MonomialBasis.full_degree(d)
    settled = 0
    for i in range(20):
        truth = _lognormal_truth(components, np.random.default_rng([9, d, i]), shared)
        report = lm_fit(basis, "lognormal", mixture_moments(basis, truth), k,
                        free_sigma_per_component=not shared, seed=i)
        assert report.success
        settled += report.iterations == 0
    # free-scale truths have a shared-scale 3-component fit on 18 of 20
    assert settled == (20 if shared else 18)


def test_lm_fit_lognormal_takes_the_structural_step_on_a_shifted_basis(solver_runs):
    basis = MonomialBasis.univariate(range(1, 7))
    for k in (1, 2, 3):
        for i in range(5):
            truth = _lognormal_truth(k, np.random.default_rng([5, k, i]), shared=True)
            report = lm_fit(basis, "lognormal", mixture_moments(basis, truth), k,
                            free_sigma_per_component=False)
            assert report.success and report.iterations == 0 and report.k_used == k
            if 2 * k < basis.m:  # the largest-scale step finds the truth's scale
                assert report.model.sigmas[0] == pytest.approx(truth.sigmas[0], rel=1e-6)
            else:  # every scale below it has a fit, and the schedule takes one
                assert report.model.sigmas[0] in recover._SCHEDULE
    assert not solver_runs


@pytest.mark.parametrize("free", [False, True])
def test_lm_fit_at_2k_equal_to_m_takes_the_schedule(solver_runs, free):
    basis = MonomialBasis.full_degree(5)
    for seed in range(5):
        truth = _shared_truth(3, seed)
        report = lm_fit(basis, "gaussian", mixture_moments(basis, truth), 3,
                        free_sigma_per_component=free)
        assert report.success and report.iterations == 0 and report.k_used == 3
        assert report.model.sigmas[0] in recover._SCHEDULE
    assert not solver_runs


def test_lognormal_structural_miss_is_the_first_start_in_log_space(monkeypatch, solver_runs):
    # a two-component free-scale truth has no shared-scale fit; the step's
    # try is the first start, its positive locations taken to log space
    basis = MonomialBasis.full_degree(6)
    s = mixture_moments(basis, _lognormal_truth(2, np.random.default_rng([9, 6, 1]), False))
    tries = []
    real = recover._structural_fit

    def spy(s, kind, k, tol):
        tries.append(real(s, kind, k, tol))
        return tries[-1]

    monkeypatch.setattr(recover, "_structural_fit", spy)
    report = lm_fit(basis, "lognormal", s, 2, n_starts=1)
    (step,) = tries
    assert step.residual > 1e-8 and len(step.weights) == 2
    assert report.success and report.iterations > 0
    theta = solver_runs[0][2]
    np.testing.assert_allclose(np.exp(theta[:2]), step.weights, rtol=1e-14)
    np.testing.assert_allclose(np.exp(theta[2:4]), step.means[:, 0], rtol=1e-14)
    np.testing.assert_allclose(np.exp(theta[4:]), [step.sigma] * 2, rtol=1e-14)


@pytest.mark.parametrize("k, values", [
    (1, [9.01e-81, 2.16e+32, 2.81e+121, 4.03e-148, 5.78e-13, 5.88e+93, 3.44e+138]),
    (2, [9.11e-123, 1.47e+93, 4.31e+82, 3.71e-11, 0.000115, 0.0477, 9.97e+120]),
    (2, [2.24e-92, 4.12e-91, 5.79e+16, 3.28e-85, 3.37e+84]),
], ids=["d6k1", "d6k2", "d4k2"])
def test_lm_fit_on_extreme_finite_vectors_reports_without_numpy_errors(k, values):
    # the overflows of the largest-scale step and the kernel raise no
    # RuntimeWarning, which the test configuration turns into an error
    basis = MonomialBasis.full_degree(len(values) - 1)
    for free in (False, True):
        report = lm_fit(basis, "gaussian", mv(values, basis), k, free_sigma_per_component=free)
        assert not report.success


@pytest.mark.parametrize("j", [1, 2])
def test_largest_scale_step_returns_a_smaller_truth_with_its_own_count(solver_runs, j):
    basis = MonomialBasis.full_degree(8)
    truth = _shared_truth(j, 4)
    for report in _shared_fits(mixture_moments(basis, truth), 3):
        assert report.success and report.k_used == j
        np.testing.assert_allclose(report.model.sigmas, truth.sigmas, rtol=1e-8)
    assert not solver_runs


@pytest.mark.parametrize("d, k", [(6, 2), (8, 3), (10, 4), (12, 5)])
def test_largest_scale_brackets_take_at_most_16_eigenvalue_calls_per_order(monkeypatch, d, k):
    # bisection took 34 per order, down to 1e-10 of the standard deviation
    per_order, depth = [], []
    real_bracket, real_eigvalsh = recover._itp_bracket, np.linalg.eigvalsh

    def bracket(f, lo, hi, width):
        per_order.append(0)
        depth.append(True)
        try:
            return real_bracket(f, lo, hi, width)
        finally:
            depth.pop()

    def eigvalsh(a, *args, **kwargs):
        if depth:
            per_order[-1] += 1
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(recover, "_itp_bracket", bracket)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    basis = MonomialBasis.full_degree(d)
    for seed in range(3):
        per_order.clear()
        s = mixture_moments(basis, _shared_truth(k, seed))
        fit = recover._largest_scale(s, "gaussian", k, 1e-8)
        assert fit.residual <= 1e-8 and len(fit.weights) == k
        assert len(per_order) == k - 1 and max(per_order) <= 16


def _free_truth(k, seed):
    return sample_random_mixture("gaussian", k, rng=seed, mean_range=(-1.5, 1.5),
                                 sigma_range=(0.2, 0.6), min_separation=0.6)


@pytest.mark.parametrize("d, k", [(6, 2), (8, 3)])
def test_lm_fit_free_scales_start_from_the_largest_scale_try(monkeypatch, d, k):
    basis = MonomialBasis.full_degree(d)
    vectors = [mixture_moments(basis, _free_truth(k, seed)) for seed in range(30)]
    seeded = [lm_fit(basis, "gaussian", s, k, seed=1) for s in vectors]
    monkeypatch.setattr(recover, "_largest_scale", lambda s, kind, k, tol: None)
    unseeded = [lm_fit(basis, "gaussian", s, k, seed=1) for s in vectors]
    assert all(report.success for report in seeded)
    iterations = sum(report.iterations for report in seeded)
    without = sum(report.iterations for report in unseeded)
    if k == 2:
        # 280 against 1124 iterations
        assert iterations <= without / 2
    else:
        # the square (8, 3) system crawls from any start: 5530 against 6277
        assert iterations < without


@pytest.fixture
def constructions(monkeypatch):
    """Every ``MixtureMeasure`` the engines build."""
    built = []

    class Counted(recover.MixtureMeasure):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(recover, "MixtureMeasure", Counted)
    return built


@pytest.mark.parametrize("d, k", [(5, None), (6, 2), (6, 3)])
def test_shared_scale_tries_build_only_the_returned_model(constructions, d, k):
    # the odd-d cap walks the schedule, the others take the largest-scale step
    basis = MonomialBasis.full_degree(d)
    s = mixture_moments(basis, _shared_truth(2 if k is None else k, 5))
    reports = [recover_shared_sigma_gaussian(s, k=k)]
    if k is not None:
        reports.append(lm_fit(basis, "gaussian", s, k, free_sigma_per_component=False))
    for report in reports:
        assert report.success
        residual = _relative_residual(mixture_moments(basis, report.model).values, s.values)
        assert report.residual == residual
    assert constructions == [report.model for report in reports]
    constructions.clear()
    miss = recover_shared_sigma_gaussian(_three_at_one_scale(), k=2)
    assert not miss.success and not constructions


def test_exterior_ray_is_refused_before_the_largest_scale_step(monkeypatch):
    def no_step(s, kind, k, tol):
        raise AssertionError("the largest-scale step ran on an exterior vector")

    monkeypatch.setattr(recover, "_largest_scale", no_step)
    basis = MonomialBasis.full_degree(5)
    for report in _shared_fits(mv([1, 0, -1, 0, 1, 0], basis), 2):
        assert not report.success
        assert report.failure_reason.startswith("exterior:")


def _step_alone_below_the_cap(prony_in_step, kind, means):
    basis = MonomialBasis.full_degree(6)
    truth = MixtureMeasure(kind=kind, weights=[0.5, 0.5], means=means, sigmas=[0.3, 0.3])
    s = mixture_moments(basis, truth)
    report = SHARED_ENGINES[kind](s, k=2)
    assert report.success and report.k_used == 2 and report.sigma_steps == 0
    assert report.sigma_used == pytest.approx(0.3, rel=1e-8)
    # a miss of the step is the report: no Prony solve runs outside it
    report = SHARED_ENGINES[kind](_three_at_one_scale(kind), k=2)
    assert not report.success and report.sigma_steps == 0 and report.model is None
    assert "at most 2 components" in report.failure_reason
    assert prony_in_step and all(prony_in_step)


def test_shared_sigma_gaussian_below_the_cap_takes_the_largest_scale_step(prony_in_step):
    _step_alone_below_the_cap(prony_in_step, "gaussian", [[-1.0], [0.8]])


def test_shared_sigma_lognormal_below_the_cap_takes_the_largest_scale_step(prony_in_step):
    _step_alone_below_the_cap(prony_in_step, "lognormal", [[0.8], [1.6]])


@pytest.fixture
def prony_in_step(monkeypatch):
    """For every ``_prony`` call, whether it ran inside the largest-scale step."""
    calls, depth = [], []
    real_step, real_prony = recover._largest_scale, recover._prony

    def step(s, kind, k, tol):
        depth.append(k)
        try:
            return real_step(s, kind, k, tol)
        finally:
            depth.pop()

    def prony(u, k):
        calls.append(bool(depth))
        return real_prony(u, k)

    monkeypatch.setattr(recover, "_largest_scale", step)
    monkeypatch.setattr(recover, "_prony", prony)
    return calls


def _prony_only_in_the_step(prony_in_step, kind, d):
    basis = MonomialBasis.full_degree(d)
    for k in range(1, d // 2 + 1):
        for j in (k, k + 1):  # a truth with k components, and one with k + 1
            s = mixture_moments(basis, _shared_truth(j, d, kind))
            SHARED_ENGINES[kind](s, k=k)
    if d % 2 == 0:
        SHARED_ENGINES[kind](s)  # k = None is the cap d/2
    assert prony_in_step and all(prony_in_step)


@pytest.mark.parametrize("d", range(2, 10))
def test_shared_sigma_gaussian_with_2k_at_most_d_runs_prony_only_in_the_step(prony_in_step, d):
    _prony_only_in_the_step(prony_in_step, "gaussian", d)


@pytest.mark.parametrize("d", range(2, 10))
def test_shared_sigma_lognormal_with_2k_at_most_d_runs_prony_only_in_the_step(prony_in_step, d):
    _prony_only_in_the_step(prony_in_step, "lognormal", d)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_shared_sigma_gaussian_even_cap_represents_one_more_free_scale_component(d):
    # at even d = 2r the cap r is one below ceil((d+1)/2); r components
    # sharing one scale still represent the moments of r + 1 with free scales
    basis = MonomialBasis.full_degree(d)
    r = d // 2
    for seed in range(30):
        truth = sample_random_mixture("gaussian", r + 1, rng=seed, sigma_range=(0.1, 0.6),
                                      min_separation=0.3)
        report = recover_shared_sigma_gaussian(mixture_moments(basis, truth))
        assert report.success and report.k_used <= r and report.residual <= 1e-8
        assert report.sigma_steps == 0


def test_shared_sigma_gaussian_caps_k_at_half_the_moment_count():
    # floor((d+1)/2): a request for 4 components on {1, ..., x^6} gets 3
    basis = MonomialBasis.full_degree(6)
    truth = sample_random_mixture("gaussian", 3, rng=4, mean_range=(-2.0, 2.0),
                                  sigma_range=(0.1, 0.3), min_separation=0.4, shared_sigma=True)
    report = recover_shared_sigma_gaussian(mixture_moments(basis, truth), k=4)
    assert report.success and report.k_used == 3


def test_shared_sigma_gaussian_single_component_at_even_degree():
    basis = MonomialBasis.full_degree(4)
    truth = MixtureMeasure(kind="gaussian", weights=[1.3], means=[[0.4]], sigmas=[0.7])
    report = recover_shared_sigma_gaussian(mixture_moments(basis, truth))
    assert report.success and report.k_used == 1 and report.sigma_steps == 0
    assert report.sigma_used == pytest.approx(0.7, rel=1e-10)
    assert report.model.means[0, 0] == pytest.approx(0.4, rel=1e-10)
    assert report.model.weights[0] == pytest.approx(1.3, rel=1e-10)


@pytest.mark.parametrize("d", [4, 6])
def test_shared_sigma_gaussian_one_atom_at_even_degree(d):
    # the variance is 0, so the step's scale floor gives the one-component fit
    basis = MonomialBasis.full_degree(d)
    rng = np.random.default_rng(d)
    for _ in range(30):
        x, w = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)
        s = dirac_moments(basis, AtomicMeasure(weights=[w], points=[[x]]))
        report = recover_shared_sigma_gaussian(s)
        assert report.success and report.k_used == 1 and report.residual <= 1e-8
        assert report.model.means[0, 0] == pytest.approx(x, rel=1e-8, abs=1e-8)


def test_shared_sigma_gaussian_below_degree_two_walks_the_schedule():
    # d = 0 has cap 0, so nothing is tried; d = 1 has 2k = d + 1 and walks
    # the schedule
    report = recover_shared_sigma_gaussian(mv([1.0], MonomialBasis.full_degree(0)))
    assert report.to_json() == {
        "success": False, "model": None, "residual": math.inf, "engine": "shared-sigma-gaussian",
        "sigma_used": None, "k_used": 0, "iterations": 0, "sigma_steps": 0,
        "failure_reason": "no shared-scale fit with at most 0 components",
    }
    report = recover_shared_sigma_gaussian(mv([1.0, 0.3], MonomialBasis.full_degree(1)))
    assert report.to_json() == {
        "success": True, "model": {"kind": "gaussian",
                                   "components": [{"c": 1.0, "xi": [0.3], "sigma": 1.0}]},
        "residual": 0.0, "engine": "shared-sigma-gaussian", "sigma_used": 1.0, "k_used": 1,
        "iterations": 0, "sigma_steps": 1, "failure_reason": None,
    }


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


@pytest.mark.parametrize("engine", ["homotopy", "lm_fit"])
def test_gap_engines_refuse_a_negative_even_moment_before_any_start(
    monkeypatch, kernel_calls, engine
):
    # no measure on the line has a negative second moment
    values = gap_roundtrip_moments().values.copy()
    values[1] = -0.1 * abs(values[1])
    s = mv(values, GAP)

    def no_start(*args, **kwargs):
        raise AssertionError("the solver ran on an exterior vector")

    monkeypatch.setattr(recover, "_damped_least_squares", no_start)
    if engine == "homotopy":
        report = homotopy_gap_recovery(GAP, s, k=3, seed=40)
    else:
        report = lm_fit(GAP, "gaussian", s, k=3, seed=0)
    assert not kernel_calls
    assert not report.success and report.model is None and report.residual == math.inf
    assert report.failure_reason.startswith("exterior: real-line Hankel margin -")


@pytest.mark.parametrize("engine", ["homotopy", "lm_fit"])
def test_gap_engines_refuse_an_exterior_run_before_any_start(monkeypatch, kernel_calls, engine):
    # every even moment is positive, but s_0 s_2 < s_1^2 on the run 0..2;
    # and s_0 s_4 < s_2^2 on degrees 0, 2, 4, a block across runs, where the
    # homotopy took 413 solver iterations and lm_fit 5455 before a cone test
    # read it
    basis = MonomialBasis.univariate([0, 1, 2, 4, 6])

    def no_start(*args, **kwargs):
        raise AssertionError("the solver ran on an exterior vector")

    monkeypatch.setattr(recover, "_damped_least_squares", no_start)
    for values, margin in [([1.0, 0.5, 0.2, 0.3, 1.0], "-4.03"),
                           ([1.0, 0.0, 1.0, 0.5, 1.0], "-2.808e-01")]:
        s = mv(values, basis)
        if engine == "homotopy":
            report = homotopy_gap_recovery(basis, s, k=3)
        else:
            report = lm_fit(basis, "gaussian", s, k=3, seed=0)
        assert not kernel_calls
        assert not report.success and report.model is None and report.residual == math.inf
        assert report.iterations == 0 and report.sigma_steps == 0
        assert report.failure_reason.startswith(f"exterior: real-line Hankel margin {margin}")


def test_lognormal_fit_refuses_an_exterior_run_of_a_gap_basis(monkeypatch, kernel_calls):
    # every moment is positive, but s_2 s_4 < s_3^2 on the run 2..4
    basis = MonomialBasis.univariate([0, 2, 3, 4, 6])
    s = mv([1.0, 1.0, 2.0, 3.0, 50.0], basis)

    def no_start(*args, **kwargs):
        raise AssertionError("the solver ran on an exterior vector")

    monkeypatch.setattr(recover, "_damped_least_squares", no_start)
    report = lm_fit(basis, "lognormal", s, k=3, seed=0)
    assert not kernel_calls
    assert not report.success and report.model is None and report.residual == math.inf
    assert report.failure_reason.startswith("exterior: half-line Hankel margin -")


def test_sign_certificate_reads_only_monomials_nonnegative_on_the_support():
    # a negative x^3 or x*y moment is a Gaussian mixture's (mass left of 0, or
    # in the second quadrant) but no log-normal mixture's; a negative x^2
    # moment is neither's
    values = gap_roundtrip_moments().values.copy()
    values[2] = -abs(values[2])
    odd = mv(values, GAP)
    bivariate = MonomialBasis(n=2, exponents=((0, 0), (2, 0), (1, 1)))
    assert bivariate.exponents == ((0, 0), (2, 0), (1, 1))
    for s, gaussian_exterior in [(odd, False), (mv([1.0, 1.0, -0.5], bivariate), False),
                                 (mv([1.0, -1.0, 0.5], bivariate), True)]:
        gaussian, lognormal = (
            recover._exterior_refusal(s, kind, "probe") for kind in ("gaussian", "lognormal")
        )
        assert (gaussian is not None) == gaussian_exterior
        assert lognormal.failure_reason.startswith("exterior: half-line Hankel margin -")


@settings(max_examples=320, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "lognormal"]),
    shape=st.sampled_from(["consecutive", "subset", "bivariate", "trivariate"]),
    d=st.integers(3, 11),
    k=st.integers(1, 8),
    shift=st.integers(0, 2),
    degrees=st.sets(st.integers(0, 12), min_size=1),
    sigma_floor=st.sampled_from([1e-3, 0.05, 0.3]),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_refusal_never_fires_on_mixture_moments(
    kind, shape, d, k, shift, degrees, sigma_floor, shared, seed
):
    # many components at tiny scales put the vector within the tolerance
    # band of the boundary, where a too-tight test would refuse it; on gap
    # bases the test reads the principal blocks the basis holds, and on
    # multivariate full-degree bases the whole moment matrix
    if shape == "bivariate":
        kind, basis = "gaussian", MonomialBasis.full_degree(d, n=2)
    elif shape == "trivariate":
        kind, basis = "gaussian", MonomialBasis.full_degree(min(d, 5), n=3)
    elif shape == "subset":
        basis = MonomialBasis.univariate(degrees)
    elif kind == "gaussian":
        basis = MonomialBasis.full_degree(d)
    else:
        basis = MonomialBasis.univariate(range(shift, shift + d + 1))
    mean_range = (-4.0, 4.0) if kind == "gaussian" else (0.2, 3.0)
    mix = sample_random_mixture(kind, k, n=basis.n, rng=seed, mean_range=mean_range,
                                sigma_range=(sigma_floor, 1.0), shared_sigma=shared)
    s = mixture_moments(basis, mix)
    assert recover._exterior_refusal(s, kind, "probe") is None


def test_finite_vectors_get_a_report_or_a_typed_error():
    # entries over 1e-8 .. 1e12 with mixed signs, mostly outside the cone:
    # every call returns or raises a MixcaraError, never a raw numpy error
    rng = np.random.default_rng(30)
    bases = [MonomialBasis.full_degree(d) for d in (3, 4, 5, 6)] + [
        GAP, MonomialBasis.univariate([0, 1, 3, 4, 6]),
        MonomialBasis.univariate(range(1, 7)), MonomialBasis.univariate(range(2, 6)),
    ]
    for i in range(60):
        basis = bases[i % len(bases)]
        kind = ("gaussian", "lognormal")[i // len(bases) % 2]
        signs = np.where(rng.random(basis.m) < 0.25, -1.0, 1.0)
        s = mv(signs * 10.0 ** rng.uniform(-8, 12, basis.m), basis)
        x0 = rng.uniform(0.5, 3.0) if kind == "lognormal" else rng.uniform(-3.0, 3.0)
        sigma0 = rng.uniform(0.1, 0.5)
        calls = [
            lambda: prony_dirac(s, (basis.max_degree + 1) // 2),
            lambda: recover_shared_sigma_gaussian(s),
            lambda: recover_shared_sigma_lognormal(s),
            lambda: homotopy_gap_recovery(basis, s, (basis.m + 1) // 2),
            lambda: lm_fit(basis, kind, s, (basis.m - 1) // 2, False, n_starts=2),
            lambda: hankel_classify(s),
            lambda: represent_with_prescribed_component(basis, kind, s, x0, sigma0),
        ]
        for call in calls:
            try:
                call()
            except MixcaraError:
                pass


@pytest.mark.parametrize("kind, exponents, values", [
    # overflow in np.vander
    ("gaussian", [0, 1, 2, 3], [8.21e-57, 1.02e+23, 3.21e+141, 2.51e+82]),
    # weights that are not finite
    ("lognormal", [2, 3, 4, 5], [3.16e-135, 1.4e-84, 1.4e-112, 8.56e-73]),
    ("lognormal", [2, 3], [2.2e-91, 6.19e+110]),
    ("lognormal", [2, 3, 4, 5, 6, 7],
     [8.17e+148, 9000.0, 1.98e-128, 1.83e+74, 3.04e+44, 7.91e-106]),
    # an infinite Vandermonde matrix, on which LAPACK prints to stdout
    ("gaussian", [0, 1, 2, 3], [5.69e-86, 1.3e+40, 3.22e-12, 3.96e+143]),
    ("lognormal", [1, 2, 3, 4], [1.05e-117, 1.9e+28, 4.08e+71, 5.2e+128]),
])
def test_shared_scale_descent_on_extreme_finite_vectors_fails_without_numpy_errors(
    capfd, kind, exponents, values
):
    # a try that overflows is no fit: no floating-point warning, no untyped
    # error, and no LAPACK complaint about an infinite matrix
    s = mv(values, MonomialBasis.univariate(exponents))
    report = SHARED_ENGINES[kind](s)
    assert not report.success and report.sigma_steps == 40 and report.model is None
    if kind == "gaussian":
        with pytest.raises(ConditioningError, match="Vandermonde"):
            prony_dirac(s, 2)
    assert capfd.readouterr() == ("", "")


def test_largest_scale_step_beyond_the_float_range_raises_a_typed_error():
    # the closed-form first scale is about 1e99, whose fourth power, an entry
    # of the inverse transfer matrix, overflows
    values = [1.67e-81, 1.0e-26, 1.62e+117, 1.32e-110, 6.48e+145]
    s = mv(values, MonomialBasis.full_degree(4))
    with pytest.raises(MomentOverflowError, match="to the power 4 overflows"):
        recover_shared_sigma_gaussian(s)


def test_default_schedule_shape():
    sched = recover._SCHEDULE
    assert len(sched) == 40
    assert sched[0] == 1.0
    assert sched[1] == 0.5
