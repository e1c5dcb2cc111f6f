import math

import numpy as np
import pytest
import scipy.optimize

from mixcara.basis import MonomialBasis
from mixcara.errors import InfeasibleMomentsError, MixcaraError, UnsupportedBasisError
from mixcara.measures import AtomicMeasure, MixtureMeasure, sample_random_mixture
from mixcara.moments import MomentVector, dirac_moments, mixture_moments
from mixcara.recover import (
    default_sigma_schedule,
    homotopy_gap_recovery,
    lm_fit,
    match_components,
    prony_dirac,
    recover_shared_sigma_gaussian,
    recover_shared_sigma_lognormal,
)

GAP = MonomialBasis.univariate([0, 2, 3, 5, 6])


def mv(values, basis):
    return MomentVector(values=np.asarray(values, dtype=float), basis=basis)


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
    s = mv([1, 0, -1, 0], MonomialBasis.full_degree(3))
    with pytest.raises(MixcaraError):
        prony_dirac(s, 2)


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
    perm = match_components(mix.means, report.model.means, mix.weights, report.model.weights)
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


def test_homotopy_gap_roundtrip():
    rng = np.random.default_rng(40)
    mix = sample_random_mixture(
        "gaussian", 3, rng=rng, sigma_range=(0.05, 0.05), min_separation=0.5,
        shared_sigma=True,
    )
    s = mixture_moments(GAP, mix)
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
    perm = match_components(truth.means, report.model.means, truth.weights, report.model.weights)
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
def test_lm_fit_analytic_jacobian_matches_central_differences(monkeypatch, kind, free, means):
    basis = MonomialBasis.full_degree(5)
    truth = MixtureMeasure(kind=kind, weights=[0.7, 1.3], means=means, sigmas=[0.3, 0.4])
    calls = []
    real = scipy.optimize.least_squares

    def spy(fun, x0, jac, **kwargs):
        calls.append((fun, jac, x0))
        return real(fun, x0, jac=jac, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", spy)
    lm_fit(basis, kind, mixture_moments(basis, truth), k=2,
           free_sigma_per_component=free, n_starts=1)
    fun, jac, theta = calls[0]
    h = 1e-6
    fd = np.column_stack([(fun(theta + h * e) - fun(theta - h * e)) / (2 * h)
                          for e in np.eye(theta.size)])
    np.testing.assert_allclose(jac(theta), fd, rtol=1e-6, atol=1e-6)


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


def test_lm_fit_lognormal():
    basis = MonomialBasis.full_degree(3)
    truth = MixtureMeasure(kind="lognormal", weights=[1.0], means=[[1.8]], sigmas=[0.4])
    s = mixture_moments(basis, truth)
    report = lm_fit(basis, "lognormal", s, k=1, seed=0)
    assert report.success
    assert report.model.means[0, 0] == pytest.approx(1.8, rel=1e-5)


def test_lm_fit_underdetermined_warns():
    basis = MonomialBasis.full_degree(2)
    s = mv([1, 0, 1], basis)
    with pytest.warns(UserWarning):
        lm_fit(basis, "gaussian", s, k=2, seed=0, n_starts=2)


def test_match_components_assignment():
    ref = np.array([[0.0], [1.0], [2.0]])
    found = np.array([[2.01], [0.02], [0.98]])
    perm = match_components(ref, found)
    np.testing.assert_array_equal(perm, [1, 2, 0])


def test_default_schedule_shape():
    sched = default_sigma_schedule()
    assert len(sched) == 40
    assert sched[0] == 1.0
    assert sched[1] == 0.5
