import numpy as np
import pytest

from mixcara.basis import MonomialBasis
from mixcara.measures import AtomicMeasure, MixtureMeasure, sample_random_mixture
from mixcara.moments import dirac_moments, mixture_moments
from mixcara.reduce import reduce_atoms, reduce_mixture_components


def test_small_measure_unchanged():
    basis = MonomialBasis.full_degree(2)
    mu = AtomicMeasure(weights=[1.0, 1.0, 1.0], points=[[-1.0], [0.0], [1.0]])
    assert reduce_atoms(basis, mu) is mu


def test_four_atoms_to_three():
    basis = MonomialBasis.full_degree(2)
    mu = AtomicMeasure(weights=np.full(4, 0.25), points=[[-1.0], [0.0], [1.0], [2.0]])
    reduced = reduce_atoms(basis, mu)
    assert reduced.k == 3
    assert np.all(reduced.weights > 0)
    np.testing.assert_allclose(
        dirac_moments(basis, reduced).values, [1.0, 0.5, 1.5], atol=1e-12
    )


def test_constant_basis_reduces_to_total_mass():
    basis = MonomialBasis.univariate([0])
    rng = np.random.default_rng(0)
    mu = AtomicMeasure(weights=rng.uniform(0.5, 2, 7), points=rng.uniform(-1, 1, (7, 1)))
    reduced = reduce_atoms(basis, mu)
    assert reduced.k == 1
    assert reduced.weights[0] == pytest.approx(mu.total_mass, rel=1e-13)
    # the surviving position is one of the original atoms
    assert any(np.allclose(reduced.points[0], p) for p in mu.points)


def test_atoms_randomized_reduction():
    rng = np.random.default_rng(31)
    for trial in range(80):
        m = int(rng.integers(1, 9))
        basis = MonomialBasis.full_degree(m - 1)
        k = int(rng.integers(m + 1, 51))
        weights, points = rng.uniform(0.1, 1.5, k), rng.uniform(-1, 1, (k, 1))
        mu = AtomicMeasure(weights=weights, points=points)
        before = dirac_moments(basis, mu).values
        reduced = reduce_atoms(basis, mu)
        after = dirac_moments(basis, reduced).values
        assert reduced.k <= m
        assert reduced.k < k
        assert np.all(reduced.weights > 0)
        assert np.max(np.abs(after - before)) <= 1e-10 * (1 + np.max(np.abs(before)))
        # the same atoms at a tiny total mass must not all be dropped
        tiny = AtomicMeasure(weights=1e-15 * weights, points=points)
        before = dirac_moments(basis, tiny).values
        reduced = reduce_atoms(basis, tiny)
        after = dirac_moments(basis, reduced).values
        assert 1 <= reduced.k <= m
        assert np.max(np.abs(after - before)) <= 1e-10 * np.max(np.abs(before))


def test_single_component_mixture_unchanged():
    basis = MonomialBasis.full_degree(2)
    mix = MixtureMeasure(kind="gaussian", weights=[1.0], means=[[0.5]], sigmas=[0.3])
    assert reduce_mixture_components(basis, "gaussian", mix) is mix


def test_gaussian_mixture_reduction():
    basis = MonomialBasis.full_degree(2)
    rng = np.random.default_rng(8)
    mix = sample_random_mixture("gaussian", 5, rng=rng)
    before = mixture_moments(basis, mix).values
    reduced = reduce_mixture_components(basis, "gaussian", mix)
    after = mixture_moments(basis, reduced).values
    assert reduced.k <= 3
    assert np.all(reduced.weights > 0)
    assert np.max(np.abs(after - before)) <= 1e-10 * (1 + np.max(np.abs(before)))


def test_lognormal_mixture_reduction():
    basis = MonomialBasis.full_degree(1)
    rng = np.random.default_rng(9)
    mix = sample_random_mixture("lognormal", 4, rng=rng, mean_range=(0.5, 2.0))
    before = mixture_moments(basis, mix).values
    reduced = reduce_mixture_components(basis, "lognormal", mix)
    after = mixture_moments(basis, reduced).values
    assert reduced.k <= 2
    assert np.max(np.abs(after - before)) <= 1e-10 * (1 + np.max(np.abs(before)))


def test_mixture_randomized_reduction():
    rng = np.random.default_rng(131)
    for trial in range(40):
        m = int(rng.integers(2, 9))
        basis = MonomialBasis.full_degree(m - 1)
        k = int(rng.integers(m + 1, 40))
        mix = sample_random_mixture(
            "gaussian", k, rng=rng, weight_range=(0.1, 1.5),
            mean_range=(-1.0, 1.0), sigma_range=(0.1, 0.8),
        )
        before = mixture_moments(basis, mix).values
        reduced = reduce_mixture_components(basis, "gaussian", mix)
        after = mixture_moments(basis, reduced).values
        assert reduced.k <= m
        assert np.all(reduced.weights > 0)
        assert np.max(np.abs(after - before)) <= 1e-10 * (1 + np.max(np.abs(before)))


def test_kind_mismatch_rejected():
    basis = MonomialBasis.full_degree(2)
    mix = MixtureMeasure(kind="gaussian", weights=[1.0], means=[[0.0]], sigmas=[1.0])
    with pytest.raises(ValueError):
        reduce_mixture_components(basis, "lognormal", mix)
