import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from mixcara.basis import MonomialBasis
from mixcara.errors import MomentOverflowError, UnsupportedBasisError
from mixcara.measures import AtomicMeasure, MixtureMeasure
from mixcara.moments import (
    MomentVector,
    component_moments,
    dirac_moments,
    gaussian_smoothed_basis,
    lognormal_moment,
    mixture_moments,
    transfer_matrix_gaussian,
)

GAP = MonomialBasis.univariate([0, 2, 3, 5, 6])


def double_factorial(j: int) -> int:
    out = 1
    while j > 1:
        out *= j
        j -= 2
    return out


def binomial_expansion_table(i: int) -> dict:
    """Independent oracle: coefficient of x^(i-j) sigma^j is C(i,j) (j-1)!!."""
    table = {}
    for j in range(0, i + 1, 2):
        table[((i - j,), j)] = math.comb(i, j) * double_factorial(j - 1)
    return table


def test_gap_basis_tables_match_printed_values():
    smoothed = gaussian_smoothed_basis(GAP)
    expected = {
        (0,): {((0,), 0): 1},
        (2,): {((2,), 0): 1, ((0,), 2): 1},
        (3,): {((3,), 0): 1, ((1,), 2): 3},
        (5,): {((5,), 0): 1, ((3,), 2): 10, ((1,), 4): 15},
        (6,): {((6,), 0): 1, ((4,), 2): 15, ((2,), 4): 45, ((0,), 6): 15},
    }
    for alpha, poly in zip(GAP.exponents, smoothed.polynomials):
        assert poly == expected[alpha]


def test_recurrence_equals_binomial_expansion():
    basis = MonomialBasis.full_degree(12)
    smoothed = gaussian_smoothed_basis(basis)
    for i, poly in enumerate(smoothed.polynomials):
        assert poly == binomial_expansion_table(i)


def test_leading_term_and_sigma_zero():
    basis = MonomialBasis.full_degree(8)
    smoothed = gaussian_smoothed_basis(basis)
    for i, poly in enumerate(smoothed.polynomials):
        assert poly[((i,), 0)] == 1  # leading coefficient
        assert all(sp % 2 == 0 for (_, sp) in poly)  # even sigma powers only
        at_zero = smoothed.eval_components(np.array([2.0]), 0.0)
        np.testing.assert_allclose(at_zero[i], 2.0**i)


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for (xa, sa), ca in a.items():
        for (xb, sb), cb in b.items():
            key = (xa + xb, sa + sb)
            out[key] = out.get(key, 0) + ca * cb
    return out


def _poly_add_scaled(acc: dict, poly: dict, scale: int) -> None:
    for key, c in poly.items():
        acc[key] = acc.get(key, 0) + scale * c
        if acc[key] == 0:
            del acc[key]


def test_central_moments_exact_integer_identity():
    """sum_j C(i,j) (-x)^(i-j) b_j(x, sigma) collapses to the central moment."""
    basis = MonomialBasis.full_degree(10)
    smoothed = gaussian_smoothed_basis(basis)
    univ = [{(key[0][0], key[1]): c for key, c in poly.items()} for poly in smoothed.polynomials]
    for i in range(0, 11):
        acc: dict = {}
        for j in range(i + 1):
            # (-x)^(i-j) contributes x^(i-j) with sign (-1)^(i-j)
            sign = -1 if (i - j) % 2 else 1
            shift = {(i - j, 0): sign * math.comb(i, j)}
            _poly_add_scaled(acc, _poly_mul(shift, univ[j]), 1)
        if i % 2 == 0:
            assert acc == {(0, i): double_factorial(i - 1)} if i else {(0, 0): 1}
        else:
            assert acc == {}


def test_lognormal_moment_values():
    assert lognormal_moment(0, 3.0, 0.7) == 1.0
    assert lognormal_moment(1, 1.0, 1.0) == pytest.approx(math.exp(0.5), rel=1e-12)
    assert lognormal_moment(2, 2.0, 0.5) == pytest.approx(4 * math.exp(0.5), rel=1e-12)


def lognormal_quadrature(i: int, xi: float, sigma: float) -> float:
    """Oracle: integrate x^i against the density, in log coordinates."""

    def integrand(u: float) -> float:
        # single exponential keeps the far tails at 0.0 instead of overflowing
        exponent = i * u - (u - math.log(xi)) ** 2 / (2 * sigma**2)
        return math.exp(exponent) / (math.sqrt(2 * math.pi) * sigma)

    value, _ = scipy.integrate.quad(integrand, -np.inf, np.inf, epsabs=0, epsrel=1e-10)
    return value


def test_lognormal_moment_matches_quadrature():
    assert lognormal_moment(2, 2.0, 0.5) == pytest.approx(
        lognormal_quadrature(2, 2.0, 0.5), rel=1e-8
    )


def test_lognormal_moment_domain_errors():
    with pytest.raises(ValueError):
        lognormal_moment(1, -1.0, 0.5)
    with pytest.raises(ValueError):
        lognormal_moment(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        lognormal_moment(-1, 1.0, 0.5)


def test_lognormal_moment_overflow_reported():
    with pytest.raises(MomentOverflowError):
        lognormal_moment(25376, 1.5, 1.0)


def test_dirac_moments_examples():
    basis = MonomialBasis.full_degree(2)
    single = AtomicMeasure(weights=[1.0], points=[[2.0]])
    np.testing.assert_array_equal(dirac_moments(basis, single).values, [1, 2, 4])
    symmetric = AtomicMeasure(weights=[0.5, 0.5], points=[[-1.0], [1.0]])
    np.testing.assert_array_equal(dirac_moments(basis, symmetric).values, [1, 0, 1])
    np.testing.assert_array_equal(dirac_moments(basis, AtomicMeasure.empty(1)).values, [0, 0, 0])


def test_mixture_moments_standard_gaussian():
    basis = MonomialBasis.full_degree(2)
    mix = MixtureMeasure(kind="gaussian", weights=[1.0], means=[[0.0]], sigmas=[1.0])
    np.testing.assert_allclose(mixture_moments(basis, mix).values, [1, 0, 1])


def test_mixture_moments_sigma_to_zero_limit():
    basis = MonomialBasis.full_degree(2)
    mix = MixtureMeasure(kind="gaussian", weights=[1.0], means=[[2.0]], sigmas=[1e-8])
    atom = AtomicMeasure(weights=[1.0], points=[[2.0]])
    np.testing.assert_allclose(
        mixture_moments(basis, mix).values,
        dirac_moments(basis, atom).values,
        atol=1e-12,
    )


def test_mixture_moments_lognormal_unit():
    basis = MonomialBasis.full_degree(2)
    mix = MixtureMeasure(kind="lognormal", weights=[1.0], means=[[1.0]], sigmas=[1.0])
    np.testing.assert_allclose(
        mixture_moments(basis, mix).values, [1, math.exp(0.5), math.exp(2.0)], rtol=1e-12
    )


def gaussian_quadrature_moment(e: int, xi: float, sigma: float) -> float:
    """Oracle: integrate x^e against the Gaussian density over a wide window."""

    def integrand(x: float) -> float:
        return x**e * math.exp(-((x - xi) ** 2) / (2 * sigma**2)) / (
            math.sqrt(2 * math.pi) * sigma
        )

    value, _ = scipy.integrate.quad(
        integrand, xi - 15 * sigma, xi + 15 * sigma, epsabs=0, epsrel=1e-11, limit=200
    )
    return value


def test_gaussian_moments_match_quadrature():
    rng = np.random.default_rng(99)
    basis = MonomialBasis.full_degree(6)
    for _ in range(15):
        xi = rng.uniform(-2, 2)
        sigma = rng.uniform(0.1, 1.0)
        c = rng.uniform(0.5, 2.0)
        mix = MixtureMeasure(kind="gaussian", weights=[c], means=[[xi]], sigmas=[sigma])
        got = mixture_moments(basis, mix).values
        expected = [c * gaussian_quadrature_moment(e, xi, sigma) for e in range(7)]
        np.testing.assert_allclose(got, expected, rtol=1e-7)


def test_gaussian_moments_match_quadrature_two_vars():
    # the isotropic density factors, so the oracle is a product of 1-D quadratures
    rng = np.random.default_rng(100)
    basis = MonomialBasis.full_degree(3, n=2)
    for _ in range(5):
        xi = rng.uniform(-1.5, 1.5, size=2)
        sigma = rng.uniform(0.2, 0.9)
        mix = MixtureMeasure(kind="gaussian", weights=[1.0], means=[xi], sigmas=[sigma])
        got = mixture_moments(basis, mix).values
        expected = [
            gaussian_quadrature_moment(a1, xi[0], sigma)
            * gaussian_quadrature_moment(a2, xi[1], sigma)
            for (a1, a2) in basis.exponents
        ]
        np.testing.assert_allclose(got, expected, rtol=1e-7)


def test_moment_linearity_under_concatenation():
    basis = MonomialBasis.full_degree(4)
    rng = np.random.default_rng(11)
    a = MixtureMeasure(
        kind="gaussian",
        weights=rng.uniform(0.5, 2, 2),
        means=rng.uniform(-1, 1, (2, 1)),
        sigmas=rng.uniform(0.1, 1, 2),
    )
    b = MixtureMeasure(
        kind="gaussian",
        weights=rng.uniform(0.5, 2, 3),
        means=rng.uniform(-1, 1, (3, 1)),
        sigmas=rng.uniform(0.1, 1, 3),
    )
    both = MixtureMeasure(
        kind="gaussian",
        weights=np.concatenate([a.weights, b.weights]),
        means=np.concatenate([a.means, b.means]),
        sigmas=np.concatenate([a.sigmas, b.sigmas]),
    )
    np.testing.assert_allclose(
        mixture_moments(basis, both).values,
        mixture_moments(basis, a).values + mixture_moments(basis, b).values,
        rtol=1e-13,
    )


def test_transfer_matrix_degree_two():
    basis = MonomialBasis.full_degree(2)
    sigma = 0.7
    np.testing.assert_allclose(
        transfer_matrix_gaussian(basis, sigma),
        [[1, 0, 0], [0, 1, 0], [sigma**2, 0, 1]],
    )


def test_transfer_matrix_sigma_zero_is_selection():
    M = transfer_matrix_gaussian(GAP, 0.0)
    expected = np.zeros((5, 7))
    for row, e in enumerate((0, 2, 3, 5, 6)):
        expected[row, e] = 1.0
    np.testing.assert_array_equal(M, expected)


def test_transfer_matrix_gap_row_for_x5():
    sigma = 1.3
    row = transfer_matrix_gaussian(GAP, sigma)[3]
    np.testing.assert_allclose(row, [0, 15 * sigma**4, 0, 10 * sigma**2, 0, 1, 0])


def test_transfer_matrix_multivariate_unsupported():
    with pytest.raises(UnsupportedBasisError):
        transfer_matrix_gaussian(MonomialBasis.full_degree(2, n=2), 0.5)


def test_shared_sigma_factorization():
    """Mixture moments factor through the transfer matrix on full bases."""
    rng = np.random.default_rng(2024)
    basis = MonomialBasis.full_degree(5)
    for _ in range(500):
        k = int(rng.integers(1, 5))
        sigma = rng.uniform(0.05, 1.0)
        weights = rng.uniform(0.5, 2.0, k)
        means = rng.uniform(-1.5, 1.5, (k, 1))
        mix = MixtureMeasure(
            kind="gaussian", weights=weights, means=means, sigmas=np.full(k, sigma)
        )
        atoms = AtomicMeasure(weights=weights, points=means)
        via_transfer = transfer_matrix_gaussian(basis, sigma) @ dirac_moments(basis, atoms).values
        direct = mixture_moments(basis, mix).values
        scale = 1.0 + np.max(np.abs(direct))
        assert np.max(np.abs(via_transfer - direct)) <= 1e-12 * scale


def test_moment_vector_validation_and_json():
    basis = MonomialBasis.full_degree(2)
    with pytest.raises(ValueError):
        MomentVector(values=np.ones(2), basis=basis)
    s = MomentVector(values=[1.0, 0.0, 1.0], basis=basis, kind_tag="dirac")
    again = MomentVector.from_json(s.to_json())
    assert again.basis == basis
    np.testing.assert_array_equal(again.values, s.values)
    assert again.kind_tag == "dirac"


def _eval_table(poly: dict, x, sigma: float) -> float:
    """Oracle: evaluate an exact smoothed-polynomial table term by term."""
    return sum(
        coef * math.prod(xj**b for xj, b in zip(x, beta)) * sigma**sp
        for (beta, sp), coef in poly.items()
    )


@pytest.mark.parametrize(
    "basis",
    [GAP, MonomialBasis.full_degree(9), MonomialBasis.full_degree(4, n=2)],
    ids=["gap", "d9", "n2-d4"],
)
def test_component_moments_match_exact_tables(basis):
    rng = np.random.default_rng(5)
    means = rng.uniform(-1.5, 1.5, (4, basis.n))
    sigmas = np.array([0.0, 0.1, 0.6, 1.3])
    got = component_moments(basis, "gaussian", means, sigmas)
    assert got.shape == (4, basis.m)
    tables = gaussian_smoothed_basis(basis).polynomials
    expected = [[_eval_table(poly, x, s) for poly in tables] for x, s in zip(means, sigmas)]
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_component_moments_lognormal_matches_scalar_form():
    basis = MonomialBasis.full_degree(6)
    means, sigmas = np.array([[0.4], [1.0], [2.5]]), np.array([0.1, 0.5, 0.8])
    got = component_moments(basis, "lognormal", means, sigmas)
    expected = [[lognormal_moment(i, x[0], s) for i in range(7)] for x, s in zip(means, sigmas)]
    np.testing.assert_allclose(got, expected, rtol=1e-13)


@pytest.mark.parametrize(
    "kind, basis, mean_range",
    [
        ("gaussian", GAP, (-1.5, 1.5)),
        ("gaussian", MonomialBasis.full_degree(4, n=2), (-1.5, 1.5)),
        ("lognormal", MonomialBasis.full_degree(5), (0.5, 2.0)),
    ],
    ids=["gaussian-gap", "gaussian-n2-d4", "lognormal-d5"],
)
def test_component_moments_derivatives_match_central_differences(kind, basis, mean_range):
    rng = np.random.default_rng(17)
    k, h = 3, 1e-6
    means = rng.uniform(*mean_range, (k, basis.n))
    sigmas = rng.uniform(0.2, 0.8, k)
    B, dmean, dsigma = component_moments(basis, kind, means, sigmas, derivatives=True)
    np.testing.assert_array_equal(B, component_moments(basis, kind, means, sigmas))
    assert dmean.shape == (k, basis.n, basis.m) and dsigma.shape == (k, basis.m)
    for j in range(basis.n):
        step = np.zeros_like(means)
        step[:, j] = h
        fd = (
            component_moments(basis, kind, means + step, sigmas)
            - component_moments(basis, kind, means - step, sigmas)
        ) / (2 * h)
        np.testing.assert_allclose(dmean[:, j], fd, rtol=1e-6, atol=1e-6)
    fd = (
        component_moments(basis, kind, means, sigmas + h)
        - component_moments(basis, kind, means, sigmas - h)
    ) / (2 * h)
    np.testing.assert_allclose(dsigma, fd, rtol=1e-6, atol=1e-6)


def test_transfer_matrix_closed_form():
    basis = MonomialBasis.full_degree(11)
    sigma = 0.8
    M = transfer_matrix_gaussian(basis, sigma)
    for i in range(12):
        for j in range(12):
            expected = (
                math.comb(i, j) * double_factorial(i - j - 1) * sigma ** (i - j)
                if j <= i and (i - j) % 2 == 0
                else 0.0
            )
            assert M[i, j] == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("kind, mean", [("gaussian", 0.5), ("lognormal", 1.5)])
def test_component_moments_overflow_raises_without_warning(kind, mean):
    basis = MonomialBasis.full_degree(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MomentOverflowError):
            component_moments(basis, kind, [[mean]], [1e200])
        with pytest.raises(MomentOverflowError):
            component_moments(basis, kind, [[mean]], [1e200], derivatives=True)
