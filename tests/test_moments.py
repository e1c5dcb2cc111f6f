import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcara.basis import MonomialBasis
from mixcara.errors import MomentOverflowError, UnsupportedBasisError
from mixcara.measures import AtomicMeasure, MixtureMeasure
from mixcara.moments import (
    MomentVector,
    _inverse_transfer_matrix,
    component_moments,
    dirac_moments,
    gaussian_smoothed_basis,
    mixture_moments,
    transfer_matrix_gaussian,
)
from mixcara.recover import _SCHEDULE

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


def lognormal_at(orders, xi: float, sigma: float) -> np.ndarray:
    """Log-normal moments of the given orders from the kernel."""
    return component_moments(MonomialBasis.univariate(orders), "lognormal", [[xi]], [sigma])[0]


def test_lognormal_moment_values():
    assert lognormal_at([0], 3.0, 0.7)[0] == 1.0
    assert lognormal_at([1], 1.0, 1.0)[0] == pytest.approx(math.exp(0.5), rel=1e-12)
    assert lognormal_at([2], 2.0, 0.5)[0] == pytest.approx(4 * math.exp(0.5), rel=1e-12)


def lognormal_quadrature(i: int, xi: float, sigma: float) -> float:
    """Oracle: integrate x^i against the density, in log coordinates."""

    def integrand(u: float) -> float:
        # single exponential keeps the far tails at 0.0 instead of overflowing
        exponent = i * u - (u - math.log(xi)) ** 2 / (2 * sigma**2)
        return math.exp(exponent) / (math.sqrt(2 * math.pi) * sigma)

    value, _ = scipy.integrate.quad(integrand, -np.inf, np.inf, epsabs=0, epsrel=1e-10)
    return value


def test_lognormal_moment_matches_quadrature():
    assert lognormal_at([2], 2.0, 0.5)[0] == pytest.approx(
        lognormal_quadrature(2, 2.0, 0.5), rel=1e-8
    )


def test_lognormal_moment_domain_errors():
    with pytest.raises(ValueError):
        lognormal_at([1], -1.0, 0.5)
    with pytest.raises(ValueError):
        lognormal_at([1], 0.0, 0.5)
    with pytest.raises(ValueError):
        lognormal_at([1], 1.0, 0.0)
    with pytest.raises(ValueError):
        lognormal_at([1], 1.0, -0.5)


def test_lognormal_moment_overflow_reported():
    # at xi = 1.5, sigma = 1 the log moment i log(1.5) + i^2 / 2 first passes
    # log(float max) ~ 709.78 at order 38
    assert np.isfinite(lognormal_at([37], 1.5, 1.0)[0])
    with pytest.raises(MomentOverflowError):
        lognormal_at([38], 1.5, 1.0)


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


@pytest.mark.parametrize("d", range(1, 16))
def test_inverse_transfer_matrix_is_the_inverse(d):
    # M(sigma)^-1 = M(i sigma), over the default schedule
    basis = MonomialBasis.full_degree(d)
    for sigma in _SCHEDULE:
        product = transfer_matrix_gaussian(basis, sigma) @ _inverse_transfer_matrix(basis, sigma)
        np.testing.assert_allclose(product, np.eye(d + 1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", range(1, 16))
def test_inverse_transfer_matrix_is_the_negated_forward_matrix_bit_for_bit(d):
    # the product with the signed table against negating the product: (-c) p == -(c p)
    basis = MonomialBasis.full_degree(d)
    a, j = np.indices((d + 1, d + 1))
    power = np.where((a >= j) & ((a - j) % 2 == 0), a - j, 0)
    for sigma in [0.0, *_SCHEDULE]:
        M = transfer_matrix_gaussian(basis, sigma)
        reference = np.where(power % 4 == 2, -M, M)
        inverse = _inverse_transfer_matrix(basis, sigma)
        assert inverse.dtype == reference.dtype and inverse.tobytes() == reference.tobytes()


@pytest.mark.parametrize("d", range(1, 16))
def test_inverse_pull_back_matches_triangular_solve(d):
    basis = MonomialBasis.full_degree(d)
    weights, means = np.array([0.6, 1.1, 0.8]), np.array([[-1.3], [0.2], [1.6]])
    for sigma in _SCHEDULE:
        mix = MixtureMeasure(kind="gaussian", weights=weights, means=means,
                             sigmas=np.full(3, sigma))
        s = mixture_moments(basis, mix).values
        closed = _inverse_transfer_matrix(basis, sigma) @ s
        solved = scipy.linalg.solve_triangular(
            transfer_matrix_gaussian(basis, sigma), s, lower=True, unit_diagonal=True
        )
        assert np.max(np.abs(closed - solved)) <= 1e-7 * np.max(np.abs(solved))


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
    s = MomentVector(values=[1.0, 0.0, 1.0], basis=basis)
    again = MomentVector.from_json(s.to_json())
    assert again.basis == basis
    np.testing.assert_array_equal(again.values, s.values)
    # files written with the deleted kind tag still load
    old = MomentVector.from_json({**s.to_json(), "kind_tag": "dirac"})
    np.testing.assert_array_equal(old.values, s.values)
    # no engine, cone test or command ever sees a non-finite moment
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            MomentVector(values=[1.0, bad, 1.0], basis=basis)
        with pytest.raises(ValueError, match="must be finite"):
            MomentVector.from_json({"basis": basis.to_json(), "values": [1.0, 0.0, bad]})
        with pytest.raises(ValueError, match="must be finite"):
            s.with_values([bad, 0.0, 1.0])


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
    expected = [
        [x[0] ** i * math.exp(i * i * s * s / 2) for i in range(7)] for x, s in zip(means, sigmas)
    ]
    np.testing.assert_allclose(got, expected, rtol=1e-13)
    quadrature = [lognormal_quadrature(i, 1.0, 0.5) for i in range(7)]
    np.testing.assert_allclose(got[1], quadrature, rtol=1e-8)


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


@pytest.mark.parametrize("basis", [GAP, MonomialBasis.full_degree(4, n=2)], ids=["gap", "n2-d4"])
def test_kernel_at_sigma_zero_matches_pointwise_evaluation(basis):
    # oracle: numpy pow on each monomial, against the kernel's repeated
    # products; the two are a few ulps apart
    E = basis.exponent_array
    rng = np.random.default_rng(3)
    points = np.vstack([np.zeros(basis.n), rng.uniform(-2.0, 2.0, size=(6, basis.n))])
    B, dmean, dsigma = component_moments(
        basis, "gaussian", points, np.zeros(len(points)), derivatives=True
    )
    for i, x in enumerate(points):
        np.testing.assert_allclose(B[i], np.prod(x ** E, axis=1), rtol=1e-14, atol=0)
        for j in range(basis.n):
            # d/dx_j x^a = a_j x^(a - e_j); the clip only touches rows with a_j = 0
            lowered = np.maximum(E - np.eye(basis.n, dtype=int)[j], 0)
            expected = E[:, j] * np.prod(x ** lowered, axis=1)
            np.testing.assert_allclose(dmean[i, j], expected, rtol=1e-14, atol=0)
    assert not dsigma.any()


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
            assert M[i, j] == expected


@pytest.mark.parametrize("kind, mean", [("gaussian", 0.5), ("lognormal", 1.5)])
def test_component_moments_overflow_raises_without_warning(kind, mean):
    basis = MonomialBasis.full_degree(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MomentOverflowError):
            component_moments(basis, kind, [[mean]], [1e200])
        with pytest.raises(MomentOverflowError):
            component_moments(basis, kind, [[mean]], [1e200], derivatives=True)


def _plain_recurrence(exponents, x, s):
    """Values and derivatives of one Gaussian component, one monomial at a
    time, in the kernel's order of operations."""
    top = max(max(alpha) for alpha in exponents)
    tables = []
    for xj in x:
        p = [1.0, xj][: top + 1]
        for e in range(2, top + 1):
            p.append(xj * p[e - 1] + (e - 1) * (s * s) * p[e - 2])
        tables.append(p)
    values, dmean, dsigma = [], [[] for _ in x], []
    for alpha in exponents:
        factors = [table[a] for table, a in zip(tables, alpha)]
        value = factors[0]
        for f in factors[1:]:
            value = value * f
        values.append(value)
        acc = 0.0
        for j, (table, a) in enumerate(zip(tables, alpha)):
            dm = a * table[max(a - 1, 0)]
            ds = a * (a - 1) * table[max(a - 2, 0)]
            others = factors[:j] + factors[j + 1 :]
            if others:
                rest = others[0]
                for f in others[1:]:
                    rest = rest * f
                dm, ds = dm * rest, ds * rest
            dmean[j].append(dm)
            acc = acc + ds
        dsigma.append(s * acc)
    return values, dmean, dsigma


@st.composite
def _kernel_inputs(draw):
    n = draw(st.sampled_from([1, 2]))
    d = draw(st.integers(0, 9 if n == 1 else 4))
    full = MonomialBasis.full_degree(d, n).exponents
    exps = full if draw(st.booleans()) else draw(
        st.lists(st.sampled_from(full), min_size=1, max_size=len(full), unique=True))
    k = draw(st.integers(1, 60))
    coordinate = st.floats(-3.0, 3.0, allow_nan=False)
    means = draw(st.lists(st.lists(coordinate, min_size=n, max_size=n), min_size=k, max_size=k))
    scale = st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_nan=False))
    sigmas = draw(st.lists(scale, min_size=k, max_size=k))
    return MonomialBasis(n=n, exponents=tuple(exps)), means, sigmas


@settings(max_examples=60, deadline=None)
@given(_kernel_inputs())
def test_component_moments_bit_identical_to_plain_recurrence(inputs):
    basis, means, sigmas = inputs
    B, dmean, dsigma = component_moments(basis, "gaussian", means, sigmas, derivatives=True)
    np.testing.assert_array_equal(
        component_moments(basis, "gaussian", means, sigmas).view(np.int64), B.view(np.int64))
    for i, (x, s) in enumerate(zip(means, sigmas)):
        values, dm, ds = _plain_recurrence(basis.exponents, x, s)
        np.testing.assert_array_equal(B[i].view(np.int64), np.array(values).view(np.int64))
        np.testing.assert_array_equal(dmean[i].view(np.int64), np.array(dm).view(np.int64))
        np.testing.assert_array_equal(dsigma[i].view(np.int64), np.array(ds).view(np.int64))
