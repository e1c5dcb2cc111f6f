import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixcara.basis import MonomialBasis
from mixcara.moments import component_moments

GAP = MonomialBasis.univariate([0, 2, 3, 5, 6])


def monomials_at(basis, x):
    """The basis monomials at the point x: the moment kernel at scale 0."""
    return component_moments(basis, "gaussian", np.reshape(x, (1, -1)), [0.0])[0]


def gradients_at(basis, x):
    """Partial derivatives of the basis monomials at x, as an m-by-n matrix."""
    _, dmean, _ = component_moments(
        basis, "gaussian", np.reshape(x, (1, -1)), [0.0], derivatives=True
    )
    return dmean[0].T


def test_eval_zero_point_constant_convention():
    basis = MonomialBasis.full_degree(2)
    np.testing.assert_array_equal(monomials_at(basis, 0.0), [1.0, 0.0, 0.0])


def test_eval_all_powers_of_one():
    np.testing.assert_array_equal(monomials_at(GAP, 1.0), np.ones(5))


def test_eval_gap_basis_at_two():
    # oracle: direct exponentiation, independent of the recurrence
    expected = [2.0 ** e for e in (0, 2, 3, 5, 6)]
    np.testing.assert_allclose(monomials_at(GAP, 2.0), expected, rtol=0, atol=0)


def test_jacobian_quadratic_column():
    basis = MonomialBasis.full_degree(2)
    np.testing.assert_array_equal(gradients_at(basis, 3.0).ravel(), [0.0, 1.0, 6.0])


def test_jacobian_gap_basis_matches_finite_differences():
    h = 1e-6
    fd = (monomials_at(GAP, 1.0 + h) - monomials_at(GAP, 1.0 - h)) / (2 * h)
    np.testing.assert_allclose(gradients_at(GAP, 1.0).ravel(), fd, rtol=1e-6)
    np.testing.assert_array_equal(gradients_at(GAP, 1.0).ravel(), [0, 2, 3, 5, 6])


def test_jacobian_two_variables_degree_one():
    basis = MonomialBasis.full_degree(1, n=2)
    assert basis.exponents == ((0, 0), (1, 0), (0, 1))
    rows = gradients_at(basis, [1.0, 1.0])
    np.testing.assert_array_equal(rows, [[0, 0], [1, 0], [0, 1]])


@pytest.mark.parametrize("n,d", [(1, 6), (2, 3), (3, 2)])
def test_jacobian_matches_central_differences_randomly(n, d):
    basis = MonomialBasis.full_degree(d, n=n)
    rng = np.random.default_rng(12345)
    h = 1e-6
    for _ in range(1000 // (n * 2)):
        x = rng.uniform(-2, 2, size=n)
        jac = gradients_at(basis, x)
        for j in range(n):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (monomials_at(basis, xp) - monomials_at(basis, xm)) / (2 * h)
            np.testing.assert_allclose(jac[:, j], fd, rtol=1e-6, atol=1e-6)


@given(st.permutations([(0,), (2,), (3,), (5,), (6,)]))
def test_sorting_invariance(perm):
    assert MonomialBasis(n=1, exponents=tuple(perm)) == GAP


def test_duplicates_rejected():
    with pytest.raises(ValueError):
        MonomialBasis(n=1, exponents=((0,), (2,), (2,)))


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MonomialBasis(n=1, exponents=((0,), (-1,)))


@pytest.mark.parametrize("bad", [1.5, True, np.float64(2.0)])
def test_non_integer_exponent_rejected(bad):
    with pytest.raises(ValueError, match="integers"):
        MonomialBasis(n=1, exponents=((0,), (bad,)))
    with pytest.raises(ValueError, match="integers"):
        MonomialBasis.univariate([0, bad])


def test_numpy_integer_exponents_accepted():
    basis = MonomialBasis(n=1, exponents=tuple((e,) for e in np.arange(4)))
    assert basis == MonomialBasis.full_degree(3)
    assert all(type(e) is int for alpha in basis.exponents for e in alpha)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        MonomialBasis(n=2, exponents=((0,), (1,)))
    with pytest.raises(ValueError):
        monomials_at(GAP, [1.0, 2.0])
    with pytest.raises(ValueError):
        gradients_at(GAP, [1.0, 2.0])


def test_empty_basis_rejected():
    with pytest.raises(ValueError):
        MonomialBasis(n=1, exponents=())


def test_json_literal_roundtrip():
    data = {"n": 1, "exponents": [[0], [2], [3], [5], [6]]}
    basis = MonomialBasis.from_json(data)
    assert basis == GAP
    assert basis.to_json() == data
    assert basis.max_degree == 6
    assert basis.m == 5


def test_full_degree_helpers():
    b = MonomialBasis.full_degree(5)
    assert b.is_full_degree()
    assert b.univariate_degrees() == (0, 1, 2, 3, 4, 5)
    assert not GAP.is_full_degree()
    b2 = MonomialBasis.full_degree(2, n=2)
    assert b2.m == 6
    for n in (1, 2, 3):
        for d in range(6):
            basis = MonomialBasis.full_degree(d, n=n)
            assert basis.m == math.comb(d + n, n) and basis.max_degree == d
