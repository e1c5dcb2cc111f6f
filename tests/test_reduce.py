import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcara import reduce as reduce_module
from mixcara.basis import MonomialBasis
from mixcara.errors import ReductionError
from mixcara.measures import AtomicMeasure, MixtureMeasure, sample_random_mixture
from mixcara.moments import component_moments, dirac_moments, mixture_moments
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


# ------------------------------------------------- windowed sweep invariants


def _rows(mu) -> np.ndarray:
    if isinstance(mu, AtomicMeasure):
        return mu.points
    return np.hstack([mu.means, mu.sigmas.reshape(-1, 1)])


def _moments(basis, mu) -> np.ndarray:
    if isinstance(mu, AtomicMeasure):
        return dirac_moments(basis, mu).values
    return mixture_moments(basis, mu).values


def _reduce(basis, mu):
    if isinstance(mu, AtomicMeasure):
        return reduce_atoms(basis, mu)
    return reduce_mixture_components(basis, mu.kind, mu)


def assert_reduction_invariants(basis, mu, reduced):
    """Input-order subset, positive weights, at most m components, no drift."""
    rows_in, rows_out = _rows(mu), _rows(reduced)
    # greedy subsequence match: every output row is an input row, in input order
    pos = 0
    for row in rows_out:
        while pos < len(rows_in) and not np.array_equal(rows_in[pos], row):
            pos += 1
        assert pos < len(rows_in), "output is not an input-ordered subset"
        pos += 1
    assert np.all(reduced.weights > 0)
    assert reduced.k <= basis.m
    before, after = _moments(basis, mu), _moments(basis, reduced)
    assert np.max(np.abs(after - before)) <= 1e-10 * (1 + np.max(np.abs(before)))


def test_one_svd_per_window(monkeypatch):
    basis = MonomialBasis.full_degree(14)
    k, m = 200, basis.m
    rng = np.random.default_rng(4)
    mu = AtomicMeasure(weights=rng.uniform(0.1, 1.5, k), points=rng.uniform(-1, 1, (k, 1)))
    calls = []
    real = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    reduced = reduce_atoms(basis, mu)
    monkeypatch.undo()
    assert len(calls) <= math.ceil((k - m) / m) + 3
    assert all(cols <= 2 * m for _, cols in calls)
    assert_reduction_invariants(basis, mu, reduced)


def _duplicated_atoms():
    rng = np.random.default_rng(5)
    points = np.repeat(rng.uniform(-1, 1, (6, 1)), 7, axis=0)
    return MonomialBasis.full_degree(7), AtomicMeasure(
        weights=rng.uniform(0.1, 1.5, 42), points=points
    )


def _symmetric_pairs():
    # pairs +-x with equal weights against odd monomials: every null direction
    # of a window of whole pairs is even, so each step zeroes a pair at once
    x = np.linspace(0.1, 1.0, 10)
    points = np.column_stack([x, -x]).reshape(-1, 1)
    return MonomialBasis.univariate([1, 3, 5]), AtomicMeasure(weights=np.ones(20), points=points)


def _single_moment():
    rng = np.random.default_rng(6)
    return MonomialBasis.full_degree(0), AtomicMeasure(
        weights=rng.uniform(0.1, 1.5, 9), points=rng.uniform(-1, 1, (9, 1))
    )


def _one_extra_component():
    rng = np.random.default_rng(7)
    mix = sample_random_mixture("gaussian", 7, rng=rng, mean_range=(-1.0, 1.0))
    return MonomialBasis.full_degree(5), mix


def _many_atoms_few_moments():
    rng = np.random.default_rng(8)
    return MonomialBasis.full_degree(3), AtomicMeasure(
        weights=rng.uniform(0.1, 1.5, 2000), points=rng.uniform(-1, 1, (2000, 1))
    )


@pytest.mark.parametrize(
    "case",
    [_duplicated_atoms, _symmetric_pairs, _single_moment, _one_extra_component,
     _many_atoms_few_moments],
    ids=["duplicates", "symmetric-ties", "m1", "k-m-plus-1", "k2000-m4"],
)
def test_reduction_edge_cases(case):
    basis, mu = case()
    assert_reduction_invariants(basis, mu, _reduce(basis, mu))


@st.composite
def reducible_measures(draw):
    kind = draw(st.sampled_from(["dirac", "gaussian", "lognormal"]))
    n = 1 if kind == "lognormal" else draw(st.integers(1, 2))
    d = draw(st.integers(0, 9 if n == 1 else 4))
    basis = MonomialBasis.full_degree(d, n=n)
    m = basis.m
    k = draw(st.integers(m + 1, 5 * m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # weights spread over nine decades
    weights = 10.0 ** rng.uniform(-6, 3, k)
    if kind == "dirac":
        return basis, AtomicMeasure(weights=weights, points=rng.uniform(-1, 1, (k, n)))
    if kind == "lognormal":
        means, sigmas = rng.uniform(0.5, 2.0, (k, 1)), rng.uniform(0.1, 0.5, k)
    else:
        means, sigmas = rng.uniform(-1, 1, (k, n)), rng.uniform(0.1, 0.8, k)
    return basis, MixtureMeasure(kind=kind, weights=weights, means=means, sigmas=sigmas)


@settings(max_examples=60, deadline=None)
@given(reducible_measures())
def test_reduction_properties(case):
    basis, mu = case
    assert_reduction_invariants(basis, mu, _reduce(basis, mu))


# ------------------------------------------------------ recombination rounds


def _spy(monkeypatch, name):
    """Record the arguments of every call to ``reduce.<name>``."""
    calls = []
    real = getattr(reduce_module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reduce_module, name, spy)
    return calls


def _raw(columns, V):
    """Whether every column of ``V`` is one of ``columns``: a round walks on
    group means, which are not."""
    return all((columns == col[:, None]).all(axis=0).any() for col in V.T)


def perturb_null_vectors(monkeypatch, shift):
    """Make ``np.linalg.svd`` return V's null vectors (the rows of vt past
    V's row count) plus ``shift(vt, rows)``."""
    real = np.linalg.svd

    def svd(V, *args, **kwargs):
        u, sv, vt = real(V, *args, **kwargs)
        vt = vt.copy()
        vt[V.shape[0]:] += shift(vt, V.shape[0])
        return u, sv, vt

    monkeypatch.setattr(np.linalg, "svd", svd)


def forty_atoms():
    rng = np.random.default_rng(4)
    return AtomicMeasure(weights=rng.uniform(0.1, 1.5, 40), points=rng.uniform(-1, 1, (40, 1)))


def test_refinement_repairs_perturbed_null_vectors(monkeypatch):
    # null vectors off by 1e-8 miss the 1e-10 residual check; one
    # refinement step brings the moment drift back to rounding
    basis, mu = MonomialBasis.full_degree(5), forty_atoms()
    noise = np.random.default_rng(0).standard_normal
    perturb_null_vectors(monkeypatch, lambda vt, rows: 1e-8 * noise(vt[rows:].shape))
    reduced = reduce_atoms(basis, mu)
    monkeypatch.undo()
    assert_reduction_invariants(basis, mu, reduced)
    before, after = _moments(basis, mu), _moments(basis, reduced)
    assert np.max(np.abs(after - before)) <= 1e-13 * (1 + np.max(np.abs(before)))


def test_unrepairable_null_vectors_raise(monkeypatch):
    # a row-space part 1e8 times the null part: refinement projects it out,
    # but the rounding left behind is far above the residual tolerance
    perturb_null_vectors(monkeypatch, lambda vt, rows: 1e8 * vt[:rows].sum(axis=0))
    with pytest.raises(ReductionError, match="no reliable null vector"):
        reduce_atoms(MonomialBasis.full_degree(5), forty_atoms())


def test_rounds_need_about_log_k_svds(monkeypatch):
    basis = MonomialBasis.full_degree(14)
    k, m = 200, basis.m
    rng = np.random.default_rng(4)
    mu = AtomicMeasure(weights=rng.uniform(0.1, 1.5, k), points=rng.uniform(-1, 1, (k, 1)))
    calls = _spy(monkeypatch, "_null_basis")
    reduced = reduce_atoms(basis, mu)
    # each SVD of a rows-by-cols matrix yields cols - rows null directions;
    # one SVD per 2m-column window used 13 SVDs and 185 directions here
    directions = sum(V.shape[1] - V.shape[0] for V, _ in calls)
    assert len(calls) <= 6
    assert directions <= 70
    assert_reduction_invariants(basis, mu, reduced)


def test_at_most_2m_atoms_take_one_walk_on_the_raw_columns(monkeypatch):
    basis = MonomialBasis.full_degree(5)
    k = 2 * basis.m
    rng = np.random.default_rng(12)
    mu = AtomicMeasure(weights=rng.uniform(0.1, 1.5, k), points=rng.uniform(-1, 1, (k, 1)))
    calls = _spy(monkeypatch, "_walk_null_basis")
    reduced = reduce_atoms(basis, mu)
    assert len(calls) == 1
    np.testing.assert_array_equal(
        calls[0][0], component_moments(basis, "gaussian", mu.points, np.zeros(k)).T
    )
    assert_reduction_invariants(basis, mu, reduced)


@pytest.mark.parametrize("extra, rounds", [(0, 0), (1, 1)])
def test_rounds_start_above_the_cutoff(monkeypatch, extra, rounds):
    basis = MonomialBasis.full_degree(5)
    m = basis.m
    k = reduce_module._ROUNDS_ABOVE * m + extra
    rng = np.random.default_rng(14)
    mu = AtomicMeasure(weights=rng.uniform(0.1, 1.5, k), points=rng.uniform(-1, 1, (k, 1)))
    columns = component_moments(basis, "gaussian", mu.points, np.zeros(k)).T
    calls = _spy(monkeypatch, "_walk_null_basis")
    reduced = reduce_atoms(basis, mu)
    walks = [V for V, *_ in calls if _raw(columns, V)]
    assert len(calls) - len(walks) == rounds
    assert all(V.shape[1] <= 2 * m for V in walks)
    assert_reduction_invariants(basis, mu, reduced)


@pytest.mark.parametrize("kind, mean_range", [("gaussian", (-1.0, 1.0)), ("lognormal", (0.5, 2.0))])
def test_mixture_rounds_keep_the_moments(monkeypatch, kind, mean_range):
    basis = MonomialBasis.full_degree(5)
    rng = np.random.default_rng(13)
    # at m = 6 the first round walks 12 groups of 8 or 9 components; generic
    # means drop at most m of them, so more than 2m stay live for a second
    mix = sample_random_mixture(kind, 100, rng=rng, mean_range=mean_range)
    columns = component_moments(basis, kind, mix.means, mix.sigmas).T
    calls = _spy(monkeypatch, "_walk_null_basis")
    reduced = reduce_mixture_components(basis, kind, mix)
    rounds = [V for V, *_ in calls if not _raw(columns, V)]
    assert len(rounds) >= 2
    assert_reduction_invariants(basis, mix, reduced)


# ------------------------------------------------ the walk and its reference


def _walk_reference(V, w, scale):
    """The walk with one plain numpy call per operation: the trimmed
    ``_walk_null_basis`` must match it bit for bit."""
    N = reduce_module._null_basis(V, scale)
    for j in range(N.shape[1]):
        lam = N[:, j] / np.linalg.norm(N[:, j])
        if j and np.abs(V @ lam).max() > reduce_module._NULL_TOL * scale:
            return
        if lam[np.argmax(np.abs(lam))] < 0:
            lam = -lam
        positive = np.flatnonzero(lam > reduce_module._DROP_TOL)
        assert positive.size
        ratios = w[positive] / lam[positive]
        i = positive[np.argmin(ratios)]
        live = w > 0
        threshold = reduce_module._DROP_TOL * float(np.max(w))
        w -= float(ratios.min()) * lam
        w[i] = 0.0
        keep = w > threshold
        w[~keep] = 0.0
        if np.count_nonzero(live & ~keep) > 1:
            return
        rest = N[:, j + 1:]
        rest -= np.outer(lam, rest[i] / lam[i])
        rest[i] = 0.0


def _walk_case(basis, points, weights):
    columns = component_moments(basis, "gaussian", points, np.zeros(len(points))).T
    return columns, weights, max(1.0, float(np.abs(columns).max()))


def _window(n, seed):
    basis = MonomialBasis.full_degree(14 if n == 1 else 4, n=n)
    rng = np.random.default_rng(seed)
    k = 2 * basis.m
    return [_walk_case(basis, rng.uniform(-1, 1, (k, n)), rng.uniform(0.1, 1.5, k))]


def _round_walks(monkeypatch, n, seed):
    """The input of every walk of one reduction of 200 atoms: the rounds'
    group means, then the raw columns."""
    basis = MonomialBasis.full_degree(14 if n == 1 else 4, n=n)
    rng = np.random.default_rng(seed)
    mu = AtomicMeasure(weights=rng.uniform(0.1, 1.5, 200), points=rng.uniform(-1, 1, (200, n)))
    inputs = []
    real = reduce_module._walk_null_basis

    def record(V, w, scale):
        inputs.append((V.copy(), w.copy(), scale))
        real(V, w, scale)

    monkeypatch.setattr(reduce_module, "_walk_null_basis", record)
    reduce_atoms(basis, mu)
    monkeypatch.undo()
    assert len(inputs) >= 3
    return inputs


def _tie():
    basis, mu = _symmetric_pairs()
    return [_walk_case(basis, mu.points[:6], mu.weights[:6].copy())]


@pytest.mark.parametrize("layout", ["svd", "c-order"])
@pytest.mark.parametrize(
    "case",
    [lambda mp: _window(1, 21), lambda mp: _window(2, 22),
     lambda mp: _round_walks(mp, 1, 4), lambda mp: _round_walks(mp, 2, 23),
     lambda mp: _tie()],
    ids=["window-n1", "window-n2", "rounds-n1", "rounds-n2", "tie"],
)
def test_walk_matches_its_reference_bit_for_bit(monkeypatch, case, layout):
    inputs = case(monkeypatch)
    if layout == "c-order":
        # the refined null basis comes back row-major, so its columns are strided
        real = reduce_module._null_basis
        monkeypatch.setattr(reduce_module, "_null_basis",
                            lambda V, scale: np.ascontiguousarray(real(V, scale)))
    for V, w, scale in inputs:
        expected, got = w.copy(), w.copy()
        _walk_reference(V, expected, scale)
        reduce_module._walk_null_basis(V, got, scale)
        np.testing.assert_array_equal(got, expected)


def test_tie_ends_the_walk_early():
    # the reference case above must take the early return: a full walk on
    # 2m columns leaves m
    ((V, w, scale),) = _tie()
    reduce_module._walk_null_basis(V, w, scale)
    assert np.count_nonzero(w) > V.shape[0]
