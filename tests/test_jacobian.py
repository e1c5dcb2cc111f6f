import math

import numpy as np
import pytest

from mixcara import jacobian
from mixcara.basis import MonomialBasis
from mixcara.jacobian import (
    atomic_jacobian,
    min_full_rank_atoms,
    min_full_rank_components,
    mixture_jacobian,
    numeric_rank,
)
from mixcara.measures import AtomicMeasure, MixtureMeasure
from mixcara.moments import dirac_moments, mixture_moments

GAP = MonomialBasis.univariate([0, 2, 3, 5, 6])


def test_atomic_jacobian_single_atom():
    basis = MonomialBasis.full_degree(1)
    J = atomic_jacobian(basis, [2.0], [[3.0]])
    np.testing.assert_array_equal(J, [[1, 0], [3, 2]])


def test_atomic_jacobian_rank_deficit_at_origin():
    basis = MonomialBasis.full_degree(2)
    J = atomic_jacobian(basis, [1.0], [[0.0]])
    np.testing.assert_array_equal(J, [[1, 0], [0, 1], [0, 0]])
    assert numeric_rank(J).numeric_rank == 2
    assert not numeric_rank(J).full_rank


def test_atomic_jacobian_generic_full_rank():
    basis = MonomialBasis.full_degree(3)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1, 1, (2, 1))
        while abs(pts[0, 0] - pts[1, 0]) < 0.1:  # keep the draw generic
            pts = rng.uniform(-1, 1, (2, 1))
        J = atomic_jacobian(basis, rng.uniform(0.5, 2, 2), pts)
        assert numeric_rank(J).numeric_rank == 4


def test_atomic_jacobian_input_errors():
    basis = MonomialBasis.full_degree(2)
    with pytest.raises(ValueError):
        atomic_jacobian(basis, [], np.zeros((0, 1)))
    with pytest.raises(ValueError):
        atomic_jacobian(basis, [-1.0], [[0.0]])
    with pytest.raises(ValueError):
        atomic_jacobian(basis, [1.0], [[0.0, 0.0]])


def test_atomic_jacobian_matches_finite_differences():
    """The columns are the partials of the full parameter-to-moment map."""
    rng = np.random.default_rng(77)
    h = 1e-6
    for trial in range(200):
        n = 1 if trial % 2 == 0 else 2
        basis = MonomialBasis.full_degree(3, n=n)
        k = int(rng.integers(1, 4))
        w = rng.uniform(0.5, 2, k)
        pts = rng.uniform(-1, 1, (k, n))

        def forward(wv, pv):
            return dirac_moments(basis, AtomicMeasure(weights=wv, points=pv)).values

        J = atomic_jacobian(basis, w, pts)
        for i in range(k):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd = (forward(wp, pts) - forward(wm, pts)) / (2 * h)
            np.testing.assert_allclose(J[:, i * (n + 1)], fd, rtol=1e-5, atol=1e-5)
            for j in range(n):
                pp, pm = pts.copy(), pts.copy()
                pp[i, j] += h
                pm[i, j] -= h
                fd = (forward(w, pp) - forward(w, pm)) / (2 * h)
                np.testing.assert_allclose(
                    J[:, i * (n + 1) + 1 + j], fd, rtol=1e-5, atol=1e-5
                )


def test_mixture_jacobian_gaussian_sigma_column():
    basis = MonomialBasis.full_degree(2)
    J = mixture_jacobian(basis, "gaussian", [1.0], [[0.0]], [1.0])
    np.testing.assert_allclose(J[:, 2], [0, 0, 2])


def test_mixture_jacobian_lognormal_sigma_column():
    basis = MonomialBasis.full_degree(1)
    J = mixture_jacobian(basis, "lognormal", [1.0], [[1.0]], [1.0])
    np.testing.assert_allclose(J[:, 2], [0, math.exp(0.5)])


@pytest.mark.parametrize("kind, means", [("gaussian", [[-0.5], [0.5]]),
                                         ("lognormal", [[0.5], [1.5]])])
def test_mixture_jacobian_weight_errors_match_atomic(kind, means):
    basis = MonomialBasis.full_degree(3)
    for weights, match in (([1.0], r"points have shape \(2, 1\), expected \(1, 1\)"),
                           ([-1.0, 2.0], "weights must be positive")):
        with pytest.raises(ValueError, match=match):
            atomic_jacobian(basis, weights, means)
        with pytest.raises(ValueError, match=match):
            mixture_jacobian(basis, kind, weights, means, [0.3, 0.4])


def test_mixture_jacobian_constant_basis():
    basis = MonomialBasis.univariate([0])
    for kind in ("gaussian", "lognormal"):
        J = mixture_jacobian(basis, kind, [1.0], [[1.0]], [0.5])
        np.testing.assert_array_equal(J, [[1, 0, 0]])
        assert numeric_rank(J).numeric_rank == 1


def test_mixture_jacobian_matches_finite_differences():
    rng = np.random.default_rng(13)
    basis = MonomialBasis.full_degree(4)
    h = 1e-6
    for kind, mean_range in (("gaussian", (-1, 1)), ("lognormal", (0.5, 2))):
        k = 2
        w = rng.uniform(0.5, 2, k)
        mu = rng.uniform(*mean_range, (k, 1))
        sg = rng.uniform(0.2, 0.8, k)

        def forward(wv, mv, sv):
            mix = MixtureMeasure(kind=kind, weights=wv, means=mv, sigmas=sv)
            return mixture_moments(basis, mix).values

        J = mixture_jacobian(basis, kind, w, mu, sg)
        for i in range(k):
            sp, sm = sg.copy(), sg.copy()
            sp[i] += h
            sm[i] -= h
            fd = (forward(w, mu, sp) - forward(w, mu, sm)) / (2 * h)
            np.testing.assert_allclose(J[:, i * 3 + 2], fd, rtol=1e-5, atol=1e-5)
            mp, mm = mu.copy(), mu.copy()
            mp[i, 0] += h
            mm[i, 0] -= h
            fd = (forward(w, mp, sg) - forward(w, mm, sg)) / (2 * h)
            np.testing.assert_allclose(J[:, i * 3 + 1], fd, rtol=1e-5, atol=1e-5)


def test_numeric_rank_basics():
    assert numeric_rank(np.eye(3)).numeric_rank == 3
    assert numeric_rank(np.eye(3)).full_rank
    assert numeric_rank([[1.0, 1.0], [1.0, 1.0]]).numeric_rank == 1
    with pytest.raises(ValueError):
        numeric_rank(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        numeric_rank(np.eye(2), rel_tol=2.0)
    report = numeric_rank(np.zeros((2, 2)))
    assert report.numeric_rank == 0


@pytest.mark.parametrize("d", range(1, 10))
def test_min_atoms_full_degree_table(d):
    basis = MonomialBasis.full_degree(d)
    expected = (d + 2) // 2
    result = min_full_rank_atoms(basis, max_k=expected + 2, trials=20, seed=3)
    assert result.value == expected
    assert result.value >= result.lower_bound == math.ceil(basis.m / 2)  # n = 1
    # frequencies do not drop back to zero past the threshold
    for k in range(result.value, result.max_k):
        assert result.frequencies[k + 1] >= result.frequencies[k] - 0.05


def test_min_atoms_gap_example():
    result = min_full_rank_atoms(GAP, max_k=5, trials=30, seed=1)
    assert result.value == 3 == result.lower_bound


def test_min_atoms_constant_basis():
    result = min_full_rank_atoms(MonomialBasis.univariate([0]), max_k=2, trials=5, seed=0)
    assert result.value == 1 == result.lower_bound


def test_min_atoms_max_k_validation():
    with pytest.raises(ValueError):
        min_full_rank_atoms(MonomialBasis.full_degree(5), max_k=2)


def test_min_components_gaussian_examples():
    basis = MonomialBasis.full_degree(5)
    result = min_full_rank_components(basis, "gaussian", max_k=4, trials=20, seed=2)
    # three parameters per component (weight, location, scale): ceil(6/3)
    assert result.value == 2 == result.lower_bound
    tiny = min_full_rank_components(MonomialBasis.full_degree(1), "gaussian", max_k=2, trials=10)
    assert tiny.value == 1 == tiny.lower_bound


def test_min_components_lognormal_example():
    basis = MonomialBasis.full_degree(5)
    result = min_full_rank_components(basis, "lognormal", max_k=4, trials=20, seed=2)
    assert result.value == 2 == result.lower_bound


def test_min_atoms_two_variables():
    # bivariate quadratics: the Jacobian at k = 2 is structurally deficient,
    # so the threshold sits strictly above the ceil(m/(n+1)) lower bound
    quad = MonomialBasis.full_degree(2, n=2)
    res = min_full_rank_atoms(quad, max_k=4, trials=20, seed=0)
    assert res.lower_bound == 2
    assert res.value == 3
    # bivariate cubics attain the lower bound exactly
    cubic = MonomialBasis.full_degree(3, n=2)
    res3 = min_full_rank_atoms(cubic, max_k=6, trials=20, seed=0)
    assert res3.value == 4 == res3.lower_bound


def test_min_components_two_variables():
    quad = MonomialBasis.full_degree(2, n=2)
    res = min_full_rank_components(quad, "gaussian", max_k=4, trials=20, seed=0)
    assert res.value == 2 == res.lower_bound  # four parameters per component, ceil(6/4)


def test_not_found_is_reported_not_raised():
    basis = MonomialBasis.full_degree(5)
    result = min_full_rank_components(basis, "gaussian", max_k=1, trials=10, seed=0)
    assert result.value is None
    assert not result.found
    assert "not found" in result.warning


def test_rank_search_result_json():
    result = min_full_rank_atoms(MonomialBasis.full_degree(3), max_k=3, trials=10, seed=0)
    data = result.to_json()
    assert data["value"] == 2 == data["lower_bound"]
    assert set(data["frequencies"]) == {"1", "2", "3"}


def _loop_search(basis, kind, max_k, trials, seed):
    """Per-trial oracle: one public Jacobian and one ``numeric_rank`` per draw,
    with the search's ranges, draw order and per-(seed, k, trial) generators."""
    freqs = {}
    for k in range(1, max_k + 1):
        hits = 0
        for t in range(trials):
            rng = np.random.default_rng((seed, k, t))
            w = rng.uniform(0.5, 2.0, size=k)
            if kind == "dirac":
                J = atomic_jacobian(basis, w, rng.uniform(-1.0, 1.0, size=(k, basis.n)))
            else:
                low, high = (-1.0, 1.0) if kind == "gaussian" else (0.5, 2.0)
                mu = rng.uniform(low, high, size=(k, basis.n))
                J = mixture_jacobian(basis, kind, w, mu, rng.uniform(0.1, 1.0, size=k))
            hits += numeric_rank(J, 1e-9).full_rank
        freqs[k] = hits / trials
    return freqs


@pytest.mark.parametrize(
    "kind,basis",
    [
        ("dirac", MonomialBasis.full_degree(6)),
        ("dirac", MonomialBasis.full_degree(3, n=2)),
        ("gaussian", MonomialBasis.full_degree(7)),
        ("gaussian", MonomialBasis.full_degree(3, n=2)),
        ("lognormal", MonomialBasis.full_degree(6)),
        ("dirac", GAP),
        ("gaussian", GAP),
        ("lognormal", GAP),
    ],
    ids=lambda v: v if isinstance(v, str) else f"n{v.n}-m{v.m}",
)
@pytest.mark.parametrize("trials", [1, 7])
def test_search_matches_per_trial_loop(kind, basis, trials):
    """The batched search reports exactly what one SVD per draw reports."""
    max_k = math.ceil(basis.m / (basis.n + 1)) + 2
    for seed in range(3):
        if kind == "dirac":
            result = min_full_rank_atoms(basis, max_k=max_k, trials=trials, seed=seed)
        else:
            result = min_full_rank_components(basis, kind, max_k=max_k, trials=trials, seed=seed)
        freqs = _loop_search(basis, kind, max_k, trials, seed)
        value = next((k for k in range(1, max_k + 1) if freqs[k] > 0), None)
        expected = dict(result.to_json(), value=value,
                        frequencies={str(k): f for k, f in freqs.items()})
        assert result.to_json() == expected


def test_search_takes_one_svd_per_count(monkeypatch):
    """One batched SVD and one kernel call per count; the per-draw loop made
    max_k * trials of each."""
    calls = {"svd": 0, "kernel": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
    monkeypatch.setattr(jacobian, "component_moments", spy("kernel", jacobian.component_moments))
    atoms = min_full_rank_atoms(MonomialBasis.full_degree(5), max_k=5, trials=6, seed=1)
    assert atoms.value == 3
    assert calls == {"svd": 5, "kernel": 5}
    calls.update(svd=0, kernel=0)
    comps = min_full_rank_components(
        MonomialBasis.full_degree(2, n=2), "gaussian", max_k=4, trials=6, seed=1
    )
    assert comps.value == 2
    assert calls == {"svd": 4, "kernel": 4}


def test_search_rejects_nonpositive_trials():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            min_full_rank_atoms(MonomialBasis.full_degree(3), max_k=3, trials=trials)
        with pytest.raises(ValueError, match="trials"):
            min_full_rank_components(MonomialBasis.full_degree(3), "gaussian", max_k=3,
                                     trials=trials)
