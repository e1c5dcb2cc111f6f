import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcara.basis import MonomialBasis
from mixcara.errors import GenerationError
from mixcara.measures import (
    AtomicMeasure,
    MixtureMeasure,
    _separated,
    model_from_json,
    sample_random_mixture,
)
from mixcara.moments import dirac_moments


def test_sample_empty():
    mix = sample_random_mixture("gaussian", 0, rng=1)
    assert mix.k == 0


def test_sample_deterministic():
    a = sample_random_mixture("gaussian", 3, rng=42, min_separation=0.3)
    b = sample_random_mixture("gaussian", 3, rng=42, min_separation=0.3)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.sigmas, b.sigmas)


def test_sample_separation_enforced():
    mix = sample_random_mixture("gaussian", 3, rng=7, mean_range=(-2, 2), min_separation=0.5)
    xs = mix.means.ravel()
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(xs[i] - xs[j]) >= 0.5
    assert np.all(np.diff(xs) > 0)  # sorted by location


def test_sample_infeasible_separation():
    with pytest.raises(GenerationError):
        sample_random_mixture("gaussian", 10, rng=0, mean_range=(0, 1), min_separation=0.5)


@settings(max_examples=200)
@given(
    st.floats(-5.0, 5.0),
    st.lists(st.floats(-5.0, 5.0), max_size=12),
    st.floats(-1.0, 3.0),
)
def test_separation_check_matches_pairwise_distances(candidate, chosen, min_sep):
    # univariate locations, as every experiment draws them: the vectorized
    # distances are the pairwise ones bit for bit, so the draws do not move
    pairwise = all(np.linalg.norm(np.array([candidate]) - np.array([c])) >= min_sep
                   for c in chosen)
    assert _separated(np.array([candidate]), [np.array([c]) for c in chosen], min_sep) == pairwise


def test_sample_shared_sigma():
    mix = sample_random_mixture("gaussian", 4, rng=3, shared_sigma=True)
    assert np.all(mix.sigmas == mix.sigmas[0])


@given(st.floats(max_value=0, allow_nan=False))
def test_atomic_rejects_nonpositive_weights(w):
    with pytest.raises(ValueError):
        AtomicMeasure(weights=[w], points=[[0.0]])


@given(
    st.floats(max_value=0, allow_nan=False),
    st.floats(min_value=0.01, max_value=10, allow_nan=False),
)
def test_mixture_rejects_nonpositive_sigma(sigma, weight):
    with pytest.raises(ValueError):
        MixtureMeasure(kind="gaussian", weights=[weight], means=[[0.0]], sigmas=[sigma])


@given(st.floats(max_value=0, allow_nan=False))
def test_lognormal_rejects_nonpositive_location(xi):
    with pytest.raises(ValueError):
        MixtureMeasure(kind="lognormal", weights=[1.0], means=[[xi]], sigmas=[0.5])


def test_lognormal_univariate_only():
    with pytest.raises(ValueError):
        MixtureMeasure(kind="lognormal", weights=[1.0], means=[[1.0, 1.0]], sigmas=[0.5])


def test_mixture_json_roundtrip():
    data = {
        "kind": "gaussian",
        "components": [
            {"c": 0.5, "xi": [1.0], "sigma": 0.2},
            {"c": 1.5, "xi": [-1.0], "sigma": 0.4},
        ],
    }
    mix = MixtureMeasure.from_json(data)
    assert mix.k == 2 and mix.kind == "gaussian"
    assert mix.to_json() == data


def test_model_from_json_dispatch():
    atomic = model_from_json({"kind": "dirac", "components": [{"c": 2.0, "x": [3.0]}]})
    assert isinstance(atomic, AtomicMeasure) and atomic.k == 1
    mix = model_from_json(
        {"kind": "lognormal", "components": [{"c": 1.0, "xi": [2.0], "sigma": 0.3}]}
    )
    assert isinstance(mix, MixtureMeasure)
    with pytest.raises(ValueError):
        model_from_json({"kind": "cauchy", "components": []})


def test_with_component_prepends():
    mix = MixtureMeasure(kind="gaussian", weights=[1.0], means=[[0.0]], sigmas=[1.0])
    bigger = mix.with_component(0.5, 5.0, 0.3)
    assert bigger.k == 2
    assert bigger.weights[0] == 0.5
    assert bigger.means[0, 0] == 5.0
