"""The public parameter lists of the engines, cone tests, rank searches and
samplers hold only the settings some caller sets; fixed tuning values are
module constants.  Functions and fields that no path reads stay deleted."""
import dataclasses
import inspect

import mixcara
from mixcara import basis, errors, jacobian, measures, moments, recover

EXPECTED_PARAMETERS = {
    mixcara.homotopy_gap_recovery: ["basis", "s", "k", "seed", "rel_tol"],
    mixcara.lm_fit: [
        "basis", "kind", "s", "k", "free_sigma_per_component", "seed", "n_starts",
    ],
    mixcara.prony_dirac: ["s", "k"],
    mixcara.default_sigma_schedule: [],
    mixcara.hankel_classify: ["s"],
    mixcara.strip_mass: ["s", "v"],
    mixcara.represent_with_prescribed_component: [
        "basis", "kind", "s", "x0", "sigma0", "rel_tol",
    ],
    mixcara.numeric_rank: ["matrix", "rel_tol"],
    mixcara.min_full_rank_atoms: ["basis", "max_k", "trials", "seed"],
    mixcara.min_full_rank_components: ["basis", "kind", "max_k", "trials", "seed"],
    mixcara.sample_random_mixture: [
        "kind", "k", "n", "rng", "weight_range", "mean_range", "sigma_range",
        "min_separation", "shared_sigma",
    ],
}


def test_public_parameter_lists():
    for fn, expected in EXPECTED_PARAMETERS.items():
        assert list(inspect.signature(fn).parameters) == expected, fn.__name__
    assert "k" not in {f.name for f in dataclasses.fields(mixcara.RankReport)}
    assert "k" not in mixcara.numeric_rank([[1.0]]).to_json()


# every moment goes through moments.component_moments
DELETED = {
    measures: ["sample_random_atoms", "merge_close_atoms"],
    basis: ["eval_point", "eval_jacobian", "_as_point"],
    moments: ["lognormal_moment", "component_moment_vector", "_MAX_EXP_ARG"],
    recover: ["match_components", "_hankel_slice", "_companion_roots", "_IMAG_TOL"],
    jacobian: ["_DENOMINATOR_NOTE"],
    errors: ["NonrealAtomsError"],
}


def test_unread_names_stay_deleted():
    for module, names in DELETED.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert not hasattr(mixcara, name), name
    assert not hasattr(mixcara.MonomialBasis, "is_univariate")
    assert not hasattr(mixcara.MixtureMeasure, "from_components")
    # the rank searches report their lower bound, with no note beside it
    assert "note" not in {f.name for f in dataclasses.fields(mixcara.RankSearchResult)}
    assert "note" not in mixcara.RankSearchResult(value=None).to_json()
    # a solver run is read by field name
    assert not hasattr(recover._Run, "__iter__")
    # each experiment's kind comes from its own table row
    assert "kind" not in {f.name for f in dataclasses.fields(mixcara.ExperimentConfig)}
    assert "kind" not in mixcara.ExperimentConfig(experiment="na-table").to_json()
    # a moment vector carries its values and basis, with no kind tag beside them
    assert "kind_tag" not in {f.name for f in dataclasses.fields(mixcara.MomentVector)}
    s = mixcara.MomentVector(values=[1.0], basis=mixcara.MonomialBasis.full_degree(0))
    assert "kind_tag" not in s.to_json()
    # perfbench/selftest.py:85 wraps and restores this method
    assert callable(mixcara.SmoothedBasis.eval_components)
