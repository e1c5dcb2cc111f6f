"""The public parameter lists of the engines, cone tests, rank searches and
samplers hold only the settings some caller sets; fixed tuning values are
module constants."""
import dataclasses
import inspect

import mixcara
from mixcara import measures

EXPECTED_PARAMETERS = {
    mixcara.homotopy_gap_recovery: ["basis", "s", "k", "seed", "rel_tol"],
    mixcara.lm_fit: [
        "basis", "kind", "s", "k", "free_sigma_per_component", "seed", "n_starts", "rel_tol",
    ],
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
    assert not hasattr(mixcara, "sample_random_atoms")
    assert not hasattr(measures, "sample_random_atoms")
