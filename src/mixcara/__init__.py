"""mixcara: constructive truncated-moment computations for distribution mixtures.

Forward moment maps for Dirac measures and Gaussian/log-normal mixtures,
reduction of representing measures to few components, rank-based estimates of
the smallest usable component count, moment-cone membership, and several
recovery engines that produce mixtures meeting the component-count bounds.
"""

from .basis import MonomialBasis
from .conegeo import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    ConeClassification,
    hankel_classify,
    represent_with_prescribed_component,
    strip_mass,
)
from .errors import (
    ConditioningError,
    ConfigError,
    GenerationError,
    InfeasibleMomentsError,
    InfeasibleWeightsError,
    MixcaraError,
    MomentOverflowError,
    NotRepresentableError,
    PrescriptionError,
    ReductionError,
    UnboundedStripError,
    UnsupportedBasisError,
)
from .harness import EXPERIMENTS, ExperimentConfig, ExperimentReport, run_experiment
from .jacobian import (
    RankReport,
    RankSearchResult,
    atomic_jacobian,
    min_full_rank_atoms,
    min_full_rank_components,
    mixture_jacobian,
    numeric_rank,
)
from .measures import (
    AtomicMeasure,
    MixtureMeasure,
    model_from_json,
    sample_random_mixture,
)
from .moments import (
    MomentVector,
    SmoothedBasis,
    dirac_moments,
    gaussian_smoothed_basis,
    mixture_moments,
    transfer_matrix_gaussian,
)
from .recover import (
    RecoveryReport,
    default_sigma_schedule,
    homotopy_gap_recovery,
    lm_fit,
    prony_dirac,
    recover_shared_sigma_gaussian,
    recover_shared_sigma_lognormal,
)
from .reduce import reduce_atoms, reduce_mixture_components

__version__ = "0.1.0"
