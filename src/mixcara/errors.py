"""Exception types shared across the package."""


class MixcaraError(Exception):
    """Base class for all domain errors raised by mixcara."""


class GenerationError(MixcaraError):
    """Random instance generation could not satisfy its constraints."""


class MomentOverflowError(MixcaraError, OverflowError):
    """A closed-form moment exceeds the floating-point range."""


class UnsupportedBasisError(MixcaraError, ValueError):
    """The operation requires a basis shape this implementation does not cover."""


class ReductionError(MixcaraError):
    """Null-vector weight stepping failed for numerical reasons."""


class UnboundedStripError(MixcaraError):
    """Mass stripping never left the cone up to the configured cap."""


class NotRepresentableError(MixcaraError):
    """The moment vector is not strictly inside the cone, so the requested
    representation cannot exist."""


class PrescriptionError(MixcaraError):
    """No mixture containing the prescribed component was found."""


class InfeasibleWeightsError(MixcaraError):
    """Recovered weights are negative beyond tolerance."""


class ConditioningError(MixcaraError):
    """A linear solve or a reconstruction was too ill-conditioned to trust."""


class ConfigError(MixcaraError, ValueError):
    """An experiment configuration failed validation."""
