"""Exception types shared across the package."""


class BoundViolation(ValueError):
    """A detuning protocol was evaluated outside its allowed band."""


class PoleProximity(ValueError):
    """AC-Stark shift requested too close to a resonance pole."""


class IntegratorFailure(RuntimeError):
    """The adaptive integrator could not meet its error tolerance."""


class ResolutionError(ValueError):
    """Grid parameters cannot resolve the requested physics."""


class SpectralOverflow(RuntimeError):
    """Significant probability reached the edge of the momentum grid."""


class OutOfZone(ValueError):
    """Momentum content leaves the representable first-zone window."""


class NoExtremaFound(RuntimeError):
    """A fringe scan contains no usable maximum/minimum pair."""


class ConfigError(ValueError):
    """A scenario configuration failed validation."""


# Numerical trouble, as opposed to bad input: the CLI maps these to exit
# code 3, and efficiency_landscape records them as failed cells.
NUMERICAL_ERRORS = (PoleProximity, IntegratorFailure, ResolutionError,
                    SpectralOverflow, OutOfZone, NoExtremaFound)
