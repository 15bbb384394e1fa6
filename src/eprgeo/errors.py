"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Unknown spacetime name or an invalid parameter set."""


class DomainError(ValueError):
    """An event lies outside the chart domain of a spacetime."""


class UsageError(ValueError):
    """API misuse: mismatched events or spacetimes, or malformed inputs."""


class IntegrationError(RuntimeError):
    """Numerical integration failed (step underflow or a broken postcondition)."""


class NormDriftError(IntegrationError):
    """The 4-velocity norm drifted past its bound along an integrated segment.

    Carries the unchecked segment, so a caller that needs only its endpoint
    (a trial shot) can still use it.
    """

    def __init__(self, message, segment):
        super().__init__(message)
        self.segment = segment


class DomainExitError(IntegrationError):
    """A trajectory left the chart domain mid-integration.

    Carries the last sample that was still inside the chart so callers can
    report how far the curve got.
    """

    def __init__(self, message, tau=None, coords=None, velocity=None):
        super().__init__(message)
        self.tau = tau
        self.coords = coords
        self.velocity = velocity
