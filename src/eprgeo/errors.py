"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Unknown spacetime name or an invalid parameter set."""


class DomainError(ValueError):
    """An event lies outside the chart domain of a spacetime."""


class UsageError(ValueError):
    """API misuse: mismatched events or spacetimes, or malformed inputs."""


class IntegrationError(RuntimeError):
    """Numerical integration failed (step underflow or a broken postcondition).

    A march that raises it sets ``counts`` to the (steps, rejected steps,
    RHS evaluations) it spent; other raises leave it None.
    """

    def __init__(self, message, counts=None):
        super().__init__(message)
        self.counts = counts


class DomainExitError(IntegrationError):
    """A trajectory left the chart domain mid-integration.

    Carries the last sample that was still inside the chart so callers can
    report how far the curve got.
    """

    def __init__(self, message, tau=None, coords=None, velocity=None, counts=None):
        super().__init__(message, counts)
        self.tau = tau
        self.coords = coords
        self.velocity = velocity
