"""Exception types shared across the package."""


class EregSimError(Exception):
    """Base class for all package errors."""


class ConfigError(EregSimError):
    """Scenario configuration failed validation."""


class InfeasibleThrottleError(ConfigError):
    """A requested throttle point cannot be reached with the configured plant."""


class ModelError(EregSimError):
    """The physical model reached a nonphysical state (fatal)."""


class ControllerError(EregSimError):
    """A controller received or produced a non-finite value (fatal)."""


class DegenerateFitError(EregSimError):
    """A calibration fit has too little information to be solvable."""

