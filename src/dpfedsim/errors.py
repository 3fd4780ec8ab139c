"""Exception hierarchy shared across the simulator."""


class DpFedSimError(Exception):
    """Base class for all simulator errors."""


class ShapeError(DpFedSimError, ValueError):
    """Structural problem: mismatched layouts, bad dimensions, empty inputs."""


class NumericError(DpFedSimError, ArithmeticError):
    """Non-finite values or numerical divergence."""


class NonFiniteUpdateError(NumericError, ShapeError):
    """Non-finite update values; still a ShapeError for callers that caught one."""


class DomainError(DpFedSimError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ProtocolError(DpFedSimError, RuntimeError):
    """Inconsistent federation state, e.g. updates from different rounds."""


class ConfigError(DpFedSimError, ValueError):
    """Invalid or contradictory experiment configuration."""
