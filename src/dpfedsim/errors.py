"""Exception hierarchy shared across the simulator."""

from contextlib import contextmanager


class DpFedSimError(Exception):
    """Base class for all simulator errors."""


class ShapeError(DpFedSimError, ValueError):
    """Structural problem: mismatched layouts, bad dimensions, empty inputs."""


class NumericError(DpFedSimError, ArithmeticError):
    """Non-finite values or numerical divergence."""


class DomainError(DpFedSimError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ProtocolError(DpFedSimError, RuntimeError):
    """Inconsistent federation state, e.g. updates from different rounds."""


class ConfigError(DpFedSimError, ValueError):
    """Invalid or contradictory experiment configuration."""


@contextmanager
def as_config_error(prefix: str = ""):
    """Re-raise a ShapeError or DomainError from the block as a ConfigError with
    prefix + its message: where a configuration meets the code that refuses it."""
    try:
        yield
    except (ShapeError, DomainError) as exc:
        raise ConfigError(prefix + str(exc)) from exc
