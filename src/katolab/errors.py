"""Exception types shared across the toolkit."""


class KatolabError(Exception):
    """Base class for all toolkit errors."""


class DomainError(KatolabError, ValueError):
    """An argument lies outside the regime where an operation is defined."""


class AccuracyError(KatolabError):
    """Quadrature failed to reach the requested accuracy; carries the best
    available estimate so callers can decide whether to proceed anyway."""

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class ValidationError(KatolabError, ValueError):
    """A model or measure violates one of its structural invariants."""


class ConfigError(KatolabError, ValueError):
    """A run configuration is malformed or inconsistent."""


class InsufficientDataError(KatolabError, ValueError):
    """Too few finite samples to fit a limit verdict."""
