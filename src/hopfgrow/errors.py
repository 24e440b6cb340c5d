"""Shared exception types."""

from .scalars import ScalarShapeError  # noqa: F401  (re-export)


class PresentationError(ValueError):
    """Invalid presentation data (bad generator, rule, or file contents)."""


class NonConfluentError(RuntimeError):
    """A basis-dependent computation was attempted on a non-confluent presentation."""

    def __init__(self, failures):
        self.failures = failures
        names = ", ".join(f.describe() for f in failures)
        super().__init__("presentation is not confluent; unresolved overlaps: %s" % names)


class ResourceCeilingError(RuntimeError):
    """An enumeration exceeded its configured word-count ceiling."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ConsistencyError(RuntimeError):
    """A cross-check between independently computed quantities failed."""
