"""Exception types shared across the package."""

from __future__ import annotations


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class DegenerateArcError(InvalidInputError):
    """The shortest inferior arc between two points is undefined (antipodal)."""


class NoCandidateError(LookupError):
    """A nearest-satellite query has an empty candidate set."""


class RepairFailedError(RuntimeError):
    """A hop repair ran out of eligible satellites (maps to a type-II status)."""


class InternalConsistencyError(RuntimeError):
    """An internal invariant that should be unreachable was violated."""
