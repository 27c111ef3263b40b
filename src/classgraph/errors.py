"""Exception hierarchy shared by all classgraph modules.

``exit_code`` is each cause's CLI exit code: 2 malformed input, 3 an
enumeration cap or the detector's vertex bound, 5 an exhausted prime
search, 4 an internal invariant failure or any other error.
"""

from __future__ import annotations


class ClassGraphError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 4


class CapExceeded(ClassGraphError):
    """An enumeration or spectrum computation grew past its configured cap."""

    exit_code = 3


class ElementNotInGroup(ClassGraphError):
    """Queried element does not belong to the enumerated group."""


class ExprError(ClassGraphError):
    """A construction tree node is malformed."""

    exit_code = 2


class InvalidMultiplier(ExprError):
    """A semidirect-action multiplier is not a unit or has the wrong order."""


class CoprimalityViolation(ExprError):
    """A Frobenius construction node mixes a prime between kernel and complement."""


class VertexNotInGraph(ClassGraphError):
    """A vertex query names a prime outside the graph's vertex set."""


class BadPartition(ClassGraphError):
    """Block partition is not disjoint, has an empty block, or misses vertices."""


class TooManyVertices(ClassGraphError):
    """Graph exceeds the exhaustive partition search bound."""

    exit_code = 3


class BoundExhausted(ClassGraphError):
    """A prime search in an arithmetic progression hit its ceiling."""

    exit_code = 5


class SpecFileError(ClassGraphError):
    """A group spec file failed to parse or validate."""

    exit_code = 2


class InternalInvariantError(ClassGraphError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class FaithfulnessFailure(InternalInvariantError):
    """A permutation realization enumerated to the wrong order."""


class PredictionMismatch(InternalInvariantError):
    """A constructed group's computed graph disagrees with its prediction."""


class DecompositionFailure(InternalInvariantError):
    """The non-central part of a group failed to split off as a subgroup."""
