"""Exception hierarchy shared by every stage of the pipeline.

Each exception names the subsystem it belongs to and carries an optional
remediation hint so the command line front end can print actionable
messages without inspecting exception types individually.
"""
from __future__ import annotations

import math
import numbers
from contextlib import contextmanager


class SpatialLinkError(Exception):
    """Base class for all errors raised by this package."""

    module = "spatial-link"

    def __init__(self, message: str, hint: str | None = None):
        super().__init__(message)
        self.hint = hint


class MalformedHeader(SpatialLinkError):
    """Grid header/sidecar is inconsistent with the payload."""

    module = "grid-core"


class NonFiniteValue(SpatialLinkError):
    """A cell marked valid holds NaN or infinity."""

    module = "grid-core"


class WindowOutOfBounds(SpatialLinkError):
    """Requested analysis window does not fit inside the grid."""

    module = "grid-core"


class InsufficientData(SpatialLinkError):
    """Fewer valid oriented cells than the operation requires."""

    module = "grid-core"


class DimMismatch(SpatialLinkError):
    """Two grids that must share a shape do not."""

    module = "grid-core"


class DuplicatePoint(SpatialLinkError):
    """Coincident points passed to the triangulator."""

    module = "spatial-graph"


class MaskDimMismatch(SpatialLinkError):
    """Anomaly mask dimensions disagree with the grid."""

    module = "spatial-graph"


class EmptySide(SpatialLinkError):
    """Graph construction received no source or no target cells."""

    module = "spatial-graph"


class PathExplosion(SpatialLinkError):
    """Path enumeration exceeded the configured cap."""

    module = "path-extraction"


class StationUnreachable(SpatialLinkError):
    """No graph node lies within the snap radius of the station."""

    module = "aar-benchmark"


class ChainViolation(SpatialLinkError):
    """Planted chain breaks spacing, length, or uniqueness rules."""

    module = "synthetic"


class ConfigError(SpatialLinkError):
    """Run configuration is incomplete or self-contradictory."""

    module = "io-cli"


@contextmanager
def reading(error: type[SpatialLinkError], what: str, hint: str | None = None):
    """Raise ``error`` for a lookup or conversion failure while reading ``what``."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise error(f"{what}: {type(exc).__name__}: {exc}", hint=hint) from exc


def is_integer(v) -> bool:
    """Is ``v`` an integer, as JSON writes one? A bool is not."""
    return type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_number(v) -> bool:
    """Is ``v`` a real number, as JSON writes one (NaN included)? A bool is not."""
    return type(v) in (float, int) or isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_finite(v) -> bool:
    try:
        return is_number(v) and math.isfinite(v)
    except OverflowError:  # an integer too large for a float is not finite
        return False


# (requirement, test) rules for ``checked``.
INTEGER = ("an integer", is_integer)
NUMBER = ("a number", is_number)
FINITE = ("a finite number", is_finite)


def checked(value, what: str, rule: tuple):
    """``value`` if it passes ``rule``'s test, else ``ValueError`` naming ``what``.

    Inside ``reading`` the ``ValueError`` becomes that block's typed error.
    """
    requirement, test = rule
    if not test(value):
        raise ValueError(f"{what} must be {requirement}, got {value!r}")
    return value
