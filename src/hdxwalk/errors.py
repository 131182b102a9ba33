"""Exception types shared across the package, and the checks ``hdxwalk.cli`` runs first."""

import math

#: Default certification bound: faces per dimension.
CERTIFY_BIT_LIMIT = 24


class HdxError(Exception):
    """Base class for all errors raised by this package."""


class InvalidFaceError(HdxError):
    """A face is malformed: repeated vertex, negative id, or wrong arity."""


class DuplicateFaceError(HdxError):
    """The same face was supplied more than once."""


class ParameterError(HdxError):
    """An argument is outside its documented range or malformed."""


class CapacityError(HdxError):
    """An exhaustive enumeration exceeds its configured threshold."""


class RegularityError(HdxError):
    """An operation that requires a regular graph or complex got an irregular one."""


class DomainError(HdxError):
    """A numeric argument lies outside the domain where the formula is defined."""


class ToleranceError(HdxError):
    """The eigensolver's residual exceeds the requested tolerance.

    Not a DomainError: a spectrum that cannot be trusted leaves the question
    undecided, and must not read as a hypothesis that fails to hold.
    """


class DegenerateComplexError(HdxError):
    """Every subset at some dimension is a cocycle, so expansion ratios are undefined."""


class UndefinedTransitionError(HdxError):
    """A walk reached a vertex or edge with no neighbors to step to."""


def check_tolerance(tol: float) -> None:
    """Refuse an eigensolver tolerance that is not a finite number >= 0: ``residual >
    tol`` is never true for a NaN or infinite ``tol``, which would turn the residual
    guard off, and always true for a negative one."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ParameterError(f"tolerance must be finite and non-negative, got {tol!r}")
