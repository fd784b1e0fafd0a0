"""Exception types shared across the package."""


class MasseyKitError(Exception):
    """Base class for all package errors."""


class InvalidInput(MasseyKitError, ValueError):
    """Malformed or inconsistent input data."""


class SingularMatrix(MasseyKitError):
    """A matrix required to be invertible is singular."""


class WindowTooSmall(MasseyKitError):
    """A computation stepped outside the materialized window of an algebra."""


class MixedDegree(MasseyKitError):
    """An operation required a homogeneous cochain but got a mixed one."""


class NotADefiningSystem(MasseyKitError):
    """A connection does not satisfy the staged equations it was claimed to."""


class Undecided(MasseyKitError):
    """The exact solvers cannot decide the question (a nonlinear parameter
    dependence with no definitive fallback).  Not a ValueError: it reports
    a limit of the search, not bad input."""


class UnsupportedOperands(MasseyKitError):
    """Closed-form product rule applied outside its domain."""


class DomainError(MasseyKitError, ValueError):
    """Operator applied to an element outside its domain."""


class OverlappingSupports(InvalidInput):
    """Vertex supports required to be pairwise disjoint overlap."""


class CapExceeded(MasseyKitError):
    """A configured size cap (vertex count, resolution length, ...) was exceeded."""
