"""Exception types shared across the package."""


class VmlabError(Exception):
    """Base class for all package-specific errors."""


class CapacityExceeded(VmlabError):
    """A combinatorial routine was asked to exceed its enumeration budget."""


class NotPolyhedral(VmlabError):
    """An operation requiring a polyhedral unit ball was called with an L2-type norm."""


class NotNormalized(VmlabError):
    """A vector that must have unit norm does not."""


class NoRybakovFound(VmlabError):
    """The randomized search for a dominating scalarization functional failed."""


class ParseError(VmlabError):
    """A scenario file is not syntactically valid JSON."""


class ValidationError(VmlabError):
    """A scenario violates a documented precondition."""
