"""Exception types shared across the package."""


class VmlabError(Exception):
    """Base class for all package-specific errors."""


class CapacityExceeded(VmlabError):
    """A routine was asked to exceed its enumeration budget or draw limit."""


class NotPolyhedral(VmlabError):
    """An operation requiring a polyhedral unit ball was called with an L2-type norm."""


class ParseError(VmlabError):
    """A scenario file is not syntactically valid JSON."""


class ValidationError(VmlabError):
    """A scenario violates a documented precondition."""
