"""Exception hierarchy shared across the package."""


class SimembedError(Exception):
    """Base class for every error raised by this package."""


class CoordinateBudgetError(SimembedError):
    """A coordinate is not an integer or exceeds the kernel's magnitude limit."""


class DuplicatePointError(SimembedError):
    """A point-set operation received two identical points."""


class ParseError(SimembedError):
    """A document is malformed: bad JSON, unknown fields, schema mismatch."""


class InvalidInstanceError(SimembedError):
    """A graph layer or instance fails structural validation."""


class UnsupportedInstanceError(SimembedError):
    """The requested layer-class combination has no embedding routine."""


class SearchBudgetError(SimembedError):
    """An exhaustive search would exceed its documented budget."""


class InternalInvariantError(SimembedError):
    """A guaranteed-by-construction property failed; indicates a bug."""
