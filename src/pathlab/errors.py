"""Exception hierarchy shared by all pathlab modules."""


class PathLabError(Exception):
    """Base class for every error raised by pathlab."""


class InvalidIntervalError(PathLabError, ValueError):
    """An interval [s, t] with s >= t was supplied."""


class InvalidCoveringError(PathLabError, ValueError):
    """A graph sequence was expected to cover a full path but does not."""


class InvalidIndexSetError(PathLabError, ValueError):
    """An index set I for a shift permutation must satisfy m in I subseteq [m]."""


class InvalidShiftError(PathLabError, ValueError):
    """A permutation violates the shift property sigma(j) >= j - 1."""


class InvalidParameterError(PathLabError, ValueError):
    """A construction parameter is out of range (e.g. a non-integral root)."""


class NotGreedyError(PathLabError, ValueError):
    """A sequence required to be greedy by component count is not."""


class ArityError(PathLabError, ValueError):
    """A formula or tree operation received the wrong number of arguments."""


class DomainError(PathLabError, ValueError):
    """An input lies outside the operation's domain (e.g. not a sub-permutation tuple)."""


class InputError(PathLabError, ValueError):
    """An input file or option could not be read or parsed."""


class ResourceLimitError(PathLabError, RuntimeError):
    """A brute-force computation exceeded its configured ceiling."""
