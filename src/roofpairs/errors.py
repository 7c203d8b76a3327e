"""The exception roots that the command line reports and the two integer-scalar rules; no dependencies.

Each class is re-exported by its home module under the same name
(``roofpairs.bwbcoh.BWBError is roofpairs.errors.BWBError``), and the more
specific subclasses stay in those modules.  The CLI catches these roots
without importing the modules that raise them.

Every layer takes its integer scalars through one of two rules, each raising
the error class its caller passes with the text ``<what> must be an integer,
got <value>``: ``_index`` (``gradedring``, ``roofcalc``, ``latticecore``)
admits only what ``operator.index`` admits, so 4.0 and "4" are refused, and
``_integral`` (``bwbcoh``, ``motivicring``) turns an integral number into an
int (5.0 becomes 5) and refuses anything else.
"""

from operator import index


def _index(value, what: str, error: type) -> int:
    """``value`` through ``operator.index``; anything it refuses is an ``error``, never converted."""
    try:
        return index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _integral(value, what: str, error: type) -> int:
    """``value`` as an int if it is an integral number (5.0 becomes 5, "5" does not); an ``error`` otherwise."""
    if type(value) is int:
        return value
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise error(f"{what} must be an integer, got {value!r}")
    return n


class ConfigError(ValueError):
    """Malformed or inconsistent configuration data."""


class GradedRingError(ValueError):
    """Base class for graded-ring construction and arithmetic errors."""


class RoofError(ValueError):
    """Base class for roof-side errors."""


class LatticeError(ValueError):
    """Base class for lattice-side errors."""


class BWBError(ValueError):
    """Base class for cohomology-engine errors."""


class UnsupportedBundleError(BWBError):
    """Descriptor outside the weight dictionary."""
