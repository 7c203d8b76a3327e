"""The exception roots that the command line reports and the three argument rules; no dependencies.

Each class is re-exported by its home module under the same name
(``roofpairs.bwbcoh.BWBError is roofpairs.errors.BWBError``), and the more
specific subclasses stay in those modules.  The CLI catches these roots
without importing the modules that raise them.

Every layer checks its arguments through three rules, each raising the error
class its caller passes:

- ``_index`` (``gradedring``, ``roofcalc``, ``latticecore``, ``configs``)
  admits only what ``operator.index`` admits, so 4.0 and "4" are refused, not
  converted;
- ``_integral`` (``bwbcoh``, ``motivicring``) turns an integral number into an
  int (5.0 becomes 5) and refuses anything else;
- ``_typed`` admits an instance of the given class (or classes), such as a
  ``RoofSide`` where a side is meant, and refuses anything else with the text
  ``<what>: expected a <class>, got <type>``.

Both integer rules refuse a bool, with the text ``<what> must be an integer,
got <value>``: True is a flag, not the integer 1.  Matrix and vector entries
are not scalars; ``latticecore`` reads them through ``operator.index``.
"""

from operator import index


def _index(value, what: str, error: type) -> int:
    """``value`` through ``operator.index``; a bool or anything it refuses is an ``error``, never converted."""
    try:
        if type(value) is not bool:
            return index(value)
    except TypeError:
        pass
    raise error(f"{what} must be an integer, got {value!r}")


def _integral(value, what: str, error: type) -> int:
    """``value`` as an int if it is an integral number (5.0 becomes 5, "5" and True do not); an ``error`` otherwise."""
    if type(value) is int:
        return value
    try:
        n = None if type(value) is bool else int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise error(f"{what} must be an integer, got {value!r}")
    return n


def _typed(value, cls, what: str, error: type):
    """``value`` if it is an instance of ``cls`` (a class or a tuple of classes); an ``error`` otherwise."""
    if not isinstance(value, cls):
        expected = " or ".join(c.__name__ for c in cls) if isinstance(cls, tuple) else cls.__name__
        raise error(f"{what}: expected a {expected}, got {type(value).__name__}")
    return value


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
