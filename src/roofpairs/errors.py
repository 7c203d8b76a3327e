"""The exception roots that the command line reports and the two argument rules; no dependencies.

Each class is re-exported by its home module under the same name
(``roofpairs.bwbcoh.BWBError is roofpairs.errors.BWBError``), and the more
specific subclasses stay in those modules.  The CLI catches these roots
without importing the modules that raise them.

Every layer checks its arguments through two rules, each raising the error
class its caller passes:

- ``_index`` reads every integer scalar of every layer.  It admits only what
  ``operator.index`` admits and refuses a bool, so 4.0, Fraction(2), "4" and
  True are refused, not converted, with the text ``<what> must be an integer,
  got <value>``: True is a flag, not the integer 1;
- ``_typed`` admits an instance of the given class (or classes), such as a
  ``RoofSide`` where a side is meant, and refuses anything else with the text
  ``<what>: expected a <class>, got <type>``.

Matrix and vector entries are not scalars; ``latticecore`` reads them through
``operator.index``.
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
