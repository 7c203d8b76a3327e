"""The exception roots that the command line reports, free of dependencies.

Each class is re-exported by its home module under the same name
(``roofpairs.bwbcoh.BWBError is roofpairs.errors.BWBError``), and the more
specific subclasses stay in those modules.  The CLI catches these roots
without importing the modules that raise them.
"""


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
