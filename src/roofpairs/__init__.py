"""Exact invariants of Calabi-Yau pairs arising from roofs of projective bundles.

Quadric cohomology rings with exact rational coefficients, the
projective-bundle roof engine (intersection lattices of hyperplane
sections, pushforward locus classes, side switching, residue scans, the
Fourier-Mukai vector), integer-lattice algorithms (Smith normal form,
discriminant groups, isotropic pairs), Borel-Weil-Bott cohomology of
homogeneous bundles, and Grothendieck-ring fibration identities.

The modules form layers; each imports only modules listed before it:

- ``errors``, the exception roots the CLI reports and the three argument
  rules, and ``_text``, the signed-sum renderer: no dependencies;
- ``gradedring`` (quadric rings), ``bwbcoh`` (Borel-Weil-Bott tables) and
  ``latticecore`` (the exact integer kernel): ``errors`` (and ``_text``);
- ``motivicring`` (Grothendieck ring): ``_text`` and ``errors``;
- ``roofcalc`` (the roof engine), then ``configs`` (configurations);
- ``checks`` (the golden checks), which uses all of them;
- ``cli``, which imports ``errors`` and, inside each command, only the
  modules that command runs.

Importing the package imports none of them.  ``__all__`` is the declared
public surface: each of its names is loaded from its home module on first
access, so ``from roofpairs import smith_normal_form`` imports
``latticecore`` and nothing that builds on it.
"""

import importlib

__version__ = "0.1.0"

# public name -> home module; loaded on first access (PEP 562)
_HOMES = {
    **dict.fromkeys((
        "BWBError", "ConfigError", "GradedRingError", "LatticeError", "RoofError",
        "UnsupportedBundleError",
    ), "errors"),
    **dict.fromkeys((
        "BasisElement", "ChernVector", "GradedClass", "RingPresentation", "chern_twist",
        "integrate", "make_quadric_ring",
    ), "gradedring"),
    **dict.fromkeys((
        "BundleClass", "MiddleLattice", "ResidueScan", "RoofConfig", "RoofSide", "cy_degree",
        "locus_pushforward_class", "middle_lattice", "mukai_vector", "pairing_on_M",
        "polarized_sign_check", "reduce", "residue_scan", "switch_side",
    ), "roofcalc"),
    **dict.fromkeys((
        "DiscriminantGroup", "MukaiSolution", "SmithDecomposition", "discriminant_group",
        "isotropic_pair_solve", "orthogonal_kernel", "smith_normal_form",
    ), "latticecore"),
    **dict.fromkeys((
        "RootSystem", "bundle_cohomology", "dominant_conjugate", "euler_characteristic",
        "les_solve", "rho", "vanishing_case",
    ), "bwbcoh"),
    **dict.fromkeys((
        "MotivicPoly", "fibration_class", "l_equivalence_residual", "proj_class",
    ), "motivicring"),
    **dict.fromkeys(("builtin_config", "load_config"), "configs"),
}
__all__ = list(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups are plain attribute reads
    return value
