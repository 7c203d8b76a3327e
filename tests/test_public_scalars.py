"""Every integer scalar of the public surface under typed junk.

Each name in ``roofpairs.__all__`` is listed with the integer scalars it takes
(a dimension, rank, twist, exponent, bound, degree or case), each as a call
that puts the probe value into that one slot and keeps every other argument
valid.  1.5, "2" and None must each give a result or the error root of the
name's layer (``ValueError`` in ``motivicring``, which documents it), never a
builtin ``TypeError``, ``AttributeError``, ``IndexError`` or ``KeyError``.
"""

import pytest

import roofpairs
from roofpairs import errors
from roofpairs.bwbcoh import SequenceSpec, quadric_root_system
from roofpairs.configs import builtin_config
from roofpairs.motivicring import residual_closed_form

from golden_grams import G2_GRAM

G2 = builtin_config("g2dagger")
SIDE, Q5 = G2.side, G2.side.base
G2_LOCUS = (18, -5, 1)
NO_SCALAR = {}

# public name -> {slot: call with the probe value in that slot}
SLOTS = {
    **dict.fromkeys(("BWBError", "ConfigError", "GradedRingError", "LatticeError", "RoofError",
                     "UnsupportedBundleError"), NO_SCALAR),
    # gradedring
    "BasisElement": {"degree": lambda v: roofpairs.BasisElement("L", v)},
    "ChernVector": {"rank": lambda v: roofpairs.ChernVector(v, (Q5.l_power(1),))},
    "GradedClass": {"degree": lambda v: roofpairs.GradedClass(Q5, v, {"L": 1})},
    "RingPresentation": {
        "dimension": lambda v: roofpairs.RingPresentation(
            "toy", v, [roofpairs.BasisElement("1", 0), roofpairs.BasisElement("p", 1)], "p", {}),
        "l_power exponent": lambda v: Q5.l_power(v),
    },
    "chern_twist": {"twist": lambda v: roofpairs.chern_twist(roofpairs.ChernVector(1, (Q5.l_power(1),)), v)},
    "integrate": NO_SCALAR,
    "make_quadric_ring": {"dimension": lambda v: roofpairs.make_quadric_ring(v)},
    # roofcalc
    "BundleClass": {"degree": lambda v: roofpairs.BundleClass(SIDE, v, (Q5.l_power(2), Q5.l_power(1), Q5.unit()))},
    "MiddleLattice": NO_SCALAR,
    "ResidueScan": {"degree": lambda v: roofpairs.ResidueScan(v, (), (), (), (), False, (), (), ())},
    "RoofConfig": {"degree": lambda v: roofpairs.RoofConfig("g2", SIDE, G2.tilde_side, v)},
    "RoofSide": {"rank": lambda v: roofpairs.RoofSide("s", Q5, v, SIDE.groth_coeffs, SIDE.middle_basis)},
    "cy_degree": NO_SCALAR,
    "locus_pushforward_class": NO_SCALAR,
    "middle_lattice": NO_SCALAR,
    "mukai_vector": {"bound": lambda v: roofpairs.mukai_vector(G2, v)},
    "pairing_on_M": NO_SCALAR,
    "polarized_sign_check": NO_SCALAR,
    "reduce": {"exponent": lambda v: roofpairs.reduce(SIDE, {v: Q5.unit()}),
               "degree": lambda v: roofpairs.reduce(SIDE, {1: Q5.unit()}, v)},
    "residue_scan": NO_SCALAR,
    "switch_side": NO_SCALAR,
    # latticecore
    "DiscriminantGroup": NO_SCALAR,
    "MukaiSolution": NO_SCALAR,
    "SmithDecomposition": NO_SCALAR,
    "discriminant_group": NO_SCALAR,
    "isotropic_pair_solve": {"bound": lambda v: roofpairs.isotropic_pair_solve(G2_GRAM, G2_LOCUS, v)},
    "orthogonal_kernel": NO_SCALAR,
    "smith_normal_form": NO_SCALAR,
    # bwbcoh
    "RootSystem": {"rank": lambda v: roofpairs.RootSystem("B", v)},
    "bundle_cohomology": {"dimension": lambda v: roofpairs.bundle_cohomology(v, "O", 1),
                          "twist": lambda v: roofpairs.bundle_cohomology(5, "O", v)},
    "dominant_conjugate": NO_SCALAR,
    "euler_characteristic": NO_SCALAR,
    "les_solve": {"top degree": lambda v: roofpairs.les_solve(SequenceSpec(("a", "b", "c"), ({0: 1}, None, {}), v))},
    "rho": NO_SCALAR,
    "vanishing_case": {"case": lambda v: roofpairs.vanishing_case(v)},
    # motivicring
    "MotivicPoly": {"exponent": lambda v: roofpairs.MotivicPoly({(v, 0, 0, 0, 0, 0): 1}),
                    "power": lambda v: roofpairs.MotivicPoly.var("L") ** v},
    "fibration_class": {"rank": lambda v: roofpairs.fibration_class(v)},
    "l_equivalence_residual": {"rank": lambda v: roofpairs.l_equivalence_residual(v)},
    "proj_class": {"dimension": lambda v: roofpairs.proj_class(v)},
    # configs
    "builtin_config": NO_SCALAR,
    "load_config": {"path": lambda v: roofpairs.load_config(v)},
}

# home module -> the errors its names may raise; mukai_vector hands its bound to isotropic_pair_solve
ROOTS = {
    "gradedring": errors.GradedRingError, "roofcalc": (errors.RoofError, errors.LatticeError),
    "latticecore": errors.LatticeError, "bwbcoh": errors.BWBError, "motivicring": ValueError,
    "configs": errors.ConfigError,
}


def test_every_public_name_is_in_the_table():
    assert set(SLOTS) == set(roofpairs.__all__)


@pytest.mark.parametrize("value", [1.5, "2", None], ids=repr)
@pytest.mark.parametrize("name, slot", [(name, slot) for name in SLOTS for slot in SLOTS[name]])
def test_scalar_slot_gives_a_result_or_the_layer_error(name, slot, value):
    roots = ROOTS[getattr(roofpairs, name).__module__.removeprefix("roofpairs.")]
    try:
        SLOTS[name][slot](value)
    except roots:
        pass


@pytest.mark.parametrize("call", [
    lambda: roofpairs.RoofConfig("g2", SIDE, G2.tilde_side, 12.0),
    lambda: roofpairs.RoofSide("s", Q5, 3.0, SIDE.groth_coeffs),
    lambda: roofpairs.BundleClass(SIDE, 3.0, (Q5.l_power(3), Q5.l_power(2), Q5.l_power(1))),
    lambda: Q5.l_power(2.0),
    lambda: roofpairs.chern_twist(roofpairs.ChernVector(1, (Q5.l_power(1),)), 1.0),
], ids=["RoofConfig", "RoofSide", "BundleClass", "l_power", "chern_twist"])
def test_index_rule_refuses_integral_floats(call):
    # gradedring and roofcalc take integers through operator.index: 12.0 is refused, not converted
    with pytest.raises((errors.GradedRingError, errors.RoofError), match="must be an integer, got"):
        call()


def test_bwbcoh_converts_integral_values_and_refuses_the_rest():
    system = roofpairs.RootSystem("B", 3.0)
    assert type(system.rank) is int and str(system) == "B3"
    assert type(quadric_root_system(5.0).rank) is int
    assert roofpairs.bundle_cohomology(5.0, "Sdual", 1.0) == roofpairs.bundle_cohomology(5, "Sdual", 1) == {0: 48}
    for call, what in ((lambda: roofpairs.RootSystem("B", 2.5), "rank"),
                       (lambda: quadric_root_system(5.5), "quadric dimension"),
                       (lambda: roofpairs.bundle_cohomology(5, "O", None), "twist")):
        with pytest.raises(errors.BWBError, match=f"{what} must be an integer"):
            call()


def test_motivicring_converts_integral_values_and_refuses_the_rest():
    assert roofpairs.proj_class(2.0) == roofpairs.proj_class(2)
    assert roofpairs.l_equivalence_residual(3.0) == roofpairs.l_equivalence_residual(3)
    for call in (lambda: roofpairs.proj_class(2.5), lambda: roofpairs.fibration_class("3"),
                 lambda: roofpairs.l_equivalence_residual(None), lambda: residual_closed_form(3.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
