"""The exact wording of the library's input checks, one row each.

``test_contract.py`` probes every argument slot by kind, and its patterns pin
the wording of the checks those probes reach; these rows pin the rest.  Every
row is a public call that must raise its layer's error with a message naming
what was wrong; a check that stopped firing lets the call return or fail later
with another error.
"""

import pytest

from roofpairs.configs import builtin_config
from roofpairs.errors import GradedRingError, LatticeError, RoofError
from roofpairs.gradedring import BasisElement, ChernVector, RingPresentation
from roofpairs.latticecore import discriminant_group, isotropic_pair_solve
from roofpairs.motivicring import MotivicPoly
from roofpairs.roofcalc import (
    DegreeMismatchError,
    InvalidRoofError,
    RoofSide,
    coordinates_in_lattice,
    middle_lattice,
    xi_power,
)

G2 = builtin_config("g2dagger")
SIDE, Q5 = G2.side, G2.side.base
ONE, P1, P2 = BasisElement("1", 0), BasisElement("p", 1), BasisElement("p", 2)


def _ring(dimension, basis, point="p", table=None, **extra):
    return RingPresentation("toy", dimension, basis, point, table or {}, **extra)


CASES = [
    # gradedring: RingPresentation and l_power
    ("duplicate labels", lambda: _ring(1, [ONE, P1, P1]), GradedRingError, "duplicate basis labels in 'toy'"),
    ("degree out of range", lambda: _ring(1, [ONE, P2]), GradedRingError, "basis degree 2 outside [0, 1]"),
    ("two units", lambda: _ring(1, [ONE, BasisElement("u", 0), P1]), GradedRingError,
     "exactly one degree-0 (unit) element"),
    ("point not top", lambda: _ring(1, [ONE, P1], point="1"), GradedRingError,
     "exactly one top-degree basis element, the point class"),
    ("missing product", lambda: _ring(2, [ONE, BasisElement("h", 1), P2]), GradedRingError,
     "lacks 'h' * 'h'"),
    ("ungraded product", lambda: _ring(2, [ONE, BasisElement("h", 1), P2], table={("h", "h"): {"h": 1}}),
     GradedRingError, "h*h is not graded: contains h"),
    ("l_power without hyperplane", lambda: _ring(1, [ONE, P1]).l_power(1), GradedRingError,
     "carries no hyperplane-power data"),
    ("negative l_power", lambda: Q5.l_power(-1), GradedRingError, "negative power of the hyperplane class"),
    ("empty Chern vector", lambda: ChernVector(0, ()), GradedRingError, "a Chern vector needs at least one component"),
    # roofcalc: RoofSide, bundle classes, lattices, RoofConfig
    ("side of rank 0", lambda: RoofSide("s", Q5, 0, ()), InvalidRoofError, "rank must be positive"),
    ("wrong coefficient count", lambda: RoofSide("s", Q5, 3, SIDE.groth_coeffs[:2]), InvalidRoofError,
     "need exactly rank relation coefficients"),
    ("coefficient of the wrong degree", lambda: RoofSide("s", Q5, 1, (Q5.l_power(2),)), InvalidRoofError,
     "relation coefficient 1 must live on the base in degree 1"),
    ("odd middle section", lambda: RoofSide("s", Q5, 2, SIDE.groth_coeffs[:2]).middle_codim, InvalidRoofError,
     "hyperplane section has odd-dimensional middle cohomology"),
    ("bundle classes of two degrees", lambda: xi_power(SIDE, 1) + xi_power(SIDE, 2), RoofError,
     "cannot add bundle classes of different degrees"),
    ("middle monomial of the wrong codimension",
     lambda: middle_lattice(RoofSide("s", Q5, 3, SIDE.groth_coeffs, (("1", 0),))), RoofError,
     "middle monomial 1*xi^0 has codimension 0, expected 3"),
    ("coordinates off the middle degree", lambda: coordinates_in_lattice(middle_lattice(SIDE), xi_power(SIDE, 1)),
     DegreeMismatchError, "class is not of middle degree"),
    ("foreign side", lambda: G2.other(RoofSide("s", Q5, 3, SIDE.groth_coeffs)), RoofError,
     "side does not belong to this configuration"),
    # latticecore
    ("asymmetric gram", lambda: discriminant_group([[1, 2], [3, 4]]), LatticeError,
     "gram matrix must be symmetric"),
    ("isotropic pair on a 2x2 gram", lambda: isotropic_pair_solve([[0, 1], [1, 0]], (1, 0, 0)), LatticeError,
     "isotropic_pair_solve expects a rank-3 gram matrix"),
    # motivicring
    ("negative motivic power", lambda: MotivicPoly.var("L") ** -1, ValueError,
     "negative powers are not in the ring"),
]


@pytest.mark.parametrize("call, error, fragment", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_input_check_names_the_input(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
