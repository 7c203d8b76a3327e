"""The query engine's Gram matrices, read off the Segre classes, against ``middle_lattice``.

``RoofQuery.lattice`` reads each entry int x*xi^e . y*xi^f . xi off the side's
Segre classes, as int_B x*y*s_k with k = e + f + 2 - r; ``middle_lattice``
computes it by definition, as ``pairing_on_M`` of the two monomial classes.
The two must give the same lattice: Gram matrix and determinant.  A lattice
holds no classes: on both, the unit coordinates e_i name the i-th declared
monomial, its normal form by ``reduce``, and that class reads back as e_i.
Each side is queried on a freshly loaded config, before the public path runs,
so the engine reads data it built itself, not data the public path left.
"""

import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from roofpairs.configs import config_from_dict, load_config
from roofpairs.gradedring import GradedClass, IntegralityError, make_quadric_ring
from roofpairs.roofcalc import (
    RoofConfig, RoofQuery, RoofSide, class_from_coordinates, coordinates_in_lattice, middle_lattice, monomial,
)

from test_roof_queries import CONFIGS, NON_UNIMODULAR, _fresh, roof_relation, synthetic_roof

DATA = sorted((pathlib.Path(__file__).parent / "data").glob("*.json"))


def check_unit_coordinates(lat) -> None:
    """e_i names the normal form of the i-th declared monomial x*xi^e, and that class has the coordinates e_i."""
    for i, (label, e) in enumerate(lat.monomials):
        unit = tuple(int(i == k) for k in range(lat.rank))
        cls = monomial(lat.side, label, e)
        assert class_from_coordinates(lat, unit) == cls, (lat.side.name, label, e)
        assert coordinates_in_lattice(lat, cls) == unit, (lat.side.name, label, e)


def check_both_sides(fresh) -> None:
    """``fresh()`` builds a new config each time: one per side, queried first, then the public path on it."""
    for pick in (lambda c: c.side, lambda c: c.tilde_side):
        config = fresh()
        side = pick(config)
        engine = RoofQuery(config).lattice(side)
        public = middle_lattice(side)
        assert engine.gram == public.gram, side.name
        assert engine.determinant == public.determinant, side.name
        assert engine == public
        check_unit_coordinates(engine)
        check_unit_coordinates(public)


@pytest.mark.parametrize("path", DATA, ids=lambda p: p.stem)
def test_committed_config(path):
    check_both_sides(lambda: load_config(path))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_query_config(config):
    # a RoofConfig is rebuilt from its sides' data, so each check starts from empty normal-form tables and Segre data
    check_both_sides(lambda: _fresh(config))


def test_non_unimodular_config():
    check_both_sides(lambda: _fresh(NON_UNIMODULAR))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 10), seed=st.integers(0, 2**32 - 1), amp=st.integers(1, 4))
def test_synthetic_roof(n, seed, amp):
    data = json.dumps(synthetic_roof(n, roof_relation(random.Random(seed), n - 2, amp), "hyp"))
    check_both_sides(lambda: config_from_dict(json.loads(data)))


def test_fraction_relation_gives_the_same_integrality_error():
    # c_1 = L/2 on Q4: the entry of Pi1 and L*xi is int Pi1 * L * c_1 = 1/2, the first in row order
    ring = make_quadric_ring(4)
    coeffs = (GradedClass(ring, 1, {"L": Fraction(1, 2)}), GradedClass(ring, 2, {"Pi1": 1, "Pi2": 1}))
    basis = (("Pi1", 0), ("Pi2", 0), ("L", 1))
    side = RoofSide("half", ring, 2, coeffs, basis)
    config = RoofConfig("half", side, RoofSide("half~", ring, 2, coeffs, basis), 2)
    with pytest.raises(IntegralityError) as got:
        RoofQuery(config).lattice(side)
    with pytest.raises(IntegralityError) as expected:
        middle_lattice(side)
    assert str(expected.value) == "non-integral intersection number 1/2"
    assert str(got.value) == f"stage 'middle lattice' failed: {expected.value}"
