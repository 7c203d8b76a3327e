"""The query engine's intersection numbers, read off each side's Segre classes, against the normal form.

By the projective-bundle formula, int_X z*xi^(r-1+k) = int_B z*s_k for a base
label z, where s_k is the k-th Segre class of the side's relation.
``RoofSide._segre`` keeps sigma(z) = int_B z*s_k for k = n - deg z, and
``roofcalc._table_integral`` reads int_X x*y*xi^s off it.  The reference is the
normal-form scan it replaced: the point coefficient of the xi^(r-1) part of
``RoofSide._nf(z, s)``, with x*y*xi^s its own normal form below xi^r.  The cases:
every config under ``tests/data/``, the 26 query configs, hypothesis-drawn
Q4-Q10 roofs and a relation with a ``Fraction`` coefficient, whose Gram
matrix ``tests/test_engine_gram.py`` checks for the public path's
``IntegralityError``.
"""

import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from roofpairs.configs import config_from_dict, load_config
from roofpairs.gradedring import GradedClass, make_quadric_ring
from roofpairs.roofcalc import RoofSide, _table_integral

from test_roof_queries import CONFIGS, roof_relation, synthetic_roof

DATA = sorted((pathlib.Path(__file__).parent / "data").glob("*.json"))


def scan_integral(side, x, y, s):
    """int_X x*y*xi^s scanned off the normal-form table, as the engine read it before the Segre classes."""
    r, point, xy = side.rank, side.base.point_label, side.base.basis_product(x, y)
    if s < r:
        return xy.get(point, 0) if s == r - 1 else 0
    return sum(c * m for z, c in xy.items() for j, w, m in side._nf(z, s) if j == r - 1 and w == point)


def sigma(side, k, z):
    """sigma_k(z) = int_B z*s_k: the side's Segre data for z of degree n - k, and 0 otherwise."""
    base = side.base
    return side._segre()[z] if base._degrees[z] == base.dimension - k else 0


def check_side(side):
    base, r, n = side.base, side.rank, side.base.dimension
    labels = [b.label for b in base.basis]
    for z in labels:
        for k in range(n + 1):
            assert sigma(side, k, z) == scan_integral(side, z, base.unit_label, r - 1 + k), (side.name, z, k)
    # every product x*y, of the right degree for s or not, and every s from below r - 1 to past the top
    for i, x in enumerate(labels):
        for y in labels[i:]:
            for s in range(r - 2, r + n + 1):
                assert _table_integral(side, x, y, s) == scan_integral(side, x, y, s), (side.name, x, y, s)


def check_config(config):
    for side in (config.side, config.tilde_side):
        check_side(side)


@pytest.mark.parametrize("path", DATA, ids=lambda p: p.stem)
def test_committed_config(path):
    check_config(load_config(path))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_query_config(config):
    check_config(config)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 10), seed=st.integers(0, 2**32 - 1), amp=st.integers(1, 4))
def test_synthetic_roof(n, seed, amp):
    check_config(config_from_dict(synthetic_roof(n, roof_relation(random.Random(seed), n - 2, amp), "hyp")))


def test_fraction_relation():
    # c_1 = L/2 on Q4: the Segre data is rational and equal to the scan; the engine's Gram matrix then raises
    # the public path's IntegralityError (test_engine_gram.py::test_fraction_relation_gives_the_same_integrality_error)
    ring = make_quadric_ring(4)
    coeffs = (GradedClass(ring, 1, {"L": Fraction(1, 2)}), GradedClass(ring, 2, {"Pi1": 1, "Pi2": 1}))
    side = RoofSide("half", ring, 2, coeffs, (("Pi1", 0), ("Pi2", 0), ("L", 1)))
    check_side(side)
    assert sigma(side, 1, "Pi1*L") == Fraction(1, 2)
