"""The query engine's intersection numbers, read off each side's Segre classes, against the Segre recurrence.

By the projective-bundle formula, int_X z*xi^(r-1+k) = int_B z*s_k for a base
label z, where s_k is the k-th Segre class of the side's relation.
``RoofSide._segre`` keeps sigma(z) = int_B z*s_k for k = n - deg z, with s_k
read off the side's xi-power table as the xi^(r-1) part of xi^(r-1+k), and
``roofcalc._table_integral`` reads int_X x*y*xi^s off it.  The reference runs the
Segre recurrence s_0 = 1, s_k = sum_(i=1..min(k, r)) (-1)^(i+1) c_i * s_(k-i) on
the base's classes and integrates x*y*s_k on the base.  The cases: every
config under ``tests/data/``, the 26 query configs, hypothesis-drawn Q4-Q10
roofs and a relation with a ``Fraction`` coefficient, whose Gram matrix
``tests/test_engine_gram.py`` checks for the public path's ``IntegralityError``.
"""

import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from roofpairs.configs import config_from_dict, load_config
from roofpairs.gradedring import GradedClass, integrate, make_quadric_ring
from roofpairs.roofcalc import RoofSide, _table_integral

from test_roof_queries import CONFIGS, roof_relation, synthetic_roof

DATA = sorted((pathlib.Path(__file__).parent / "data").glob("*.json"))


def segre_classes(side):
    """s_0, ..., s_n by the recurrence s_k = sum_(i=1..min(k, r)) (-1)^(i+1) c_i * s_(k-i)."""
    base, s = side.base, [side.base.unit()]
    for k in range(1, base.dimension + 1):
        s_k = base.zero(k)
        for i, c in enumerate(side.groth_coeffs[:k], start=1):
            s_k = s_k + (c * s[k - i]).scale((-1) ** (i + 1))
        s.append(s_k)
    return s


def ref_integral(side, segre, x, y, s):
    """int_X x*y*xi^s = int_B x*y*s_k with k = s - r + 1, and 0 for k outside 0..n."""
    base, k = side.base, s - side.rank + 1
    return integrate(base.basis_class(x) * base.basis_class(y) * segre[k]) if 0 <= k <= base.dimension else 0


def sigma(side, k, z):
    """sigma_k(z) = int_B z*s_k: the side's Segre data for z of degree n - k, and 0 otherwise."""
    base = side.base
    return side._segre()[z] if base._degrees[z] == base.dimension - k else 0


def check_side(side):
    base, r, n = side.base, side.rank, side.base.dimension
    labels, segre = [b.label for b in base.basis], segre_classes(side)
    for z in labels:
        for k in range(n + 1):
            assert sigma(side, k, z) == ref_integral(side, segre, z, base.unit_label, r - 1 + k), (side.name, z, k)
    # every product x*y, of the right degree for s or not, and every s from below r - 1 to past the top
    for i, x in enumerate(labels):
        for y in labels[i:]:
            for s in range(r - 2, r + n + 1):
                assert _table_integral(side, x, y, s) == ref_integral(side, segre, x, y, s), (side.name, x, y, s)


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
