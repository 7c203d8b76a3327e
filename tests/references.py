"""Reference formulas and fixed data that more than one test module reads.

A plain module, not collected by pytest, like ``golden_grams.py`` and
``roofcorpus.py``: the test modules import these from here, and never from
one another.
"""

import itertools
import math

from roofpairs.gradedring import BasisElement, ChernVector


def leibniz_det(m) -> int:
    """Sum over permutations p of sign(p) * m[0][p0] * ... * m[n-1][p(n-1)]."""
    n = len(m)
    total = 0
    for p in itertools.permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][p[i]] for i in range(n))
    return total


def ottaviani_chern(q5) -> ChernVector:
    """The Chern classes (2L, 2L^2, 2Pi) of Ottaviani's rank-3 bundle, on the quadric ring ``q5``."""
    return ChernVector(3, (q5.l_power(1) * 2, q5.l_power(2) * 2, q5.basis_class("Pi") * 2))


# The basis, point and table of a dimension-3 ring that fails associativity only in the third arrangement of a
# sorted triple: a*c = b*b = -2q and b*q = -2p, so (ab)c = (bc)a = 0, but (ac)b = -2q*b = 4p.
_TABLE = {pair: {} for pair in itertools.combinations_with_replacement("abc", 2)}
_TABLE.update({(x, "q"): {} for x in "abc"})
_TABLE.update({("a", "c"): {"q": -2}, ("b", "b"): {"q": -2}, ("b", "q"): {"p": -2}})
THIRD_ARRANGEMENT = (
    [BasisElement(label, d) for label, d in (("1", 0), ("a", 1), ("b", 1), ("c", 1), ("q", 2), ("p", 3))], "p", _TABLE)


# Three-dimensional grams with no isotropic pair orthogonal to ell = (0, 0, 1) in any box
PLANES_WITHOUT_A_PAIR = (
    [[0, 0, 0], [0, 0, 0], [0, 0, 1]],  # the form vanishes on ell^perp
    [[1, 0, 0], [0, 0, 0], [0, 0, 1]],  # ell^perp has a radical line only
    [[1, 0, 0], [0, -2, 0], [0, 0, 1]],  # discriminant 8 is not a square
    [[0, 2, 0], [2, 0, 0], [0, 0, 1]],  # U(2): the isotropic rays pair to 2
)
