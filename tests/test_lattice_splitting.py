"""The middle lattice against its splitting L = S + Zj, an oracle for ``det`` and the Smith form at full size.

Order the middle basis x*xi^e by e.  The pairing of x*xi^e with y*xi^f
vanishes for e + f < r - 2, so the Gram matrix of the pullback sublattice S
(the monomials with e <= r - 2) is block anti-triangular, and det S is the
product of the determinants of the anti-diagonal blocks B_e (the e-block
against the (r - 2 - e)-block), signed by the permutation that reverses the
blocks.  The locus class j spans the orthogonal complement of S, so S + Zj
has index k in L and det S * (j.j) = det G * k^2.  When det S = +-1, S is
unimodular and splits off: k = 1 and the discriminant group of L is Z/|j.j|.

Here det S comes from blocks of at most a few rows, expanded by Leibniz,
while det G and the discriminant group come from Bareiss elimination and the
Smith form on the whole Gram matrix, up to the 23 x 23 one of the Q24 roof.
"""

import pathlib
import random
from itertools import combinations, permutations
from math import isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from roofpairs import latticecore
from roofpairs.configs import config_from_dict, load_config
from roofpairs.roofcalc import RoofQuery, class_from_coordinates, pairing_on_M

from test_roof_queries import CONFIGS, roof_relation, synthetic_roof

DATA = sorted((pathlib.Path(__file__).parent / "data").glob("*.json"))


def _leibniz(m) -> int:
    n = len(m)
    return sum((-1) ** sum(p[i] > p[j] for i, j in combinations(range(n), 2)) * prod(m[i][p[i]] for i in range(n))
               for p in permutations(range(n)))


def det_pullback(lat) -> int:
    """det S from the anti-diagonal blocks of S's Gram matrix, after checking that it is block anti-triangular."""
    k = lat.side.rank - 2
    blocks = [[i for i, (_, e) in enumerate(lat.monomials) if e == f] for f in range(k + 1)]
    gram = lat.gram
    for e in range(k):
        for f in range(k - e):  # e + f < r - 2
            assert not any(gram[i][j] for i in blocks[e] for j in blocks[f]), (e, f)
    sizes = [len(b) for b in blocks]
    assert sizes == sizes[::-1], sizes  # every anti-diagonal block is square
    sign = (-1) ** sum(a * b for a, b in combinations(sizes, 2))  # reversing blocks of these sizes
    return sign * prod(_leibniz([[gram[i][j] for j in blocks[k - e]] for i in blocks[e]]) for e in range(k + 1))


def check_splitting(config) -> None:
    # the engine reads its determinant and group off this splitting, so they are recomputed here on the whole matrix
    q = RoofQuery(config)
    for side in (config.side, config.tilde_side):
        lat = q.lattice(side)
        j = class_from_coordinates(lat, q.locus(side))
        det_s, jj, det_g = det_pullback(lat), pairing_on_M(side, j, j), latticecore.det(lat.gram)
        assert det_s != 0 and det_s * jj % det_g == 0, (side.name, det_s, jj, det_g)
        square = det_s * jj // det_g  # the squared index of S + Zj in L
        assert square > 0 and isqrt(square) ** 2 == square, (side.name, square)
        if abs(det_s) == 1:
            assert square == 1
            assert latticecore.discriminant_group(lat.gram).factors == ((abs(jj),) if abs(jj) > 1 else ()), side.name


@pytest.mark.parametrize("path", DATA, ids=lambda p: p.stem)
def test_committed_config_splits(path):
    check_splitting(load_config(path))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_query_config_splits(config):
    check_splitting(config)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(4, 8), seed=st.integers(0, 2**32 - 1), amp=st.integers(1, 4))
def test_synthetic_roof_splits(n, seed, amp):
    check_splitting(config_from_dict(synthetic_roof(n, roof_relation(random.Random(seed), n - 2, amp), "hyp")))
