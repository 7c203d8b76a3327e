"""The query engine's determinant, discriminant group and locus class against the public functions.

``RoofQuery`` reads them off the splitting L = S + Zj of a side's middle
lattice when the pullback sublattice S (the monomials x*xi^e with
e <= r - 2) is unimodular: det L = det S * j.j, the discriminant group is
Z/|j.j| and the locus class is +-j.  Otherwise it runs ``det``,
``discriminant_group`` and the orthogonal kernel on the Gram matrix.  Either
way ``describe`` must report what ``middle_lattice``, ``discriminant_group``,
``locus_pushforward_class`` and ``pairing_on_M`` give, and each group
generator must have exactly the order of its factor.  The cases: every config
under ``tests/data/``, the 26 query configs, hypothesis-drawn Q4-Q10 roofs,
and a base whose pairing on the middle degree has determinant 2, where the
closed form does not apply.
"""

import json
import pathlib
import random
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from roofpairs import latticecore
from roofpairs.cli import _side_report, cmd_describe, cmd_lemma7
from roofpairs.configs import config_from_dict, load_config
from roofpairs.latticecore import _solve_rational, discriminant_group
from roofpairs.roofcalc import (
    DegreeMismatchError,
    RoofQuery,
    coordinates_in_lattice,
    locus_pushforward_class,
    middle_lattice,
    pairing_on_M,
)

from test_roof_queries import CONFIGS, NON_UNIMODULAR, roof_relation, synthetic_roof

DATA = sorted((pathlib.Path(__file__).parent / "data").glob("*.json"))


def generator_order(gram, g) -> int:
    """The order of g in Z^n / gram Z^n: the least m with m * gram^-1 g integral."""
    solution, kernel = _solve_rational([list(col) for col in zip(*gram)], list(g))
    assert not kernel
    return lcm(*(x.denominator for x in solution))


def check_config(config) -> list:
    """Each side's describe report and group against the public functions; returns the splittings."""
    q = RoofQuery(config)
    splits = []
    for side in (config.side, config.tilde_side):
        report, group = _side_report(q, side), q.group(side)
        lat = middle_lattice(side)
        locus = locus_pushforward_class(side)
        expected = discriminant_group(lat.gram)
        assert report["gram_determinant"] == lat.determinant, side.name
        assert group.factors == expected.factors, side.name
        assert report["discriminant_group"] == str(expected)
        assert [generator_order(lat.gram, g) for g in group.generators] == list(group.factors), side.name
        assert q.locus(side) == locus and report["locus_class"] == str(locus), side.name
        assert report["locus_coordinates"] == list(coordinates_in_lattice(lat, locus)), side.name
        assert report["locus_self_pairing"] == pairing_on_M(side, locus, locus), side.name
        splits.append(q._split_lattice(side)[1])
    return splits


@pytest.mark.parametrize("path", DATA, ids=lambda p: p.stem)
def test_committed_config(path):
    assert None not in check_config(load_config(path))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_query_config(config):
    assert None not in check_config(config)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 10), seed=st.integers(0, 2**32 - 1), amp=st.integers(1, 4))
def test_synthetic_roof(n, seed, amp):
    assert None not in check_config(
        config_from_dict(synthetic_roof(n, roof_relation(random.Random(seed), n - 2, amp), "hyp")))


def test_non_unimodular_pullback_falls_back(count_calls):
    assert check_config(NON_UNIMODULAR) == [None, None]
    counts = count_calls("latticecore.discriminant_group", "latticecore.orthogonal_kernel")
    report = cmd_describe(NON_UNIMODULAR)["sides"][0]
    assert counts == {"latticecore.discriminant_group": 1, "latticecore.orthogonal_kernel": 1}  # the twins share
    assert (report["gram"], report["gram_determinant"], report["discriminant_group"]) == (
        [[2, 2], [2, 0]], -4, "Z/2 x Z/2")
    assert report["locus_self_pairing"] == -2


def test_degree_mismatch_keeps_its_error():
    # on Q6 at rank 2 the pullback sublattice is unimodular, but xi * L has codimension 2, not 6 - 3 - 1
    side = {"groth": [[["L", 1]], [["L^2", 1]]], "middle_basis": [["Pi1", 0], ["Pi2", 0], ["L^2", 1]]}
    config = config_from_dict({"name": "q6-rank-2", "rank": 2, "base_dim": [6, 6], "polarization_degree": 2,
                               "sides": [side, json.loads(json.dumps(side))]})
    assert RoofQuery(config)._split_lattice(config.side)[1] is not None
    with pytest.raises(DegreeMismatchError) as expected:
        locus_pushforward_class(config.side)
    assert str(expected.value) == "codimensions 3 + 2 + 1 != dim X = 7"
    for command in (cmd_describe, cmd_lemma7):
        with pytest.raises(DegreeMismatchError) as got:
            command(config)
        assert str(got.value) == f"stage 'locus class' failed: {expected.value}"


def test_at_cap_roof_decomposes_no_full_gram_matrix(monkeypatch):
    # Bareiss and the Smith form on the 23 x 23 Gram matrix took 0.8 s of describe's 0.86 s
    config = load_config(pathlib.Path(__file__).parent / "data" / "q24_at_cap.json")
    n = len(config.side.middle_basis)
    assert n == 23
    rows = []
    for name in ("det", "smith_normal_form"):
        original = getattr(latticecore, name)
        monkeypatch.setattr(latticecore, name, lambda m, original=original: rows.append(len(m)) or original(m))
    cmd_describe(config)
    cmd_lemma7(config)
    assert rows and max(rows) < n
