"""The query engine against its oracles, on every config of ``roofcorpus.CORPUS`` and on hypothesis-drawn roofs.

``RoofQuery`` computes each side's invariants its own way; each oracle
computes them another way and must agree:

- Gram matrix: the engine reads each entry int x*xi^e . y*xi^f . xi off the
  side's Segre classes, as int_B x*y*s_k with k = e + f + 2 - r;
  ``middle_lattice`` pairs the two monomial classes with ``pairing_on_M``.
  A lattice holds no classes: on both, the unit coordinates e_i name the
  i-th declared monomial, its normal form by ``reduce``, and that class
  reads back as e_i.  Each side is queried on a fresh copy of its config,
  before the public path runs, so the engine reads data it built itself;
- Segre data: by the projective-bundle formula, int_X z*xi^(r-1+k) =
  int_B z*s_k for a base label z.  ``RoofSide._segre`` reads s_k off the
  xi-power table, and ``roofcalc._table_integral`` reads int_X x*y*xi^s off
  it; the reference runs the recurrence s_0 = 1,
  s_k = sum_(i=1..min(k, r)) (-1)^(i+1) c_i * s_(k-i) on the base's classes;
- ``describe``: the engine reads determinant, group and locus class off the
  splitting L = S + Zj when the pullback sublattice S (the monomials x*xi^e
  with e <= r - 2) is unimodular: det L = det S * j.j, the group is Z/|j.j|
  and the locus class is +-j.  Otherwise it runs ``det`` and
  ``discriminant_group`` on the Gram matrix, and its locus class is
  G^-1 e_top made primitive.  Either way the report must equal one built from
  ``middle_lattice``, ``smith_normal_form``, ``discriminant_group``,
  ``locus_pushforward_class`` and ``pairing_on_M``, and each group generator
  must have the order of its factor;
- the splitting identity: ordered by e, S's Gram matrix is block
  anti-triangular, so det S is the signed product of its anti-diagonal
  blocks, expanded by Leibniz; j spans S^perp, so S + Zj has index k in L
  and det S * (j.j) = det G * k^2, with det G and the group by Bareiss and
  the Smith form on the whole matrix, up to the 23 x 23 one of the Q24 roof.

- ``lemma7``: the residue scan and report against ``residue_scan``,
  ``switch_side`` and the public locus functions;
- ``mukai``: the Mukai vector against ``mukai_vector``, or the same error.

Where the public path raises, the query raises the same error, its text
prefixed by the stage that failed (``check_stage_error``).  The public
orthogonal kernel is the reference for the fallback's locus class, on
``NON_UNIMODULAR`` and on the ``PARTIAL`` bases.
"""

import json
import pathlib
import random
import re
import types
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm, prod

import pytest
from hypothesis import given, settings

from roofpairs import latticecore, roofcalc
from roofpairs.cli import cmd_describe, cmd_lemma7, cmd_mukai
from roofpairs.configs import config_from_dict, load_config
from roofpairs.errors import GradedRingError, LatticeError
from roofpairs.gradedring import (
    BasisElement, GradedClass, IntegralityError, RingPresentation, integrate, make_quadric_ring,
)
from roofpairs.latticecore import _solve_rational, orthogonal_kernel
from roofpairs.roofcalc import (
    DegreeMismatchError, RoofConfig, RoofError, RoofQuery, RoofSide, UnexpectedRankError,
    _table_integral, class_from_coordinates, coordinates_in_lattice, cy_degree, locus_pushforward_class,
    middle_lattice, monomial, mukai_vector, pairing_on_M, residue_scan, switch_side,
)

from references import leibniz_det
from roofcorpus import (
    CONFIGS, CORPUS, DATA_CONFIGS, NON_UNIMODULAR, PARTIAL, SPLIT_TILDE_TOY, STAGE_CASES, SYNTHETIC,
    SYNTHETIC_ROOFS, _d4_without_pi2, _fresh, roof_relation, synthetic_roof,
)

DATA = pathlib.Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# the oracles
# ---------------------------------------------------------------------------

def check_unit_coordinates(lat) -> None:
    """e_i names the normal form of the i-th declared monomial x*xi^e, and that class has the coordinates e_i."""
    for i, (label, e) in enumerate(lat.monomials):
        unit = tuple(int(i == k) for k in range(lat.rank))
        cls = monomial(lat.side, label, e)
        assert class_from_coordinates(lat, unit) == cls, (lat.side.name, label, e)
        assert coordinates_in_lattice(lat, cls) == unit, (lat.side.name, label, e)


def check_gram(config) -> None:
    """Each side of a fresh copy of ``config``, queried first, against the public path on it."""
    for which in (0, 1):
        fresh = _fresh(config)
        side = (fresh.side, fresh.tilde_side)[which]
        engine = RoofQuery(fresh).lattice(side)
        public = middle_lattice(side)
        assert engine.gram == public.gram, side.name
        assert engine.determinant == public.determinant, side.name
        assert engine == public
        check_unit_coordinates(engine)
        check_unit_coordinates(public)


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


def check_segre(config) -> None:
    for side in (config.side, config.tilde_side):
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


def generator_order(gram, g) -> int:
    """The order of g in Z^n / gram Z^n: the least m with m * gram^-1 g integral."""
    solution, kernel = _solve_rational([list(col) for col in zip(*gram)], list(g))
    assert not kernel
    return lcm(*(x.denominator for x in solution))


def splits(side) -> bool:
    """Whether the closed form applies to ``side``'s middle lattice, built by the public definition."""
    return roofcalc._splitting(side, middle_lattice(side).gram) is not None


def ref_side_report(side) -> dict:
    """describe's report of one side, from the public functions, which rebuild each piece per call."""
    lat = middle_lattice(side)
    gram = [list(r) for r in lat.gram]
    locus = locus_pushforward_class(side)
    h, idx = side.base.hyperplane, side.base.fano_index
    return {
        "base": side.base.name,
        "rank": side.rank,
        "relation": side.relation_string(),
        "relation_coefficients": [str(c) for c in side.groth_coeffs],
        "mukai_index_condition": bool(h is not None and idx is not None and side.groth_coeffs[0] == h * idx),
        "middle_basis": [str(monomial(side, lbl, e)) for lbl, e in lat.monomials],
        "gram": gram,
        "gram_determinant": lat.determinant,
        "smith_factors": list(latticecore.smith_normal_form(gram).invariant_factors),
        "discriminant_group": str(latticecore.discriminant_group(gram)),
        "zero_locus_degree": cy_degree(side),
        "locus_class": str(locus),
        "locus_coordinates": list(coordinates_in_lattice(lat, locus)),
        "locus_self_pairing": pairing_on_M(side, locus, locus),
    }


def ref_describe(config) -> dict:
    return {"command": "describe", "name": config.name, "rank": config.rank, "base_dimension": config.n,
            "polarization_degree": config.polarization_degree,
            "sides": [ref_side_report(config.side), ref_side_report(config.tilde_side)]}


def check_describe(config) -> list:
    """describe's report against one built from the public functions, and each group generator against the order
    of its factor; returns whether each side splits."""
    assert cmd_describe(config) == ref_describe(config)
    q = RoofQuery(config)
    grams = [(side, q.lattice(side).gram) for side in (config.side, config.tilde_side)]
    for side, gram in grams:
        group = q.group(side)
        assert [generator_order(gram, g) for g in group.generators] == list(group.factors), side.name
    return [roofcalc._splitting(side, gram) is not None for side, gram in grams]


def ref_lemma7(config, scan) -> dict:
    """lemma7's report from the public functions, on the public ``scan`` of ``config``."""
    lat_t = middle_lattice(config.tilde_side)
    assert scan.jt_coords == roofcalc.locus_coordinates(config.tilde_side)
    switched = switch_side(config, locus_pushforward_class(config.side))
    assert switched == class_from_coordinates(lat_t, scan.j_coords)

    def entry(k, coords):
        return {"k": k, "coordinates": list(coords), "class": str(class_from_coordinates(lat_t, coords))}

    declared = scan.declared_witness
    return {
        "command": "lemma7",
        "name": config.name,
        "polarization_degree": scan.degree,
        "switched_locus": {"coordinates": list(scan.j_coords), "class": str(switched)},
        "tilde_locus": {"coordinates": list(scan.jt_coords),
                        "class": str(locus_pushforward_class(config.tilde_side))},
        "residue_set": list(scan.residue_set),
        "sign_orbit": list(scan.sign_orbit),
        "iso_obstructed": scan.iso_obstructed,
        "witnesses": [entry(k, w) for k, w in scan.witnesses],
        "declared_form": {
            "locus_signs": list(config.declared_locus_signs),
            "residue_set": list(scan.declared_residue_set),
            "witness": None if declared is None else entry(*declared),
        },
    }


def check_lemma7(config) -> None:
    """The query's residue scan and lemma7's report against ``residue_scan`` and the public functions."""
    scan = residue_scan(config)
    assert RoofQuery(config).residue_scan() == scan
    assert cmd_lemma7(config) == ref_lemma7(config, scan)


def check_stage_error(stage, engine, public) -> None:
    """``public()`` raises, and ``engine()`` raises the same type, its text prefixed by ``stage`` (any stage for
    None)."""
    with pytest.raises((RoofError, GradedRingError, LatticeError)) as expected:
        public()
    with pytest.raises(type(expected.value)) as got:
        engine()
    assert type(got.value) is type(expected.value)
    label = "[a-z ]+" if stage is None else re.escape(stage)
    assert re.fullmatch(f"stage '{label}' failed: {re.escape(str(expected.value))}", str(got.value)), got.value


def check_mukai(config) -> None:
    """The query's Mukai vector against ``mukai_vector``, or the error of the public path."""
    try:
        expected = mukai_vector(config, 50)
    except (RoofError, GradedRingError, LatticeError):
        check_stage_error(None, lambda: RoofQuery(config).mukai(50), lambda: mukai_vector(config, 50))
    else:
        assert RoofQuery(config).mukai(50)[-1] == expected


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
    return sign * prod(leibniz_det([[gram[i][j] for j in blocks[k - e]] for i in blocks[e]]) for e in range(k + 1))


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


# ---------------------------------------------------------------------------
# each oracle over the corpus, and all of them on drawn roofs
# ---------------------------------------------------------------------------

on_corpus = pytest.mark.parametrize("config", CORPUS, ids=lambda c: c.name)


@on_corpus
def test_gram_oracle(config):
    check_gram(config)


@on_corpus
def test_segre_oracle(config):
    check_segre(config)


@on_corpus
def test_describe_oracle(config):
    # every side splits but those of NON_UNIMODULAR, which fall back
    assert check_describe(config) == [config is not NON_UNIMODULAR] * 2


@on_corpus
def test_splitting_oracle(config):
    check_splitting(config)


@on_corpus
def test_mukai_oracle(config):
    check_mukai(config)


# the public lemma7 report of the 23 x 23 Q24 roof takes seconds; the other oracles cover that file
BELOW_CAP = [c for c in CORPUS if c is not DATA_CONFIGS["q24_at_cap"]]


@pytest.mark.parametrize("config", BELOW_CAP, ids=lambda c: c.name)
def test_lemma7_oracle(config):
    check_lemma7(config)


def test_every_committed_file_reaches_every_oracle():
    # the corpus opens with the configs of the files under tests/data/, read here again, and each oracle runs on it
    names = [json.loads(path.read_text())["name"] for path in sorted(DATA.glob("*.json"))]
    assert names and [c.name for c in CORPUS[:len(names)]] == names
    for test in (test_gram_oracle, test_segre_oracle, test_describe_oracle, test_splitting_oracle, test_mukai_oracle):
        assert [m.args for m in test.pytestmark] == [("config", CORPUS)], test.__name__
    assert [m.args for m in test_lemma7_oracle.pytestmark] == [("config", BELOW_CAP)]
    assert [c.name for c in CORPUS if c not in BELOW_CAP] == ["q24-at-cap"]


def test_synthetic_roofs_cover_every_base():
    assert sorted({d["base_dim"][0] for d in SYNTHETIC}) == list(range(4, 11))
    assert len({json.dumps(d["sides"][0]["groth"]) for d in SYNTHETIC}) == len(SYNTHETIC) == 21


def test_q16_snapshot_roof_is_built_from_its_seed():
    # the describe/lemma7 snapshots of data/q16_roof.json cover reductions through r = 14 powers
    a = roof_relation(random.Random(17), 14, 2)
    assert json.loads((DATA / "q16_roof.json").read_text()) == synthetic_roof(16, a, "q16-seed-17")


@settings(max_examples=20, deadline=None)
@given(data=SYNTHETIC_ROOFS)
def test_oracles_on_a_synthetic_roof(data):
    config = config_from_dict(data)
    check_gram(config)
    check_segre(config)
    assert all(check_describe(config))
    check_splitting(config)
    check_lemma7(config)
    check_mukai(config)


# ---------------------------------------------------------------------------
# a config failing in a stage: the query raises the public path's error, named by that stage
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stage, config, public", STAGE_CASES, ids=[c[0] for c in STAGE_CASES])
def test_lemma7_failure_keeps_stage_label(stage, config, public):
    check_stage_error(stage, lambda: cmd_lemma7(config), lambda: public(config))


@pytest.mark.parametrize("stage, config, public", STAGE_CASES, ids=[c[0] for c in STAGE_CASES])
def test_describe_failure_matches_public_functions(stage, config, public):
    # describe fails where its public report does, in the same stage; the configs that fail only from the
    # side switch on give both reports
    try:
        expected = ref_describe(config)
    except RoofError:
        check_stage_error(stage, lambda: cmd_describe(config), lambda: ref_describe(config))
    else:
        assert cmd_describe(config) == expected


def test_fraction_relation():
    # c_1 = L/2 on Q4: the entry of Pi1 and L*xi is int Pi1 * L * c_1 = 1/2, the first in row order, so the
    # engine's Gram matrix raises the public path's IntegralityError; the Segre data is rational and equal to
    # the recurrence
    ring = make_quadric_ring(4)
    coeffs = (GradedClass(ring, 1, {"L": Fraction(1, 2)}), GradedClass(ring, 2, {"Pi1": 1, "Pi2": 1}))
    basis = (("Pi1", 0), ("Pi2", 0), ("L", 1))
    side = RoofSide("half", ring, 2, coeffs, basis)
    config = RoofConfig("half", side, RoofSide("half~", ring, 2, coeffs, basis), 2)
    with pytest.raises(IntegralityError, match="^non-integral intersection number 1/2$"):
        middle_lattice(side)
    check_stage_error("middle lattice", lambda: RoofQuery(config).lattice(side), lambda: middle_lattice(side))
    check_segre(_fresh(config))
    assert sigma(side, 1, "Pi1*L") == Fraction(1, 2)


def test_a_zero_hyperplane_gives_one_locus_error_on_both_paths(g2):
    # over a Q5 ring whose hyperplane class is zero, xi^(r-1) * L is the zero class of codimension r,
    # so both the public path, which pairs it, and the engine, which reads it off the Segre classes,
    # find that the locus class pairs to zero with it; reduce once gave that zero class degree 0,
    # and the public path reported "codimensions 3 + 0 + 1 != dim X = 7"
    q5 = g2.side.base
    table = {(x, y): p for (x, y), p in q5._products.items() if q5.unit_label not in (x, y)}
    flat = RingPresentation("Q5-flat", 5, q5.basis, q5.point_label, table, hyperplane_form={})
    sides = [RoofSide(s.name, flat, s.rank, tuple(GradedClass(flat, c.degree, c.coeffs) for c in s.groth_coeffs),
                      s.middle_basis) for s in (g2.side, g2.tilde_side)]
    config = RoofConfig("flat", *sides, cy_degree(sides[0]))
    with pytest.raises(UnexpectedRankError, match="^locus class pairs to zero with the normalization monomial$"):
        locus_pushforward_class(config.side)
    check_stage_error("locus class", lambda: RoofQuery(config).locus(config.side),
                      lambda: locus_pushforward_class(config.side))


# ---------------------------------------------------------------------------
# the splitting and its fallback
# ---------------------------------------------------------------------------

def test_non_unimodular_pullback_falls_back():
    # the locus class is read off G^-1 e_top; test_roof_queries.py's table pins what describe builds here
    report = cmd_describe(NON_UNIMODULAR)["sides"][0]
    assert (report["gram"], report["gram_determinant"], report["discriminant_group"]) == (
        [[2, 2], [2, 0]], -4, "Z/2 x Z/2")
    assert report["locus_self_pairing"] == -2


def _unimodular(rng, size, symmetric):
    """A random integer matrix of determinant +-1, symmetric when asked."""
    d = [[rng.choice((1, -1)) if i == j else 0 for j in range(size)] for i in range(size)]
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(3 * (size - 1)):
        i, j = rng.sample(range(size), 2)
        sign = rng.choice((1, -1))
        u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
    if not symmetric:
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*u)] for row in d]
    return [[sum(u[k][i] * d[k][k] * u[k][j] for k in range(size)) for j in range(size)] for i in range(size)]


def synthetic_splitting_input(rng, rank):
    """A side stand-in and a Gram matrix of the shape ``_splitting`` reads: block anti-triangular S with
    unimodular anti-diagonal blocks of size 1 or 2 (signs of either kind), one top monomial, other entries random."""
    k = rank - 2
    sizes = [0] * (k + 1)
    for e in range(k // 2 + 1):
        sizes[e] = sizes[k - e] = rng.choice((1, 1, 2))
    exps = [e for e in range(k + 1) for _ in range(sizes[e])] + [k + 1]
    blocks = [[i for i, x in enumerate(exps) if x == e] for e in range(k + 2)]
    n = len(exps)
    gram = [[0] * n for _ in range(n)]
    for e in range(k // 2 + 1):
        b = _unimodular(rng, sizes[e], symmetric=e == k - e)
        for (x, i), (y, j) in ((p, q) for p in enumerate(blocks[e]) for q in enumerate(blocks[k - e])):
            gram[i][j] = gram[j][i] = b[x][y]
    for i in range(n):
        for j in range(i, n):
            if exps[i] + exps[j] > k:
                gram[i][j] = gram[j][i] = rng.randint(-3, 3)
    side = types.SimpleNamespace(rank=rank, middle_basis=[(f"x{i}", e) for i, e in enumerate(exps)])
    return side, gram, blocks[-1][0]


@pytest.mark.parametrize("seed", range(40))
def test_splitting_of_a_synthetic_gram_matrix(seed):
    # det L against Bareiss on the whole matrix, and j = e_top - c with c in S against orthogonality to S;
    # the 1 x 1 blocks here are -1 as often as +1, which no roof config of the suite produces
    rng = random.Random(seed)
    side, gram, top = synthetic_splitting_input(rng, rng.randint(2, 6))
    det_l, j = roofcalc._splitting(side, gram)
    assert det_l == latticecore.det(gram)
    assert j[top] == 1 and all(type(x) is int for x in j)
    assert all(sum(g * x for g, x in zip(gram[i], j)) == 0 for i in range(len(gram)) if i != top)


def test_degree_mismatch_keeps_its_error():
    # on Q6 at rank 2 the pullback sublattice is unimodular, but xi * L has codimension 2, not 6 - 3 - 1
    side = {"groth": [[["L", 1]], [["L^2", 1]]], "middle_basis": [["Pi1", 0], ["Pi2", 0], ["L^2", 1]]}
    config = config_from_dict({"name": "q6-rank-2", "rank": 2, "base_dim": [6, 6], "polarization_degree": 2,
                               "sides": [side, json.loads(json.dumps(side))]})
    assert splits(config.side)
    with pytest.raises(DegreeMismatchError, match=r"^codimensions 3 \+ 2 \+ 1 != dim X = 7$"):
        locus_pushforward_class(config.side)
    for command in (cmd_describe, cmd_lemma7):
        check_stage_error("locus class", lambda: command(config), lambda: locus_pushforward_class(config.side))


def test_at_cap_roof_decomposes_no_full_gram_matrix(monkeypatch):
    # Bareiss and the Smith form on the 23 x 23 Gram matrix took 0.8 s of describe's 0.86 s
    config = load_config(DATA / "q24_at_cap.json")
    n = len(config.side.middle_basis)
    assert n == 23
    rows = []
    for name in ("det", "smith_normal_form"):
        original = getattr(latticecore, name)
        monkeypatch.setattr(latticecore, name, lambda m, original=original: rows.append(len(m)) or original(m))
    cmd_describe(config)
    cmd_lemma7(config)
    assert rows and max(rows) < n


def test_a_split_side_can_break_the_sign_law():
    # S = <Pi1> on the tilde side is unimodular, so that side splits, and its locus class is refused
    assert splits(config_from_dict(SPLIT_TILDE_TOY).tilde_side)


def test_partial_bases_reach_every_branch():
    kinds = {(sum(e == c.rank - 1 for _, e in c.side.middle_basis), splits(c.side)) for c in PARTIAL}
    assert kinds == {(0, False), (1, False), (1, True)}


@pytest.mark.parametrize("config", [NON_UNIMODULAR, *PARTIAL, *CONFIGS], ids=lambda c: c.name)
def test_fallback_locus_class_is_the_orthogonal_kernel(config):
    # with one top monomial, G^-1 e_top made primitive is the generator of S^perp up to sign, on a full basis
    # too; the query and the public function give one locus class, or both refuse it with one text (on this
    # seed, every partial basis with a top monomial breaks the sign law)
    q = RoofQuery(config)
    lat = q.lattice(config.side)
    pullback = [[int(i == k) for k in range(lat.rank)] for i, (_, e) in enumerate(lat.monomials)
                if e <= config.rank - 2]
    kernel = orthogonal_kernel(lat.gram, pullback)
    if len(kernel) == 1:
        assert roofcalc._top_dual(lat) in (kernel[0], tuple(-x for x in kernel[0]))
    try:
        expected = locus_pushforward_class(config.side)
    except UnexpectedRankError:
        check_stage_error("locus class", lambda: q.locus(config.side), lambda: locus_pushforward_class(config.side))
    else:
        assert len(kernel) == 1 and q.locus(config.side) == coordinates_in_lattice(lat, expected)


@pytest.mark.parametrize("config", [config_from_dict(_d4_without_pi2()), PARTIAL[1]], ids=lambda c: c.name)
def test_describe_is_refused_at_the_locus_class(config):
    # a fallback config with a top monomial whose locus class breaks the sign law: describe names the locus
    # class stage, which it builds before the group (test_roof_queries.py's table pins that it takes no Smith form)
    assert not splits(config.side)
    with pytest.raises(UnexpectedRankError) as expected:
        locus_pushforward_class(config.side)
    with pytest.raises(UnexpectedRankError, match=f"^stage 'locus class' failed: {re.escape(str(expected.value))}$"):
        cmd_describe(config)


def two_top_monomials() -> RoofConfig:
    """A rank-1 roof over P1 x P2 (h^2 = 0, k^3 = 0, h*k^2 = pt) with middle basis h and k, both of xi exponent
    r - 1 = 0: S is empty, and its complement, the whole lattice, has rank 2.  The Gram matrix is [[0, 1], [1, 1]]
    for c_1 = h + k."""
    labels = (("1", 0), ("h", 1), ("k", 1), ("hk", 2), ("k2", 2), ("pt", 3))
    ring = RingPresentation("P1xP2", 3, tuple(BasisElement(*b) for b in labels), "pt",
                            {("h", "h"): {}, ("h", "k"): {"hk": 1}, ("k", "k"): {"k2": 1}, ("h", "hk"): {},
                             ("h", "k2"): {"pt": 1}, ("k", "hk"): {"pt": 1}, ("k", "k2"): {}},
                            hyperplane_form={"h": 1, "k": 1})
    sides = [RoofSide(name, ring, 1, (ring.l_power(1),), (("h", 0), ("k", 0))) for name in ("side", "side~")]
    return RoofConfig("two-top-monomials", *sides, 3)


NO_TOP = [c for c in PARTIAL if all(e != c.rank - 1 for _, e in c.side.middle_basis)]


@pytest.mark.parametrize("config, rank", [(two_top_monomials(), 2), (STAGE_CASES[2][1], 0), *((c, 0) for c in NO_TOP)],
                         ids=lambda c: getattr(c, "name", c))
def test_rank_error_without_one_top_monomial(config, rank):
    # the toy of STAGE_CASES[2] and the partial bases in NO_TOP have no top monomial
    with pytest.raises(UnexpectedRankError, match=f"^orthogonal complement of the pullback sublattice has rank {rank}, "
                                                  "expected 1$"):
        locus_pushforward_class(config.side)
    check_stage_error("locus class", lambda: RoofQuery(config).locus(config.side),
                      lambda: locus_pushforward_class(config.side))


def test_query_never_takes_the_public_locus_path(count_calls):
    # describe, lemma7 and mukai, run to their end or to their error, on every input of these tests
    counts = count_calls("roofcalc._locus_class", "latticecore.orthogonal_kernel", "roofcalc.pairing_on_M")
    configs = [*CORPUS, two_top_monomials(), *(c for _, c, _ in STAGE_CASES), *PARTIAL]
    for config in configs:
        for command in (cmd_describe, cmd_lemma7, lambda c: cmd_mukai(c, 50)):
            try:
                command(config)
            except (RoofError, GradedRingError, LatticeError):
                pass
    assert counts == dict.fromkeys(counts, 0)
