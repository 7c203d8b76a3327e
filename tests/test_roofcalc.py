import copy
import re
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from roofpairs import latticecore, roofcalc
from roofpairs.configs import BUILTIN_CONFIGS, builtin_config, config_from_dict, load_config
from roofpairs.errors import GradedRingError, RoofError
from roofpairs.gradedring import (
    ChernVector,
    GradedClass,
    IncompatibleRingError,
    IntegralityError,
    RingPresentation,
    integrate,
    make_quadric_ring,
)
from roofpairs.roofcalc import (
    BundleClass,
    DegenerateBasisError,
    DegreeMismatchError,
    InvalidRoofError,
    RoofConfig,
    RoofSide,
    UnexpectedRankError,
    class_from_coordinates,
    coordinates_in_lattice,
    cy_degree,
    locus_coordinates,
    locus_pushforward_class,
    middle_lattice,
    monomial,
    pairing_on_M,
    polarized_sign_check,
    reduce,
    residue_scan,
    switch_side,
    xi_power,
)
from golden_grams import D4_GRAM, G2_GRAM
from roofcorpus import DATA_CONFIGS, SYNTHETIC, _reordered_tilde


class TestSideConstruction:
    def test_chern_side_reproduces_relation(self, g2):
        side = g2.side
        q5 = side.base
        assert side.groth_coeffs[0] == q5.l_power(1) * 5
        assert side.groth_coeffs[1] == q5.l_power(2) * 9
        assert side.groth_coeffs[2] == q5.basis_class("Pi") * 12
        assert side.relation_string() == "xi^3 - 5*L*xi^2 + 9*L^2*xi - 12*Pi = 0"

    def test_direct_coefficients_side(self, d4):
        assert d4.side.relation_string() == \
            "xi^4 - 6*L*xi^3 + 14*L^2*xi^2 - (14*Pi1 + 16*Pi2)*xi + 12*Pi1*L = 0"

    def test_rank_one_projectivization(self):
        q5 = make_quadric_ring(5)
        side = RoofSide("side", q5, 1, (q5.l_power(1),))
        assert reduce(side, {1: q5.unit()}) == reduce(side, {0: q5.l_power(1)})

    def test_rank_exceeding_base_rejected(self):
        q5 = make_quadric_ring(5)
        side = RoofSide("wide", q5, 6, tuple(q5.l_power(i) for i in range(1, 7)))
        with pytest.raises(InvalidRoofError, match="side 'wide': bundle rank exceeds what the base dimension"):
            cy_degree(side)

    def test_middle_basis_pairs_become_tuples(self, g2):
        side = g2.side
        listed = RoofSide(side.name, side.base, side.rank, list(side.groth_coeffs),
                          [list(m) for m in side.middle_basis])
        assert listed.middle_basis == (("Pi", 0), ("L^2", 1), ("L", 2))
        assert listed == side and hash(listed) == hash(side)


class TestReduceAndPushforward:
    def test_xi_cubed(self, g2):
        side = g2.side
        q5 = side.base
        cubed = xi_power(side, 3)
        assert cubed.parts[2] == q5.l_power(1) * 5
        assert cubed.parts[1] == q5.l_power(2) * -9
        assert cubed.parts[0] == q5.basis_class("Pi") * 12

    def test_identity_on_low_exponents(self, g2):
        beta = g2.side.base.basis_class("Pi")
        for e in range(g2.side.rank):
            parts = reduce(g2.side, {e: beta}).parts
            assert parts[e] == beta
            assert all(p.is_zero for i, p in enumerate(parts) if i != e)

    def test_deep_reduction_integral(self, g2):
        cls = reduce(g2.side, {5: g2.side.base.l_power(2)})
        assert integrate(cls.parts[-1]) == 82

    def test_fiber_normalization(self, g2):
        assert xi_power(g2.side, 2).parts[-1] == g2.side.base.unit()

    def test_pullbacks_push_to_zero(self, g2):
        beta = reduce(g2.side, {0: g2.side.base.l_power(1)})
        assert beta.parts[-1].is_zero

    def test_xi_cubed_pushforward(self, g2):
        assert xi_power(g2.side, 3).parts[-1] == g2.side.base.l_power(1) * 5

    @pytest.mark.parametrize("e", [1.5, 4.0, "2", None], ids=repr)
    def test_exponent_of_a_class_must_be_an_integer(self, g2, e):
        # 1.5 recursed without end through the normal-form table, and 4.0 was answered as 4
        with pytest.raises(RoofError, match=f"xi exponents must be integers, got {re.escape(repr(e))}"):
            reduce(g2.side, {e: g2.side.base.unit()})

    def test_xi_power_exponent_must_be_an_integer(self, g2):
        with pytest.raises(RoofError, match=r"got 1\.5"):
            xi_power(g2.side, 1.5)
        with pytest.raises(RoofError, match="got True"):
            xi_power(g2.side, True)

    def test_inhomogeneous_rejected(self, g2):
        q5 = g2.side.base
        with pytest.raises(roofcalc.RoofError):
            reduce(g2.side, {0: q5.l_power(1), 1: q5.l_power(1)})

    def test_a_zero_term_keeps_its_degree(self, g2):
        q5, r = g2.side.base, g2.rank
        for e in (0, r - 1, r, 2 * r):
            assert reduce(g2.side, {e: q5.zero(1)}) == BundleClass(g2.side, e + 1, [q5.zero(e + 1 - i)
                                                                                   for i in range(r)])
        with pytest.raises(roofcalc.RoofError, match="not homogeneous of degree 2"):
            reduce(g2.side, {0: q5.l_power(2), 1: q5.zero(2)})


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
    with pytest.raises(UnexpectedRankError) as expected:
        locus_pushforward_class(config.side)
    with pytest.raises(UnexpectedRankError) as got:
        roofcalc.RoofQuery(config).locus(config.side)
    assert str(expected.value) == "locus class pairs to zero with the normalization monomial"
    assert str(got.value) == f"stage 'locus class' failed: {expected.value}"


class TestPairing:
    def test_table_entries(self, g2, d4):
        s = g2.side
        assert pairing_on_M(s, monomial(s, "Pi", 0), monomial(s, "L^2", 1)) == 1
        assert pairing_on_M(s, monomial(s, "L", 2), monomial(s, "L", 2)) == 82
        t = d4.side
        assert pairing_on_M(t, monomial(t, "L^2", 2), monomial(t, "L^2", 2)) == 44

    def test_symmetry_on_all_pairs(self, g2, d4):
        for cfg in (g2, d4):
            classes = [monomial(cfg.side, *m) for m in cfg.side.middle_basis]
            for a, b in product(classes, repeat=2):
                assert pairing_on_M(cfg.side, a, b) == pairing_on_M(cfg.side, b, a)

    def test_degree_mismatch(self, g2):
        s = g2.side
        with pytest.raises(DegreeMismatchError):
            pairing_on_M(s, monomial(s, "Pi", 0), monomial(s, "L", 1))


class TestMiddleLattice:
    def test_gram_3x3(self, g2):
        assert middle_lattice(g2.side).gram == G2_GRAM

    def test_gram_5x5(self, d4):
        assert middle_lattice(d4.side).gram == D4_GRAM

    def test_determinants(self, g2, d4):
        assert middle_lattice(g2.side).determinant == -12
        assert abs(middle_lattice(d4.side).determinant) == 12

    def test_degenerate_basis_rejected(self, g2):
        bad = RoofSide("bad", g2.side.base, 3, g2.side.groth_coeffs,
                       (("Pi", 0), ("Pi", 0), ("L", 2)))
        with pytest.raises(DegenerateBasisError):
            middle_lattice(bad)


class TestLocusClass:
    def test_gram_3x3_class(self, g2):
        cls = locus_pushforward_class(g2.side)
        assert str(cls) == "L*xi^2 - 5*L^2*xi + 18*Pi"
        assert locus_coordinates(g2.side) == (18, -5, 1)

    def test_gram_5x5_class_sign_normalized(self, d4):
        # declared representative is the negative of the positivity-normalized one
        assert locus_coordinates(d4.side) == (30, -14, -14, 6, -1)
        assert d4.declared_locus_signs == (-1, -1)

    def test_orthogonality_rows(self, g2, d4):
        for cfg in (g2, d4):
            lat = middle_lattice(cfg.side)
            v = locus_coordinates(cfg.side)
            for i, (_, e) in enumerate(lat.monomials):
                if e <= cfg.rank - 2:
                    assert sum(lat.gram[i][j] * v[j] for j in range(len(v))) == 0

    def test_normalization_pairing_is_degree(self, g2, d4):
        for cfg in (g2, d4):
            cls = locus_pushforward_class(cfg.side)
            norm = reduce(cfg.side, {cfg.rank - 1: cfg.side.base.hyperplane})
            assert pairing_on_M(cfg.side, cls, norm) == 12

    def test_sign_flip_on_reversed_basis(self):
        # reversing the d4 middle basis makes the raw kernel vector (1, -6, 14, 14, -30)
        # pair to -12, so the class must be flipped to the golden vector reversed
        data = copy.deepcopy(BUILTIN_CONFIGS["d4"])
        data["sides"][0]["middle_basis"].reverse()
        side = config_from_dict(data).side
        assert locus_coordinates(side) == (-1, 6, -14, -14, 30)
        norm = reduce(side, {side.rank - 1: side.base.hyperplane})
        assert pairing_on_M(side, locus_pushforward_class(side), norm) == 12

    def test_unexpected_rank(self, g2):
        short = RoofSide("short", g2.side.base, 3, g2.side.groth_coeffs,
                         (("Pi", 0), ("L^2", 1)))
        with pytest.raises(UnexpectedRankError):
            locus_pushforward_class(short)


class TestSignLawAndDegrees:
    def test_self_pairings(self, g2, d4):
        assert polarized_sign_check(g2.side) == 12
        assert polarized_sign_check(d4.side) == -12
        assert polarized_sign_check(g2.tilde_side) == 12
        assert polarized_sign_check(d4.tilde_side) == -12

    @pytest.mark.parametrize("which", ["sdie", "Tilde", "", None])
    def test_unknown_side_is_rejected(self, which):
        # the function once picked a side of a config by name; a name or None is not a side
        with pytest.raises(RoofError, match=f"expected a RoofSide, got {type(which).__name__}$"):
            polarized_sign_check(which)

    def test_a_config_is_not_a_side(self, g2):
        with pytest.raises(RoofError, match="expected a RoofSide, got RoofConfig$"):
            polarized_sign_check(g2)

    def test_sign_matches_rank_parity(self, g2, d4, toy):
        for cfg in (g2, d4, toy):
            expected = (-1) ** (cfg.rank - 1) * cfg.polarization_degree
            assert polarized_sign_check(cfg.side) == expected

    def test_cy_degree(self, g2, d4):
        assert cy_degree(g2.side) == 12
        assert cy_degree(d4.side) == 12

    def test_cy_degree_hypersurface(self):
        q5 = make_quadric_ring(5)
        side = RoofSide("side", q5, 1, (q5.l_power(1) * 2,))
        assert cy_degree(side) == 4


class TestSwitchSide:
    def test_locus_switch_3x3(self, g2):
        lat_t = middle_lattice(g2.tilde_side)
        j = switch_side(g2, locus_pushforward_class(g2.side))
        assert str(j) == "7*L*xi^2 - 23*L^2*xi + 42*Pi"
        assert coordinates_in_lattice(lat_t, j) == (42, -23, 7)

    def test_xi_is_fixed(self, g2):
        switched = switch_side(g2, xi_power(g2.side, 1))
        assert switched == xi_power(g2.tilde_side, 1)

    def test_plane_class_switch(self, g2):
        lat = middle_lattice(g2.side)
        lat_t = middle_lattice(g2.tilde_side)
        img = switch_side(g2, class_from_coordinates(lat, (1, 0, 0)))
        assert coordinates_in_lattice(lat_t, img) == (5, -3, 1)

    def test_declared_representative_5x5(self, d4):
        lat = middle_lattice(d4.side)
        lat_t = middle_lattice(d4.tilde_side)
        declared = class_from_coordinates(lat, (-30, 14, 14, -6, 1))
        img = switch_side(d4, declared)
        assert coordinates_in_lattice(lat_t, img) == (42, -38, -50, 30, -7)
        assert str(img) == "-7*L*xi^3 + 30*L^2*xi^2 - 38*Pi1*xi - 50*Pi2*xi + 42*Pi1*L"

    def test_involution_on_all_middle_monomials(self, g2, d4, toy):
        for cfg in (g2, d4):
            for side in (cfg.side, cfg.tilde_side):
                for cls in (monomial(side, *m) for m in side.middle_basis):
                    assert switch_side(cfg, switch_side(cfg, cls)) == cls
        # the symmetric toy only switches the hyperplane-polynomial subspace
        cls = locus_pushforward_class(toy.side)
        assert switch_side(toy, switch_side(toy, cls)) == cls

    def test_unbalanced_spinor_monomial_round_trip(self, d4):
        cls = monomial(d4.side, "Pi1", 1)
        img = switch_side(d4, cls)
        assert not img.is_zero
        assert switch_side(d4, img) == cls

    def test_unswitchable_class_rejected(self, toy):
        with pytest.raises(roofcalc.SwitchError):
            switch_side(toy, monomial(toy.side, "Pi1", 0))

    def test_non_integral_result_rejected(self, g2):
        half_pi = monomial(g2.side, "Pi", 0).scale(Fraction(1, 2))
        with pytest.raises(IntegralityError):
            switch_side(g2, half_pi)

    def test_inconsistent_sides_detected(self, g2):
        q5a, q5b = make_quadric_ring(5), make_quadric_ring(5)
        chern = ChernVector(3, (q5a.l_power(1) * 5, q5a.l_power(2) * 9, q5a.basis_class("Pi") * 12))
        side = RoofSide("a", q5a, 3, chern.components, (("Pi", 0), ("L^2", 1), ("L", 2)))
        other = RoofSide("b", q5b, 3,
                         (q5b.l_power(1) * 4, q5b.l_power(2) * 9, q5b.basis_class("Pi") * 12),
                         (("Pi", 0), ("L^2", 1), ("L", 2)))
        cfg = RoofConfig("mismatch", side, other, 12)
        with pytest.raises(InvalidRoofError):
            switch_side(cfg, locus_pushforward_class(side))


def _loop_divisibility_scan(j, jt, d):
    """The former bounded search over k = 0..d-1, kept as the reference."""
    residues, witnesses = [], []
    for k in range(d):
        for rep in (k, k - d) if k or d == 1 else (0,):
            diff = [j[i] - rep * jt[i] for i in range(len(j))]
            if all(x % d == 0 for x in diff):
                if k not in residues:
                    residues.append(k)
                witnesses.append((rep, tuple(x // d for x in diff)))
    return tuple(residues), tuple(witnesses)


@st.composite
def _scan_inputs(draw):
    d = draw(st.integers(-2, 60))
    factor = draw(st.sampled_from([1, 2, 3, 4, 6, max(d, 1)]))  # non-primitive j~ too
    jt = draw(st.lists(st.integers(-30, 30).map(lambda x: x * factor), max_size=5))
    k = draw(st.integers(-100, 100))
    # half the draws are near-solutions j = k*j~ + d*w, so that residue sets are often nonempty
    near = [k * y + max(d, 1) * draw(st.integers(-5, 5)) for y in jt]
    j = draw(st.one_of(st.just(near), st.lists(st.integers(-200, 200), min_size=len(jt), max_size=len(jt))))
    return j, jt, d


class TestResidueScan:
    @settings(max_examples=400, deadline=None)
    @given(_scan_inputs())
    def test_closed_form_matches_the_loop(self, inputs):
        j, jt, d = inputs
        assert roofcalc._divisibility_scan(j, jt, d) == _loop_divisibility_scan(j, jt, d)

    def test_closed_form_covers_every_shape(self):
        # no residue; one residue with m = d; several with m < d; every k (j~ = 0 mod d); d = 1
        assert roofcalc._divisibility_scan((1, 0), (2, 0), 4) == ((), ())
        assert roofcalc._divisibility_scan((3,), (1,), 5) == ((3,), ((3, (0,)), (-2, (1,))))
        assert roofcalc._divisibility_scan((2, 4), (2, 4), 6)[0] == (1, 4)
        assert roofcalc._divisibility_scan((0,), (6,), 6)[0] == tuple(range(6))
        assert roofcalc._divisibility_scan((5,), (2,), 1) == ((0,), ((0, (5,)), (-1, (7,))))

    def test_gram_3x3(self, g2):
        scan = residue_scan(g2)
        assert scan.residue_set == (7,)
        assert scan.sign_orbit == (5, 7)
        assert scan.iso_obstructed
        assert dict(scan.witnesses)[7] == (-7, 1, 0)
        assert scan.declared_witness == (7, (-7, 1, 0))

    def test_gram_5x5(self, d4):
        scan = residue_scan(d4)
        assert scan.residue_set == (5,)
        assert scan.sign_orbit == (5, 7)
        assert scan.iso_obstructed
        assert scan.declared_witness == (-7, (-14, 5, 4, -1, 0))

    def test_unit_residue_certified_absent(self, g2, d4):
        for cfg in (g2, d4):
            scan = residue_scan(cfg)
            assert 1 not in scan.sign_orbit and 11 not in scan.sign_orbit

    def test_witnesses_integral_and_primitive(self, g2, d4):
        import math

        for cfg in (g2, d4):
            for _, w in residue_scan(cfg).witnesses:
                assert math.gcd(*w) == 1

    def test_symmetric_toy_not_obstructed(self, toy):
        scan = residue_scan(toy)
        assert scan.degree == 2
        assert scan.residue_set == (1,)
        assert not scan.iso_obstructed


class TestRoofQuery:
    def test_matches_the_public_functions(self, g2, d4, toy):
        for cfg in (g2, d4, toy):
            q = roofcalc.RoofQuery(cfg)
            assert q.residue_scan() == residue_scan(cfg)
            for side in (cfg.side, cfg.tilde_side):
                assert q.lattice(side) == middle_lattice(side)
                assert class_from_coordinates(q.lattice(side), q.locus(side)) == locus_pushforward_class(side)
                assert q.locus(side) == locus_coordinates(side)
        assert roofcalc.RoofQuery(g2).mukai(50)[-1] == roofcalc.mukai_vector(g2, 50)

    @pytest.mark.parametrize("reordered, grams", [(False, 1), (True, 2)], ids=["built-in", "tilde-reversed"])
    def test_each_piece_built_once(self, g2, count_calls, reordered, grams):
        # the built-in's sides carry the same data, so the tilde side takes the side's Gram matrix; each side
        # checks its own basis for its own lattice
        cfg = _reordered_tilde("g2dagger", -1) if reordered else g2
        counts = count_calls("roofcalc._check_middle_basis", "roofcalc._table_gram", "roofcalc.switch_side",
                             "latticecore.isotropic_pair_solve")
        q = roofcalc.RoofQuery(cfg)
        for _ in range(2):
            q.residue_scan()
            q.mukai(50)
        # switch_side: the side's locus class, and theta(v) for the Mukai vector
        assert counts == {"roofcalc._check_middle_basis": 2, "roofcalc._table_gram": grams, "roofcalc.switch_side": 2,
                          "latticecore.isotropic_pair_solve": 2}
        assert q.stage is None  # nothing is being built

    @pytest.mark.parametrize("tilde_first", [False, True])
    def test_re_homed_pieces_live_on_their_side(self, g2, tilde_first):
        q = roofcalc.RoofQuery(g2)
        sides = (g2.tilde_side, g2.side) if tilde_first else (g2.side, g2.tilde_side)
        for side in sides:
            lat, locus = q.lattice(side), class_from_coordinates(q.lattice(side), q.locus(side))
            assert lat.side is side and locus.side is side
            assert lat == middle_lattice(side) and locus == locus_pushforward_class(side)
            group = q.group(side)
            assert group.factors == latticecore.discriminant_group([list(r) for r in lat.gram]).factors
            # generators are valid, not canonical: each has exactly the order of its factor in Z^n / G Z^n
            for d, g in zip(group.factors, group.generators):
                solution, _ = latticecore._solve_rational(lat.gram, g)  # G is symmetric: its rows are its columns
                assert lcm(*(x.denominator for x in solution)) == d
        assert q.lattice(g2.side).gram is q.lattice(g2.tilde_side).gram
        assert q.group(g2.side) is q.group(g2.tilde_side)


class TestSharedRing:
    @pytest.mark.parametrize("name", ["g2dagger", "d4", "toy"])
    def test_one_ring_per_base_dimension(self, name, toy_path, count_calls):
        counts = count_calls("gradedring.make_quadric_ring")
        cfg = load_config(toy_path) if name == "toy" else builtin_config(name)
        assert cfg.side.base is cfg.tilde_side.base
        assert counts == {"gradedring.make_quadric_ring": 1}

    def test_a_class_stays_on_its_side(self, g2):
        side, tilde = g2.side, g2.tilde_side
        a = monomial(side, *side.middle_basis[0])
        with pytest.raises(RoofError, match="^classes do not live on the requested side$"):
            pairing_on_M(tilde, a, a)
        with pytest.raises(RoofError, match="^class is not supported on the declared middle basis$"):
            coordinates_in_lattice(middle_lattice(tilde), a)


class TestConfigInvariants:
    def test_rank_mismatch_rejected(self, g2, toy):
        with pytest.raises(InvalidRoofError):
            RoofConfig("bad", g2.side, toy.side, 12)

    def test_polarization_degree_checked(self, g2):
        with pytest.raises(InvalidRoofError):
            RoofConfig("bad", g2.side, g2.tilde_side, 11)

    def test_swap_roundtrip(self, g2):
        assert g2.swap().swap().side is g2.side


# ---------------------------------------------------------------------------
# one-pass fold: oracle against the repeated highest-power substitution
# ---------------------------------------------------------------------------

QUADRICS = {n: make_quadric_ring(n) for n in range(4, 11)}
exact = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.builds(Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=3)),
)


def ref_reduce(side, expression):
    """The fold before the single descending pass: while some xi power e >= r
    is nonzero, take the highest, and substitute the relation for it term by
    term, as (class * c_i) scaled by (-1)^(i+1)."""
    terms = {}
    for e, cls in expression.items():
        if not cls.is_zero:
            terms[e] = cls if e not in terms else terms[e] + cls
    r = side.rank
    while True:
        top = max((e for e, cls in terms.items() if e >= r and not cls.is_zero), default=None)
        if top is None:
            break
        cls = terms.pop(top)
        for i, coeff in enumerate(side.groth_coeffs, start=1):
            piece = (cls * coeff).scale((-1) ** (i + 1))
            terms[top - i] = piece if top - i not in terms else terms[top - i] + piece
    return [terms[i].coeffs if i in terms else {} for i in range(r)]


@st.composite
def sides_and_expressions(draw):
    """A rank 1-6 side on Q4..Q10 with random relation coefficients, and a
    homogeneous expression with xi exponents up to 2r."""
    base = QUADRICS[draw(st.integers(min_value=4, max_value=10))]
    r = draw(st.integers(min_value=1, max_value=6))

    def cls(degree):
        labels = base.degree_labels.get(degree, ())
        return GradedClass(base, degree, {lbl: draw(exact) for lbl in labels})

    side = RoofSide("random", base, r, tuple(cls(i) for i in range(1, r + 1)))
    degree = draw(st.integers(min_value=0, max_value=base.dimension + r - 1))
    exponents = [e for e in range(2 * r + 1) if 0 <= degree - e <= base.dimension]
    chosen = draw(st.lists(st.sampled_from(exponents), min_size=1, max_size=len(exponents), unique=True))
    return side, degree, {e: cls(degree - e) for e in chosen}


@settings(deadline=None)
@given(case=sides_and_expressions())
def test_reduce_matches_repeated_substitution(case):
    side, degree, expression = case
    folded = reduce(side, expression, degree=degree)
    assert folded.degree == degree
    assert [p.coeffs for p in folded.parts] == ref_reduce(side, expression)


# ---------------------------------------------------------------------------
# the per-side table of xi powers: xi^e = sum_(j<r) P_e[j] * xi^j for r <= e <= N
# ---------------------------------------------------------------------------

# each builds a fresh side, whose table holds only the row xi^r
TABLE_SIDES = {
    "g2dagger": lambda: builtin_config("g2dagger").side,
    "d4": lambda: builtin_config("d4").side,
    "q10": lambda: config_from_dict(next(d for d in SYNTHETIC if d["base_dim"][0] == 10)).side,
}


def assert_table_within_bound(side):
    """Rows only for r <= e <= dim_total, each the repeated substitution of its power of xi (a row may keep a
    coefficient that cancels as a 0)."""
    r, base = side.rank, side.base
    assert 1 <= len(side._powers) <= side.dim_total - r + 1
    for e, row in enumerate(side._powers, start=r):
        assert [{z: m for z, m in p.items() if m} for p in row] == ref_reduce(side, {e: base.unit()}), e


@pytest.mark.parametrize("name", TABLE_SIDES)
def test_table_matches_repeated_substitution_at_every_power(name):
    side = TABLE_SIDES[name]()
    base = side.base
    for e in range(side.dim_total + 3):
        assert [p.coeffs for p in xi_power(side, e).parts] == ref_reduce(side, {e: base.unit()})
        for b in base.basis:
            cls = base.basis_class(b.label)
            assert [p.coeffs for p in reduce(side, {e: cls}).parts] == ref_reduce(side, {e: cls}), (b.label, e)
    assert len(side._powers) == side.dim_total - side.rank + 1
    assert_table_within_bound(side)


def test_huge_xi_power_is_zero_at_once():
    side = TABLE_SIDES["q10"]()
    middle_lattice(side)
    filled = list(side._powers)
    assert_table_within_bound(side)
    for e in (side.dim_total + 1, 10**6):
        a = xi_power(side, e)
        assert a.is_zero and a.degree == e
    assert side._powers == filled


# ---------------------------------------------------------------------------
# integer fold kernel: oracle against the object-level loops it replaced
# ---------------------------------------------------------------------------

KERNEL_SIDES = ([builtin_config(name).side for name in ("g2dagger", "d4")] + [DATA_CONFIGS["toy_symmetric"].side]
                + [config_from_dict(d).side for d in SYNTHETIC])
KERNEL_LATTICES = {}


def object_reduce(side, expression, degree=None):
    """reduce as it was on GradedClass objects: every fold step multiplies the
    class of the top power by each signed relation coefficient."""
    terms = {}
    for e, cls in expression.items():
        if e < 0:
            raise RoofError("negative xi exponent")
        if not cls.is_zero:
            terms[e] = cls if e not in terms else terms[e] + cls
    if degree is None:  # a zero term has a degree too
        degree = next((e + cls.degree for e, cls in expression.items()), 0)
    if any(e + cls.degree != degree for e, cls in expression.items()):
        raise RoofError("expression is not homogeneous")
    r = side.rank
    signed = [c if i % 2 else -c for i, c in enumerate(side.groth_coeffs, start=1)]
    for top in range(max(terms, default=0), r - 1, -1):
        cls = terms.pop(top, None)
        if cls is None or cls.is_zero:
            continue
        for i, coeff in enumerate(signed, start=1):
            piece = cls * coeff
            terms[top - i] = piece if top - i not in terms else terms[top - i] + piece
    parts = [terms[i] if i in terms and 0 <= degree - i <= side.base.dimension
             else side.base.zero(degree - i) for i in range(r)]
    return BundleClass(side, degree, parts)


def object_mul(a, b):
    """BundleClass.__mul__ as it was: one GradedClass product per pair of parts."""
    a._check(b)
    terms = {}
    for i, p in enumerate(a.parts):
        for j, q in enumerate(b.parts):
            if not p.is_zero and not q.is_zero:
                prod = p * q
                terms[i + j] = prod if i + j not in terms else terms[i + j] + prod
    return object_reduce(a.side, terms, degree=a.degree + b.degree)


def object_class_from_coordinates(lat, coords):
    """class_from_coordinates on GradedClass objects: a running sum of the scaled parts of the monomial classes."""
    side, mc = lat.side, lat.side.middle_codim
    parts = [side.base.zero(mc - i) for i in range(side.rank)]
    for c, (label, e) in zip(coords, lat.monomials):
        parts = [p + q.scale(c) for p, q in zip(parts, monomial(side, label, e).parts)]
    return BundleClass(side, mc, parts)


def exact_parts(a):
    """The degree and the stored part dicts with coefficient types: 2 and Fraction(2) differ here."""
    return a.degree, [{k: (type(v), v) for k, v in p.items()} for p in a._flat]


@st.composite
def kernel_cases(draw):
    """A side of the kernel sides, a homogeneous expression with xi exponents up
    to 3r, two normal forms to multiply, and coordinates on the middle lattice."""
    side = draw(st.sampled_from(KERNEL_SIDES))
    base, r = side.base, side.rank

    def cls(degree):
        return GradedClass(base, degree, {lbl: draw(exact) for lbl in base.degree_labels.get(degree, ())})

    def normal_form():
        d = draw(st.integers(min_value=0, max_value=side.dim_total))
        return BundleClass(side, d, [cls(d - i) for i in range(r)])

    degree = draw(st.integers(min_value=0, max_value=base.dimension + 3 * r))
    exponents = [e for e in range(3 * r + 1) if 0 <= degree - e <= base.dimension]
    chosen = draw(st.lists(st.sampled_from(exponents), min_size=1, max_size=len(exponents), unique=True))
    if side not in KERNEL_LATTICES:
        KERNEL_LATTICES[side] = middle_lattice(side)
    lat = KERNEL_LATTICES[side]
    coords = draw(st.lists(exact, min_size=lat.rank, max_size=lat.rank))
    return side, degree, {e: cls(degree - e) for e in chosen}, normal_form(), normal_form(), lat, coords


@settings(deadline=None)
@given(case=kernel_cases())
def test_fold_kernel_matches_object_loops(case):
    side, degree, expression, a, b, lat, coords = case
    assert exact_parts(reduce(side, expression, degree)) == exact_parts(object_reduce(side, expression, degree))
    assert exact_parts(reduce(side, expression)) == exact_parts(object_reduce(side, expression))
    assert exact_parts(a * b) == exact_parts(object_mul(a, b))
    assert exact_parts(class_from_coordinates(lat, coords)) == \
        exact_parts(object_class_from_coordinates(lat, coords))


def test_kernel_sides_cover_every_base():
    assert sorted({s.base.dimension for s in KERNEL_SIDES}) == list(range(4, 11))


class TestFoldKernelErrors:
    def test_foreign_ring_rejected_at_every_exponent(self, g2):
        foreign = make_quadric_ring(5)
        assert foreign is not g2.side.base
        for e in (0, g2.rank - 1, g2.rank, 3 * g2.rank):
            with pytest.raises(IncompatibleRingError):
                reduce(g2.side, {e: foreign.basis_class("L")})
        with pytest.raises(IncompatibleRingError):
            reduce(g2.side, {0: g2.side.base.l_power(1), 1: foreign.zero(0)})

    @pytest.mark.parametrize("bad", [0.0, 1.5, 2.0, "1", None])
    def test_inexact_coordinate_rejected(self, g2, bad):
        lat = middle_lattice(g2.side)
        for build in (class_from_coordinates, object_class_from_coordinates):
            with pytest.raises(GradedRingError):
                build(lat, [1, bad, 0])

    @pytest.mark.parametrize("expression", [
        lambda q: {-1: q.unit()},
        lambda q: {-1: q.zero(1)},
        lambda q: {0: q.l_power(1), 1: q.l_power(1)},
        lambda q: {4: q.unit(), 1: q.l_power(2)},
    ], ids=["negative-exponent", "negative-exponent-zero-class", "non-homogeneous", "non-homogeneous-folded"])
    def test_malformed_expression_raises_as_before(self, g2, expression):
        expr = expression(g2.side.base)
        for fold in (reduce, object_reduce):
            with pytest.raises(RoofError):
                fold(g2.side, expr)
        with pytest.raises(RoofError):
            reduce(g2.side, expr, degree=2)

    def test_product_across_sides_rejected(self, g2, d4):
        for mul in (BundleClass.__mul__, object_mul):
            with pytest.raises(RoofError):
                mul(xi_power(g2.side, 1), xi_power(d4.side, 1))


# ---------------------------------------------------------------------------
# flat bundle classes: oracle against the same operations part by part
# ---------------------------------------------------------------------------

# test_fold_kernel_matches_object_loops covers reduce, products and
# class_from_coordinates; its references also work part by part.

@st.composite
def flat_cases(draw):
    """A normal form of a kernel case, a second one of the same degree, and a scalar."""
    side, _, _, a, _, _, _ = draw(kernel_cases())
    base = side.base
    same = BundleClass(side, a.degree, [
        GradedClass(base, a.degree - i, {lbl: draw(exact) for lbl in base.degree_labels.get(a.degree - i, ())})
        for i in range(side.rank)])
    return side, a, same, draw(exact)


@settings(deadline=None)
@given(case=flat_cases())
def test_flat_classes_match_part_by_part(case):
    side, a, same, c = case

    def by_parts(parts):
        return exact_parts(BundleClass(side, a.degree, parts))

    assert exact_parts(a + same) == by_parts([p + q for p, q in zip(a.parts, same.parts)])
    assert exact_parts(a - same) == by_parts([p - q for p, q in zip(a.parts, same.parts)])
    assert exact_parts(-a) == by_parts([-p for p in a.parts])
    assert exact_parts(a.scale(c)) == exact_parts(a * c) == by_parts([p.scale(c) for p in a.parts])
    assert (a - a).is_zero and a == BundleClass(side, a.degree, a.parts)
    assert [p.degree for p in a.parts] == [a.degree - i for i in range(side.rank)]


class TestBundleClassChecks:
    def test_valid_parts_accepted(self, g2):
        base = g2.side.base
        cls = BundleClass(g2.side, 2, [base.l_power(2), base.l_power(1).scale(3), base.zero(0)])
        assert cls == reduce(g2.side, {0: base.l_power(2), 1: base.l_power(1).scale(3)})

    def test_wrong_part_count_rejected(self, g2):
        base = g2.side.base
        with pytest.raises(RoofError, match="exactly rank"):
            BundleClass(g2.side, 2, [base.l_power(2), base.l_power(1)])

    def test_misgraded_part_rejected(self, g2):
        base = g2.side.base
        with pytest.raises(RoofError, match=r"xi\^1 component has degree 2 on 'Q5', expected 1"):
            BundleClass(g2.side, 2, [base.l_power(2), base.l_power(2), base.unit()])

    def test_part_off_the_base_rejected(self, g2):
        foreign = make_quadric_ring(5)
        with pytest.raises(RoofError, match="on the base 'Q5'"):
            BundleClass(g2.side, 2, [foreign.l_power(2), foreign.zero(1), foreign.zero(0)])

    @pytest.mark.parametrize("bad", [0.0, 1.5, "1", None])
    def test_inexact_scalar_rejected(self, g2, bad):
        with pytest.raises(GradedRingError):
            xi_power(g2.side, 1).scale(bad)

    @pytest.mark.parametrize("coords, message", [
        ([1], "expected 3 coordinates, one per declared middle monomial, got 1"),
        ([1, 2, 3, 4, 5], "expected 3 coordinates, one per declared middle monomial, got 5"),
        ({0: 1}, "coordinates: expected a list or tuple, got dict"),
        (iter([1, 0, 0]), "coordinates: expected a list or tuple, got list_iterator"),
    ])
    def test_one_coordinate_per_middle_monomial(self, g2, coords, message):
        with pytest.raises(RoofError) as info:
            class_from_coordinates(middle_lattice(g2.side), coords)
        assert str(info.value) == message

    def test_zero_classes_of_different_degrees_differ(self, g2):
        zero1, zero2 = xi_power(g2.side, 1).scale(0), xi_power(g2.side, 2).scale(0)
        assert zero1.is_zero and zero2.is_zero and zero1 != zero2


@pytest.mark.parametrize("signs, message", [
    # accepted before: residue_scan reported declared residues (10,) with witness (-2, (22, -8, 2))
    ((2, 5), "declared_locus_signs entries must be 1 or -1, got (2, 5)"),
    ((1, "x"), "declared_locus_signs entry must be an integer, got 'x'"),  # a builtin TypeError before
    ((1,), "declared_locus_signs must be a pair, got (1,)"),  # an unpacking ValueError before
    ((1.0, 1), "declared_locus_signs entry must be an integer, got 1.0"),
    ((True, -1), "declared_locus_signs entry must be an integer, got True"),  # ran as 1 before; configs refuse it too
])
def test_declared_locus_signs_are_two_signs(g2, signs, message):
    with pytest.raises(InvalidRoofError) as info:
        RoofConfig(g2.name, g2.side, g2.tilde_side, 12, signs)
    assert str(info.value) == message
