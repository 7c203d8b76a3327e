from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, strategies as st

from roofpairs.bwbcoh import (
    BWBError,
    InconsistentSequenceError,
    RootSystem,
    SequenceSpec,
    Underdetermined,
    bundle_cohomology,
    bundle_cohomology_of_weight,
    bundle_weights,
    cayley_table,
    dictionary_names,
    dominant_conjugate,
    euler_characteristic,
    ideal_section_table,
    les_solve,
    named_bundle_table,
    ottaviani_dual_table,
    ottaviani_table,
    quadric_root_system,
    rho,
    vanishing_case,
    weight,
)

H = Fraction(1, 2)
B3 = RootSystem("B", 3)
D4 = RootSystem("D", 4)


class TestRootSystems:
    def test_rho(self):
        assert rho(B3) == (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))
        assert rho(D4) == (3, 2, 1, 0)
        assert rho(RootSystem("B", 2)) == (Fraction(3, 2), Fraction(1, 2))

    def test_quadric_assignment(self):
        assert quadric_root_system(5) == B3
        assert quadric_root_system(6) == D4
        assert quadric_root_system(3) == RootSystem("B", 2)

    def test_root_counts(self):
        assert len(B3.positive_roots()) == 9
        assert len(D4.positive_roots()) == 12

    def test_uniform_weights_are_kept(self):
        assert weight((1, 0, -2)) == (1, 0, -2)
        assert weight((H, -H, H)) == (H, -H, H)


class TestDominantConjugate:
    def test_already_dominant(self):
        assert dominant_conjugate(B3, (Fraction(5, 2), Fraction(3, 2), H)) == \
            ((Fraction(5, 2), Fraction(3, 2), H), 0)

    def test_single_transposition(self):
        dom, length = dominant_conjugate(B3, (Fraction(5, 2), H, Fraction(3, 2)))
        assert dom == (Fraction(5, 2), Fraction(3, 2), H)
        assert length == 1

    def test_singular(self):
        assert dominant_conjugate(B3, (Fraction(5, 2), Fraction(3, 2), Fraction(3, 2))) is None

    def test_zero_coordinate_singular_in_B(self):
        assert dominant_conjugate(B3, (3, 2, 0)) is None

    def test_D_parity_rule(self):
        # an odd number of sign flips leaves a negative last coordinate
        dom, length = dominant_conjugate(D4, (5, 3, 2, -1))
        assert dom == (5, 3, 2, -1) and length == 0
        dom, length = dominant_conjugate(D4, (5, 3, -2, 1))
        assert dom == (5, 3, 2, -1) and length > 0

    def test_idempotent_on_dominant(self):
        dom, length = dominant_conjugate(D4, (7, 5, 2, 1))
        assert (dom, length) == ((7, 5, 2, 1), 0)

    def test_rank_mismatch(self):
        with pytest.raises(BWBError, match="rank mismatch"):
            dominant_conjugate(B3, (1, 0))
        # a longer weight used to be cut to the rank without a word
        with pytest.raises(BWBError, match="rank mismatch"):
            bundle_cohomology_of_weight(5, (1, 0, 0, 7))

    def test_dominant_conjugate_validates_the_weight(self):
        with pytest.raises(BWBError, match="integral or half-integral"):
            dominant_conjugate(B3, (Fraction(1, 3), 0, 0))


class TestWeylDimension:
    """The Weyl dimension of a dominant weight is h^0 of its bundle: B3 acts on Q5, D4 on Q6, D3 on Q4."""

    def test_vector_rep(self):
        assert bundle_cohomology_of_weight(5, (1, 0, 0)) == {0: 7}

    def test_spin_rep(self):
        assert bundle_cohomology_of_weight(5, (H, H, H)) == {0: 8}

    def test_twisted_spinor_sections(self):
        assert bundle_cohomology_of_weight(5, (Fraction(3, 2), H, H)) == {0: 48}

    def test_adjoint(self):
        assert bundle_cohomology_of_weight(5, (1, 1, 0)) == {0: 21}

    def test_half_spins_of_d4(self):
        assert bundle_cohomology_of_weight(6, (H, H, H, H)) == {0: 8}
        assert bundle_cohomology_of_weight(6, (H, H, H, -H)) == {0: 8}

    def test_non_dominant_rejected(self):
        # (0, 1, 0) + rho is singular: the weight has no sections and no cohomology at all
        assert bundle_cohomology_of_weight(5, (0, 1, 0)) == {}

    def test_dual_dimensions_match(self):
        # on D3 (odd rank) the dual representation flips the sign of the last coordinate
        for lam, dim in (((H, H, H), 4), ((H, H, -H), 4), ((1, 1, -1), 10), ((2, 1, 0), 64)):
            assert bundle_cohomology_of_weight(4, lam) == {0: dim}
            assert bundle_cohomology_of_weight(4, lam[:-1] + (-lam[-1],)) == {0: dim}


def weyl_reference(rs, lam):
    """Table of the weight ``lam`` from explicit roots and ``dominant_conjugate`` alone: the degree is
    the word length of lam + rho, and the dimension prod <dom, a> / <rho, a> over the positive roots a."""
    shift = rho(rs)
    conj = dominant_conjugate(rs, tuple(x + r for x, r in zip(lam, shift)))
    if conj is None:
        return {}
    dom, length = conj
    dim = Fraction(1)
    for root in rs.positive_roots():
        dim *= sum(d * a for d, a in zip(dom, root)) / sum(r * a for r, a in zip(shift, root))
    assert dim.denominator == 1 and dim > 0
    return {length: int(dim)}


@st.composite
def root_systems_and_weights(draw):
    """B2-B8 or D3-D8 and a weight with integral or half-integral coordinates in -30..30, singular ones
    included, with the quadric the group acts on: B_m on Q_(2m-1), D_m on Q_(2m-2)."""
    family = draw(st.sampled_from("BD"))
    rs = RootSystem(family, draw(st.integers(2 if family == "B" else 3, 8)))
    half = draw(st.booleans())
    coords = draw(st.lists(st.integers(-30, 29 if half else 30), min_size=rs.rank, max_size=rs.rank))
    n = 2 * rs.rank - (1 if family == "B" else 2)
    return n, rs, tuple(c + H if half else Fraction(c) for c in coords)


@given(root_systems_and_weights())
@example((5, B3, (Fraction(0), Fraction(1), Fraction(0))))  # singular: (0, 1, 0) + rho = (5/2, 5/2, 1/2)
@example((6, D4, (H, H, H, -H)))
def test_tables_match_an_explicit_root_weyl_formula(case):
    n, rs, lam = case
    assert bundle_cohomology_of_weight(n, lam) == weyl_reference(rs, lam)


class TestBundleCohomology:
    def test_linear_forms(self):
        assert bundle_cohomology(5, "O", 1) == {0: 7}

    def test_quadratic_forms(self):
        assert bundle_cohomology(5, "O", 2) == {0: 27}

    def test_sym2_twist(self):
        assert bundle_cohomology(5, "Sym2Sdual", -3) == {2: 1}

    def test_wedge2_twist_acyclic(self):
        assert bundle_cohomology(5, "Wedge2Sdual", -3) == {}

    def test_spinor_sections(self):
        assert bundle_cohomology(5, "Sdual", 0) == {0: 8}
        assert bundle_cohomology(5, "Sdual", 1) == {0: 48}
        assert bundle_cohomology(5, "S", 0) == {}

    def test_even_quadric_spinors(self):
        assert bundle_cohomology(6, "Splusdual", 0) == {0: 8}
        assert bundle_cohomology(6, "Sminusdual", 0) == {0: 8}
        assert bundle_cohomology(6, "Splus", 0) == {}
        assert bundle_cohomology(6, "O", 2) == {0: 35}

    def test_serre_duality_on_line_bundles(self):
        for t in range(-8, 4):
            left = bundle_cohomology(5, "O", t)
            right = bundle_cohomology(5, "O", -5 - t)
            assert left == {5 - k: v for k, v in right.items()}

    def test_dichotomy_on_dictionary(self):
        for n in (5, 6):
            for name in dictionary_names(n):
                irreducible = len(bundle_weights(n, name)) == 1
                for t in range(-10, 11):
                    table = bundle_cohomology(n, name, t)
                    if irreducible:
                        assert len(table) <= 1

    def test_spinor_duals_are_twists(self):
        # the dual of a spinor bundle is its twist by O(1) (Ottaviani): one more on the first coordinate
        for n in range(3, 16):
            for name in {"S", "Splus", "Sminus"} & set(dictionary_names(n)):
                (w,), (dual,) = bundle_weights(n, name), bundle_weights(n, name + "dual")
                assert (w[0] + 1,) + w[1:] == dual

class TestLesSolve:
    def test_dualized_cayley_sequence(self):
        seq = SequenceSpec(("O", "Gdual(1)", "C(1)"), ({0: 1}, None, {}), 5)
        assert les_solve(seq) == {0: 1}

    def test_twisted_defining_sequence(self):
        seq = SequenceSpec(("O(1)", "Sdual(1)", "G(1)"), ({0: 7}, {0: 48}, None), 5)
        assert les_solve(seq) == {0: 41}

    def test_all_known_consistent(self):
        seq = SequenceSpec(("A", "B", "C"), ({0: 1}, {0: 8}, {0: 7}), 5)
        assert les_solve(seq) == {0: 8}

    def test_all_known_returns_the_checked_middle_table(self):
        # the middle table used to come back as given, zeros and all; an entry of 8.0 used to become 8
        result = les_solve(SequenceSpec(("A", "B", "C"), ({0: 1}, {0: 8, 1: 0}, {0: 7}), 5))
        assert result == {0: 8} and 1 not in result
        with pytest.raises(BWBError, match=r"^cohomology table entry must be an integer, got 8\.0$"):
            les_solve(SequenceSpec(("A", "B", "C"), ({0: 1}, {0: 8.0, 1: 0}, {0: 7}), 5))

    def test_one_spec_per_outcome(self):
        # top degree 2: the degrees a table leaves out are zeros that close the runs
        def solve(*tables):
            return les_solve(SequenceSpec(("A", "B", "C"), tables, 2))

        assert solve({0: 1}, {0: 3}, None) == {0: 2}
        with pytest.raises(InconsistentSequenceError,
                           match=r"^alternating sum 1 != 0 in a zero-flanked run of \('A', 'B', 'C'\)$"):
            solve({0: 1}, {}, {})
        with pytest.raises(InconsistentSequenceError, match=r"^forced negative dimension in \('A', 'B', 'C'\)$"):
            solve({0: 3}, {0: 1}, None)
        with pytest.raises(Underdetermined, match="^2 unknown dimensions in one zero-flanked run of"):
            solve(None, {0: 1, 1: 1}, {1: 2})
        with pytest.raises(Underdetermined, match=r"^2 unknown terms in \('A', 'B', 'C'\)$"):
            solve(None, {0: 1}, None)

    def test_chi_additivity_for_solved_tables(self):
        for t in range(-5, 4):
            sub = bundle_cohomology(5, "O", t)
            mid = bundle_cohomology(5, "Sdual", t)
            quot = ottaviani_table(t)
            assert euler_characteristic(mid) == \
                euler_characteristic(sub) + euler_characteristic(quot)


class TestPipelines:
    def test_vanishing_cases(self):
        assert vanishing_case(1) == {0: 1}
        assert vanishing_case(2) == {2: 1}
        assert vanishing_case(3) == {2: 1}

    def test_ottaviani_tables(self):
        assert ottaviani_table(0) == {0: 7}
        assert ottaviani_table(1) == {0: 41}
        assert ottaviani_table(-3) == {}
        assert ottaviani_table(-2) == {}
        assert ottaviani_dual_table(1) == {0: 1}

    def test_serre_dual_of_ideal_pipeline_input(self):
        # G(-5) is forced through the acyclic middle of its defining sequence
        assert ottaviani_table(-5) == {4: 1}

    def test_cayley_known_twists(self):
        assert cayley_table(1) == {}
        assert cayley_table(-1) == {}
        assert cayley_table(-3) == {}

    def test_ideal_sheaf_sections(self):
        assert ideal_section_table() == {0: 1}

    def test_named_bundle_dispatch(self):
        assert named_bundle_table(5, "G", 1) == {0: 41}
        assert named_bundle_table(5, "Gdual", 1) == {0: 1}
        assert named_bundle_table(5, "Cdual", 0) == {}
        assert named_bundle_table(5, "O", 1) == {0: 7}


class TestEuler:
    def test_values(self):
        assert euler_characteristic({0: 41}) == 41
        assert euler_characteristic({2: 1}) == 1
        assert euler_characteristic({}) == 0
        assert euler_characteristic({0: 3, 1: 5}) == -2


def line_bundle_sections(n, t):
    """h^0(O(t)) on the n-quadric: forms of degree t modulo the quadric times degree t - 2."""
    return comb(n + 1 + t, t) - (comb(n - 1 + t, t - 2) if t >= 2 else 0)


@pytest.mark.parametrize("n, twists", [
    (40, range(-46, 6)),
    (400, (2, -1, -403)),
])
def test_line_bundles_on_large_quadrics(n, twists):
    for t in twists:
        if t >= 0:
            expected = {0: line_bundle_sections(n, t)}
        elif t > -n:
            expected = {}
        else:
            expected = {n: line_bundle_sections(n, -n - t)}
        assert bundle_cohomology(n, "O", t) == expected
