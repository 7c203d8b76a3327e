import pytest
from hypothesis import given, strategies as st

import roofpairs.motivicring as motivicring
from roofpairs._text import signed_sum
from roofpairs.motivicring import (
    B,
    B_TILDE,
    L,
    SYMBOLS,
    MotivicPoly,
    Y,
    Y_TILDE,
    fibration_class,
    l_equivalence_residual,
    proj_class,
)


def test_str_orders_terms_by_total_degree():
    # then by exponent tuple; in the residuals both orders agree, so they cannot tell
    assert str(L + Y**2) == "L + Y^2"


class TestProjClass:
    def test_point(self):
        assert proj_class(0) == MotivicPoly.const(1)

    def test_plane(self):
        assert proj_class(2) == 1 + L + L ** 2

    @pytest.mark.parametrize("k", range(0, 8))
    def test_telescoping(self, k):
        assert proj_class(k) * (L - 1) == L ** (k + 1) - 1


class TestFibrationClass:
    def test_rank_two(self):
        assert fibration_class(2) == B + L * Y

    def test_rank_three(self):
        assert fibration_class(3) == (1 + L + L ** 2) * Y + (1 + L) * (B - Y)

    @pytest.mark.parametrize("r", range(2, 8))
    def test_surface_equals_base_collapse(self, r):
        collapsed = fibration_class(r).substitute({"Y": B})
        assert collapsed == proj_class(r - 2) * B + L ** (r - 1) * B


class TestResidual:
    @pytest.mark.parametrize("r", range(2, 13))
    def test_contract_identity(self, r):
        expected = (Y - Y_TILDE) * L ** (r - 1) + proj_class(r - 2) * (B - B_TILDE)
        assert l_equivalence_residual(r) == expected

    def test_rank_three_form(self):
        assert l_equivalence_residual(3) == (Y - Y_TILDE) * L ** 2 + (1 + L) * (B - B_TILDE)

    def test_rank_four_form(self):
        assert l_equivalence_residual(4) == \
            (Y - Y_TILDE) * L ** 3 + (1 + L + L ** 2) * (B - B_TILDE)

    @pytest.mark.parametrize("r", range(2, 13))
    def test_isomorphic_bases_case(self, r):
        collapsed = l_equivalence_residual(r).substitute({"Bt": B})
        assert collapsed == (Y - Y_TILDE) * L ** (r - 1)


monomials = st.tuples(*(st.integers(0, 3) for _ in range(6)))
polys = st.builds(
    MotivicPoly,
    st.dictionaries(monomials, st.integers(-8, 8), max_size=5),
)


@given(a=polys, b=polys, c=polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == MotivicPoly()


# ---------------------------------------------------------------------------
# repeated-multiplication references for the closed forms
# ---------------------------------------------------------------------------

def ref_mul(a, b):
    """The plain double loop over term pairs, zeros dropped at the end."""
    out = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return MotivicPoly({m: c for m, c in out.items() if c})


def ref_pow(p, e):
    out = MotivicPoly.const(1)
    for _ in range(e):
        out = ref_mul(out, p)
    return out


def ref_proj_class(k):
    out = power = MotivicPoly.const(1)
    for _ in range(k):
        power = ref_mul(power, L)
        out = out + power
    return out


def ref_substitute(p, assignments):
    out = MotivicPoly()
    for mono, c in p.coeffs.items():
        term = MotivicPoly.const(c)
        for sym, e in zip(SYMBOLS, mono):
            if e:
                term = ref_mul(term, ref_pow(assignments.get(sym, MotivicPoly.var(sym)), e))
        out = out + term
    return out


def closed_form_residual(r):
    """([Y] - [Y~]) L^(r-1) + (1 + L + ... + L^(r-2)) ([B] - [B~]), written out term by term."""
    def mono(l_exp, sym):
        e = [0] * len(SYMBOLS)
        e[0] = l_exp
        e[SYMBOLS.index(sym)] += 1
        return tuple(e)

    coeffs = {mono(r - 1, "Y"): 1, mono(r - 1, "Yt"): -1}
    for i in range(r - 1):
        coeffs[mono(i, "B")] = 1
        coeffs[mono(i, "Bt")] = -1
    return coeffs


@pytest.mark.parametrize("k", [0, 1, 2, 7, 30])
def test_proj_class_against_repeated_multiplication(k):
    assert proj_class(k) == ref_proj_class(k)


def test_fibration_class_against_double_loop_to_rank_300():
    # [P^(r-1)] Y + [P^(r-2)] (B - Y): the products through ref_mul, B - Y and the sum written out by hand;
    # the fibre [P^(r-2)] grows by ref_mul's power of L from one rank to the next, as ref_proj_class builds it
    b_minus_y = MotivicPoly({**B.coeffs, **{m: -c for m, c in Y.coeffs.items()}})
    fibre = power = MotivicPoly.const(1)
    for r in range(2, 301):
        power = ref_mul(power, L)
        total = fibre + power  # [P^(r-1)]
        expected = {}
        for part in (ref_mul(total, Y), ref_mul(fibre, b_minus_y)):
            for m, c in part.coeffs.items():
                expected[m] = expected.get(m, 0) + c
        assert fibration_class(r).coeffs == {m: c for m, c in expected.items() if c}, r
        fibre = total


def test_fibration_class_against_ring_arithmetic_to_rank_300():
    # the same terms as the products and the sum of the ring, in the same order
    for r in range(2, 301):
        got = fibration_class(r)
        expected = proj_class(r - 1) * Y + proj_class(r - 2) * (B - Y)
        assert list(got.coeffs.items()) == list(expected.coeffs.items()), r
        assert_canonical(got)


def test_residual_against_substituted_section_to_rank_300():
    # the relabeling pass against the ring's general substitution of the same section, built per rank
    images = {"Y": Y_TILDE, "B": B_TILDE}
    for r in range(2, 301):
        s = fibration_class(r)
        expected = s - s.substitute(images)
        got = l_equivalence_residual(r)
        assert got == expected, r
        assert str(got) == str(expected), r
        assert_canonical(got)


def test_residual_closed_form_to_rank_200():
    for r in range(2, 201):
        assert l_equivalence_residual(r).coeffs == closed_form_residual(r)


small_polys = st.builds(
    MotivicPoly,
    st.dictionaries(st.tuples(*(st.integers(0, 2) for _ in range(6))),
                    st.integers(-4, 4), max_size=2),
)


@given(p=polys, e=st.integers(0, 5))
def test_pow_against_repeated_multiplication(p, e):
    assert p ** e == ref_pow(p, e)


@given(p=polys, images=st.dictionaries(st.sampled_from(SYMBOLS), small_polys, max_size=3))
def test_substitute_against_reference(p, images):
    assert p.substitute(images) == ref_substitute(p, images)


# ---------------------------------------------------------------------------
# a product by one term is a shift; a substitution by single terms is a relabelling
# ---------------------------------------------------------------------------

coefficients = st.one_of(st.integers(-8, 8), st.integers(-10**40, 10**40))
wide_polys = st.builds(MotivicPoly, st.dictionaries(monomials, coefficients, max_size=6))
one_term = st.builds(lambda m, c: MotivicPoly({m: c}), monomials, coefficients.filter(bool))
# strategies and parametrize lists build no polynomial at collection: a fault in the ring operations
# then fails the tests that reach it, not the collection of the whole module
variables = st.sampled_from(SYMBOLS).map(MotivicPoly.var)


@given(a=wide_polys, b=st.one_of(one_term, variables, st.builds(MotivicPoly), polys, wide_polys))
def test_product_against_double_loop(a, b):
    expected = ref_mul(a, b)
    for got in (a * b, b * a):
        assert got == expected
        assert_canonical(got)


@given(p=st.one_of(polys, wide_polys, variables, st.builds(MotivicPoly)))
def test_first_power_is_the_polynomial(p):
    # the lowest set bit of the exponent starts the product, with no unit multiplied in
    assert p ** 1 == p
    assert_canonical(p ** 1)


single_term_images = st.dictionaries(
    st.sampled_from(SYMBOLS),
    st.one_of(one_term, variables, st.builds(MotivicPoly.const, st.integers(-3, 3))),
    max_size=4)


def ref_str(p):
    """Terms by (total degree, exponents), each symbol written S or S^e, joined with '*'."""
    terms = sorted(p.coeffs.items(), key=lambda mc: (sum(mc[0]), mc[0]))
    return signed_sum((c, "*".join(s if e == 1 else f"{s}^{e}" for s, e in zip(SYMBOLS, mono) if e))
                      for mono, c in terms)


@given(p=wide_polys)
def test_str_against_reference(p):
    assert str(p) == ref_str(p)


STR_EXAMPLES = {
    "zero": MotivicPoly, "L": lambda: L, "-L": lambda: -L, "2*L^3": lambda: 2 * L ** 3, "Y*B^2": lambda: Y * B ** 2,
    "-L*Y*M^3": lambda: -L * Y * MotivicPoly.var("M") ** 3, "residual(4)": lambda: l_equivalence_residual(4),
    "L^2*Y - 3*Bt + 7": lambda: L ** 2 * Y - 3 * B_TILDE + 7,
}


@pytest.mark.parametrize("build", STR_EXAMPLES.values(), ids=STR_EXAMPLES)
def test_str_by_example_against_reference(build):
    # every place of the L power (absent, L, L^e) and of the rest (absent, S, S^e, several symbols)
    p = build()
    assert str(p) == ref_str(p)


@pytest.mark.parametrize("c", [0, 1, 3, -7, 10**40])
def test_constant_hashes_as_its_integer(c):
    # a constant equals its int, so a set or dict must take them as one key; const(0) has no terms
    p = MotivicPoly.const(c)
    assert p == c and hash(p) == hash(c)
    assert len({p, c}) == 1 and {c: "int"}[p] == "int"


@given(p=wide_polys, images=single_term_images)
def test_substitute_by_single_terms_against_reference(p, images):
    got = p.substitute(images)
    assert got == ref_substitute(p, images)
    assert_canonical(got)


@given(p=polys, order=st.permutations(SYMBOLS), signs=st.lists(st.sampled_from([1, -1, 2, -3]), min_size=6,
                                                                max_size=6))
def test_substitute_by_a_scaled_permutation_against_reference(p, order, signs):
    images = {s: k * MotivicPoly.var(t) for s, t, k in zip(SYMBOLS, order, signs)}
    assert p.substitute(images) == ref_substitute(p, images)


@given(a=polys, b=polys)
def test_rename_onto_a_symbol_already_present(a, b):
    # Y -> Yt lands Y-terms on Yt-terms: a*Y - a*Yt cancels to nothing, b*Yt is left alone
    p = a * Y - a * Y_TILDE + b * Y_TILDE
    got = p.substitute({"Y": Y_TILDE})
    assert got == ref_substitute(p, {"Y": Y_TILDE}) == b.substitute({"Y": Y_TILDE}) * Y_TILDE
    assert_canonical(got)


# name -> a builder of (polynomial, images, expected substitution)
SINGLE_TERM_SUBSTITUTIONS = {
    "Y^4*L, Y->3Yt": lambda: (Y ** 4 * L, {"Y": 3 * Y_TILDE}, 81 * Y_TILDE ** 4 * L),
    "Y^3*B^2, Y->-2L, B->-Bt": lambda: (Y ** 3 * B ** 2, {"Y": -2 * L, "B": -B_TILDE}, -8 * L ** 3 * B_TILDE ** 2),
    "Y^2 + Yt^2, Y->Yt, Yt->-Y": lambda: (Y ** 2 + Y_TILDE ** 2, {"Y": Y_TILDE, "Yt": -Y}, Y_TILDE ** 2 + Y ** 2),
    "Y*Yt - L*B, Y->L, Yt->B": lambda: (Y * Y_TILDE - L * B, {"Y": L, "Yt": B}, MotivicPoly()),
    "Y^5 + 4B, Y->const 2": lambda: (Y ** 5 + 4 * B, {"Y": MotivicPoly.const(2)}, 32 + 4 * B),
    "Y^5 + 4B, Y->2, B->-1": lambda: (Y ** 5 + 4 * B, {"Y": 2, "B": -1}, 28),
    "Y^5 + 4B, Y->0": lambda: (Y ** 5 + 4 * B, {"Y": MotivicPoly()}, 4 * B),
}


@pytest.mark.parametrize("build", SINGLE_TERM_SUBSTITUTIONS.values(), ids=SINGLE_TERM_SUBSTITUTIONS)
def test_substitute_by_single_terms(build):
    p, images, expected = build()
    assert p.substitute(images) == expected


# ---------------------------------------------------------------------------
# results of the ring operations are canonical without re-validation
# ---------------------------------------------------------------------------

def assert_canonical(p):
    for mono, c in p.coeffs.items():
        assert type(mono) is tuple and len(mono) == len(SYMBOLS)
        assert all(type(e) is int and e >= 0 for e in mono)
        assert type(c) is int and c != 0
    again = MotivicPoly(p.coeffs)
    assert again == p and hash(again) == hash(p)


@given(a=polys, b=polys, e=st.integers(0, 4),
       images=st.dictionaries(st.sampled_from(SYMBOLS), small_polys, max_size=3))
def test_operation_results_are_canonical(a, b, e, images):
    results = [
        a + (-a), a * 0, 0 * a, a - a, (a + b) - b, a + 0, 1 - a, 2 * a,
        a + b, a - b, -a, a * b, a * (b - b), a ** e, (a - a) ** e,
        a.substitute(images), (a - a).substitute(images),
        (a * Y - a * Y_TILDE).substitute({"Y": Y_TILDE}),
        (a + b).substitute(images) - b.substitute(images),
    ]
    for p in results:
        assert_canonical(p)
    assert results[4] == a
    assert results[-1] == a.substitute(images)
    for p in results[:4] + [results[-2]]:
        assert p.is_zero


SWAP = {"Y": Y_TILDE, "Yt": Y}


SWAPPED = {"Y": lambda: Y, "Y - Yt": lambda: Y - Y_TILDE,
           "fibration(4) + terms": lambda: fibration_class(4) + Y ** 2 * Y_TILDE - 3 * L * Y_TILDE ** 3 + B * Y,
           "residual(5) * (Y + 2Yt)": lambda: l_equivalence_residual(5) * (Y + 2 * Y_TILDE)}


@pytest.mark.parametrize("build", SWAPPED.values(), ids=SWAPPED)
def test_substitute_swap(build):
    p = build()
    swapped = p.substitute(SWAP)
    assert swapped == ref_substitute(p, SWAP)
    assert swapped.substitute(SWAP) == p


MULTI_TERM_IMAGES = {
    "Y, L": lambda: {"Y": Y - 2 * B + 1, "L": 1 + L + L ** 2},
    "B, Bt, M": lambda: {"B": L * B_TILDE - Y, "Bt": B + B_TILDE, "M": L - 1},
    "L, Y, Yt": lambda: {"L": L ** 2 - Y * Y_TILDE, "Y": 3 * B - L + 2, "Yt": Y_TILDE ** 2 + Y},
}


@pytest.mark.parametrize("build", MULTI_TERM_IMAGES.values(), ids=MULTI_TERM_IMAGES)
def test_substitute_multi_term_images(build):
    images = build()
    p = fibration_class(4) * (Y_TILDE - B) + MotivicPoly.var("M") ** 2 * L - 5 * B_TILDE * Y ** 2
    assert p.substitute(images) == ref_substitute(p, images)


@pytest.mark.parametrize("r", [2, 3, 7])
def test_residual_substitution_against_reference(r):
    images = {"Y": Y_TILDE, "B": B_TILDE}
    assert fibration_class(r).substitute(images) == ref_substitute(fibration_class(r), images)


def test_closed_form_residual_to_rank_300():
    for r in range(2, 301):
        expected = motivicring.residual_closed_form(r)
        assert expected.coeffs == closed_form_residual(r)
        assert l_equivalence_residual(r) == expected
        assert str(l_equivalence_residual(r)) == str(expected)
