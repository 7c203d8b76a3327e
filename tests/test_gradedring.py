from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

import roofpairs.gradedring as gradedring
from roofpairs.gradedring import (
    ChernVector,
    GradedClass,
    GradedRingError,
    chern_twist,
    integrate,
    make_quadric_ring,
)

from references import THIRD_ARRANGEMENT, ottaviani_chern

Q5 = make_quadric_ring(5)
Q6 = make_quadric_ring(6)


def test_signed_sum():
    # the one renderer behind every class's str: +-1 left off a monomial, a sign as the separator
    terms = [(1, "L"), (2, "Pi"), (-1, "L^2"), (Fraction(-1, 2), "xi"), (-3, ""), (1, "")]
    assert gradedring.signed_sum(terms) == "L + 2*Pi - L^2 - 1/2*xi - 3 + 1"
    assert gradedring.signed_sum([(-1, "L")]) == "-L" and gradedring.signed_sum([]) == "0"


class TestQuadricRings:
    def test_q5_half_point_relation(self):
        # L^3 = 2*Pi and Pi*L^2 is the point class
        assert Q5.l_power(3) == Q5.basis_class("Pi") * 2
        assert Q5.point_label == "Pi*L^2"

    def test_q5_top_power(self):
        # L^5 = 2 * point, expanded through the table (spec oracle: L^2 * (2Pi))
        l = Q5.l_power(1)
        five = l * l * l * l * l
        assert five == Q5.basis_class("Pi*L^2") * 2

    def test_q6_middle_class_relations(self):
        pi1, pi2 = Q6.basis_class("Pi1"), Q6.basis_class("Pi2")
        point = Q6.basis_class(Q6.point_label)
        assert Q6.l_power(3) == pi1 + pi2
        assert (pi1 * Q6.l_power(1)) == (pi2 * Q6.l_power(1))
        assert (pi1 * pi1).is_zero and (pi2 * pi2).is_zero
        assert pi1 * pi2 == point

    def test_q4_parity_rule(self):
        q4 = make_quadric_ring(4)
        pi1, pi2 = q4.basis_class("Pi1"), q4.basis_class("Pi2")
        point = q4.basis_class(q4.point_label)
        assert pi1 * pi1 == point and pi2 * pi2 == point
        assert (pi1 * pi2).is_zero

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_construction_across_dimensions(self, dim):
        # construction revalidates gradedness/associativity; top integral is the degree
        ring = make_quadric_ring(dim)
        assert integrate(ring.l_power(dim)) == 2
        assert integrate(ring.hyperplane * ring.l_power(dim - 1)) == 2

    @pytest.mark.parametrize("ring", [Q5, Q6], ids=["Q5", "Q6"])
    def test_table_laws_all_triples(self, ring):
        labels = [b.label for b in ring.basis]
        for x, y in product(labels, repeat=2):
            assert ring.basis_product(x, y) == ring.basis_product(y, x)
        for x, y, z in product(labels, repeat=3):
            left = ring._combo_times_label(ring.basis_product(x, y), z)
            right = ring._combo_times_label(ring.basis_product(y, z), x)
            assert left == right


class TestMultiply:
    def test_forced_by_relation(self):
        assert Q5.l_power(1) * Q5.l_power(2) == Q5.basis_class("Pi") * 2

    def test_pi_squared_even(self):
        assert (Q6.basis_class("Pi1") * Q6.basis_class("Pi1")).is_zero

    def test_degree_overflow_is_zero(self):
        pi = Q5.basis_class("Pi")
        prod = pi * pi
        assert prod.is_zero and prod.degree == 6
        assert prod != Q5.zero(5)  # no coefficients either, but another degree


class TestIntegrate:
    def test_point_normalization(self):
        assert integrate(Q5.basis_class("Pi") * Q5.l_power(2)) == 1

    def test_degree_of_quadric(self):
        assert integrate(Q5.l_power(5)) == 2
        assert integrate(Q6.l_power(6)) == 2

    def test_below_top_degree(self):
        assert integrate(Q5.l_power(3)) == 0

    def test_q6_middle_classes(self):
        pi1, pi2 = Q6.basis_class("Pi1"), Q6.basis_class("Pi2")
        assert integrate(pi1 * pi2) == 1
        assert integrate(pi1 * pi1) == 0


class TestChernTwist:
    def test_twist_by_one(self):
        twisted = chern_twist(ottaviani_chern(Q5), 1)
        assert twisted.components[0] == Q5.l_power(1) * 5
        assert twisted.components[1] == Q5.l_power(2) * 9
        assert twisted.components[2] == Q5.basis_class("Pi") * 12

    def test_zero_twist_is_identity(self):
        c = ottaviani_chern(Q5)
        assert chern_twist(c, 0).components == c.components

    def test_line_bundle(self):
        c = ChernVector(1, (Q5.zero(1),))
        assert chern_twist(c, 1).components[0] == Q5.l_power(1)

    @pytest.mark.parametrize("s,t", [(1, 1), (2, -1), (-3, 5), (0, 4), (-2, -2)])
    def test_composition(self, s, t):
        c = ottaviani_chern(Q5)
        once = chern_twist(chern_twist(c, s), t)
        combined = chern_twist(c, s + t)
        assert once.components == combined.components


coeff = st.integers(min_value=-9, max_value=9)


@st.composite
def integral_class(draw, ring, degree):
    labels = ring.degree_labels.get(degree, ())
    coeffs = {lbl: Fraction(draw(coeff)) for lbl in labels}
    return GradedClass(ring, degree, coeffs)


@given(
    a=integral_class(Q6, 2),
    b=integral_class(Q6, 3),
    c=integral_class(Q6, 3),
)
def test_integrality_closed_and_bilinear(a, b, c):
    for x in (a * b, a + a):
        assert all(c.denominator == 1 for c in x.coeffs.values())
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


# ---------------------------------------------------------------------------
# integral coefficients as ints: oracle against the all-Fraction kernel
# ---------------------------------------------------------------------------

RINGS = {n: make_quadric_ring(n) for n in range(4, 11)}

# ints, integral Fractions such as 4/2, and non-integral Fractions
exact = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=4)),
)


def ref_mul(a, b):
    """The product of the all-Fraction kernel: every coefficient is a Fraction
    and each term reads the multiplication table through ``basis_product``."""
    ring = a.ring
    d = a.degree + b.degree
    out = {}
    if d <= ring.dimension:
        for x, c in a.coeffs.items():
            for y, e in b.coeffs.items():
                for z, m in ring.basis_product(x, y).items():
                    out[z] = out.get(z, Fraction(0)) + Fraction(c) * Fraction(e) * m
    return d, {z: v for z, v in out.items() if v}


def ref_add(a, b):
    out = {k: Fraction(v) for k, v in a.coeffs.items()}
    for k, v in b.coeffs.items():
        out[k] = out.get(k, Fraction(0)) + Fraction(v)
    return {k: v for k, v in out.items() if v}


def assert_normalised(cls):
    for c in cls.coeffs.values():
        assert c != 0
        assert type(c) is (int if c.denominator == 1 else Fraction)


@st.composite
def exact_class(draw, ring, degree):
    return GradedClass(ring, degree, {lbl: draw(exact) for lbl in ring.degree_labels.get(degree, ())})


@st.composite
def class_triples(draw):
    """(a, b, c) on one of Q4..Q10, with a and c of the same degree."""
    ring = RINGS[draw(st.integers(min_value=4, max_value=10))]
    da = draw(st.integers(min_value=0, max_value=ring.dimension))
    db = draw(st.integers(min_value=0, max_value=ring.dimension))
    return draw(exact_class(ring, da)), draw(exact_class(ring, db)), draw(exact_class(ring, da))


@given(abc=class_triples(), q=exact)
def test_arithmetic_matches_all_fraction_kernel(abc, q):
    a, b, c = abc
    for x in (a, b, c):
        assert_normalised(x)
    prod = a * b
    assert (prod.degree, prod.coeffs) == ref_mul(a, b)
    assert_normalised(prod)
    total = a + c
    assert total.coeffs == ref_add(a, c)
    assert_normalised(total)
    scaled = a * q
    assert scaled.coeffs == {k: Fraction(v) * q for k, v in a.coeffs.items() if q}
    assert_normalised(scaled)
    assert_normalised(-a)


class TestCoefficientRepresentation:
    def test_integral_values_are_ints(self):
        cls = GradedClass(Q5, 1, {"L": Fraction(4, 2)})
        assert type(cls.coeffs["L"]) is int and cls.coeffs["L"] == 2
        assert type(Q5.unit().coefficient("1")) is int
        assert all(type(c) is int for c in (Q5.l_power(3) * Q5.l_power(2)).coeffs.values())

    def test_non_integral_values_are_fractions(self):
        cls = GradedClass(Q5, 1, {"L": Fraction(3, 2)})
        assert type(cls.coeffs["L"]) is Fraction
        doubled = cls * 2
        assert type(doubled.coeffs["L"]) is int and doubled.coeffs["L"] == 3

    def test_zero_dropped_and_missing_coefficient_is_zero(self):
        cls = GradedClass(Q6, 3, {"Pi1": Fraction(0), "Pi2": 5})
        assert cls.coeffs == {"Pi2": 5}
        assert cls.coefficient("Pi1") == 0

    def test_degree_checked(self):
        with pytest.raises(GradedRingError, match="has degree 2, not 1"):
            GradedClass(Q5, 1, {"L^2": 1})

    def test_quadric_rings_are_not_shared(self):
        assert make_quadric_ring(5) is not make_quadric_ring(5)


# A dimension-3 ring on 1; a, b; c; p.  With b*b = c the table is associative;
# with b*b = 0 it fails at (a, b, b): (a*b)*b = c*b = p but (b*b)*a = 0.
def _two_generator_ring(bb, name="T3", point="p"):
    basis = [gradedring.BasisElement(lbl, d) for lbl, d in (("1", 0), ("a", 1), ("b", 1), ("c", 2), (point, 3))]
    table = {("a", "a"): {"c": 1}, ("a", "b"): {"c": 1}, ("b", "b"): bb,
             ("a", "c"): {point: 1}, ("b", "c"): {point: 1}}
    return gradedring.RingPresentation(name, 3, basis, point, table)


class TestValidationOncePerTable:
    """Each construction validates its own table: one that fails, fails every time."""

    def test_failing_table_raises_on_every_construction(self):
        for _ in range(3):
            with pytest.raises(GradedRingError, match=r"not associative at \(a, b, b\)"):
                _two_generator_ring({})

    def test_same_dimension_different_table_is_checked_on_its_own(self):
        good = _two_generator_ring({"c": 1})
        assert str(good.basis_class("b") * good.basis_class("b")) == "c"
        with pytest.raises(GradedRingError, match="not associative"):
            _two_generator_ring({})
        with pytest.raises(GradedRingError, match="not associative"):
            _two_generator_ring({"c": 2})
        _two_generator_ring({"c": 1}, name="another name, same content")

    def test_quadric_rings_are_distinct_and_complete(self):
        a, b = make_quadric_ring(5), make_quadric_ring(5)
        assert a is not b and a._products is not b._products
        assert a._products == b._products
        assert str(b.l_power(2) * b.l_power(1)) == "2*Pi"


def _full_cube_fails(dim, basis, table) -> bool:
    """Reference: (x*y)*z != x*(y*z) for some ordered basis triple, products read from ``table``."""
    degree = {b.label: b.degree for b in basis}

    def prod(x, y):
        if x == "1" or y == "1":
            return {y if x == "1" else x: 1}
        if degree[x] + degree[y] > dim:
            return {}
        combo = table[x, y] if (x, y) in table else table[y, x]
        return {k: v for k, v in combo.items() if v}

    def expand(pairs):
        out = {}
        for c, (u, v) in pairs:
            for k, m in prod(u, v).items():
                out[k] = out.get(k, 0) + c * m
        return {k: v for k, v in out.items() if v}

    labels = list(degree)
    return any(expand((c, (w, z)) for w, c in prod(x, y).items())
               != expand((c, (x, w)) for w, c in prod(y, z).items())
               for x, y, z in product(labels, repeat=3))


@st.composite
def graded_tables(draw):
    """A complete, graded, commutative table with the point class alone on top; often not associative."""
    dim = draw(st.integers(3, 5))
    basis = [gradedring.BasisElement("1", 0)]
    for d in range(1, dim):
        basis += [gradedring.BasisElement(f"x{d}{i}", d) for i in range(draw(st.integers(1, 2)))]
    basis.append(gradedring.BasisElement("p", dim))
    coefficient = st.sampled_from([0, 0, 0, 1, 1, -1, 2])
    table = {}
    for a, b in combinations_with_replacement(basis[1:], 2):
        if a.degree + b.degree <= dim:
            table[a.label, b.label] = {z.label: draw(coefficient) for z in basis if z.degree == a.degree + b.degree}
    return dim, basis, table


class TestExactAssociativity:
    """The check compares (xy)z, (yz)x and (xz)y on sorted non-unit triples of degree at most the top."""

    def test_the_third_arrangement_table_fails_the_full_cube(self):
        # test_input_checks.py pins the refusal of this table; the cube shows that it is not associative
        basis, _, table = THIRD_ARRANGEMENT
        assert _full_cube_fails(3, basis, table)

    @settings(max_examples=150, deadline=None)
    @given(graded_tables())
    def test_rejected_exactly_when_the_full_cube_fails(self, case):
        dim, basis, table = case
        try:
            gradedring.RingPresentation("random", dim, basis, "p", table)
            rejected = False
        except GradedRingError as err:
            assert "not associative" in str(err)
            rejected = True
        assert rejected == _full_cube_fails(dim, basis, table)

    def test_q32_check_cost_is_bounded_by_the_sorted_triples(self, monkeypatch):
        calls = []
        original = gradedring.RingPresentation._combo_times_label

        def counted(self, combo, z):
            calls.append(z)
            return original(self, combo, z)

        monkeypatch.setattr(gradedring.RingPresentation, "_combo_times_label", counted)
        ring = make_quadric_ring(32)
        degrees = [b.degree for b in ring.basis if b.degree]
        n = sum(1 for t in combinations_with_replacement(degrees, 3) if sum(t) <= 32)
        assert len(ring.basis) == 34 and n == 1014  # against 34^3 = 39304 ordered basis triples
        first = len(calls)
        assert 0 < first <= 3 * n
        make_quadric_ring(32)  # no memo: a second build checks again, at the same cost
        assert len(calls) == 2 * first


class TestTableEntriesAreChecked:
    """Table entries that the checks accept, next to the implicit rules; test_input_checks.py pins the refused ones."""

    @staticmethod
    def _ring(extra):
        basis = [gradedring.BasisElement(lbl, d) for lbl, d in (("1", 0), ("h", 1), ("p", 2))]
        return gradedring.RingPresentation("T2", 2, basis, "p", {("h", "h"): {"p": 1}, **extra})

    def test_empty_entry_beyond_top_degree_accepted(self):
        ring = self._ring({("h", "p"): {}})
        assert ring.basis_product("h", "p") == {}

    def test_integral_fraction_coefficient_accepted(self):
        product = self._ring({("h", "h"): {"p": Fraction(4, 2)}}).basis_product("h", "h")
        assert product == {"p": 2} and type(product["p"]) is int

    @staticmethod
    def _two_generator_table(extra):
        basis = [gradedring.BasisElement(lbl, d) for lbl, d in (("1", 0), ("h", 1), ("k", 1), ("p", 2))]
        table = {("h", "h"): {}, ("k", "k"): {}, ("h", "k"): {"p": 1}, **extra}
        return gradedring.RingPresentation("T2hk", 2, basis, "p", table)

    def test_identical_entries_for_one_pair_accepted(self):
        ring = self._two_generator_table({("k", "h"): {"p": 1, "h": 0}})
        assert ring.basis_product("k", "h") == ring.basis_product("h", "k") == {"p": 1}

    def test_quadric_rings_still_construct(self):
        # every dimension up to base_dim's cap of 32
        for n in range(2, 33):
            ring = make_quadric_ring(n)
            assert integrate(ring.l_power(n)) == 2
            if n % 2 == 0:
                pi1, pi2 = ring.basis_class("Pi1"), ring.basis_class("Pi2")
                square, cross = (1, 0) if n % 4 == 0 else (0, 1)
                assert (integrate(pi1 * pi1), integrate(pi2 * pi2), integrate(pi1 * pi2)) == (square, square, cross)
