import copy
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from roofpairs import roofcalc
from roofpairs.configs import BUILTIN_CONFIGS, builtin_config, config_from_dict, load_config
from roofpairs.errors import RoofError
from roofpairs.gradedring import (
    GradedClass,
    integrate,
    make_quadric_ring,
)
from roofpairs.roofcalc import (
    BundleClass,
    InvalidRoofError,
    RoofConfig,
    RoofSide,
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
from roofcorpus import CORPUS, DATA_CONFIGS, SYNTHETIC, _q6_partial_tilde, _zero_degree


def _split_signed(text):
    """The (sign, term) pairs of a printed signed sum, split outside parentheses."""
    parts, depth, start, sign = [], 0, 0, 1
    if text.startswith("-"):
        sign, start = -1, 1
    for i, ch in enumerate(text):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth == 0 and text[i:i + 3] in (" + ", " - "):
            parts.append((sign, text[start:i]))
            sign, start = (1 if text[i + 1] == "+" else -1), i + 3
    return parts + [(sign, text[start:])]


def _read_term(term, labels, unit):
    """(label, coefficient) of an unsigned ``n*label``, ``label`` or ``n``."""
    if re.fullmatch(r"\d+(?:/\d+)?", term):
        return unit, Fraction(term)
    m = re.fullmatch(r"(?:(\d+(?:/\d+)?)\*)?(.+)", term)
    assert m[2] in labels, term
    return m[2], Fraction(m[1] or 1)


def _read_relation(text, base):
    """The coefficient of each power of xi in a printed relation ``... = 0``, as {e: {label: c}}."""
    lhs, zero = text.split(" = ")
    assert zero == "0"
    labels = {b.label for b in base.basis}
    read = {}
    for sign, term in _split_signed(lhs):
        m = re.fullmatch(r"(.*?)\*?\bxi(?:\^(\d+))?", term)
        e, coeff = (int(m[2] or 1), m[1]) if m else (0, term)
        assert e not in read and not coeff.startswith("-"), text
        if coeff.startswith("("):
            assert coeff.endswith(")"), text
            inner = [(s, _read_term(t, labels, base.unit_label)) for s, t in _split_signed(coeff[1:-1])]
            assert len(inner) > 1, text
        else:
            inner = [(1, _read_term(coeff, labels, base.unit_label) if coeff else (base.unit_label, 1))]
        read[e] = {label: sign * s * c for s, (label, c) in inner}
        assert 0 not in read[e].values(), text
    return read


class TestSideConstruction:
    def test_relation_prints_each_sign_once(self):
        # each printed "- -11*L*xi^7", "- 0*xi^3" or "+ -4*L^2*xi^2": a zero coefficient is left out, a one-term one
        # carries its own sign, and one of several terms keeps its parentheses
        relations = [config_from_dict(data).side.relation_string() for data in (
            next(d for d in SYNTHETIC if d["name"] == "syn-q10-19"), _q6_partial_tilde(), _zero_degree())]
        assert relations == [
            "xi^8 + 11*L*xi^7 + 9*L^2*xi^6 - 63*L^3*xi^5 + 91*L^4*xi^4 - (77*Pi1 + 77*Pi2)*xi^3 + 70*Pi1*L*xi^2"
            " - 16*Pi1*L^2*xi + 4*Pi1*L^3 = 0",
            "xi^4 + 2*L^2*xi^2 - (4*Pi1 + 4*Pi2)*xi + 4*Pi1*L = 0",
            "xi^4 - 4*L^2*xi^2 + 2*Pi1*xi = 0",
        ]

    @pytest.mark.parametrize("dim, signs, printed", [
        (4, (-1, -1), "xi^2 - L*xi - (Pi1 + Pi2) = 0"),
        (6, (-1, -1), "xi^3 - L*xi^2 + L^2*xi + (Pi1 + Pi2) = 0"),
        (4, (1, -1), "xi^2 - L*xi + (Pi1 - Pi2) = 0"),
        (4, (-1, 1), "xi^2 - L*xi + (-Pi1 + Pi2) = 0"),
    ])
    def test_all_negative_coefficient_has_its_sign_outside(self, dim, signs, printed):
        # c_r = s1*Pi1 + s2*Pi2 after c_i = L^i on Q4 (rank 2) or Q6 (rank 3): "- (Pi1 + Pi2)" or "+ (Pi1 + Pi2)",
        # never "+ (-Pi1 - Pi2)"; mixed signs stay inside the parentheses
        ring, rank = make_quadric_ring(dim), dim // 2
        last = signs[0] * ring.basis_class("Pi1") + signs[1] * ring.basis_class("Pi2")
        side = RoofSide("s", ring, rank, (*(ring.l_power(i) for i in range(1, rank)), last))
        assert side.relation_string() == printed
        assert _read_relation(printed, ring)[0] == {"Pi1": (-1) ** rank * signs[0], "Pi2": (-1) ** rank * signs[1]}

    @pytest.mark.parametrize("config", CORPUS, ids=lambda c: c.name)
    def test_relation_reads_back_as_the_relation(self, config):
        # sum_i (-1)^i c_i xi^(r-i), each sign printed once and no zero term: a "+ -", "- 0*" or a
        # dropped or doubled power of xi does not read back
        for side in (config.side, config.tilde_side):
            expected = {side.rank: {side.base.unit_label: 1}}
            expected.update({side.rank - i: {k: (-1) ** i * v for k, v in c.coeffs.items()}
                             for i, c in enumerate(side.groth_coeffs, start=1) if c.coeffs})
            assert _read_relation(side.relation_string(), side.base) == expected

    def test_rank_one_projectivization(self):
        q5 = make_quadric_ring(5)
        side = RoofSide("side", q5, 1, (q5.l_power(1),))
        assert reduce(side, {1: q5.unit()}) == reduce(side, {0: q5.l_power(1)})

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

    def test_a_zero_term_keeps_its_degree(self, g2):
        q5, r = g2.side.base, g2.rank
        for e in (0, r - 1, r, 2 * r):
            assert reduce(g2.side, {e: q5.zero(1)}) == BundleClass(g2.side, e + 1, [q5.zero(e + 1 - i)
                                                                                   for i in range(r)])
        with pytest.raises(roofcalc.RoofError, match="not homogeneous of degree 2"):
            reduce(g2.side, {0: q5.l_power(2), 1: q5.zero(2)})


class TestLocusClass:
    def test_sign_flip_on_reversed_basis(self):
        # reversing the d4 middle basis makes the raw kernel vector (1, -6, 14, 14, -30)
        # pair to -12, so the class must be flipped to the golden vector reversed
        data = copy.deepcopy(BUILTIN_CONFIGS["d4"])
        data["sides"][0]["middle_basis"].reverse()
        side = config_from_dict(data).side
        assert locus_coordinates(side) == (-1, 6, -14, -14, 30)
        norm = reduce(side, {side.rank - 1: side.base.hyperplane})
        assert pairing_on_M(side, locus_pushforward_class(side), norm) == 12


class TestSignLawAndDegrees:
    def test_sign_matches_rank_parity(self, toy):
        assert polarized_sign_check(toy.side) == (-1) ** (toy.rank - 1) * toy.polarization_degree == -2

    def test_cy_degree_hypersurface(self):
        q5 = make_quadric_ring(5)
        side = RoofSide("side", q5, 1, (q5.l_power(1) * 2,))
        assert cy_degree(side) == 4


class TestSwitchSide:
    def test_xi_is_fixed(self, g2):
        switched = switch_side(g2, xi_power(g2.side, 1))
        assert switched == xi_power(g2.tilde_side, 1)

    def test_involution_on_the_toy_locus_class(self, toy):
        # the symmetric toy only switches the hyperplane-polynomial subspace
        cls = locus_pushforward_class(toy.side)
        assert switch_side(toy, switch_side(toy, cls)) == cls


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

    def test_symmetric_toy_not_obstructed(self, toy):
        scan = residue_scan(toy)
        assert scan.degree == 2
        assert scan.residue_set == (1,)
        assert not scan.iso_obstructed

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
# integer fold kernel: reduce, products and coordinates against their definitions
# ---------------------------------------------------------------------------

KERNEL_SIDES = ([builtin_config(name).side for name in ("g2dagger", "d4")] + [DATA_CONFIGS["toy_symmetric"].side]
                + [config_from_dict(d).side for d in SYNTHETIC])
KERNEL_LATTICES = {}


def typed(parts):
    """Part dicts with coefficient types: 2 and Fraction(2) differ here."""
    return [{k: (type(v), v) for k, v in p.items()} for p in parts]


def exact_parts(a):
    return a.degree, typed(a._flat)


def ref_mul(a, b):
    """a * b by definition: each product of a part of a and a part of b, at the sum of their xi exponents,
    folded by ``ref_reduce``."""
    terms = {}
    for i, p in enumerate(a.parts):
        for j, q in enumerate(b.parts):
            terms[i + j] = terms[i + j] + p * q if i + j in terms else p * q
    return a.degree + b.degree, typed(ref_reduce(a.side, terms))


def ref_class_from_coordinates(lat, coords):
    """sum_k coords[k] * (the k-th declared monomial), in bundle-class arithmetic."""
    terms = [monomial(lat.side, label, e).scale(c) for c, (label, e) in zip(coords, lat.monomials)]
    return sum(terms[1:], terms[0])


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
def test_fold_kernel_matches_its_definitions(case):
    side, degree, expression, a, b, lat, coords = case
    folded = (degree, typed(ref_reduce(side, expression)))
    assert exact_parts(reduce(side, expression, degree)) == exact_parts(reduce(side, expression)) == folded
    assert exact_parts(a * b) == ref_mul(a, b)
    assert exact_parts(class_from_coordinates(lat, coords)) == exact_parts(ref_class_from_coordinates(lat, coords))


def test_kernel_sides_cover_every_base():
    assert sorted({s.base.dimension for s in KERNEL_SIDES}) == list(range(4, 11))


# ---------------------------------------------------------------------------
# flat bundle classes: oracle against the same operations part by part
# ---------------------------------------------------------------------------

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
