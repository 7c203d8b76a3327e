import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from roofpairs import latticecore
from roofpairs.latticecore import (
    InconsistencyError,
    LatticeError,
    SearchExhaustedError,
    SmithDecomposition,
    _solve_rational,
    det,
    discriminant_group,
    isotropic_pair_solve,
    mat_mul,
    mat_vec,
    orthogonal_kernel,
    smith_normal_form,
)

from golden_grams import D4_GRAM, G2_GRAM
from references import PLANES_WITHOUT_A_PAIR, leibniz_det


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form([[1, 0], [0, 1]])
        assert snf.invariant_factors == (1, 1)
        assert snf.D == ((1, 0), (0, 1))

    def test_diagonal(self):
        assert smith_normal_form([[2, 0], [0, 4]]).invariant_factors == (2, 4)

    def test_gram_3x3(self):
        snf = smith_normal_form(G2_GRAM)
        assert snf.invariant_factors == (1, 1, 12)
        assert snf.verify(G2_GRAM)

    def test_gram_5x5(self):
        assert smith_normal_form(D4_GRAM).invariant_factors == (1, 1, 1, 1, 12)

    def test_coefficient_growth_regression(self):
        # once sent the pivot into thousands of digits
        m = [[15, -19, 11, -19, -11], [10, -16, -4, 19, 17],
             [-13, 19, 18, 14, -13], [18, 7, 8, 13, -10], [19, 0, 18, -15, 11]]
        snf = smith_normal_form(m)
        assert snf.verify(m)
        assert max(abs(x) for row in snf.D for x in row) < 10**9

    def test_rank_deficient_and_rectangular(self):
        for m in ([[2, 4, 4]], [[1], [2], [3]], [[0, 0], [0, 0]], [[1, 2], [2, 4]], [[], []], [[0], [6], [4]]):
            snf = smith_normal_form(m)
            assert snf.verify(m)
            assert (len(snf.U), len(snf.D), len(snf.V)) == (len(m), len(m), len(m[0]))

    def test_tall_matrix_goes_through_its_transpose(self):
        # 16 x 12 of rank 12, a product of factors with entries in +-100: eliminated directly,
        # its transforms reached 7959 bits; through the transpose they stay near 150
        rng = random.Random(20260810)
        a = [[rng.randint(-100, 100) for _ in range(12)] for _ in range(16)]
        m = mat_mul(a, [[rng.randint(-100, 100) for _ in range(12)] for _ in range(12)])
        snf = smith_normal_form(m)
        assert snf.verify(m) and sum(1 for d in snf.invariant_factors if d) == 12
        assert _transform_bits([m]) < 512

    @pytest.mark.parametrize("d, ok", [
        (((1, 0), (0, 2)), True),
        (((1, 0), (0, 0)), True),
        (((1, 1), (0, 1)), False),  # not diagonal
        (((-1, 0), (0, 2)), False),  # a negative factor
        (((0, 0), (0, 1)), False),  # a zero factor ahead of a nonzero one
        (((2, 0), (0, 3)), False),  # 2 does not divide 3
    ])
    def test_verify_checks_the_whole_definition(self, d, ok):
        # with U = V = I and M = D the product always matches: only the form of D decides
        identity = ((1, 0), (0, 1))
        assert SmithDecomposition(identity, d, identity).verify(d) is ok

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-20, 20), min_size=4, max_size=4), min_size=4, max_size=4))
    def test_random_validity(self, m):
        assert smith_normal_form(m).verify(m)

    # The Hermite pass bounds the transforms.  Largest |entry| of U and V
    # before it: 82 bits on the verify-all set, 1113 on the 10x10 set; with
    # it: 61 and 288.
    def test_transform_size_on_verify_all_set(self):
        rng = random.Random(20260810)  # the matrices of checks' smith-validity-1000-random
        matrices = [[[rng.randint(-20, 20) for _ in range(5)] for _ in range(5)] for _ in range(1000)]
        assert _transform_bits(matrices) <= 64

    def test_transform_size_on_10x10(self):
        rng = random.Random(10)
        matrices = [[[rng.randint(-1000, 1000) for _ in range(10)] for _ in range(10)] for _ in range(100)]
        assert _transform_bits(matrices) <= 292


def _transform_bits(matrices):
    """Bit length of the largest |entry| of U and V over the Smith decompositions of ``matrices``."""
    bits = 0
    for m in matrices:
        snf = smith_normal_form(m)
        bits = max(bits, *(abs(x).bit_length() for row in snf.U + snf.V for x in row))
    return bits


def _rank(rows):
    """The size of the largest nonzero minor of a rational matrix, minors by the Leibniz formula."""
    for k in range(min(len(rows), len(rows[0]) if rows else 0), 0, -1):
        if any(leibniz_det([[rows[i][j] for j in cs] for i in rs])
               for rs in itertools.combinations(range(len(rows)), k)
               for cs in itertools.combinations(range(len(rows[0])), k)):
            return k
    return 0


def _free_columns(columns, target):
    """The free columns of A x = b, and whether the system is consistent, from ranks of minors."""
    rank = lambda cols: _rank(list(zip(*cols)))
    free = [c for c in range(len(columns)) if rank(columns[:c + 1]) == rank(columns[:c])]
    return free, rank(columns + [target]) == rank(columns)


def _image(columns, x):
    return [sum(x[j] * columns[j][i] for j in range(len(columns))) for i in range(len(columns[0]))]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LatticeError as exc:
        return type(exc), str(exc)


def _square(entries, max_n):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


_RATIONAL = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def _rational_system(draw):
    """Columns and target of A x = b with rational entries.

    Targets are drawn at random (mostly inconsistent when rows exceed
    columns), as A x for an integral x, or as A x for a rational x; the last
    column is sometimes a multiple of the first, making the columns dependent.
    """
    rows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    cols = draw(st.lists(st.lists(_RATIONAL, min_size=rows, max_size=rows), min_size=ncols, max_size=ncols))
    if ncols > 1 and draw(st.booleans()):
        k = draw(_RATIONAL)
        cols[-1] = [k * x for x in cols[0]]
    kind = draw(st.sampled_from(["random", "integral", "rational"]))
    if kind == "random":
        return cols, draw(st.lists(_RATIONAL, min_size=rows, max_size=rows))
    x = draw(st.lists(st.integers(-5, 5) if kind == "integral" else _RATIONAL, min_size=ncols, max_size=ncols))
    return cols, [sum(x[j] * cols[j][i] for j in range(ncols)) for i in range(rows)]


class TestExactKernel:
    def test_det_of_singular_and_empty(self):
        assert det([[1, 2, 3], [2, 4, 6], [0, 1, 5]]) == 0
        assert det([[0, 0], [0, 0]]) == 0
        assert det([]) == 1

    @settings(max_examples=60, deadline=None)
    @given(_square(st.integers(-20, 20), 6))
    def test_det_is_product_of_smith_diagonal(self, m):
        prod = 1
        for d in smith_normal_form(m).invariant_factors:
            prod *= d
        assert abs(det(m)) == prod

    # The reference for both solves is the definition, with ranks from minors.  A column is
    # free when it lies in the span of the columns before it; the system is consistent when
    # rank [A | b] = rank A.

    @settings(max_examples=200, deadline=None)
    @given(_rational_system())
    def test_solve_rational_matches_reference(self, system):
        # the particular solution is zero on the free columns and each kernel vector is 1 on
        # its own free column and 0 on the others
        columns, target = system
        free, consistent = _free_columns(columns, target)
        got = _solve_rational(columns, target)
        if not consistent:
            assert got is None
            return
        solution, kernel = got
        assert _image(columns, solution) == list(target) and all(solution[c] == 0 for c in free)
        assert len(kernel) == len(free)
        for c, vec in zip(free, kernel):
            assert _image(columns, vec) == [0] * len(target)
            assert [vec[f] for f in free] == [int(f == c) for f in free]
        assert all(type(x) is Fraction for vec in [solution, *kernel] for x in vec)

    @settings(max_examples=200, deadline=None)
    @given(_rational_system())
    def test_solve_integral_matches_reference(self, system):
        # with independent columns the solution is unique: Cramer's rule on a square block of
        # rows with a nonzero minor
        columns, target = system
        free, consistent = _free_columns(columns, target)
        if not consistent:
            want = InconsistencyError, "vector lies outside the span"
        elif free:
            want = InconsistencyError, "basis vectors are linearly dependent"
        else:
            rows = list(zip(*columns))
            block = next(rs for rs in itertools.combinations(range(len(rows)), len(columns))
                         if leibniz_det([rows[i] for i in rs]))
            d = leibniz_det([rows[i] for i in block])
            solution = [Fraction(leibniz_det([[target[i] if j == k else rows[i][j] for j in range(len(columns))]
                                              for i in block])) / d
                        for k in range(len(columns))]
            if any(x.denominator != 1 for x in solution):
                want = InconsistencyError, "image is not in the integer span of the basis"
            else:
                want = tuple(solution)
        assert _outcome(latticecore._solve_integral, columns, target) == want

    def test_products_match_index_loops(self):
        assert mat_vec([[1, 2, 3], [4, 5, 6]], [1, 1, 1]) == [6, 15]
        rng = random.Random(3)
        for rows, inner, cols in ((2, 3, 4), (1, 1, 1), (3, 2, 0), (2, 0, 0)):
            a = [[rng.randint(-9, 9) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(inner)]
            want = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]
            assert mat_mul(a, b) == want


def _inverse(m):
    """The inverse of a unimodular matrix as its adjugate times det M = +-1, from Leibniz determinants."""
    n, d = len(m), leibniz_det(m)
    assert abs(d) == 1
    minor = lambda i, j: [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]
    return [[(-1) ** (i + j) * d * leibniz_det(minor(j, i)) for j in range(n)] for i in range(n)]


def _determinantal_divisor(m, k):
    """The gcd of all k x k minors of m (0 when they all vanish), minors by the Leibniz formula."""
    rows, cols = range(len(m)), range(len(m[0]))
    return math.gcd(*(leibniz_det([[m[i][j] for j in cs] for i in rs])
                      for rs in itertools.combinations(rows, k) for cs in itertools.combinations(cols, k)))


def _is_prime(p):
    return p > 1 and all(p % q for q in range(2, math.isqrt(p) + 1))


@st.composite
def _nonsingular_symmetric(draw):
    n = draw(st.integers(1, 5))
    upper = iter(draw(st.lists(st.integers(-12, 12), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(upper)
    assume(leibniz_det(m) != 0)
    return m


class TestDefinitionOracles:
    """The kernel against definitions; no oracle here runs Bareiss elimination or the Smith loop."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda r: st.integers(1, 4).flatmap(lambda c: st.lists(
        st.lists(st.one_of(st.integers(-9, 9), st.sampled_from([0, 1, -1])), min_size=c, max_size=c),
        min_size=r, max_size=r))))
    def test_invariant_factors_from_determinantal_divisors(self, m):
        # d1 * ... * dk = gcd of all k x k minors, rectangular matrices included
        factors = smith_normal_form(m).invariant_factors
        for k in range(1, len(factors) + 1):
            assert math.prod(factors[:k]) == _determinantal_divisor(m, k)

    @settings(max_examples=150, deadline=None)
    @given(_square(st.integers(-30, 30), 5))
    def test_det_is_leibniz_expansion(self, m):
        assert det(m) == leibniz_det(m)

    @settings(max_examples=100, deadline=None)
    @given(_nonsingular_symmetric())
    def test_generators_are_columns_of_u_inverse(self, gram):
        snf = smith_normal_form(gram)
        u_inv = _inverse(snf.U)
        want = tuple(tuple(row[i] for row in u_inv) for i, d in enumerate(snf.invariant_factors) if d > 1)
        group = discriminant_group(gram)
        assert group.generators == want
        assert group.order == abs(leibniz_det(gram))

    @settings(max_examples=100, deadline=None)
    @given(_nonsingular_symmetric())
    def test_generator_orders_from_adjugate(self, gram):
        # g_i has order exactly d_i in L^v / L: d_i * M^-1 g_i is integral and
        # (d_i / p) * M^-1 g_i is not, for every prime p | d_i; M^-1 = adj(M) / det M
        n, d = len(gram), leibniz_det(gram)
        adj = [[(-1) ** (i + j) * leibniz_det([row[:i] + row[i + 1:] for k, row in enumerate(gram) if k != j])
                for j in range(n)] for i in range(n)]
        group = discriminant_group(gram)

        def integral(k, g):
            return all(k * sum(a * x for a, x in zip(row, g)) % d == 0 for row in adj)

        for order, g in zip(group.factors, group.generators):
            assert integral(order, g)
            for p in (p for p in range(2, order + 1) if order % p == 0 and _is_prime(p)):
                assert not integral(order // p, g)


class TestDiscriminantGroup:
    def test_gram_3x3(self):
        g = discriminant_group(G2_GRAM)
        assert g.factors == (12,)
        assert str(g) == "Z/12"
        assert g.order == 12

    def test_gram_5x5(self):
        assert str(discriminant_group(D4_GRAM)) == "Z/12"

    def test_unimodular(self):
        g = discriminant_group([[0, 1], [1, 0]])
        assert g.factors == () and str(g) == "trivial"

    def test_generator_order(self):
        # the generator reaches the lattice image exactly at multiple 12
        g = discriminant_group(G2_GRAM)
        (gen,) = g.generators
        cols = [[Fraction(G2_GRAM[i][j]) for i in range(3)] for j in range(3)]
        for k in range(1, 13):
            sol, _ = _solve_rational(cols, [Fraction(k * x) for x in gen])
            integral = all(x.denominator == 1 for x in sol)
            assert integral == (k == 12)

    def test_order_equals_det(self):
        rng = random.Random(7)
        found = 0
        while found < 10:
            m = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
            for i in range(3):
                for j in range(i):
                    m[i][j] = m[j][i]
            d = latticecore.det(m)
            if d == 0:
                continue
            found += 1
            assert discriminant_group(m).order == abs(d)


class TestOrthogonalKernel:
    def test_gram_3x3_pullback(self):
        kernel = orthogonal_kernel(G2_GRAM, [[1, 0, 0], [0, 1, 0]])
        assert kernel == [(18, -5, 1)]

    def test_gram_5x5_pullback(self):
        kernel = orthogonal_kernel(D4_GRAM, [[int(i == j) for j in range(5)] for i in range(4)])
        assert len(kernel) == 1
        assert kernel[0] in ((-30, 14, 14, -6, 1), (30, -14, -14, 6, -1))

    def test_empty_sublattice(self):
        assert orthogonal_kernel(G2_GRAM, []) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_primitivity_and_orthogonality(self):
        import math

        (v,) = orthogonal_kernel(D4_GRAM, [[int(i == j) for j in range(5)] for i in range(4)])
        assert math.gcd(*v) == 1
        for s in range(4):
            assert sum(D4_GRAM[s][j] * v[j] for j in range(5)) == 0

    @pytest.mark.parametrize("gram, sublattice, message", [
        ([[2, 1]], [[1]], "gram matrix must be square, got 1x2"),  # returned []
        ([[2, 1], [1]], [], "gram matrix must be square, got 2x1/2"),
        ([[2, 1], [1, 2]], [[1, 2, 3]], "sublattice rows must have 2 entries each, got [3]"),  # raised IndexError
        ([[2, 1], [1, 2]], [[1, 0], [1]], "sublattice rows must have 2 entries each, got [2, 1]"),
    ])
    def test_shapes_are_checked(self, gram, sublattice, message):
        with pytest.raises(LatticeError, match=re.escape(message)):
            orthogonal_kernel(gram, sublattice)

    def test_first_nonzero_coordinate_is_positive(self):
        # the Smith transform's own kernel column is (-1, 1) here
        assert orthogonal_kernel([[0, 3], [3, 0]], [[1, 1]]) == [(1, -1)]

    def test_double_complement_recovers_span(self):
        # the complement of the kernel contains the original span with finite index
        sub = [[1, 0, 0], [0, 1, 0]]
        kernel = orthogonal_kernel(G2_GRAM, sub)
        back = orthogonal_kernel(G2_GRAM, kernel)
        assert len(back) == 2
        cols = [[Fraction(x) for x in v] for v in back]
        for s in sub:
            res = _solve_rational(cols, [Fraction(x) for x in s])
            assert res is not None  # s lies in the rational span of the complement


def _ref_box_search(gram, ell, bound):
    """Brute-force reference: every isotropic pair in the box [-bound, bound]^3."""
    def form(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(3) for j in range(3))

    if form(ell, ell) == 0:
        raise LatticeError("the polarization vector must have nonzero self-pairing")
    box = itertools.product(range(-bound, bound + 1), repeat=3)
    iso = [v for v in box if any(v) and form(v, ell) == 0 and form(v, v) == 0]
    neg = lambda v: tuple(-x for x in v)
    orbits = set()
    for a, b in itertools.product(iso, repeat=2):
        if form(a, b) == 1:
            members = [(a, b), (b, a), (neg(a), neg(b)), (neg(b), neg(a))]
            orbits.add(min(p for p in members if next(x for x in p[0] if x) > 0))
    if not orbits:
        raise SearchExhaustedError(f"no isotropic pair inside the [-{bound}, {bound}] box")
    orbits = tuple(sorted(orbits))
    return orbits[0][0], orbits[0][1], orbits


def _solve_triple(gram, ell, bound):
    sol = isotropic_pair_solve(gram, ell, bound)
    return sol.a, sol.b, sol.orbits


@st.composite
def _hyperbolic_plus_line(draw):
    """B + <d> for a binary B with isotropic vectors, in a random unimodular basis.

    ``ell`` is the generator of <d>, so ell^perp is B: U carries an isotropic
    pair, U(2) only isotropic rays pairing to 2, [[2, 1], [1, 0]] a pair again.
    """
    (p, q), (_, r) = draw(st.sampled_from([((0, 1), (1, 0)), ((0, 2), (2, 0)), ((2, 1), (1, 0))]))
    d = draw(st.integers(-6, 6).filter(bool))
    g0 = [[p, q, 0], [q, r, 0], [0, 0, d]]
    basis = [[int(i == j) for j in range(3)] for i in range(3)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)),
                                 max_size=4)):
        if i != j:
            for row in basis:
                row[j] += c * row[i]
    order = draw(st.permutations(range(3)))
    basis = [[row[k] for k in order] for row in basis]
    gram = mat_mul(mat_mul([list(c) for c in zip(*basis)], g0), basis)
    ell = [row[2] for row in _inverse(basis)]
    return gram, ell


@st.composite
def _small_symmetric(draw):
    entries = draw(st.lists(st.integers(-4, 4), min_size=6, max_size=6))
    it = iter(entries)
    gram = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            gram[i][j] = gram[j][i] = next(it)
    return gram, draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3))


class TestIsotropicPairs:
    @settings(max_examples=150, deadline=None)
    @given(_hyperbolic_plus_line(), st.integers(0, 6))
    def test_matches_box_search_on_hyperbolic_planes(self, lattice, bound):
        gram, ell = lattice
        assert _outcome(_solve_triple, gram, ell, bound) == _outcome(_ref_box_search, gram, ell, bound)

    @settings(max_examples=150, deadline=None)
    @given(_small_symmetric(), st.integers(0, 6))
    def test_matches_box_search_on_small_grams(self, lattice, bound):
        gram, ell = lattice
        assert _outcome(_solve_triple, gram, ell, bound) == _outcome(_ref_box_search, gram, ell, bound)

    def test_bound_filters_the_pair(self):
        sol = isotropic_pair_solve(G2_GRAM, (18, -5, 1), bound=5)
        assert (sol.a, sol.b) == ((1, 0, 0), (-5, 1, 0))
        with pytest.raises(SearchExhaustedError, match=r"\[-4, 4\] box"):
            isotropic_pair_solve(G2_GRAM, (18, -5, 1), bound=4)

    def test_integer_like_arguments_give_the_same_pair(self):
        want = isotropic_pair_solve(G2_GRAM, (18, -5, 1), bound=5)
        assert isotropic_pair_solve([list(r) for r in G2_GRAM], [18, -5, True], bound=5) == want

    def test_gram_3x3_solution(self):
        sol = isotropic_pair_solve(G2_GRAM, (18, -5, 1), bound=50)
        assert sol.a == (1, 0, 0)
        assert sol.b == (-5, 1, 0)
        assert len(sol.orbits) == 1

    def test_constraints_hold(self):
        sol = isotropic_pair_solve(G2_GRAM, (18, -5, 1), bound=20)
        form = lambda x, y: sum(x[i] * G2_GRAM[i][j] * y[j] for i in range(3) for j in range(3))
        assert form(sol.a, sol.a) == 0 and form(sol.b, sol.b) == 0
        assert form(sol.a, sol.b) == 1
        assert form(sol.a, (18, -5, 1)) == 0 and form(sol.b, (18, -5, 1)) == 0

    def test_hyperbolic_plane(self):
        gram = [[0, 1, 0], [1, 0, 0], [0, 0, 2]]
        sol = isotropic_pair_solve(gram, (0, 0, 1), bound=5)
        assert (sol.a, sol.b) == ((0, 1, 0), (1, 0, 0)) or (sol.a, sol.b) == ((1, 0, 0), (0, 1, 0))
        assert len(sol.orbits) == 1

    @pytest.mark.parametrize("gram", PLANES_WITHOUT_A_PAIR)
    def test_the_box_search_finds_no_pair_on_the_planes_without_one(self, gram):
        # the solver's refusal of these planes is a row of test_input_checks.py::CASES
        with pytest.raises(SearchExhaustedError, match=r"^no isotropic pair inside the \[-6, 6\] box$"):
            _ref_box_search(gram, (0, 0, 1), 6)


def test_verify_refuses_a_product_that_misses_d():
    # diag(1, 3) is a Smith form and U, V stay unimodular: only U * M * V != D gives it away
    m = [[1, 2], [3, 4]]
    snf = smith_normal_form(m)
    assert snf.verify(m)
    assert snf._replace(D=((1, 0), (0, 3))).verify(m) is False


def test_isotropic_pair_solve_checks_its_answer(monkeypatch):
    # rays that pair to 1 but are not isotropic: the solver refuses them instead of returning them
    monkeypatch.setattr(latticecore, "_isotropic_rays", lambda gram, w: ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(InconsistencyError, match="is not isotropic, orthogonal to ell and unimodular"):
        isotropic_pair_solve([[2, 1, 0], [1, 2, 0], [0, 0, 2]], (0, 0, 1), bound=10)
