"""Independent Euler-characteristic oracle: exact Riemann-Roch on quadrics.

Every chi value asserted by the cohomology engine is recomputed here through
a completely different route: the Chern character and the Todd class are
expanded in the exact quadric cohomology ring (the Todd series coefficients
are derived from scratch by rational power-series manipulation, not from
tabulated Todd polynomials), and chi(E) = integral of ch(E).td(T).

Agreement between the two routes checks the weight dictionary, the dominance
algorithm, the Weyl dimension formula and the sequence pipelines at once.
"""

from fractions import Fraction

import pytest

from roofpairs import bwbcoh
from roofpairs.gradedring import ChernVector, chern_twist, integrate, make_quadric_ring

from references import ottaviani_chern

Q5 = make_quadric_ring(5)
Q6 = make_quadric_ring(6)


# -- mixed (inhomogeneous) classes: list indexed by degree -------------------

def mixed_one(ring):
    return [ring.unit()] + [ring.zero(d) for d in range(1, ring.dimension + 1)]


def mixed_zero(ring):
    return [ring.zero(d) for d in range(ring.dimension + 1)]


def mixed_add(a, b):
    return [x + y for x, y in zip(a, b)]


def mixed_scale(a, c):
    return [x.scale(c) for x in a]


def mixed_mul(a, b):
    ring = a[0].ring
    out = mixed_zero(ring)
    for i, x in enumerate(a):
        if x.is_zero:
            continue
        for j, y in enumerate(b):
            if i + j > ring.dimension or y.is_zero:
                continue
            out[i + j] = out[i + j] + x * y
    return out


def mixed_inverse(a):
    """Inverse of a mixed class with scalar part 1."""
    ring = a[0].ring
    assert a[0] == ring.unit()
    inv = mixed_one(ring)
    for d in range(1, ring.dimension + 1):
        acc = ring.zero(d)
        for i in range(1, d + 1):
            acc = acc + a[i] * inv[d - i]
        inv[d] = -acc
    return inv


def mixed_exp(a):
    """exp of a mixed class with zero scalar part."""
    ring = a[0].ring
    assert a[0].is_zero
    out = mixed_one(ring)
    term = mixed_one(ring)
    for n in range(1, ring.dimension + 1):
        term = mixed_scale(mixed_mul(term, a), Fraction(1, n))
        out = mixed_add(out, term)
    return out


def mixed_from_chern(c: ChernVector):
    ring = c.ring
    out = mixed_one(ring)
    for comp in c.components:
        if comp.degree <= ring.dimension:
            out[comp.degree] = out[comp.degree] + comp
    return out


# -- Chern character and Todd class ------------------------------------------

def power_sums(c: ChernVector):
    """Newton's identities: power sums of the Chern roots, degrees 1..dim."""
    ring = c.ring
    e = [ring.zero(0)] + [comp for comp in c.components]
    e += [ring.zero(d) for d in range(len(e), ring.dimension + 1)]
    p = [None]
    for k in range(1, ring.dimension + 1):
        acc = e[k].scale((-1) ** (k - 1) * k)
        for i in range(1, k):
            acc = acc + (e[i] * p[k - i]).scale((-1) ** (i - 1))
        p.append(acc)
    return p


def chern_character(rank: int, c: ChernVector):
    ring = c.ring
    p = power_sums(c)
    out = mixed_scale(mixed_one(ring), rank)
    fact = 1
    for k in range(1, ring.dimension + 1):
        fact *= k
        out[k] = out[k] + p[k].scale(Fraction(1, fact))
    return out


def adams_squared_character(rank: int, c: ChernVector):
    """ch of the second Adams operation: k-th piece scaled by 2^k."""
    ch = chern_character(rank, c)
    return [x.scale(2 ** d) for d, x in enumerate(ch)]


def todd_series_coefficients(n: int):
    """Coefficients kappa_j of log(x / (1 - exp(-x))) up to degree n, exact."""
    # h(x) = (1 - exp(-x))/x
    h = [Fraction((-1) ** k, _factorial(k + 1)) for k in range(n + 1)]
    g = [Fraction(1)] + [Fraction(0)] * n  # g = 1/h
    for k in range(1, n + 1):
        g[k] = -sum(h[i] * g[k - i] for i in range(1, k + 1))
    u = [Fraction(0)] + g[1:]  # g - 1
    log_g = [Fraction(0)] * (n + 1)
    term = [Fraction(1)] + [Fraction(0)] * n  # u^m accumulator
    for m in range(1, n + 1):
        nxt = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            if term[i] == 0:
                continue
            for j in range(1, n + 1 - i):
                nxt[i + j] += term[i] * u[j]
        term = nxt
        for i in range(n + 1):
            log_g[i] += term[i] * Fraction((-1) ** (m - 1), m)
    return log_g


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def todd_class(tangent_chern: ChernVector):
    ring = tangent_chern.ring
    kappa = todd_series_coefficients(ring.dimension)
    p = power_sums(tangent_chern)
    log_td = mixed_zero(ring)
    for k in range(1, ring.dimension + 1):
        log_td[k] = log_td[k] + p[k].scale(kappa[k])
    return mixed_exp(log_td)


def quadric_tangent_chern(ring) -> ChernVector:
    """c(T) from the euler sequence restricted to the quadric: (1+L)^(n+2)/(1+2L)."""
    n = ring.dimension
    from math import comb

    numer = [ring.l_power(k).scale(comb(n + 2, k)) for k in range(n + 1)]
    denom = mixed_one(ring)
    denom[1] = ring.l_power(1) * 2
    total = mixed_mul(numer, mixed_inverse(denom))
    assert total[0] == ring.unit()
    return ChernVector(n, tuple(total[1:]))


def chi(rank: int, c: ChernVector) -> Fraction:
    ring = c.ring
    td = todd_class(quadric_tangent_chern(ring))
    total = mixed_mul(chern_character(rank, c), td)
    value = integrate(total[ring.dimension])
    assert value.denominator == 1
    return int(value)


def chi_of_character(ch_mixed) -> int:
    ring = ch_mixed[0].ring
    td = todd_class(quadric_tangent_chern(ring))
    value = integrate(mixed_mul(ch_mixed, td)[ring.dimension])
    assert value.denominator == 1
    return int(value)


# -- named bundles on the five-dimensional quadric ---------------------------

def line_bundle(ring, t: int) -> ChernVector:
    return ChernVector(1, (ring.l_power(1) * t,))


def spinor_dual_chern() -> ChernVector:
    # from the defining extension: total class equals that of the rank-3 quotient
    return ChernVector(4, (Q5.l_power(1) * 2, Q5.l_power(2) * 2, Q5.basis_class("Pi") * 2, Q5.zero(4)))


def cayley_chern() -> ChernVector:
    # c(C(2)) = c(G(1)) / c(O(2)), then untwist by -2
    g1 = mixed_from_chern(chern_twist(ottaviani_chern(Q5), 1))
    o2 = mixed_one(Q5)
    o2[1] = Q5.l_power(1) * 2
    c2_mixed = mixed_mul(g1, mixed_inverse(o2))
    for d in range(3, 6):
        assert c2_mixed[d].is_zero  # rank 2
    c_twisted = ChernVector(2, (c2_mixed[1], c2_mixed[2]))
    return chern_twist(c_twisted, -2)


def dual_chern(c: ChernVector) -> ChernVector:
    return ChernVector(c.rank, tuple(comp.scale((-1) ** i) for i, comp in enumerate(c.components, start=1)))


class TestToddMachinery:
    def test_todd_series_matches_bernoulli_expansion(self):
        # exp(sum kappa_j x^j) must recover x/(1-e^-x) = 1 + x/2 + x^2/12 - x^4/720 + ...
        kappa = todd_series_coefficients(6)
        logs = [Fraction(0)] + list(kappa[1:])
        out = [Fraction(1)] + [Fraction(0)] * 6
        power = [Fraction(1)] + [Fraction(0)] * 6
        fact = 1
        for m in range(1, 7):
            fact *= m
            nxt = [Fraction(0)] * 7
            for i in range(7):
                if power[i] == 0:
                    continue
                for j in range(7 - i):
                    nxt[i + j] += power[i] * logs[j]
            power = nxt
            for i in range(7):
                out[i] += power[i] / fact
        assert out[:5] == [Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0), Fraction(-1, 720)]

    def test_todd_genus_is_one(self):
        # chi(O) = 1 on both quadrics: the full Todd-class computation collapses to it
        assert chi(1, ChernVector(1, (Q5.zero(1),))) == 1
        assert chi(1, ChernVector(1, (Q6.zero(1),))) == 1


class TestLineBundles:
    @pytest.mark.parametrize("t", range(-8, 5))
    def test_q5_line_bundles_match_cohomology(self, t):
        table = bwbcoh.bundle_cohomology(5, "O", t)
        assert chi(1, line_bundle(Q5, t)) == bwbcoh.euler_characteristic(table)

    @pytest.mark.parametrize("t", range(-8, 5))
    def test_q6_line_bundles_match_cohomology(self, t):
        table = bwbcoh.bundle_cohomology(6, "O", t)
        assert chi(1, ChernVector(1, (Q6.l_power(1) * t,))) == bwbcoh.euler_characteristic(table)


class TestTwistedBundles:
    def test_ottaviani_sections(self):
        assert chi(3, chern_twist(ottaviani_chern(Q5), 1)) == 41

    def test_spinor_dual_twists(self):
        for t, expected in ((0, 8), (1, 48), (-3, 0), (-2, 0)):
            assert chi(4, chern_twist(spinor_dual_chern(), t)) == expected

    def test_ottaviani_twists_match_pipeline(self):
        for t in range(-5, 4):
            table = bwbcoh.ottaviani_table(t)
            assert chi(3, chern_twist(ottaviani_chern(Q5), t)) == bwbcoh.euler_characteristic(table)

    def test_ottaviani_dual(self):
        assert chi(3, chern_twist(dual_chern(ottaviani_chern(Q5)), 1)) == 1

    def test_cayley_chern_data(self):
        c = cayley_chern()
        assert c.components[0] == Q5.l_power(1) * -1
        for t in (-3, -1, 1):
            assert chi(2, chern_twist(c, t)) == 0


class TestTensorBundles:
    def test_vanishing_case_2_chi(self):
        g1 = chern_character(3, chern_twist(ottaviani_chern(Q5), -3))
        g2 = chern_character(3, ottaviani_chern(Q5))
        assert chi_of_character(mixed_mul(g1, g2)) == 1

    def test_vanishing_case_3_chi(self):
        c = cayley_chern()
        ch1 = chern_character(2, chern_twist(dual_chern(c), 0))
        ch2 = chern_character(2, chern_twist(c, -2))
        assert chi_of_character(mixed_mul(ch1, ch2)) == 1

    def test_sym2_and_wedge2_split(self):
        sdual = chern_twist(spinor_dual_chern(), -3)
        ch = chern_character(4, sdual)
        # ch relative to the untwisted bundle twisted inside the square:
        # Sym^2 and Wedge^2 of S-dual, both twisted by -3, computed through
        # ch(Sym2) = (ch(E)^2 + psi2(E))/2 on the untwisted E, then twisting.
        e = spinor_dual_chern()
        ch_e = chern_character(4, e)
        psi = adams_squared_character(4, e)
        sym = mixed_scale(mixed_add(mixed_mul(ch_e, ch_e), psi), Fraction(1, 2))
        wedge = mixed_scale(mixed_add(mixed_mul(ch_e, ch_e), mixed_scale(psi, -1)), Fraction(1, 2))
        twist = chern_character(1, line_bundle(Q5, -3))
        chi_sym = chi_of_character(mixed_mul(sym, twist))
        chi_wedge = chi_of_character(mixed_mul(wedge, twist))
        assert chi_sym == bwbcoh.euler_characteristic(bwbcoh.bundle_cohomology(5, "Sym2Sdual", -3))
        assert chi_wedge == bwbcoh.euler_characteristic(bwbcoh.bundle_cohomology(5, "Wedge2Sdual", -3))
        assert (chi_sym, chi_wedge) == (1, 0)

    def test_square_decomposes(self):
        # chi(E (x) E) = chi(Sym^2 E) + chi(Wedge^2 E) for the twisted dual spinor bundle
        e = spinor_dual_chern()
        ch_e = chern_character(4, e)
        twist = chern_character(1, line_bundle(Q5, -3))
        total = chi_of_character(mixed_mul(mixed_mul(ch_e, ch_e), twist))
        assert total == 1 + 0


class TestSerreDuality:
    def test_ottaviani_dual_table_is_serre_dual(self):
        # H^k(G(1)) against H^(5-k)(Gdual(-6))
        table = bwbcoh.ottaviani_dual_table(-6)
        assert table == {5: 41}

    @pytest.mark.parametrize("t", range(-6, 2))
    def test_chi_antisymmetry(self, t):
        # chi(E) = -chi(Edual(-5)) on an odd-dimensional variety
        c = ottaviani_chern(Q5)
        left = chi(3, chern_twist(c, t))
        right = chi(3, chern_twist(dual_chern(c), -5 - t))
        assert left == -right
