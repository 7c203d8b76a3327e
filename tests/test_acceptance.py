"""Acceptance suite: every published number of the two roof configurations.

One test per criterion, all exact (tolerance zero).  Each test prints a
single ``criterion N: PASS`` line on success, mirroring the CLI's
``verify-all`` report; the whole suite is required to run well under a
minute.
"""

import json
import math
import random
from itertools import product

from roofpairs import bwbcoh, latticecore, roofcalc
from roofpairs.cli import main
from roofpairs.configs import builtin_config
from roofpairs.gradedring import chern_twist, make_quadric_ring
from roofpairs.motivicring import (
    B,
    B_TILDE,
    L,
    Y,
    Y_TILDE,
    l_equivalence_residual,
    proj_class,
)

from golden_grams import D4_GRAM, G2_GRAM
from references import ottaviani_chern

G2 = builtin_config("g2dagger")
D4 = builtin_config("d4")


def report(n: int, text: str) -> None:
    print(f"criterion {n}: PASS - {text}")


def test_criterion_01_relation_derivation():
    q5 = make_quadric_ring(5)
    c = ottaviani_chern(q5)
    twisted = chern_twist(c, 1)
    assert twisted.components == (q5.l_power(1) * 5, q5.l_power(2) * 9, q5.basis_class("Pi") * 12)
    side = roofcalc.RoofSide("side", q5, twisted.rank, twisted.components)
    assert side.groth_coeffs == twisted.components
    assert side.relation_string() == "xi^3 - 5*L*xi^2 + 9*L^2*xi - 12*Pi = 0"
    # the built-in g2dagger side carries this relation
    assert [c.coeffs for c in G2.side.groth_coeffs] == [c.coeffs for c in twisted.components]
    assert D4.side.relation_string() == "xi^4 - 6*L*xi^3 + 14*L^2*xi^2 - (14*Pi1 + 16*Pi2)*xi + 12*Pi1*L = 0"
    report(1, "twist (2,2,2) -> (5,9,12) and the degree-3 relation, coefficient for coefficient")


def test_criterion_02_intersection_tables():
    lat2 = roofcalc.middle_lattice(G2.side)
    lat4 = roofcalc.middle_lattice(D4.side)
    assert lat2.gram == G2_GRAM
    assert lat4.gram == D4_GRAM
    assert lat2.determinant == lat4.determinant == -12
    snf = latticecore.smith_normal_form([list(r) for r in lat2.gram])
    assert snf.invariant_factors == (1, 1, 12)
    assert str(latticecore.discriminant_group([list(r) for r in lat2.gram])) == "Z/12"
    assert str(latticecore.discriminant_group([list(r) for r in lat4.gram])) == "Z/12"
    report(2, "3x3 and 5x5 tables entry-for-entry, det -12, factors (1,1,12), groups Z/12")


def test_criterion_03_pushforward_classes():
    assert roofcalc.locus_coordinates(G2.side) == (18, -5, 1)
    assert str(roofcalc.locus_pushforward_class(G2.side)) == "L*xi^2 - 5*L^2*xi + 18*Pi"
    v4 = roofcalc.locus_coordinates(D4.side)
    declared = (-30, 14, 14, -6, 1)
    assert v4 == tuple(-x for x in declared)  # sign discrepancy, logged in the config
    assert D4.declared_locus_signs == (-1, -1)
    for cfg in (G2, D4):
        lat = roofcalc.middle_lattice(cfg.side)
        v = roofcalc.locus_coordinates(cfg.side)
        for i, (_, e) in enumerate(lat.monomials):
            if e <= cfg.rank - 2:
                assert sum(lat.gram[i][j] * v[j] for j in range(len(v))) == 0
        cls = roofcalc.locus_pushforward_class(cfg.side)
        norm = roofcalc.reduce(cfg.side, {cfg.rank - 1: cfg.side.base.hyperplane})
        assert roofcalc.pairing_on_M(cfg.side, cls, norm) == 12
    report(3, "locus classes exact (5x5 up to the logged sign), orthogonal rows zero, pairing +12")


def test_criterion_04_polarized_sign_law():
    assert roofcalc.polarized_sign_check(G2.side) == 12
    assert roofcalc.polarized_sign_check(D4.side) == -12
    for cfg in (G2, D4):
        for side in (cfg.side, cfg.tilde_side):
            assert roofcalc.cy_degree(side) == 12
            assert roofcalc.polarized_sign_check(side) == (-1) ** (cfg.rank - 1) * 12
    report(4, "degree 12 on every side; self-pairings +12 (rank 3) and -12 (rank 4) match the parity law")


def test_criterion_05_side_switch():
    lat2t = roofcalc.middle_lattice(G2.tilde_side)
    j2 = roofcalc.switch_side(G2, roofcalc.locus_pushforward_class(G2.side))
    assert roofcalc.coordinates_in_lattice(lat2t, j2) == (42, -23, 7)
    assert str(j2) == "7*L*xi^2 - 23*L^2*xi + 42*Pi"
    plane = roofcalc.class_from_coordinates(roofcalc.middle_lattice(G2.side), (1, 0, 0))
    assert roofcalc.coordinates_in_lattice(lat2t, roofcalc.switch_side(G2, plane)) == (5, -3, 1)

    lat4 = roofcalc.middle_lattice(D4.side)
    lat4t = roofcalc.middle_lattice(D4.tilde_side)
    declared = roofcalc.class_from_coordinates(lat4, (-30, 14, 14, -6, 1))
    j4 = roofcalc.switch_side(D4, declared)
    assert roofcalc.coordinates_in_lattice(lat4t, j4) == (42, -38, -50, 30, -7)
    assert str(j4) == "-7*L*xi^3 + 30*L^2*xi^2 - 38*Pi1*xi - 50*Pi2*xi + 42*Pi1*L"

    for cfg in (G2, D4):
        for side in (cfg.side, cfg.tilde_side):
            for cls in (roofcalc.monomial(side, *m) for m in side.middle_basis):
                assert roofcalc.switch_side(cfg, roofcalc.switch_side(cfg, cls)) == cls
    report(5, "switch images on both roofs, Pi -> (5,-3,1); double switch is the identity on all middle monomials")


def test_criterion_06_residue_scan():
    scan2 = roofcalc.residue_scan(G2)
    scan4 = roofcalc.residue_scan(D4)
    assert scan2.declared_witness == (7, (-7, 1, 0))            # L~^2 xi - 7 Pi~
    assert scan4.declared_witness == (-7, (-14, 5, 4, -1, 0))   # -L~^2 xi^2 + 5 Pi~1 xi + 4 Pi~2 xi - 14 Pi~1 L~
    assert (scan2.residue_set, scan4.residue_set) == ((7,), (5,))
    assert dict(scan2.witnesses)[7] == (-7, 1, 0)
    for scan in (scan2, scan4):
        assert scan.sign_orbit == (5, 7)
        assert not ({1, 11} & set(scan.sign_orbit))
        assert scan.iso_obstructed
        assert set(scan.residue_set) == {
            k for k in range(12)
            if all((scan.j_coords[i] - k * scan.jt_coords[i]) % 12 == 0
                   for i in range(len(scan.j_coords)))
        }
        for _, w in scan.witnesses:
            assert math.gcd(*w) == 1
    report(6, "witnesses match the declared classes, sign orbit {5,7} mod 12, +-1 certified absent")


def test_criterion_07_mukai_pipeline():
    lat = roofcalc.middle_lattice(G2.side)
    sol = latticecore.isotropic_pair_solve([list(r) for r in lat.gram], (18, -5, 1), bound=50)
    assert sol.a == (1, 0, 0)       # theta(v) = Pi
    assert sol.b == (-5, 1, 0)      # theta(w) = -5 Pi + L^2 xi
    assert len(sol.orbits) == 1
    assert roofcalc.mukai_vector(G2, bound=50) == (2, 1, -3)
    assert roofcalc.mukai_vector(G2.swap(), bound=50) == (2, 1, -3)
    report(7, "theta pair recovered with a unique orbit in the 50-box; Mukai vector (2, 1, -3)")


def test_criterion_08_cohomology():
    assert bwbcoh.vanishing_case(1) == {0: 1}
    assert bwbcoh.vanishing_case(2) == {2: 1}
    assert bwbcoh.vanishing_case(3) == {2: 1}
    assert bwbcoh.bundle_cohomology(5, "Wedge2Sdual", -3) == {}
    assert bwbcoh.bundle_cohomology(5, "Sdual", -3) == {}
    assert bwbcoh.bundle_cohomology(5, "S", 0) == {}
    assert bwbcoh.ottaviani_table(1) == {0: 41}
    assert bwbcoh.bundle_cohomology(5, "O", 1) == {0: 7}
    assert bwbcoh.bundle_cohomology(5, "O", 2) == {0: 27}
    assert bwbcoh.bundle_cohomology(5, "Sdual", 1) == {0: 48}
    assert 48 - 7 == 41
    assert bwbcoh.ideal_section_table() == {0: 1}
    report(8, "vanishing cases {0:1},{2:1},{2:1}; acyclics; h0 = 41, 7, 27, 48; ideal-sheaf h0 = 1")


def test_criterion_09_motivic_identities():
    for r in range(2, 13):
        expected = (Y - Y_TILDE) * L ** (r - 1) + proj_class(r - 2) * (B - B_TILDE)
        assert l_equivalence_residual(r) == expected
    assert l_equivalence_residual(3) == (Y - Y_TILDE) * L ** 2 + (1 + L) * (B - B_TILDE)
    assert l_equivalence_residual(4) == (Y - Y_TILDE) * L ** 3 + (1 + L + L ** 2) * (B - B_TILDE)
    assert G2.rank == 3 and D4.rank == 4
    report(9, "fibration residual identity for every rank 2..12; ranks 3 and 4 match the configs")


def test_criterion_10_structural_properties():
    # exact ring laws on all basis triples, quadric rings and bundle rings
    for ring in (make_quadric_ring(5), make_quadric_ring(6)):
        labels = [b.label for b in ring.basis]
        for x, y in product(labels, repeat=2):
            assert ring.basis_product(x, y) == ring.basis_product(y, x)
        for x, y, z in product(labels, repeat=3):
            assert ring._combo_times_label(ring.basis_product(x, y), z) == \
                ring._combo_times_label(ring.basis_product(y, z), x)
    for cfg in (G2, D4):
        side = cfg.side
        monos = [roofcalc.monomial(side, b.label, e)
                 for e in range(side.rank) for b in side.base.basis]
        slots = [(e, b.label) for e in range(side.rank) for b in side.base.basis]
        index = {m: i for i, m in enumerate(slots)}

        def coords(cls):
            return {index[(e, lbl)]: c for e, part in enumerate(cls.parts) for lbl, c in part.coeffs.items()}

        def combine(v, table):
            """sum over m of v[m] * table[m], on sparse exact-integer vectors"""
            out = {}
            for m, c in v.items():
                for l, d in table[m].items():
                    out[l] = out.get(l, 0) + c * d
            return {l: c for l, c in out.items() if c}

        # structure constants: e_i * e_j = sum over m of s[i][j][m] * e_m
        dim = len(monos)
        s = [[coords(monos[i] * monos[j]) for j in range(dim)] for i in range(dim)]
        columns = [[s[m][k] for m in range(dim)] for k in range(dim)]
        assert all(s[i][j] == s[j][i] for i in range(dim) for j in range(dim))
        # (e_i e_j) e_k == e_i (e_j e_k) for every triple
        for i, j, k in product(range(dim), repeat=3):
            assert combine(s[i][j], columns[k]) == combine(s[j][k], s[i])

    # Smith decomposition on 1000 random 5x5 matrices with entries in [-20, 20]
    rng = random.Random(20260810)
    for _ in range(1000):
        m = [[rng.randint(-20, 20) for _ in range(5)] for _ in range(5)]
        assert latticecore.smith_normal_form(m).verify(m)

    # Bott dichotomy over the full weight dictionary
    for n in (5, 6):
        for name in bwbcoh.dictionary_names(n):
            for w in bwbcoh.bundle_weights(n, name):
                for t in range(-10, 11):
                    lam = (w[0] + t,) + tuple(w[1:])
                    assert len(bwbcoh.bundle_cohomology_of_weight(n, lam)) <= 1

    # chi additivity of every solved defining sequence
    for t in range(-5, 4):
        assert bwbcoh.euler_characteristic(bwbcoh.bundle_cohomology(5, "Sdual", t)) == \
            bwbcoh.euler_characteristic(bwbcoh.bundle_cohomology(5, "O", t)) + \
            bwbcoh.euler_characteristic(bwbcoh.ottaviani_table(t))
    report(10, "ring laws on all triples, 1000 Smith validations, Bott dichotomy, chi consistency")


def test_verify_all_report_is_byte_stable(capsys):
    assert main(["verify-all", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify-all", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)
