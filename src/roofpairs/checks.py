"""Named exact checks reproducing every published number of the two roofs.

This is the registry behind ``verify-all``: each check evaluates one claim
(an intersection table, a pushforward class, a residue, a cohomology
dimension, ...) with tolerance zero and reports computed against expected.
The same claims are asserted independently by the test suite.
"""

from __future__ import annotations

import random
from typing import Any, Callable, NamedTuple

from . import bwbcoh, latticecore, motivicring, roofcalc
from .configs import builtin_config
from .gradedring import BasisElement, ChernVector, GradedRingError, RingPresentation, chern_twist, make_quadric_ring


class Check(NamedTuple):
    name: str
    passed: bool
    computed: Any
    expected: Any


# golden values (exact)
G2_GRAM = ((0, 1, 5), (1, 10, 32), (5, 32, 82))
D4_GRAM = (
    (0, 0, 0, 1, 6),
    (0, 0, 1, 6, 22),
    (0, 1, 0, 6, 22),
    (1, 6, 6, 44, 126),
    (6, 22, 22, 126, 308),
)
G2_LOCUS = (18, -5, 1)
D4_LOCUS_DECLARED = (-30, 14, 14, -6, 1)
G2_SWITCHED = (42, -23, 7)
D4_SWITCHED_DECLARED = (42, -38, -50, 30, -7)
G2_WITNESS = (7, (-7, 1, 0))
D4_WITNESS = (-7, (-14, 5, 4, -1, 0))
MUKAI_VECTOR = (2, 1, -3)


class CheckSet:
    def __init__(self):
        self.checks: list[Check] = []

    def add(self, name: str, computed, expected) -> None:
        self.checks.append(Check(name, computed == expected, computed, expected))

    def guard(self, name: str, fn: Callable[[], None]) -> None:
        """Run a block of checks; a raised error becomes a single failed check."""
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report, never crash the run
            self.checks.append(Check(name, False, f"error: {exc}", "no error"))


def run_all(corrupt: bool = False, bound: int = 50) -> list[Check]:
    cs = CheckSet()
    if corrupt:
        from copy import deepcopy

        from .configs import BUILTIN_CONFIGS, config_from_dict

        data = deepcopy(BUILTIN_CONFIGS["g2dagger"])
        data["sides"][0]["middle_basis"] = list(reversed(data["sides"][0]["middle_basis"]))
        g2 = config_from_dict(data)
    else:
        g2 = builtin_config("g2dagger")
    d4 = builtin_config("d4")

    cs.guard("chern-and-relation", lambda: _chern_and_relation(cs, g2))
    cs.guard("intersection-tables", lambda: _tables(cs, g2, d4))
    cs.guard("locus-classes", lambda: _locus(cs, g2, d4))
    cs.guard("sign-law", lambda: _sign_law(cs, g2, d4))
    cs.guard("side-switch", lambda: _switch(cs, g2, d4))
    cs.guard("residues", lambda: _residues(cs, g2, d4))
    cs.guard("mukai", lambda: _mukai(cs, g2, bound))
    cs.guard("cohomology", lambda: _cohomology(cs))
    cs.guard("motivic", lambda: _motivic(cs))
    cs.guard("structural", lambda: _structural(cs, g2, d4))
    return cs.checks


def _chern_and_relation(cs: CheckSet, g2) -> None:
    q5 = make_quadric_ring(5)
    c = ChernVector(3, (q5.l_power(1) * 2, q5.l_power(2) * 2, q5.basis_class("Pi") * 2))
    cs.add("chern-twist-by-1", str(chern_twist(c, 1)), "(5*L, 9*L^2, 12*Pi)")
    cs.add(
        "induced-relation",
        g2.side.relation_string(),
        "xi^3 - 5*L*xi^2 + 9*L^2*xi - 12*Pi = 0",
    )


def _tables(cs: CheckSet, g2, d4) -> None:
    lat2 = roofcalc.middle_lattice(g2.side)
    lat4 = roofcalc.middle_lattice(d4.side)
    cs.add("gram-3x3", lat2.gram, G2_GRAM)
    cs.add("gram-5x5", lat4.gram, D4_GRAM)
    # recomputed from the Gram matrix, not read off the lattice: tests/test_call_counts.py pins the det calls
    cs.add("gram-3x3-determinant", latticecore.det(lat2.gram), -12)
    cs.add("gram-5x5-determinant-abs", abs(latticecore.det(lat4.gram)), 12)
    snf2 = latticecore.smith_normal_form(lat2.gram)
    cs.add("smith-factors-3x3", snf2.invariant_factors, (1, 1, 12))
    cs.add("discriminant-group-3x3", str(latticecore.discriminant_group(lat2.gram)), "Z/12")
    cs.add("discriminant-group-5x5", str(latticecore.discriminant_group(lat4.gram)), "Z/12")


def _locus(cs: CheckSet, g2, d4) -> None:
    v2 = roofcalc.locus_coordinates(g2.side)
    v4 = roofcalc.locus_coordinates(d4.side)
    cs.add("locus-class-3x3", v2, G2_LOCUS)
    cs.add("locus-class-5x5-up-to-sign", v4, tuple(-x for x in D4_LOCUS_DECLARED))
    cs.add(
        "locus-5x5-declared-sign",
        d4.declared_locus_signs[0],
        -1,  # the declared representative is minus the positivity-normalized one
    )
    for name, cfg, v in (("3x3", g2, v2), ("5x5", d4, v4)):
        lat = roofcalc.middle_lattice(cfg.side)
        rows = [sum(lat.gram[i][j] * v[j] for j in range(len(v))) for i in range(len(v))]
        pullback = [i for i, (_, e) in enumerate(lat.monomials) if e <= cfg.rank - 2]
        cs.add(f"locus-orthogonality-{name}", [rows[i] for i in pullback], [0] * len(pullback))
        cls = roofcalc.locus_pushforward_class(cfg.side)
        norm = roofcalc.reduce(cfg.side, {cfg.rank - 1: cfg.side.base.hyperplane})
        cs.add(f"locus-normalization-pairing-{name}", roofcalc.pairing_on_M(cfg.side, cls, norm), 12)


def _sign_law(cs: CheckSet, g2, d4) -> None:
    cs.add("self-pairing-rank3", roofcalc.polarized_sign_check(g2.side), 12)
    cs.add("self-pairing-rank4", roofcalc.polarized_sign_check(d4.side), -12)
    for name, cfg in (("rank3", g2), ("rank4", d4)):
        expected = (-1) ** (cfg.rank - 1) * cfg.polarization_degree
        cs.add(f"sign-law-{name}", roofcalc.polarized_sign_check(cfg.side), expected)


def _switch(cs: CheckSet, g2, d4) -> None:
    lat2t = roofcalc.middle_lattice(g2.tilde_side)
    j2 = roofcalc.switch_side(g2, roofcalc.locus_pushforward_class(g2.side))
    cs.add("switch-locus-3x3", roofcalc.coordinates_in_lattice(lat2t, j2), G2_SWITCHED)

    xi = roofcalc.xi_power(g2.side, 1)
    cs.add("switch-fixes-xi", str(roofcalc.switch_side(g2, xi)), "xi")

    lat4t = roofcalc.middle_lattice(d4.tilde_side)
    lat4 = roofcalc.middle_lattice(d4.side)
    declared_rep = roofcalc.class_from_coordinates(lat4, D4_LOCUS_DECLARED)
    j4 = roofcalc.switch_side(d4, declared_rep)
    cs.add("switch-locus-5x5-declared-rep", roofcalc.coordinates_in_lattice(lat4t, j4), D4_SWITCHED_DECLARED)

    # double switch is the identity on every middle-basis monomial of both sides
    for cfg in (g2, d4):
        ok = []
        for s in (cfg.side, cfg.tilde_side):
            lat = roofcalc.middle_lattice(s)
            for i in range(lat.rank):
                cls = roofcalc.class_from_coordinates(lat, [int(i == k) for k in range(lat.rank)])
                back = roofcalc.switch_side(cfg, roofcalc.switch_side(cfg, cls))
                ok.append(back == cls)
        cs.add(f"double-switch-identity-{cfg.name}", all(ok), True)


def _residues(cs: CheckSet, g2, d4) -> None:
    scan2 = roofcalc.residue_scan(g2)
    scan4 = roofcalc.residue_scan(d4)
    cs.add("residue-set-3x3", scan2.residue_set, (7,))
    cs.add("residue-set-5x5", scan4.residue_set, (5,))
    cs.add("sign-orbit-3x3", scan2.sign_orbit, (5, 7))
    cs.add("sign-orbit-5x5", scan4.sign_orbit, (5, 7))
    cs.add("witness-3x3", scan2.declared_witness, G2_WITNESS)
    cs.add("witness-5x5", scan4.declared_witness, D4_WITNESS)
    cs.add("unit-residues-absent", [set(s.sign_orbit) & {1, 11} for s in (scan2, scan4)], [set(), set()])
    cs.add("iso-obstructed", (scan2.iso_obstructed, scan4.iso_obstructed), (True, True))


def _mukai(cs: CheckSet, g2, bound: int) -> None:
    lat = roofcalc.middle_lattice(g2.side)
    sol = latticecore.isotropic_pair_solve(lat.gram, G2_LOCUS, bound)
    cs.add("theta-pair", (sol.a, sol.b), ((1, 0, 0), (-5, 1, 0)))
    cs.add("theta-orbit-count", len(sol.orbits), 1)
    cs.add("mukai-vector", roofcalc.mukai_vector(g2, bound), MUKAI_VECTOR)
    cs.add("mukai-vector-swapped", roofcalc.mukai_vector(g2.swap(), bound), MUKAI_VECTOR)
    lat_t = roofcalc.middle_lattice(g2.tilde_side)
    image = roofcalc.switch_side(g2, roofcalc.class_from_coordinates(lat, sol.a))
    ic = roofcalc.coordinates_in_lattice(lat_t, image)
    self_pairing = sum(ic[i] * lat_t.gram[i][j] * ic[j] for i in range(3) for j in range(3))
    cs.add("switched-generator", ic, (5, -3, 1))
    cs.add("switched-generator-isotropic", self_pairing, 0)


def _cohomology(cs: CheckSet) -> None:
    cs.add("vanishing-case-1", bwbcoh.vanishing_case(1), {0: 1})
    cs.add("vanishing-case-2", bwbcoh.vanishing_case(2), {2: 1})
    cs.add("vanishing-case-3", bwbcoh.vanishing_case(3), {2: 1})
    cs.add("acyclic-wedge2", bwbcoh.bundle_cohomology(5, "Wedge2Sdual", -3), {})
    cs.add("acyclic-sdual-minus3", bwbcoh.bundle_cohomology(5, "Sdual", -3), {})
    cs.add("sections-O1", bwbcoh.bundle_cohomology(5, "O", 1), {0: 7})
    cs.add("sections-O2", bwbcoh.bundle_cohomology(5, "O", 2), {0: 27})
    cs.add("sections-Sdual1", bwbcoh.bundle_cohomology(5, "Sdual", 1), {0: 48})
    cs.add("sections-G1", bwbcoh.ottaviani_table(1), {0: 41})
    cs.add("sections-G1-difference", bwbcoh.bundle_cohomology(5, "Sdual", 1).get(0, 0)
           - bwbcoh.bundle_cohomology(5, "O", 1).get(0, 0), 41)
    cs.add("ideal-sheaf-sections", bwbcoh.ideal_section_table(), {0: 1})


def _motivic(cs: CheckSet) -> None:
    B, B_TILDE, L = motivicring.B, motivicring.B_TILDE, motivicring.L
    Y, Y_TILDE = motivicring.Y, motivicring.Y_TILDE
    l_equivalence_residual = motivicring.l_equivalence_residual
    ok = [l_equivalence_residual(r) == motivicring.residual_closed_form(r) for r in range(2, 13)]
    cs.add("residual-identity-r2-12", ok, [True] * 11)
    cs.add(
        "residual-r3",
        str(l_equivalence_residual(3)),
        str((Y - Y_TILDE) * L ** 2 + (1 + L) * (B - B_TILDE)),
    )
    cs.add(
        "residual-r4",
        str(l_equivalence_residual(4)),
        str((Y - Y_TILDE) * L ** 3 + (1 + L + L ** 2) * (B - B_TILDE)),
    )


def _structural(cs: CheckSet, g2, d4) -> None:
    # each RingPresentation checks associativity on the sorted triples that can
    # fail; this cube over all ordered basis triples of two quadric rings is its
    # independent oracle.  The bundle rings are read as RingPresentations, so
    # the same validator checks them; their full cube is in tests/test_acceptance.py.
    for ring in (make_quadric_ring(5), make_quadric_ring(6)):
        labels = [b.label for b in ring.basis]
        assoc = all(
            ring._combo_times_label(ring.basis_product(x, y), z)
            == ring._combo_times_label(ring.basis_product(y, z), x)
            for x in labels for y in labels for z in labels
        )
        comm = all(
            ring.basis_product(x, y) == ring.basis_product(y, x) for x in labels for y in labels
        )
        cs.add(f"ring-laws-{ring.name}", assoc and comm, True)
    for cfg in (g2, d4):
        cs.add(f"bundle-ring-laws-{cfg.name}", _bundle_ring_laws(cfg.side), True)

    rng = random.Random(20260810)
    ok = True
    for _ in range(1000):
        m = [[rng.randint(-20, 20) for _ in range(5)] for _ in range(5)]
        if not latticecore.smith_normal_form(m).verify(m):
            ok = False
            break
    cs.add("smith-validity-1000-random", ok, True)

    dichotomy = True
    for n in (5, 6):
        for name in bwbcoh.dictionary_names(n):
            for w in bwbcoh.bundle_weights(n, name):
                for t in range(-10, 11):
                    lam = (w[0] + t,) + tuple(w[1:])
                    if len(bwbcoh.bundle_cohomology_of_weight(n, lam)) > 1:
                        dichotomy = False
    cs.add("bott-dichotomy", dichotomy, True)

    chi_ok = []
    for t in range(-5, 4):
        sub = bwbcoh.bundle_cohomology(5, "O", t)
        mid = bwbcoh.bundle_cohomology(5, "Sdual", t)
        quot = bwbcoh.ottaviani_table(t)
        chi_ok.append(
            bwbcoh.euler_characteristic(mid)
            == bwbcoh.euler_characteristic(sub) + bwbcoh.euler_characteristic(quot)
        )
    cs.add("les-chi-consistency", chi_ok, [True] * len(chi_ok))


def _bundle_ring_laws(side) -> bool:
    """Exact ring laws of the bundle ring of ``side``: a product with the unit monomial is the other
    factor, and every other product of two basis monomials, in both orders, goes into the table of one
    ``RingPresentation``, whose construction checks that both orders agree, integer coefficients,
    gradedness, completeness and exact associativity; a ``GradedRingError`` there is False.  The
    independent full-cube oracle is tests/test_acceptance.py::test_criterion_10_structural_properties."""
    monos = [(b.label, e) for e in range(side.rank) for b in side.base.basis]
    names = {m: roofcalc.monomial_name(side, *m) or "1" for m in monos}
    classes = [roofcalc.monomial(side, *m) for m in monos]
    table = {}
    for x, a in zip(names.values(), classes):
        for y, b in zip(names.values(), classes):
            ab = a * b  # each ordered pair once
            if "1" not in (x, y):
                table[x, y] = {names[z, e]: c for e, p in enumerate(ab.parts) for z, c in p.coeffs.items()}
            elif ab != (b if x == "1" else a):
                return False
    basis = [BasisElement(x, cls.degree) for x, cls in zip(names.values(), classes)]
    try:
        RingPresentation(side.name, side.dim_total, basis, names[side.base.point_label, side.rank - 1], table)
    except GradedRingError:
        return False
    return True
