"""The twelve record classes are read-only and equal by value.

Eleven are NamedTuples; ``BasisElement``, ``ChernVector``, ``RoofConfig``
and ``RootSystem`` among them validate their fields in ``__new__``, also
through ``_make`` and ``_replace``: ``test_input_checks.py`` pins each
refusal, and ``test_contract.py`` probes each field of the input records.
``RoofSide`` is the one plain class: it owns a normal-form table and Segre
data that take no part in equality.
"""

import pytest

from roofpairs import bwbcoh, checks, gradedring, latticecore, roofcalc

from golden_grams import G2_GRAM
from references import ottaviani_chern

Q5 = gradedring.make_quadric_ring(5)
G2_LOCUS = (18, -5, 1)

# class -> (a field, a function of the g2dagger config building an instance);
# each call builds a new instance from equal fields
RECORDS = {
    gradedring.BasisElement: ("label", lambda g2: gradedring.BasisElement("L", 1)),
    gradedring.ChernVector: ("rank", lambda g2: ottaviani_chern(Q5)),
    latticecore.SmithDecomposition: ("U", lambda g2: latticecore.smith_normal_form(G2_GRAM)),
    latticecore.DiscriminantGroup: ("factors", lambda g2: latticecore.discriminant_group(G2_GRAM)),
    latticecore.MukaiSolution: ("a", lambda g2: latticecore.isotropic_pair_solve(G2_GRAM, G2_LOCUS, 50)),
    roofcalc.RoofSide: ("groth_coeffs", lambda g2: roofcalc.RoofSide(
        g2.side.name, g2.side.base, g2.side.rank, g2.side.groth_coeffs, g2.side.middle_basis)),
    roofcalc.MiddleLattice: ("gram", lambda g2: roofcalc.middle_lattice(g2.side)),
    roofcalc.RoofConfig: ("polarization_degree", lambda g2: roofcalc.RoofConfig(
        g2.name, g2.side, g2.tilde_side, g2.polarization_degree, g2.declared_locus_signs)),
    roofcalc.ResidueScan: ("residue_set", lambda g2: roofcalc.residue_scan(g2)),
    bwbcoh.RootSystem: ("rank", lambda g2: bwbcoh.quadric_root_system(5)),
    bwbcoh.SequenceSpec: ("tables", lambda g2: bwbcoh.SequenceSpec(("O", "Sdual", "G"), ({0: 7}, {0: 48}, None), 5)),
    checks.Check: ("passed", lambda g2: checks.Check("gram-3x3", True, G2_GRAM, G2_GRAM)),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_read_only_and_equal_by_value(cls, g2):
    field, build = RECORDS[cls]
    first, second = build(g2), build(g2)
    assert type(first) is cls and first is not second
    assert isinstance(first, tuple) == (cls is not roofcalc.RoofSide)
    assert first == second
    with pytest.raises(AttributeError):
        setattr(first, field, getattr(second, field))
    assert first == second


def test_side_equality_ignores_the_normal_form_table(g2):
    field, build = RECORDS[roofcalc.RoofSide]
    first, second = build(g2), build(g2)
    r, c1 = first.rank, first.groth_coeffs[0]
    # each side starts with the row xi^r of its xi-power table, its relation; xi^(r+1) adds the next row,
    # xi * xi^r: the relation shifted up by one, its xi^r part c_1 folded back through the relation
    xi = roofcalc.reduce(first, {r + 1: first.base.unit()})
    assert len(first._powers) == 2 and len(second._powers) == 1
    rel = [first.groth_coeffs[r - j - 1].scale((-1) ** (r - j + 1)) for j in range(r)]
    expected = [(c1 * rel[j] + rel[j - 1] if j else c1 * rel[0]).coeffs for j in range(r)]
    assert [dict(p) for p in first._powers[1]] == [p.coeffs for p in xi.parts] == expected
    first._segre()  # and first._sigma, from every row up to the top degree
    assert len(first._powers) == first.dim_total - r + 1 and len(second._powers) == 1
    assert first._sigma and not second._sigma
    assert first == second and hash(first) == hash(second)


def test_sides_on_one_base_keep_their_own_normal_forms(g2):
    base, r = g2.side.base, g2.side.rank
    sides = [roofcalc.RoofSide(f"scaled-{k}", base, r, tuple(base.l_power(i).scale(k) for i in range(1, r + 1)))
             for k in (1, 2)]
    for b in base.basis:
        x = base.basis_class(b.label)
        for side in sides:
            # x * xi^r = sum_i (-1)^(i+1) x * c_i * xi^(r-i), read off the relation in one step
            expected = [(x * side.groth_coeffs[r - j - 1]).scale((-1) ** (r - j + 1)).coeffs for j in range(r)]
            assert [p.coeffs for p in roofcalc.reduce(side, {r: x}).parts] == expected, (side.name, b.label)
    # each side's table starts from its own relation, the expected normal form above at x = 1
    for side in sides:
        expected = [side.groth_coeffs[r - j - 1].scale((-1) ** (r - j + 1)).coeffs for j in range(r)]
        assert [dict(p) for p in side._powers[0]] == expected
    assert sides[0]._powers is not sides[1]._powers and sides[0]._powers != sides[1]._powers


def test_root_system_is_a_cache_key():
    bwbcoh.rho(bwbcoh.quadric_root_system(5))
    hits = bwbcoh._doubled_rho.cache_info().hits
    bwbcoh.rho(bwbcoh.quadric_root_system(5))
    assert bwbcoh._doubled_rho.cache_info().hits == hits + 1
