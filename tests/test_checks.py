"""The bundle-ring law check of ``verify-all``: true on working rings, false on broken products."""

import pathlib

import pytest

from roofpairs import bwbcoh, checks
from roofpairs.configs import builtin_config, load_config
from roofpairs.roofcalc import BundleClass, RoofSide

DATA = pathlib.Path(__file__).parent / "data"
CONFIGS = ("g2dagger", "d4", "toy_symmetric.json", "q4_large_degree.json")


def _config(name):
    return load_config(str(DATA / name)) if name.endswith(".json") else builtin_config(name)


@pytest.mark.parametrize("name", CONFIGS)
def test_bundle_ring_laws_hold_on_both_sides(name):
    cfg = _config(name)
    assert checks._bundle_ring_laws(cfg.side) is True
    assert checks._bundle_ring_laws(cfg.tilde_side) is True


@pytest.fixture
def dropped_fold(monkeypatch):
    """Each folded row P_e, e > r, of the xi-power table loses the last term of its last nonzero part, in the
    side's table too, so the rows built after it fold from the shortened row."""
    power = RoofSide._power

    def dropping(self, e):
        rows = self._powers
        while len(rows) <= e - self.rank:
            power(self, self.rank + len(rows))
            row = rows[-1]
            if sum(map(len, row)) > 1:
                j = max(j for j, p in enumerate(row) if p)
                rows[-1] = tuple(dict(list(p.items())[:-1]) if i == j else p for i, p in enumerate(row))
        return rows[e - self.rank]

    monkeypatch.setattr(RoofSide, "_power", dropping)


@pytest.mark.parametrize("name", ("g2dagger", "d4"))
def test_a_dropped_fold_breaks_the_laws(name, dropped_fold):
    cfg = builtin_config(name)
    assert checks._bundle_ring_laws(cfg.side) is False


def test_verify_all_reports_a_dropped_fold_as_failed_law_checks(dropped_fold):
    results = {c.name: c for c in checks.run_all()}
    for name in ("bundle-ring-laws-g2dagger", "bundle-ring-laws-d4"):
        assert (results[name].passed, results[name].computed, results[name].expected) == (False, False, True)


@pytest.mark.parametrize("name", ("g2dagger", "d4"))
def test_a_doubled_unit_product_breaks_the_laws(name, monkeypatch):
    # (e_i e_j) e_k = (e_j e_k) e_i holds on every triple with this fault: both sides double alike
    mul = BundleClass.__mul__

    def doubling(self, other):
        out = mul(self, other)
        return out.scale(2) if type(other) is BundleClass and 0 in (self.degree, other.degree) else out

    monkeypatch.setattr(BundleClass, "__mul__", doubling)
    assert checks._bundle_ring_laws(builtin_config(name).side) is False


def test_a_wrong_sdual_table_fails_the_g1_difference(monkeypatch):
    # the difference h0(Sdual(1)) - h0(O(1)) is computed, not written as 48 - 7
    table = bwbcoh.bundle_cohomology
    monkeypatch.setattr(bwbcoh, "bundle_cohomology",
                        lambda n, name, t=0: {0: 49} if (name, t) == ("Sdual", 1) else table(n, name, t))
    cs = checks.CheckSet()
    checks._cohomology(cs)
    results = {c.name: c for c in cs.checks}
    assert results["sections-G1-difference"][1:] == (False, 42, 41)
