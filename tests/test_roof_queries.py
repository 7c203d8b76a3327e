"""The query engine's own behaviour: the stage that names an error, the line that reaches stderr, each piece built
once per distinct side, and the pieces that twin sides share.  ``test_engine_oracles.py`` holds the query's
results equal to the public functions'."""

import json
import pathlib

import pytest

from roofpairs import roofcalc
from roofpairs.cli import cmd_describe, cmd_lemma7, cmd_mukai, main
from roofpairs.configs import builtin_config
from roofpairs.errors import GradedRingError, LatticeError

from roofcorpus import (
    CONFIGS, CORPUS, DATA_CONFIGS, NON_UNIMODULAR, STAGE_CASES, SWITCHED_RELATION, _d4_without_pi2, _fresh,
    SPLIT_TILDE_TOY, _q6_partial_tilde, _toy_data, _zero_degree,
)


def test_sides_that_differ_only_in_the_relation_keep_their_own_lattices():
    cfg = SWITCHED_RELATION
    side, tilde = cfg.side, cfg.tilde_side
    assert side.base is tilde.base and side.middle_basis == tilde.middle_basis
    assert side.groth_coeffs != tilde.groth_coeffs
    grams = [s["gram"] for s in cmd_describe(cfg)["sides"]]
    assert grams[0] != grams[1]


# ---------------------------------------------------------------------------
# a config failing in each stage keeps its stage label and message
# ---------------------------------------------------------------------------

# a config file that fails in a stage: the one line on stderr names the stage and the file
STDERR_CASES = [
    ("lemma7", _q6_partial_tilde(),
     "RoofError: stage 'residue scan' failed: class is not supported on the declared middle basis"),
    ("describe", _toy_data(tilde={"middle_basis": [["Pi1", 0], ["Pi2", 0]]}),
     "UnexpectedRankError: stage 'locus class' failed: orthogonal complement of the pullback sublattice has rank 0, "
     "expected 1"),
    ("describe", _d4_without_pi2(), "UnexpectedRankError: stage 'locus class' failed: locus class -Pi1*xi + 6*Pi1*L "
     "has self-pairing 0, but the sign law needs (-1)^(r-1) d = -12"),
    # the tilde side splits, and +-j = -L*xi + Pi1 has self-pairing -1, where the law needs (-1)^(r-1) d = -2
    *((command, SPLIT_TILDE_TOY, "UnexpectedRankError: stage 'locus class' failed: locus class -L*xi + Pi1 has "
       "self-pairing -1, but the sign law needs (-1)^(r-1) d = -2") for command in ("describe", "lemma7")),
    ("lemma7", _zero_degree(), "InvalidRoofError: stage 'residue scan' failed: the residue scan needs a "
     "polarization degree of at least 1, got 0"),
]


@pytest.mark.parametrize("command, data, error", STDERR_CASES, ids=[
    "residue-scan", "no-top-monomial", "fallback-sign-law", "split-sign-law-describe", "split-sign-law-lemma7",
    "zero-degree"])
def test_stage_and_input_reach_stderr(command, data, error, tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {error} (config {path})\n")


@pytest.mark.parametrize("data", [_q6_partial_tilde(), _zero_degree()], ids=["partial-tilde", "zero-degree"])
def test_describe_reports_the_roof_whose_residue_scan_fails(data, tmp_path, capsys):
    # both sides of the Q6 partial-tilde roof keep the sign law, and only lemma7's switched class leaves the
    # basis; the zero-degree roof has no residues mod 0 to scan
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(data))
    assert main(["describe", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


def test_error_outside_a_stage_keeps_its_message(g2):
    q = roofcalc.RoofQuery(g2)

    def build():
        q.lattice(g2.side)  # a stage that finished leaves no label behind
        raise roofcalc.SwitchError("raised after the stage")

    with pytest.raises(roofcalc.SwitchError) as got:
        build()
    assert str(got.value) == "raised after the stage"
    # inside a stage, the error names that stage, not the one that finished before it
    with pytest.raises(roofcalc.SwitchError) as got:
        q._once("side switch", None, build)
    assert str(got.value) == "stage 'side switch' failed: raised after the stage"
    assert q.stage is None


def test_nested_failure_is_named_once_by_its_innermost_stage():
    # mukai builds both lattices inside its own stage; the failing lattice names itself, once
    q = roofcalc.RoofQuery(STAGE_CASES[1][1])
    for _ in range(2):  # a failed query keeps no label: the second attempt reads the same
        with pytest.raises(roofcalc.RoofError) as got:
            q.mukai(50)
        assert str(got.value) == "stage 'middle lattice' failed: middle monomial xi exponent 2 outside [0, 1]"
        assert q.stage is None


# ---------------------------------------------------------------------------
# each query builds each piece once per distinct side
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg, grams", [(CONFIGS[0], 1), (CONFIGS[2], 2)], ids=["built-in", "tilde-reversed"])
def test_scan_and_mukai_build_each_piece_once(cfg, grams, count_calls):
    # the built-in's sides carry the same data, so the tilde side takes the side's Gram matrix; each side checks
    # its own basis for its own lattice, and never through the public middle_lattice.  switch_side: the side's
    # locus class, and theta(v) for the Mukai vector; one isotropic solve per side
    counts = count_calls("roofcalc._check_middle_basis", "roofcalc._table_gram", "roofcalc.middle_lattice",
                         "roofcalc.switch_side", "latticecore.isotropic_pair_solve")
    q = roofcalc.RoofQuery(cfg)
    for _ in range(2):
        q.residue_scan()
        q.mukai(50)
    assert counts == {"roofcalc._check_middle_basis": 2, "roofcalc._table_gram": grams, "roofcalc.middle_lattice": 0,
                      "roofcalc.switch_side": 2, "latticecore.isotropic_pair_solve": 2}
    assert q.stage is None  # nothing is being built


@pytest.mark.parametrize("argv, grams", [
    (["g2dagger"], 1),
    (["--config", str(pathlib.Path(__file__).parent / "data" / "g2dagger_tilde_reversed.json")], 2),
], ids=["built-in", "tilde-reversed"])
def test_mukai_command_builds_each_piece_once(argv, grams, capsys, count_calls):
    # the command renders theta(v), theta(w) and the switched generator with the query's own lattices and
    # locus classes: one query, one switch (theta(v)), and no public middle_lattice or mukai_vector
    counts = count_calls("roofcalc._check_middle_basis", "roofcalc._table_gram", "roofcalc.middle_lattice",
                         "roofcalc.mukai_vector", "roofcalc.switch_side", "latticecore.isotropic_pair_solve")
    assert main(["mukai", *argv]) == 0 and capsys.readouterr().err == ""
    assert counts == {"roofcalc._check_middle_basis": 2, "roofcalc._table_gram": grams, "roofcalc.middle_lattice": 0,
                      "roofcalc.mukai_vector": 0, "roofcalc.switch_side": 1, "latticecore.isotropic_pair_solve": 2}


@pytest.mark.parametrize("command", ["describe", "lemma7"])
@pytest.mark.parametrize("cfg, distinct", [(CONFIGS[0], 1), (CONFIGS[1], 1), (CONFIGS[2], 2), (CONFIGS[3], 2),
                                           (SWITCHED_RELATION, 2), (CONFIGS[-1], 1), (NON_UNIMODULAR, 1)],
                         ids=lambda c: getattr(c, "name", c))
def test_each_piece_built_once_per_distinct_side(command, cfg, distinct, count_calls):
    # sides that carry the same data share their Gram matrix, locus coordinates and group; each side checks
    # its own basis for its own lattice.  lemma7 needs no group, and only lemma7 switches the locus class to
    # the other side.  Where the pullback sublattice is unimodular, the group is read off the splitting
    # L = S + Zj, with no Smith form; NON_UNIMODULAR falls back to discriminant_group.  The locus class never
    # takes the public path, with its orthogonal kernel
    counts = count_calls("roofcalc._check_middle_basis", "roofcalc._table_gram", "roofcalc._locus_class",
                         "latticecore.discriminant_group", "latticecore.orthogonal_kernel", "roofcalc.switch_side")
    (cmd_describe if command == "describe" else cmd_lemma7)(cfg)
    fallback = int(cfg is NON_UNIMODULAR)
    assert counts == {"roofcalc._check_middle_basis": 2, "roofcalc._table_gram": distinct, "roofcalc._locus_class": 0,
                      "latticecore.discriminant_group": fallback if command == "describe" else 0,
                      "latticecore.orthogonal_kernel": 0,
                      "roofcalc.switch_side": 0 if command == "describe" else 1}


@pytest.mark.parametrize("command", ["describe", "lemma7"])
@pytest.mark.parametrize("cfg", [CONFIGS[-1], NON_UNIMODULAR], ids=lambda c: c.name)
def test_engine_gram_is_read_without_pairings(command, cfg, count_calls):
    # the twin sides of syn-q10-21 have a 9 x 9 Gram matrix, read off the Segre classes, and so is the
    # pairing that signs the locus class; describe's locus self-pairing is k^T G k on the locus coordinates.
    # Pairing each entry, as middle_lattice does, made 84 and 82; the locus sign and self-pairings made 3 and 1.
    # NON_UNIMODULAR's fallback locus class is signed the same way
    assert cfg is NON_UNIMODULAR or cfg.name == "syn-q10-21" and len(cfg.side.middle_basis) == 9
    counts = count_calls("roofcalc.pairing_on_M")
    (cmd_describe if command == "describe" else cmd_lemma7)(cfg)
    assert counts == {"roofcalc.pairing_on_M": 0}


@pytest.mark.parametrize("name", ["g2dagger", "d4"])
def test_twins_share_pieces_only_through_the_query(name):
    # the query keys the tilde side's Gram matrix, locus class and group by its twin, so the tilde side
    # computes no Segre data of its own, and its xi-power table holds only the rows that lemma7's side
    # switch reduces with, not all N - r + 1; no side builds a row above N
    cfg = builtin_config(name)
    assert cfg.side._sigma is not cfg.tilde_side._sigma
    cmd_describe(cfg)
    cmd_lemma7(cfg)
    assert cfg.side._sigma and cfg.tilde_side._sigma == {}
    rows = cfg.side.dim_total - cfg.rank + 1
    assert len(cfg.tilde_side._powers) < rows and len(cfg.side._powers) <= rows
    q = roofcalc.RoofQuery(cfg)
    assert q.lattice(cfg.side).gram is q.lattice(cfg.tilde_side).gram
    assert q.group(cfg.side) is q.group(cfg.tilde_side)


@pytest.mark.parametrize("cfg, same_relation", [
    (_fresh(DATA_CONFIGS["g2dagger_tilde_reversed"]), True),
    (_fresh(SWITCHED_RELATION), False),
], ids=["tilde-reversed", "switched-relation"])
def test_sides_that_are_not_twins_compute_their_own_segre_data(cfg, same_relation):
    # one base and rank, and either another middle basis or another relation: each side builds its own
    # pieces from its own Segre data, which agree exactly when the relations do
    assert cfg.side.base is cfg.tilde_side.base
    assert (cfg.side.groth_coeffs == cfg.tilde_side.groth_coeffs) == same_relation
    cmd_describe(cfg)
    side, tilde = cfg.side._sigma, cfg.tilde_side._sigma
    assert side is not tilde and side and tilde
    assert (side == tilde) == same_relation


def _pieces(cfg, order):
    """Each side's lattice, locus coordinates and group, or the error text of each, asking the sides in ``order``
    (0 for the side, 1 for the tilde side) on a fresh copy of ``cfg``; the copy's sides that built Segre data."""
    cfg = _fresh(cfg)
    sides, q, out = (cfg.side, cfg.tilde_side), roofcalc.RoofQuery(cfg), {}
    for which in order:
        for piece in ("lattice", "locus", "group"):
            try:
                value = getattr(q, piece)(sides[which])
            except (roofcalc.RoofError, GradedRingError, LatticeError) as exc:
                value = f"{type(exc).__name__}: {exc}"
            if piece == "lattice" and not isinstance(value, str):
                units = [roofcalc.class_from_coordinates(value, [int(i == k) for k in range(value.rank)])
                         for i in range(value.rank)]
                assert value.side is sides[which] and all(c.side is sides[which] for c in units)
                value = (value.monomials, value.gram, value.determinant, tuple(map(str, units)))
            out[which, piece] = value
    return out, [which for which in (0, 1) if sides[which]._sigma]


TILDE_FIRST = [*CONFIGS[:2], NON_UNIMODULAR, CONFIGS[-1], DATA_CONFIGS["g2dagger_tilde_reversed"],
               *(c for _, c, _ in STAGE_CASES)]


@pytest.mark.parametrize("cfg", TILDE_FIRST, ids=lambda c: c.name)
def test_tilde_side_first_gives_the_same_pieces(cfg):
    # the first side asked for builds each piece that twins share, from its own data: either order gives one
    # lattice per side, living on that side, and the same locus coordinates, groups and error texts.  Where
    # every piece is built, the twin asked second builds no Segre data; a piece that failed is built again
    side_first, built = _pieces(cfg, (0, 1))
    tilde_first, built_tilde_first = _pieces(cfg, (1, 0))
    assert side_first == tilde_first
    if cfg.side._key()[1:] == cfg.tilde_side._key()[1:] and not any(isinstance(v, str) for v in side_first.values()):
        assert (built, built_tilde_first) == ([0], [1])


@pytest.fixture
def record_reductions(monkeypatch):
    """Record each ``reduce`` call as (whether it has a term at xi^r or above, the base labels of those
    terms, whether it runs inside ``switch_side``)."""
    calls, inside = [], []
    reduce, switch_side = roofcalc.reduce, roofcalc.switch_side

    def recording(side, expression, degree=None):
        folds = max(expression, default=0) >= side.rank
        labels = {z for e, c in expression.items() if e >= side.rank for z in getattr(c, "coeffs", c)}
        calls.append((folds, labels, bool(inside)))
        return reduce(side, expression, degree)

    def switching(config, a):
        inside.append(True)
        try:
            return switch_side(config, a)
        finally:
            inside.pop()

    monkeypatch.setattr(roofcalc, "reduce", recording)
    monkeypatch.setattr(roofcalc, "switch_side", switching)
    return calls


@pytest.mark.parametrize("cfg", CORPUS, ids=lambda c: c.name)
def test_describe_reads_no_normal_form(cfg, record_reductions):
    # every Gram entry and the locus sign are read off the Segre data, and each middle monomial, below xi^r,
    # is its own normal form, so describe reduces nothing, on NON_UNIMODULAR's fallback too.  Building each
    # lattice's monomial classes made one reduction per middle monomial of each side
    cfg = _fresh(cfg)
    cmd_describe(cfg)
    assert record_reductions == []


@pytest.mark.parametrize("cfg", [*DATA_CONFIGS.values(), *CONFIGS], ids=lambda c: c.name)
def test_lemma7_reduces_only_in_its_side_switch(cfg, record_reductions):
    # lemma7's lattices and locus classes reduce nothing; its side switch lifts the locus class to (L, xi)
    # and substitutes there, so every reduction runs inside the switch, and every label it folds past xi^r
    # lies in the support of a power of L
    cfg = _fresh(cfg)
    query = roofcalc.RoofQuery(cfg)
    for side in (cfg.side, cfg.tilde_side):
        query.locus(side)
    assert record_reductions == []
    cmd_lemma7(cfg)
    assert all(switched for _, _, switched in record_reductions)
    base = cfg.side.base
    support = {z for p in range(base.dimension + 1) for z in base.l_power(p).coeffs}
    folded = [labels for folds, labels, _ in record_reductions if folds]
    assert folded and all(labels <= support for labels in folded)


@pytest.mark.parametrize("cfg", [CONFIGS[0], DATA_CONFIGS["g2dagger_tilde_reversed"]],
                         ids=["g2dagger", "tilde-reversed"])
def test_mukai_reduces_only_in_its_side_switch(cfg, record_reductions):
    # mukai switches theta(v) to the tilde side; its lattices and locus coordinates, and the classes it prints,
    # reduce nothing
    cmd_mukai(_fresh(cfg), 50)
    assert record_reductions and all(switched for _, _, switched in record_reductions)


@pytest.mark.parametrize("cfg, smith, det", [(CONFIGS[0], 0, 0), (CONFIGS[2], 0, 0), (NON_UNIMODULAR, 1, 4)],
                         ids=[CONFIGS[0].name, CONFIGS[2].name, NON_UNIMODULAR.name])  # pins kept out of the ids
def test_describe_decomposes_each_gram_matrix_once(cfg, smith, det, count_calls):
    # g2dagger's twin sides read their group and locus class off the splitting, with no det: every
    # anti-diagonal block of S is 1 x 1 and is read as its entry; its reordered tilde side builds its own.
    # NON_UNIMODULAR falls back: the Gram det, and discriminant_group's det and Smith form, whose check makes
    # the other two dets; its locus class is one rational solve, with no Smith form.  Decomposing for each
    # report field separately made 6 Smith and 18 det calls on g2dagger; before the splitting, 2 Smith and
    # 6 det calls; and with one det per 1 x 1 block, 2 det calls (4 on the reordered config, 5 on
    # NON_UNIMODULAR).
    counts = count_calls("latticecore.smith_normal_form", "latticecore.det")
    cmd_describe(cfg)
    assert counts == {"latticecore.smith_normal_form": smith, "latticecore.det": det}
