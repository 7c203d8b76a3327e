"""The query engine's own behaviour: the stage that names an error, what each command builds, and the pieces that
twin sides share.  ``test_engine_oracles.py`` holds the query's results equal to the public functions', and the
error line that reaches stderr is a row of ``ERRORS`` in ``test_cli.py``."""

import json
import pathlib

import pytest

from roofpairs import roofcalc
from roofpairs.cli import cmd_describe, cmd_lemma7, cmd_mukai, main
from roofpairs.configs import builtin_config, config_from_dict
from roofpairs.errors import GradedRingError, LatticeError

from roofcorpus import (
    CONFIGS, CORPUS, DATA_CONFIGS, NON_UNIMODULAR, PARTIAL, STAGE_CASES, SWITCHED_RELATION, _d4_without_pi2, _fresh,
    _q6_partial_tilde, _zero_degree,
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

@pytest.mark.parametrize("data", [_q6_partial_tilde(), _zero_degree()], ids=["partial-tilde", "zero-degree"])
def test_describe_reports_the_roof_whose_residue_scan_fails(data, tmp_path, capsys):
    # both sides of the Q6 partial-tilde roof keep the sign law, and only lemma7's switched class leaves the
    # basis; the zero-degree roof has no residues mod 0 to scan
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(data))
    assert main(["describe", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


def test_error_names_the_stage_that_raised_it(g2):
    q = roofcalc.RoofQuery(g2)

    def build():
        q.lattice(g2.side)
        raise roofcalc.SwitchError("raised after the stage")

    # the error names the stage it was raised in, not the one that finished before it
    with pytest.raises(roofcalc.SwitchError) as got:
        q._once("side switch", None, build)
    assert str(got.value) == "stage 'side switch' failed: raised after the stage"


def test_nested_failure_is_named_once_by_its_innermost_stage():
    # mukai builds both lattices inside its own stage; the failing lattice names itself, once
    q = roofcalc.RoofQuery(STAGE_CASES[1][1])
    for _ in range(2):  # a failed query keeps no label: the second attempt reads the same
        with pytest.raises(roofcalc.RoofError) as got:
            q.mukai(50)
        assert str(got.value) == "stage 'middle lattice' failed: middle monomial xi exponent 2 outside [0, 1]"


# ---------------------------------------------------------------------------
# what each command builds: one row per command and config
# ---------------------------------------------------------------------------

# the private builders and the kernel functions that a query may call; every row pins all twelve
NAMES = ("roofcalc._check_middle_basis", "roofcalc._table_gram", "roofcalc.middle_lattice", "roofcalc._locus_class",
         "roofcalc.pairing_on_M", "roofcalc.switch_side", "roofcalc.mukai_vector", "latticecore.discriminant_group",
         "latticecore.orthogonal_kernel", "latticecore.smith_normal_form", "latticecore.det",
         "latticecore.isotropic_pair_solve")


def _row(**calls):
    """The calls a row makes, by function name, keyed as ``NAMES``; the functions left out make none."""
    names = {name.split(".")[1]: name for name in NAMES}
    return {names[f]: n for f, n in calls.items()}


def _scan_and_mukai_twice(cfg):
    q = roofcalc.RoofQuery(cfg)
    for _ in range(2):
        q.residue_scan()
        q.mukai(50)


RUNS = {"describe": cmd_describe, "lemma7": cmd_lemma7, "scan-mukai-twice": _scan_and_mukai_twice}
TILDE_REVERSED = ["--config", str(pathlib.Path(__file__).parent / "data" / "g2dagger_tilde_reversed.json")]
D4_WITHOUT_PI2 = config_from_dict({**_d4_without_pi2(), "name": "d4-without-pi2"})

# command, its config (mukai: its command-line arguments), the error type it stops with, and what it builds.
# Each side checks its own basis for its own lattice, never through the public middle_lattice, and sides that
# carry the same data share one Gram matrix (_table_gram counts the distinct sides), locus class and group.  The
# Gram matrix is read off the Segre classes, with no pairing_on_M, and the locus class never takes the public
# path, with its orthogonal kernel.  Where the pullback sublattice is unimodular, det and group are read off the
# splitting L = S + Zj, with no det for a 1 x 1 block; non-unimodular falls back to the Gram det and to
# discriminant_group, whose Smith check makes two more dets.  Only lemma7 switches the locus class, after both
# lattices and locus classes, and only describe builds a group, after the locus class, so a config refused there
# takes no Smith form.  mukai switches theta(v) once, solves once per side, and refuses d4's rank off the
# declared bases, before any lattice.  A refusal builds nothing after the stage that failed.
BUILDS = [
    ("describe", CONFIGS[0], None, _row(_check_middle_basis=2, _table_gram=1)),
    ("lemma7", CONFIGS[0], None, _row(_check_middle_basis=2, _table_gram=1, switch_side=1)),
    ("describe", CONFIGS[1], None, _row(_check_middle_basis=2, _table_gram=1, det=1)),
    ("lemma7", CONFIGS[1], None, _row(_check_middle_basis=2, _table_gram=1, switch_side=1, det=1)),
    ("describe", CONFIGS[2], None, _row(_check_middle_basis=2, _table_gram=2)),
    ("lemma7", CONFIGS[2], None, _row(_check_middle_basis=2, _table_gram=2, switch_side=1)),
    ("describe", CONFIGS[3], None, _row(_check_middle_basis=2, _table_gram=2, det=2)),
    ("lemma7", CONFIGS[3], None, _row(_check_middle_basis=2, _table_gram=2, switch_side=1, det=2)),
    ("describe", SWITCHED_RELATION, None, _row(_check_middle_basis=2, _table_gram=2)),
    ("lemma7", SWITCHED_RELATION, None, _row(_check_middle_basis=2, _table_gram=2, switch_side=1)),
    ("describe", CONFIGS[-1], None, _row(_check_middle_basis=2, _table_gram=1, det=1)),
    ("lemma7", CONFIGS[-1], None, _row(_check_middle_basis=2, _table_gram=1, switch_side=1, det=1)),
    ("describe", NON_UNIMODULAR, None,
     _row(_check_middle_basis=2, _table_gram=1, discriminant_group=1, smith_normal_form=1, det=4)),
    ("lemma7", NON_UNIMODULAR, None, _row(_check_middle_basis=2, _table_gram=1, switch_side=1, det=1)),
    ("mukai", ["g2dagger"], None, _row(_check_middle_basis=2, _table_gram=1, switch_side=1, isotropic_pair_solve=2)),
    ("mukai", TILDE_REVERSED, None, _row(_check_middle_basis=2, _table_gram=2, switch_side=1, isotropic_pair_solve=2)),
    ("scan-mukai-twice", CONFIGS[0], None,
     _row(_check_middle_basis=2, _table_gram=1, switch_side=2, isotropic_pair_solve=2)),
    ("scan-mukai-twice", CONFIGS[2], None,
     _row(_check_middle_basis=2, _table_gram=2, switch_side=2, isotropic_pair_solve=2)),
    # refusals: STAGE_CASES[4] is the split tilde toy, [-2] q6-partial-tilde and [-1] d4-zero-degree
    ("mukai", ["d4"], "LatticeError", _row()),
    ("describe", D4_WITHOUT_PI2, "UnexpectedRankError", _row(_check_middle_basis=1, _table_gram=1, det=1)),
    ("lemma7", D4_WITHOUT_PI2, "UnexpectedRankError", _row(_check_middle_basis=2, _table_gram=1, det=1)),
    ("describe", PARTIAL[1], "UnexpectedRankError", _row(_check_middle_basis=1, _table_gram=1, det=1)),
    ("lemma7", PARTIAL[1], "UnexpectedRankError", _row(_check_middle_basis=2, _table_gram=1, det=1)),
    ("describe", STAGE_CASES[4][1], "UnexpectedRankError", _row(_check_middle_basis=2, _table_gram=2, det=1)),
    ("lemma7", STAGE_CASES[4][1], "UnexpectedRankError", _row(_check_middle_basis=2, _table_gram=2, det=1)),
    ("lemma7", STAGE_CASES[-2][1], "RoofError", _row(_check_middle_basis=2, _table_gram=2, switch_side=1, det=4)),
    ("lemma7", STAGE_CASES[-1][1], "InvalidRoofError",
     _row(_check_middle_basis=2, _table_gram=1, switch_side=1, det=1)),
]


def _run(command, arg, capsys):
    """The name of the error type that ``command`` stops with on ``arg``, or None where it finishes."""
    if command == "mukai":  # through the command line, which writes "error: <type>: <text>" to stderr
        code, err = main(["mukai", *arg]), capsys.readouterr().err
        assert (code, err == "") in {(0, True), (1, False)}
        return err.split(": ")[1] if code else None
    try:
        RUNS[command](arg)
    except (roofcalc.RoofError, GradedRingError, LatticeError) as exc:
        return type(exc).__name__
    return None


@pytest.mark.parametrize("command, arg, error, row", BUILDS, ids=[
    f"{command}-{getattr(arg, 'name', None) or pathlib.Path(arg[-1]).stem}" for command, arg, _, _ in BUILDS])
def test_what_each_command_builds(command, arg, error, row, count_calls, capsys):
    counts = count_calls(*NAMES)
    assert _run(command, arg, capsys) == error
    assert counts == {**dict.fromkeys(NAMES, 0), **row}


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
