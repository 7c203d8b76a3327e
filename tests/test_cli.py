import copy
import json
import os
import pathlib
import subprocess
import sys
import time
from math import comb, prod

import pytest

from roofpairs.cli import MAX_MOTIVIC_RANK, MAX_QUADRIC_DIM, MAX_TWIST, build_parser, main
from roofpairs.configs import BUILTIN_CONFIGS, MAX_BASE_DIM, MAX_INT_DIGITS, config_from_dict, load_config
from roofpairs.errors import ConfigError

from roofcorpus import SPLIT_TILDE_TOY, _d4_without_pi2, _q6_partial_tilde, _toy_data, _zero_degree

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# every refusal: its exit code and its one error line, one row per case
# ---------------------------------------------------------------------------

G2_SIDE = {"chern": [[["L", 2]], [["L^2", 2]], [["Pi", 2]]], "twist": 1,
           "middle_basis": [["Pi", 0], ["L^2", 1], ["L", 2]]}


def _g2(**fields):
    data = {"name": "g2-probe", "rank": 3, "base_dim": [5, 5], "polarization_degree": 12,
            "sides": [G2_SIDE, G2_SIDE]}
    data.update(fields)
    return data


def _g2_side(**fields):
    """A g2 probe whose first side has the given fields replaced, or dropped where None."""
    side = {k: v for k, v in dict(G2_SIDE, **fields).items() if v is not None}
    return _g2(sides=[side, G2_SIDE])


def _g2_without(field):
    data = _g2()
    del data[field]
    return data


def _g2_text(degree: str) -> bytes:
    return json.dumps(_g2()).replace('"polarization_degree": 12', f'"polarization_degree": {degree}').encode()


Q3_RANK4_SIDE = [[["L", 1]], [["Pi", 1]], [["Pi*L", 1]], []]  # rank 4 on a threefold


def _q3_rank4(form: str) -> dict:
    return {"name": "q3-rank4", "rank": 4, "base_dim": [3, 3], "polarization_degree": 1,
            "sides": [{form: Q3_RANK4_SIDE}, {form: Q3_RANK4_SIDE}]}


TOY = json.loads((DATA / "toy_symmetric.json").read_text())


def _edit(data, side=None, tilde=None):
    """A copy of config ``data`` with the given fields of its side and tilde side replaced, or dropped where None."""
    data = copy.deepcopy(data)
    for fields, target in zip((side, tilde), data["sides"]):
        for key, value in (fields or {}).items():
            if value is None:
                del target[key]
            else:
                target[key] = value
    return data


# unhashable and non-str labels get the text of a misspelt one, not a TypeError
LABELS = (["L"], {"L": 1}, 1, None, 2.5, True, "l")
MISSING, DIRECTORY = "missing file", "directory"
STAGE = "error: {}: stage '{}' failed: {} (config {{path}})"

# command line; the file passed as --config PATH (None: no --config; JSON data; raw bytes; MISSING; DIRECTORY);
# exit code; and the one line on stderr, where {path} stands for PATH.  A line of argparse's, which starts with
# the parser's name, is the last line under the usage text.  A line that ends in "..." goes on in the standard
# library's words (a strerror, a codec or the json module).  Every other line is the program's own, whole.
ERRORS = [
    # describe, lemma7 and mukai: a config or a file that is not a roof pair
    (["describe", "nosuch"], None, 2, "error: unknown configuration 'nosuch'; built-ins: d4, g2dagger"),
    (["describe", "g2dagger"], TOY, 2, "error: file {path} defines 'toy-sym', not 'g2dagger'"),
    # the side's basis leaves no locus class, the tilde side's is degenerate: the lattice stage fails first
    (["lemma7"], _edit(BUILTIN_CONFIGS["g2dagger"], side={"middle_basis": [["Pi", 0], ["L^2", 1]]},
                       tilde={"middle_basis": [["Pi", 0], ["Pi", 0], ["L", 2]]}), 1,
     STAGE.format("DegenerateBasisError", "middle lattice", "declared middle basis is degenerate under the pairing")),
    # a middle basis missing the top xi-monomial leaves no rank-1 complement, on the side and on the tilde side
    *(([command], data, 1, STAGE.format("UnexpectedRankError", "locus class", "orthogonal complement of the pullback "
                                        "sublattice has rank 0, expected 1"))
      for command, data in (("lemma7", _edit(TOY, side={"middle_basis": [["Pi1", 0], ["Pi2", 0]]})),
                            ("describe", _toy_data(tilde={"middle_basis": [["Pi1", 0], ["Pi2", 0]]})))),
    (["describe"], _d4_without_pi2(), 1, STAGE.format("UnexpectedRankError", "locus class", "locus class "
                                                      "-Pi1*xi + 6*Pi1*L has self-pairing 0, but the sign law needs "
                                                      "(-1)^(r-1) d = -12")),
    # the tilde side splits, and +-j = -L*xi + Pi1 has self-pairing -1, where the law needs (-1)^(r-1) d = -2
    *(([command], SPLIT_TILDE_TOY, 1, STAGE.format("UnexpectedRankError", "locus class", "locus class -L*xi + Pi1 has "
                                                   "self-pairing -1, but the sign law needs (-1)^(r-1) d = -2"))
      for command in ("describe", "lemma7")),
    (["lemma7"], _q6_partial_tilde(), 1,
     STAGE.format("RoofError", "residue scan", "class is not supported on the declared middle basis")),
    (["lemma7"], _zero_degree(), 1, STAGE.format("InvalidRoofError", "residue scan", "the residue scan needs a "
                                                 "polarization degree of at least 1, got 0")),
    # d4 declares five middle monomials per side; BUILDS in test_roof_queries.py pins that it builds nothing
    (["mukai", "d4"], None, 1, "error: LatticeError: stage 'mukai vector' failed: "
                               "isotropic_pair_solve expects a rank-3 gram matrix (built-in d4)"),
    *((["mukai"], _edit(BUILTIN_CONFIGS[name], **{which: {"middle_basis": None}}), 1,
       STAGE.format("RoofError", "middle lattice", f"side '{name}:{which}' declares no middle basis"))
      for name in ("g2dagger", "d4") for which in ("side", "tilde")),
    # RoofConfig owns the sign check; configs wraps its error, so a file gets exit 2
    (["lemma7"], _g2_side(declared_locus_sign=2), 2, "error: declared_locus_signs entries must be 1 or -1, got (2, 1)"),
    # malformed fields
    (["describe"], _g2(rank="3"), 2, "error: rank must be an integer, got '3'"),
    (["describe"], _g2(polarization_degree=12.7), 2, "error: polarization_degree must be an integer, got 12.7"),
    (["describe"], _g2(polarization_degree=True), 2, "error: polarization_degree must be an integer, got True"),
    (["describe"], _g2(sides=[1, 2]), 2, "error: side 'g2-probe:side' must be an object, got 1"),
    (["describe"], [_g2()], 2, "error: a configuration must be an object, got list"),
    *((["describe"], _g2_without(field), 2, f"error: missing configuration field {field!r}")
      for field in ("rank", "sides")),
    (["describe"], _g2(base_dim=[5, 5, 5]), 2, "error: a roof has exactly two sides"),
    (["describe"], _g2(sides=[G2_SIDE]), 2, "error: a roof has exactly two sides"),
    (["describe"], _g2(base_dim=5), 2, "error: base_dim must be a list, got 5"),
    (["describe"], _g2_side(groth=[[], [], []]), 2,
     "error: side 'g2-probe:side': give either 'chern' or 'groth', not both"),
    (["describe"], _g2_side(chern=None, twist=None), 2, "error: side 'g2-probe:side': needs 'chern' or 'groth' data"),
    (["describe"], _g2_side(chern=[[["L", 2]], [["L^2", 2]]]), 2,
     "error: side 'g2-probe:side': expected 3 Chern components"),
    (["describe"], _g2_side(chern=None, twist=None, groth=[[], []]), 2,
     "error: side 'g2-probe:side': expected 3 relation coefficients"),
    # Q6 has Pi1 and Pi2 but no Pi
    (["describe"], _g2(base_dim=[6, 6]), 2, "error: side 'g2-probe:side' middle_basis: unknown basis label 'Pi' on Q6"),
    (["describe"], _g2(base_dim=[1, 1]), 2, "error: base_dim: quadric dimension must be >= 2, got 1"),
    (["describe"], _g2(base_dim=[5.0, 5]), 2, "error: base_dim entry must be an integer, got 5.0"),
    (["describe"], _g2(rank=0), 2, "error: rank must be positive, got 0"),
    (["describe"], _g2_side(chern=[[["L", 2.5]], [["L^2", 2]], [["Pi", 2]]]), 2,
     "error: side 'g2-probe:side' chern[1]: value of 'L' must be an integer, got 2.5"),
    (["describe"], _g2_side(chern=[[["Q", 2]], [["L^2", 2]], [["Pi", 2]]]), 2,
     "error: side 'g2-probe:side' chern[1]: unknown basis label 'Q' on Q5"),
    (["describe"], _g2_side(twist="1"), 2, "error: side 'g2-probe:side' twist must be an integer, got '1'"),
    (["describe"], _g2_side(middle_basis=[["Pi", 0], ["L^2", 1.9], ["L", 2]]), 2,
     "error: side 'g2-probe:side' middle_basis: value of 'L^2' must be an integer, got 1.9"),
    (["describe"], _g2_side(middle_basis=[["Pi", 0], ["L^2", 1], ["L"]]), 2,
     "error: side 'g2-probe:side' middle_basis: expected [label, integer] pair, got ['L']"),
    (["describe"], _g2_side(declared_locus_sign=False), 2, "error: declared_locus_sign must be an integer, got False"),
    (["describe"], _g2_side(chern=5), 2, "error: side 'g2-probe:side' chern must be a list, got 5"),
    # rejected before any ring is built; without the cap this took about 20 s
    (["describe"], _g2(base_dim=[200, 200]), 2, f"error: base_dim entry 200 exceeds the cap of {MAX_BASE_DIM}"),
    # the name was converted with str(): these loaded as configurations None, 5, ['a'] and True
    *((["describe"], _g2(name=name), 2, f"error: name: expected a str, got {type(name).__name__}")
      for name in (None, 5, ["a"], True)),
    *((["describe"], _g2_side(chern=[[[label, 2]], [["L^2", 2]], [["Pi", 2]]]), 2,
       f"error: side 'g2-probe:side' chern[1]: unknown basis label {label!r} on Q5") for label in LABELS),
    *((["describe"], _g2_side(middle_basis=[["Pi", 0], ["L^2", 1], [label, 2]]), 2,
       f"error: side 'g2-probe:side' middle_basis: unknown basis label {label!r} on Q5") for label in LABELS),
    *((["describe"], _q3_rank4(form), 2, "error: side 'q3-rank4:side': bundle rank exceeds what the base dimension "
                                         "supports") for form in ("chern", "groth")),
    # files that are no JSON config: the first printed a ValueError traceback from json.load before the digit cap,
    # the last a RecursionError traceback, and a missing file and a directory printed "error: FileNotFoundError"
    # and "error: IsADirectoryError" and exited 1
    (["describe"], _g2_text("1" * 4400), 2, f"error: {{path}}: an integer of 4400 digits exceeds the cap of "
                                            f"{MAX_INT_DIGITS} digits"),
    (["describe"], _g2_text("-" + "1" * (MAX_INT_DIGITS + 1)), 2,
     f"error: {{path}}: an integer of {MAX_INT_DIGITS + 1} digits exceeds the cap of {MAX_INT_DIGITS} digits"),
    (["describe"], b"\xff\xfe{}", 2, "error: {path}: 'utf-8' codec can't decode byte 0xff..."),
    (["describe"], b"[" * 100000 + b"]" * 100000, 2, "error: {path}: maximum recursion depth exceeded..."),
    (["describe"], MISSING, 2, "error: {path}: No such file or directory..."),
    (["describe"], DIRECTORY, 2, "error: {path}: Is a directory..."),
    # bwb
    (["bwb", "5", "Nope", "0"], None, 2, "error: unsupported bundle descriptor 'Nope' on Q5"),
    (["bwb", "5", "C", "2"], None, 1,
     "error: Underdetermined: 2 unknown dimensions in one zero-flanked run of ('C(2)', 'G(1)', 'O(2)')"),
    *((argv, None, 2, "roofpairs: error: bwb takes DIM BUNDLE [TWIST] or --case, not both")
      for argv in (["bwb", "5", "O", "1", "--case", "2"], ["bwb", "--case", "1", "5"])),
    *((argv, None, 2, "roofpairs: error: bwb needs DIM BUNDLE [TWIST] or --case") for argv in (["bwb"], ["bwb", "5"])),
    # arguments that are no integer, or out of range
    *((argv, None, 2, f"roofpairs {argv[0]}: error: argument {name}: invalid int value: {argv[-1]!r}")
      for argv, name in ((["mukai", "g2dagger", "--bound", "x"], "--bound"), (["motivic", "--rank", "2.5"], "--rank"),
                         (["bwb", "5", "O", "1/2"], "twist"))),
    (["bwb", "five", "O", "0"], None, 2, "roofpairs bwb: error: argument dim: invalid int value: 'five'"),
    *(([*argv, "--bound", bound], None, 2,
       f"roofpairs {argv[0]}: error: argument --bound: must be a non-negative integer, got {bound}")
      for argv in (["mukai", "g2dagger"], ["verify-all"]) for bound in ("-3", "-1")),
    *((["motivic", "--rank", rank], None, 2,
       f"roofpairs motivic: error: argument --rank: must be an integer of at least 2, got {rank}")
      for rank in ("1", "0", "-3")),
    *((["bwb", dim, "O", "0"], None, 2,
       f"roofpairs bwb: error: argument dim: must be an integer of at least 3, got {dim}") for dim in ("2", "-1")),
    (["motivic", "--rank", str(MAX_MOTIVIC_RANK + 1)], None, 2,
     f"roofpairs motivic: error: argument --rank: must be at most {MAX_MOTIVIC_RANK}, got {MAX_MOTIVIC_RANK + 1}"),
    # took 39.5 s before the cap
    (["motivic", "--rank", "1000000"], None, 2,
     f"roofpairs motivic: error: argument --rank: must be at most {MAX_MOTIVIC_RANK}, got 1000000"),
    (["bwb", str(MAX_QUADRIC_DIM + 1), "O", "0"], None, 2,
     f"roofpairs bwb: error: argument dim: must be at most {MAX_QUADRIC_DIM}, got {MAX_QUADRIC_DIM + 1}"),
    # ran for more than 30 s before the cap
    (["bwb", "20000", "O", "0"], None, 2, f"roofpairs bwb: error: argument dim: must be at most {MAX_QUADRIC_DIM}, "
                                          "got 20000"),
    (["bwb", "5", "O", str(MAX_TWIST + 1)], None, 2,
     f"roofpairs bwb: error: argument twist: must be at most {MAX_TWIST}, got {MAX_TWIST + 1}"),
    (["bwb", "5", "O", str(-MAX_TWIST - 1)], None, 2,
     f"roofpairs bwb: error: argument twist: must be an integer of at least {-MAX_TWIST}, got {-MAX_TWIST - 1}"),
    # both printed a ValueError traceback before the cap: a dimension past 4300 digits
    (["bwb", "5", "O", str(10**900)], None, 2,
     f"roofpairs bwb: error: argument twist: must be at most {MAX_TWIST}, got {10**900}"),
    (["bwb", "500", "O", "1000000000000"], None, 2,
     f"roofpairs bwb: error: argument twist: must be at most {MAX_TWIST}, got 1000000000000"),
]


@pytest.mark.parametrize("argv, config, code, line", ERRORS,
                         ids=[f"{argv[0]}: {line.split(': ')[-1]}"[:60] for argv, _, _, line in ERRORS])
def test_refusal_writes_its_error_line(argv, config, code, line, tmp_path, capsys):
    path = tmp_path if config == DIRECTORY else tmp_path / "probe.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    elif config not in (None, MISSING, DIRECTORY):
        path.write_text(json.dumps(config))
    try:
        got = main(argv if config is None else [*argv, "--config", str(path)])
    except SystemExit as exc:  # argparse's usage errors
        got = exc.code
    out, err = capsys.readouterr()
    assert (got, out) == (code, "")
    line = line.replace("{path}", str(path))
    if line.startswith("roofpairs"):  # the usage text above the line differs between Python versions
        assert [x for x in err.splitlines() if "error:" in x] == [line] == err.splitlines()[-1:]
    elif line.endswith("..."):
        assert err.startswith(line[:-3]) and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == line + "\n"


class TestLemma7:
    def test_empty_declared_residue_set(self, tmp_path, capsys):
        # no k makes (j - k*j~)/8 integral, so there is no declared witness
        side = {"groth": [[["L", 4]], [["Pi1", 4], ["Pi2", 4]]],
                "middle_basis": [["L", 1], ["Pi1", 0], ["Pi2", 0]], "declared_locus_sign": 1}
        cfg = tmp_path / "roof-q4-1.json"
        cfg.write_text(json.dumps({"name": "roof-q4-1", "rank": 2, "base_dim": [4, 4],
                                   "polarization_degree": 8, "sides": [side, side]}))
        code, report = run_json(capsys, "lemma7", "--config", str(cfg))
        assert code == 0
        assert report["declared_form"] == {"locus_signs": [1, 1], "residue_set": [], "witness": None}
        code, out = run(capsys, "lemma7", "--config", str(cfg))
        assert code == 0
        assert "  declared-representative witness: none\n" in out

    def test_large_degree_solved_without_a_scan(self, capsys):
        # d = 8 718 268; a search over k = 0..d-1 made this take over a minute
        path = str(DATA / "q4_large_degree.json")
        start = time.perf_counter()
        code, report = run_json(capsys, "lemma7", "--config", path)
        assert time.perf_counter() - start < 1
        assert code == 0
        assert report["polarization_degree"] == 8718268
        assert report["tilde_locus"]["coordinates"] == [-1, 4359134, 4359134]
        assert report["residue_set"] == [] and report["iso_obstructed"] is True


class TestBwb:
    def test_linear_forms(self, capsys):
        code, report = run_json(capsys, "bwb", "5", "O", "1")
        assert code == 0 and report["table"] == {"0": 7}

    def test_sym2_twist(self, capsys):
        code, report = run_json(capsys, "bwb", "5", "Sym2Sdual", "-3")
        assert code == 0 and report["table"] == {"2": 1}

    @pytest.mark.parametrize("case,expected", [(1, {"0": 1}), (3, {"2": 1})])
    def test_cases(self, capsys, case, expected):
        code, report = run_json(capsys, "bwb", "--case", str(case))
        assert code == 0 and report["table"] == expected


class TestMukai:
    def test_small_bound(self, capsys):
        code, report = run_json(capsys, "mukai", "g2dagger", "--bound", "6")
        assert code == 0 and report["mukai_vector"] == [2, 1, -3]

    def test_huge_bound(self, capsys):
        code, report = run_json(capsys, "mukai", "g2dagger", "--bound", "1000000")
        assert code == 0 and report["mukai_vector"] == [2, 1, -3]


def test_caps_admit_documented_inputs(capsys):
    parser = build_parser()
    for rank in (2, 200, 20000, MAX_MOTIVIC_RANK):  # tier-1 and CI ranks
        assert parser.parse_args(["motivic", "--rank", str(rank)]).rank == rank
    for dim in (*range(5, 16), MAX_QUADRIC_DIM):  # the benchmark's Q5-Q15
        assert parser.parse_args(["bwb", str(dim), "O", "0"]).dim == dim
    code, report = run_json(capsys, "bwb", str(MAX_QUADRIC_DIM), "O", "0")
    assert code == 0 and report["table"] == {"0": 1}
    # the largest dimensions at the caps (about 3450 digits) render, exactly: Splusdual(t) on Q500 is the
    # D251 weight with doubled lambda + rho (2t + 501, 499, ..., 1), in degree 0 or, with every pairing
    # negative, in degree 500; Sdual on Q499 is the spin representation of B250
    # (at small rank the closed form gives h^0 of Splusdual on Q6 and Q4 and of Splusdual(1) on Q4: 8, 4 and 20)
    assert [half_spin_twist_dimension(m, 2 * t + 2 * m - 1) for m, t in ((4, 0), (3, 0), (3, 1))] == [8, 4, 20]
    m = MAX_QUADRIC_DIM // 2 + 1
    for twist, degree in ((MAX_TWIST, "0"), (-MAX_TWIST, str(MAX_QUADRIC_DIM))):
        code, report = run_json(capsys, "bwb", str(MAX_QUADRIC_DIM), "Splusdual", str(twist))
        assert code == 0 and report["table"] == {degree: half_spin_twist_dimension(m, 2 * twist + 2 * m - 1)}
    code, report = run_json(capsys, "bwb", str(MAX_QUADRIC_DIM - 1), "Sdual", "0")
    assert code == 0 and report["table"] == {"0": 2 ** (m - 1)}


def half_spin_twist_dimension(m: int, first: int) -> int:
    """Weyl dimension of the D_m weight with doubled lambda + rho (first, 2m - 3, ..., 3, 1), in closed form.

    The roots e_i +- e_j pair to (l_i^2 - l_j^2) / (rho_i^2 - rho_j^2).  Those with i > 1 make up the
    half-spin representation of D_(m-1), of dimension 2^(m-2), so only the m - 1 factors with i = 1 remain.
    """
    rho = range(2 * m - 2, -1, -2)  # doubled
    num = prod(first * first - x * x for x in range(2 * m - 3, 0, -2))
    dim, rem = divmod(num << (m - 2), prod(rho[0] ** 2 - r * r for r in rho[1:]))
    assert rem == 0
    return dim


def test_reports_render_past_the_int_str_digit_limit(capsys):
    # h^0(Q100, O(10^9)) has 743 digits: under a 640-digit limit it printed a ValueError traceback
    n, t = 100, MAX_TWIST
    expected = comb(n + 1 + t, n + 1) - comb(n - 1 + t, n + 1)
    assert len(str(expected)) == 743
    proc = subprocess.run([sys.executable, "-m", "roofpairs", "bwb", str(n), "O", str(t), "--json"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONINTMAXSTRDIGITS": "640"})
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    assert json.loads(proc.stdout)["table"] == {"0": expected}
    if hasattr(sys, "set_int_max_str_digits"):  # main restores the caller's limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["bwb", str(n), "O", str(t)]) == 0
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert f"h^0 = {expected} " in capsys.readouterr().out


class TestMotivic:
    def test_single_rank(self, capsys):
        code, report = run_json(capsys, "motivic", "--rank", "4")
        assert code == 0 and report["identities"][0]["match"] is True

    def test_mismatching_closed_form_prints_its_own_text(self, capsys, monkeypatch):
        # a match renders the residual once and prints it twice; a mismatch must still render both
        import roofpairs.motivicring as motivicring

        wrong = motivicring.residual_closed_form(4) + motivicring.L
        monkeypatch.setattr(motivicring, "residual_closed_form", lambda r: wrong)
        code, report = run_json(capsys, "motivic", "--rank", "4")
        (row,) = report["identities"]
        assert code == 1 and report["all_match"] is False and row["match"] is False
        assert row["expected"] == str(wrong) != row["residual"] == str(motivicring.l_equivalence_residual(4))


def test_closed_pipe_exits_1_quietly():
    # the read end is closed before the child starts, so every write fails; a `| head -1` reader races the writer
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "roofpairs", "describe", "d4"], stdout=write,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_digit_cap_admits_its_limit(tmp_path):
    path = tmp_path / "probe.json"
    path.write_bytes(_g2_text("-" + "1" * MAX_INT_DIGITS))
    with pytest.raises(ConfigError, match="declared polarization degree -1111"):
        load_config(str(path))


# An int path was opened as a file descriptor and closed on exit: load_config(1)
# closed stdout, and load_config(0) read stdin and then closed it.
DESCRIPTOR_PROBE = """\
import os, sys
from roofpairs.configs import load_config
from roofpairs.errors import ConfigError
for path in (1, 0, True):
    try:
        load_config(path)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
os.fstat(0), os.fstat(1)
print("both open")
"""


def test_load_config_refuses_a_descriptor_and_leaves_it_open():
    proc = subprocess.run([sys.executable, "-c", DESCRIPTOR_PROBE], input="{}", capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "both open\n"), proc.stderr
    assert proc.stderr.splitlines() == [f"a configuration path must be a str or os.PathLike, got {t}"
                                        for t in ("int", "int", "bool")]


def test_base_dim_cap_checked_before_any_ring(count_calls):
    counts = count_calls("gradedring.make_quadric_ring")
    with pytest.raises(ConfigError, match="exceeds the cap"):
        config_from_dict(_g2(base_dim=[5, MAX_BASE_DIM + 1]))
    assert counts == {"gradedring.make_quadric_ring": 0}
    # the cap itself is accepted: the sides' one shared ring is built and the later label check fails
    with pytest.raises(ConfigError, match=f"unknown basis label 'Pi' on Q{MAX_BASE_DIM}"):
        config_from_dict(_g2(base_dim=[MAX_BASE_DIM, MAX_BASE_DIM]))
    assert counts == {"gradedring.make_quadric_ring": 1}
