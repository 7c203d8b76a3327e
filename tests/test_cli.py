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

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def usage_error(*argv) -> str:
    """The stderr of ``python -m roofpairs *argv`` in a fresh process, which exits 2 with no stdout and no traceback."""
    proc = subprocess.run([sys.executable, "-m", "roofpairs", *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    return proc.stderr


class TestDescribe:
    def test_unknown_config_exits_2(self, capsys):
        assert main(["describe", "nosuch"]) == 2

    def test_config_file_name_mismatch(self, capsys, toy_path):
        assert main(["describe", "g2dagger", "--config", toy_path]) == 2


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
        path = str(pathlib.Path(__file__).parent / "data" / "q4_large_degree.json")
        start = time.perf_counter()
        code, report = run_json(capsys, "lemma7", "--config", path)
        assert time.perf_counter() - start < 1
        assert code == 0
        assert report["polarization_degree"] == 8718268
        assert report["tilde_locus"]["coordinates"] == [-1, 4359134, 4359134]
        assert report["residue_set"] == [] and report["iso_obstructed"] is True

    def test_both_lattices_are_built_before_the_locus_classes(self, tmp_path, capsys):
        # the side's basis leaves no locus class, the tilde side's is degenerate: the lattice stage fails first
        data = json.loads(json.dumps(BUILTIN_CONFIGS["g2dagger"]))
        data["sides"][0]["middle_basis"] = [["Pi", 0], ["L^2", 1]]
        data["sides"][1]["middle_basis"] = [["Pi", 0], ["Pi", 0], ["L", 2]]
        path = _write(tmp_path, data)
        assert main(["lemma7", "--config", str(path)]) == 1
        assert capsys.readouterr().err == ("error: DegenerateBasisError: stage 'middle lattice' failed: "
                                           f"declared middle basis is degenerate under the pairing (config {path})\n")

    def test_pipeline_failure_names_stage(self, tmp_path, capsys, toy_path):
        # a middle basis missing the top xi-monomial leaves no rank-1 complement
        with open(toy_path) as fh:
            data = json.load(fh)
        data["sides"][0]["middle_basis"] = [["Pi1", 0], ["Pi2", 0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["lemma7", "--config", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "locus class" in err


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

    def test_unsupported_descriptor_exits_2(self, capsys):
        assert main(["bwb", "5", "Nope", "0"]) == 2

    def test_underdetermined_exits_1(self, capsys):
        assert main(["bwb", "5", "C", "2"]) == 1


class TestMukai:
    def test_small_bound(self, capsys):
        code, report = run_json(capsys, "mukai", "g2dagger", "--bound", "6")
        assert code == 0 and report["mukai_vector"] == [2, 1, -3]

    def test_huge_bound(self, capsys):
        code, report = run_json(capsys, "mukai", "g2dagger", "--bound", "1000000")
        assert code == 0 and report["mukai_vector"] == [2, 1, -3]

    def test_rank_other_than_three_is_refused(self, capsys):
        # d4 declares five middle monomials per side; the table in test_roof_queries.py pins that it builds nothing
        assert main(["mukai", "d4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: LatticeError: stage 'mukai vector' failed: "
                                "isotropic_pair_solve expects a rank-3 gram matrix (built-in d4)\n")

    @pytest.mark.parametrize("config", ["g2dagger", "d4"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_missing_middle_basis_is_named(self, tmp_path, capsys, config, which):
        data = json.loads(json.dumps(BUILTIN_CONFIGS[config]))
        del data["sides"][which]["middle_basis"]
        path = _write(tmp_path, data)
        assert main(["mukai", "--config", str(path)]) == 1
        side = ("side", "tilde")[which]
        assert capsys.readouterr().err == (f"error: RoofError: stage 'middle lattice' failed: "
                                           f"side '{config}:{side}' declares no middle basis (config {path})\n")


@pytest.mark.parametrize("argv", [["mukai", "g2dagger"], ["verify-all"]])
@pytest.mark.parametrize("bound", ["-3", "-1"])
def test_negative_bound_is_usage_error(argv, bound):
    assert f"argument --bound: must be a non-negative integer, got {bound}" in usage_error(*argv, "--bound", bound)


@pytest.mark.parametrize("argv, message", [
    (["motivic", "--rank", "1"], "argument --rank: must be an integer of at least 2, got 1"),
    (["motivic", "--rank", "0"], "argument --rank: must be an integer of at least 2, got 0"),
    (["motivic", "--rank", "-3"], "argument --rank: must be an integer of at least 2, got -3"),
    (["bwb", "2", "O", "0"], "argument dim: must be an integer of at least 3, got 2"),
    (["bwb", "-1", "O", "0"], "argument dim: must be an integer of at least 3, got -1"),
    (["motivic", "--rank", str(MAX_MOTIVIC_RANK + 1)],
     f"argument --rank: must be at most {MAX_MOTIVIC_RANK}, got {MAX_MOTIVIC_RANK + 1}"),
    # took 39.5 s before the cap
    (["motivic", "--rank", "1000000"], f"argument --rank: must be at most {MAX_MOTIVIC_RANK}, got 1000000"),
    (["bwb", str(MAX_QUADRIC_DIM + 1), "O", "0"],
     f"argument dim: must be at most {MAX_QUADRIC_DIM}, got {MAX_QUADRIC_DIM + 1}"),
    # ran for more than 30 s before the cap
    (["bwb", "20000", "O", "0"], f"argument dim: must be at most {MAX_QUADRIC_DIM}, got 20000"),
    (["bwb", "5", "O", str(MAX_TWIST + 1)], f"argument twist: must be at most {MAX_TWIST}, got {MAX_TWIST + 1}"),
    (["bwb", "5", "O", str(-MAX_TWIST - 1)],
     f"argument twist: must be an integer of at least {-MAX_TWIST}, got {-MAX_TWIST - 1}"),
    # both printed a ValueError traceback before the cap: a dimension past 4300 digits
    (["bwb", "5", "O", str(10**900)], f"argument twist: must be at most {MAX_TWIST}, got {10**900}"),
    (["bwb", "500", "O", "1000000000000"], f"argument twist: must be at most {MAX_TWIST}, got 1000000000000"),
])
def test_out_of_range_argument_is_usage_error(argv, message):
    stderr = usage_error(*argv)
    assert message in stderr
    assert [line for line in stderr.splitlines() if "error:" in line] == [f"roofpairs {argv[0]}: error: {message}"]


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


# Runs the CLI with numpy made unimportable: the package must need nothing beyond the stdlib.
WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; "
                 "from roofpairs.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("snapshot", ["mukai_g2dagger.json", "verify_all.json"])
def test_runs_without_numpy(snapshot):
    want = json.loads((GOLDEN / "commands.json").read_text())[snapshot]
    proc = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, *want["argv"]], capture_output=True, timeout=60)
    assert proc.returncode == want["exit"], proc.stderr
    assert proc.stdout == (GOLDEN / snapshot).read_bytes()


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


@pytest.mark.parametrize("argv", [["bwb", "5", "O", "1", "--case", "2"], ["bwb", "--case", "1", "5"]])
def test_bwb_both_forms_is_usage_error(argv):
    assert "bwb takes DIM BUNDLE [TWIST] or --case, not both" in usage_error(*argv)


G2_SIDE = {"chern": [[["L", 2]], [["L^2", 2]], [["Pi", 2]]], "twist": 1,
           "middle_basis": [["Pi", 0], ["L^2", 1], ["L", 2]]}


def _g2(**fields):
    data = {"name": "g2-probe", "rank": 3, "base_dim": [5, 5], "polarization_degree": 12,
            "sides": [G2_SIDE, G2_SIDE]}
    data.update(fields)
    return data


def _g2_side(**fields):
    return _g2(sides=[dict(G2_SIDE, **fields), G2_SIDE])


def _write(tmp_path, data) -> pathlib.Path:
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("data, message", [
    (_g2(rank="3"), "rank must be an integer, got '3'"),
    (_g2(polarization_degree=12.7), "polarization_degree must be an integer, got 12.7"),
    (_g2(polarization_degree=True), "polarization_degree must be an integer, got True"),
    (_g2(sides=[1, 2]), "side 'g2-probe:side' must be an object, got 1"),
    ([_g2()], "a configuration must be an object, got list"),
    # Q6 has Pi1 and Pi2 but no Pi
    (_g2(base_dim=[6, 6]), "unknown basis label 'Pi' on Q6"),
    (_g2(base_dim=[1, 1]), "base_dim: quadric dimension must be >= 2, got 1"),
    (_g2(base_dim=[5.0, 5]), "base_dim entry must be an integer, got 5.0"),
    (_g2(rank=0), "rank must be positive, got 0"),
    (_g2_side(chern=[[["L", 2.5]], [["L^2", 2]], [["Pi", 2]]]), "value of 'L' must be an integer, got 2.5"),
    (_g2_side(chern=[[["Q", 2]], [["L^2", 2]], [["Pi", 2]]]), "unknown basis label 'Q' on Q5"),
    (_g2_side(twist="1"), "twist must be an integer, got '1'"),
    (_g2_side(middle_basis=[["Pi", 0], ["L^2", 1.9], ["L", 2]]), "value of 'L^2' must be an integer, got 1.9"),
    (_g2_side(middle_basis=[["Pi", 0], ["L^2", 1], ["L"]]), "expected [label, integer] pair, got ['L']"),
    (_g2_side(declared_locus_sign=False), "declared_locus_sign must be an integer, got False"),
    (_g2_side(chern=5), "chern must be a list, got 5"),
    # rejected before any ring is built; without the cap this took about 20 s
    (_g2(base_dim=[200, 200]), f"base_dim entry 200 exceeds the cap of {MAX_BASE_DIM}"),
    # the name was converted with str(): these loaded as configurations None, 5, ['a'] and True
    (_g2(name=None), "name: expected a str, got NoneType"),
    (_g2(name=5), "name: expected a str, got int"),
    (_g2(name=["a"]), "name: expected a str, got list"),
    (_g2(name=True), "name: expected a str, got bool"),
])
def test_malformed_config_is_usage_error(tmp_path, data, message):
    stderr = usage_error("describe", "--config", str(_write(tmp_path, data)))
    assert message in stderr
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


@pytest.mark.parametrize("label", [["L"], {"L": 1}, 1, None, 2.5, True, "l"], ids=repr)
@pytest.mark.parametrize("slot", ["chern", "middle_basis"])
def test_label_not_on_the_base_is_unknown(label, slot):
    # unhashable and non-str labels get the text of a misspelt one, not a TypeError
    if slot == "chern":
        data, what = _g2_side(chern=[[[label, 2]], [["L^2", 2]], [["Pi", 2]]]), "chern[1]"
    else:
        data, what = _g2_side(middle_basis=[["Pi", 0], ["L^2", 1], [label, 2]]), "middle_basis"
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert str(err.value) == f"side 'g2-probe:side' {what}: unknown basis label {label!r} on Q5"


def _g2_text(degree: str) -> bytes:
    return json.dumps(_g2()).replace('"polarization_degree": 12', f'"polarization_degree": {degree}').encode()


@pytest.mark.parametrize("text, message", [
    # printed a ValueError traceback from json.load before the digit cap
    (_g2_text("1" * 4400), f"an integer of 4400 digits exceeds the cap of {MAX_INT_DIGITS} digits"),
    (_g2_text("-" + "1" * (MAX_INT_DIGITS + 1)),
     f"an integer of {MAX_INT_DIGITS + 1} digits exceeds the cap of {MAX_INT_DIGITS} digits"),
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
    # printed a RecursionError traceback from json.load
    pytest.param(b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded", id="deeply-nested"),
])
def test_unparsable_config_file_is_usage_error(tmp_path, text, message):
    path = tmp_path / "probe.json"
    path.write_bytes(text)
    stderr = usage_error("describe", "--config", str(path))
    assert stderr.startswith(f"error: {path}: ") and stderr.count("\n") == 1
    assert message in stderr


Q3_RANK4_SIDE = [[["L", 1]], [["Pi", 1]], [["Pi*L", 1]], []]  # rank 4 on a threefold


def _q3_rank4(form: str) -> dict:
    return {"name": "q3-rank4", "rank": 4, "base_dim": [3, 3], "polarization_degree": 1,
            "sides": [{form: Q3_RANK4_SIDE}, {form: Q3_RANK4_SIDE}]}


@pytest.mark.parametrize("write, message", [
    # these three printed "error: FileNotFoundError", "error: IsADirectoryError" and
    # "error: InvalidRoofError" and exited 1
    (lambda tmp: tmp / "missing.json", "No such file or directory"),
    (lambda tmp: tmp, "Is a directory"),
    (lambda tmp: _write(tmp, _q3_rank4("chern")),
     "side 'q3-rank4:side': bundle rank exceeds what the base dimension supports"),
    (lambda tmp: _write(tmp, _q3_rank4("groth")),
     "side 'q3-rank4:side': bundle rank exceeds what the base dimension supports"),
], ids=["missing", "directory", "chern-rank-above-dim", "groth-rank-above-dim"])
def test_unreadable_or_impossible_config_is_usage_error(tmp_path, write, message):
    stderr = usage_error("describe", "--config", str(write(tmp_path)))
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert message in stderr


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


def test_declared_locus_sign_outside_plus_minus_one_is_usage_error(tmp_path):
    # RoofConfig owns the sign check; configs wraps its error, so a file gets exit 2
    stderr = usage_error("lemma7", "--config", str(_write(tmp_path, _g2_side(declared_locus_sign=2))))
    assert stderr == "error: declared_locus_signs entries must be 1 or -1, got (2, 1)\n"
