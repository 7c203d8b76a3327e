"""No input makes the CLI print a traceback.

The first test takes a built-in configuration with one to three leaves
replaced from a small pool of hostile values (wrong types, empty containers,
unknown labels, integers under the 100-digit cap), writes it to a file and
runs it through ``describe``, ``lemma7`` and ``mukai``.  The second draws
whole command lines for all six subcommands, and the third lists tokens from a
small vocabulary with no grammar at all.  Every run must end in a
documented exit code, write nothing but a report of its own command to
stdout, and raise nothing out of ``cli.main`` but argparse's ``SystemExit``.
"""

import contextlib
import copy
import functools
import io
import json
import pathlib
from unittest import mock

from hypothesis import given, settings, strategies as st

from roofpairs import checks
from roofpairs.cli import main
from roofpairs.configs import BUILTIN_CONFIGS, MAX_INT_DIGITS

POOL = (
    "3", 2.5, True, None, {}, [], [[]], ["L"], "Q", "Pi7", "xi",
    0, 1, -1, 2, 3, 7, 12, 33, -(10**6), 10**(MAX_INT_DIGITS - 1), -(10**(MAX_INT_DIGITS - 1)),
)


def _leaf_paths(node, path=()):
    """The index paths of every scalar in a JSON document."""
    if isinstance(node, dict):
        return [p for key, value in node.items() for p in _leaf_paths(value, path + (key,))]
    if isinstance(node, list):
        return [p for i, value in enumerate(node) for p in _leaf_paths(value, path + (i,))]
    return [path]


LEAVES = {name: _leaf_paths(data) for name, data in BUILTIN_CONFIGS.items()}


@st.composite
def hostile_configs(draw):
    name = draw(st.sampled_from(sorted(BUILTIN_CONFIGS)))
    data = copy.deepcopy(BUILTIN_CONFIGS[name])
    for path in draw(st.lists(st.sampled_from(LEAVES[name]), min_size=1, max_size=3, unique=True)):
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(POOL)))
    return data


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=hostile_configs())
def test_hostile_config_never_prints_a_traceback(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "roof.json"
    path.write_text(json.dumps(data))
    for command in ("describe", "lemma7", "mukai"):
        code, out, err = _run([command, "--config", str(path), "--json"])
        assert code in (0, 1, 2), (command, code, err)
        assert "Traceback" not in err
        if code == 0:
            assert json.loads(out)["command"] == command
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (command, err)


DATA = pathlib.Path(__file__).parent / "data"
# the shipped configurations below the caps, the data directory and a missing file
CONFIG_PATHS = [str(p) for p in (DATA / "toy_symmetric.json", DATA / "q4_large_degree.json", DATA, DATA / "nope.json")]
# just past the caps and bounds of DIM, TWIST and --rank, and integers argparse's int() reads oddly
EDGE = ("501", "2", "1000000001", "-1000000001", "50001", "1", "0", "-1", "+5", "07", " 5", "1_0", "1e3")
JUNK = ("", "-", "--", "--bogus", "nan", "g2dagger", "--json=1", "--bound", "--config", "--case")
NUMBER = st.one_of(st.integers(-3, 12).map(str), st.sampled_from(EDGE))
BUNDLES = ("O", "S", "Sdual", "Splus", "Sminusdual", "Wedge2S", "Sym2Sdual", "G", "Gdual", "C", "Cdual", "Bogus")


def _maybe(tokens):
    return st.one_of(st.just([]), tokens)


NAME = st.sampled_from([[], ["g2dagger"], ["d4"], ["toy-sym"]])
CONFIG = st.sampled_from([[]] + [["--config", p] for p in CONFIG_PATHS])
# each draws a tuple of token lists
ARGS = {
    "describe": st.tuples(NAME, CONFIG),
    "lemma7": st.tuples(NAME, CONFIG),
    "mukai": st.tuples(NAME, CONFIG, _maybe(NUMBER.map(lambda b: ["--bound", b]))),
    "bwb": st.one_of(
        st.tuples(NUMBER.map(lambda d: [d]), st.sampled_from(BUNDLES).map(lambda b: [b]),
                  _maybe(NUMBER.map(lambda t: [t]))),
        st.tuples(st.integers(0, 4).map(lambda c: ["--case", str(c)]), _maybe(st.just(["5", "O"]))),
    ),
    "motivic": st.tuples(_maybe(NUMBER.map(lambda r: ["--rank", r]))),
    # the default bound only: every other value would recompute the whole check set
    "verify-all": st.tuples(_maybe(st.just(["--corrupt"])),
                            st.sampled_from([[], ["--bound", "50"], ["--bound", "-1"], ["--bound", "x"]])),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(ARGS)))
    tokens = [t for group in draw(ARGS[command]) for t in group] + draw(_maybe(st.just(["--json"])))
    if draw(st.integers(0, 3)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(JUNK)))
    return [command, *tokens]


# verify-all's checks depend only on (corrupt, bound): each set is computed once, not once per example
_run_all = functools.cache(checks.run_all)


def _check_command_line(argv):
    with mock.patch.object(checks, "run_all", _run_all):
        code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if out:  # a report: motivic and verify-all print theirs and exit 1 when a check fails
        # the parser takes no option before the subcommand, so the first subcommand name is the command
        command = next(t for t in argv if t in ARGS)
        assert code == 0 or (code == 1 and command in ("motivic", "verify-all")), (argv, code)
        if "--json" in argv:
            assert json.loads(out)["command"] == command
    else:
        assert code != 0 and err.startswith(("error: ", "usage: ")), (argv, err)


@settings(max_examples=150, deadline=None)
@given(argv=command_lines())
def test_any_command_line_exits_with_a_documented_code(argv):
    _check_command_line(argv)


# tokens for command lines with no grammar at all: the subcommands and their flags, numbers at and just
# past each bound of DIM, TWIST, --rank, --bound and --case, bundles, names, a missing and a real config
# file, and junk.  -h and --version are left out, and so are the inputs that take seconds (a DIM of 500,
# --rank 50000).
VOCABULARY = (
    *sorted(ARGS), "--json", "--config", "--bound", "--rank", "--case", "--corrupt",
    "-1000000001", "-1000000000", "-1", "0", "1", "2", "3", "4", "501", "50001", "1000000000", "1000000001",
    "O", "Sdual", "G", "Bogus", "g2dagger", "d4", "toy-sym", CONFIG_PATHS[0], CONFIG_PATHS[-1],
    "", "-", "--", "--bogus", "nan", "1e3",
)


@settings(max_examples=150, deadline=None)
# a subcommand first six times in seven, or the parser's top level rejects almost every line
@given(command=st.sampled_from([*sorted(ARGS), None]), tokens=st.lists(st.sampled_from(VOCABULARY), max_size=4))
def test_free_form_command_line_exits_with_a_documented_code(command, tokens):
    _check_command_line(tokens if command is None else [command, *tokens])
