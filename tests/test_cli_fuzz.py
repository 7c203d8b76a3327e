"""No input makes the CLI print a traceback.

Each example is a built-in configuration with one to three leaves replaced
from a small pool of hostile values (wrong types, empty containers, unknown
labels, integers under the 100-digit cap), written to a file and run through
``describe``, ``lemma7`` and ``mukai``.  Every run must end in a documented
exit code, write nothing but a report of its own command to stdout, and
raise nothing out of ``cli.main``.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, settings, strategies as st

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
