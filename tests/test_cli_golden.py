"""Byte snapshots of the CLI: stdout and exit code of each command in commands.json.

Each ``<name>.txt`` / ``<name>.json`` file under ``data/cli_golden`` is the
exact stdout of ``roofpairs <argv>`` run from the repository root, and
``commands.json`` maps it to its argv and exit code.  A refactor that claims
byte-identical output keeps every file as it is.  To add a command, run it
with ``python -m roofpairs`` from the repository root, write its stdout to a
new file and list it in ``commands.json``.
"""

import contextlib
import io
import json
import pathlib

import pytest

from roofpairs.cli import main

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("snapshot", sorted(COMMANDS))
def test_cli_output_is_byte_identical(snapshot, monkeypatch):
    monkeypatch.chdir(ROOT)  # config paths in the snapshots are relative to the root
    want = COMMANDS[snapshot]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(want["argv"]))
    assert code == want["exit"]
    assert out.getvalue().encode() == (GOLDEN / snapshot).read_bytes()


def test_every_snapshot_is_listed():
    files = {p.name for p in GOLDEN.iterdir()} - {"commands.json"}
    assert files == set(COMMANDS)
