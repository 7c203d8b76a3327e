"""The shape of the mutant catalogue in ``tests/mutants.py``, which ``python tests/mutants.py`` runs."""

import ast
from collections import Counter
from pathlib import Path

from mutants import EXCLUDED, MUTANTS

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src" / "roofpairs"
ENTRIES = MUTANTS + tuple(m for m, _ in EXCLUDED)


def test_names_are_unique():
    names = [m.name for m in ENTRIES]
    assert len(names) == len(set(names))


def test_each_fragment_occurs_exactly_once():
    for m in ENTRIES:
        assert (SRC / m.module).read_text().count(m.fragment) == 1, m.name
        assert m.replacement != m.fragment, m.name


def _defines(body: list, names: list[str]) -> bool:
    """Whether a module's ``body`` defines the test ``names``: a function, or a class and its method."""
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def test_killers_exist():
    # pytest exits 4 on a node id it cannot find, which the catalogue run would count as a survivor
    bodies = {}
    for m in MUTANTS:
        assert m.killers, m.name
        for killer in m.killers:
            file, *names = killer.split("::")
            assert (TESTS / file).is_file(), (m.name, killer)
            if file not in bodies:
                bodies[file] = ast.parse((TESTS / file).read_text()).body
            assert _defines(bodies[file], names), (m.name, killer)


def test_every_computational_module_has_mutants():
    counts = Counter(m.module for m in MUTANTS)
    assert len(MUTANTS) >= 25
    for module in ("gradedring", "roofcalc", "latticecore", "bwbcoh", "motivicring"):
        assert counts[f"{module}.py"] >= 3, module


def test_exclusions_say_why():
    assert all(reason.startswith(("equivalent: ", "survivor: ")) for _, reason in EXCLUDED)
