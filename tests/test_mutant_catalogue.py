"""The shape of the mutant catalogue in ``tests/mutants.py``, which ``python tests/mutants.py`` runs."""

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


def test_killer_files_exist():
    for m in MUTANTS:
        assert m.killers and all((TESTS / k.split("::")[0]).is_file() for k in m.killers), m.name


def test_every_computational_module_has_mutants():
    counts = Counter(m.module for m in MUTANTS)
    assert len(MUTANTS) >= 25
    for module in ("gradedring", "roofcalc", "latticecore", "bwbcoh", "motivicring"):
        assert counts[f"{module}.py"] >= 3, module


def test_exclusions_say_why():
    assert all(reason.startswith(("equivalent: ", "survivor: ")) for _, reason in EXCLUDED)
