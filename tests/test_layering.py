"""The package imports lazily: each CLI command loads only the modules it runs,
while every public name stays importable from ``roofpairs``."""

import ast
import doctest
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import roofpairs
from roofpairs import cli, configs, errors

# the public names of the package, with their home modules
EXPORTED = {
    **dict.fromkeys((
        "BasisElement", "ChernVector", "GradedClass", "RingPresentation", "chern_twist",
        "integrate", "make_quadric_ring",
    ), "gradedring"),
    **dict.fromkeys((
        "BundleClass", "MiddleLattice", "ResidueScan", "RoofConfig", "RoofSide", "cy_degree",
        "locus_pushforward_class", "middle_lattice", "mukai_vector", "pairing_on_M",
        "polarized_sign_check", "reduce", "residue_scan", "switch_side",
    ), "roofcalc"),
    **dict.fromkeys((
        "DiscriminantGroup", "MukaiSolution", "SmithDecomposition", "discriminant_group",
        "isotropic_pair_solve", "orthogonal_kernel", "smith_normal_form",
    ), "latticecore"),
    **dict.fromkeys((
        "RootSystem", "bundle_cohomology", "dominant_conjugate", "euler_characteristic",
        "les_solve", "rho", "vanishing_case",
    ), "bwbcoh"),
    **dict.fromkeys(("MotivicPoly", "fibration_class", "l_equivalence_residual", "proj_class"),
                    "motivicring"),
    **dict.fromkeys(("builtin_config", "load_config"), "configs"),
}

ERROR_HOMES = {
    "ConfigError": "configs",
    "GradedRingError": "gradedring",
    "RoofError": "roofcalc",
    "LatticeError": "latticecore",
    "BWBError": "bwbcoh",
    "UnsupportedBundleError": "bwbcoh",
}

# Runs one command through cli.main and reports, as the last line of stderr,
# which roofpairs modules the process loaded, and "dataclasses" and "fractions"
# if it loaded them.
PROBE = """\
import json, sys
from roofpairs.cli import main
code = 1
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
finally:
    print(json.dumps(sorted(m for m in sys.modules
                            if m.startswith("roofpairs") or m in ("dataclasses", "fractions"))),
          file=sys.stderr)
sys.exit(code)
"""

# The package modules that each command loads besides the package, cli and
# errors, and "fractions" (which loads decimal) where the command builds a
# Fraction; a bare interpreter loads neither.
LOADS = {
    "--version": set(),
    "bwb 5 G 1 --json": {"bwbcoh"},
    "bwb --case 2 --json": {"bwbcoh"},
    "motivic --json": {"motivicring", "_text"},
    **dict.fromkeys(("describe g2dagger", "lemma7 d4", "mukai g2dagger"),
                    {"configs", "roofcalc", "gradedring", "latticecore", "_text", "fractions"}),
    "verify-all": {"checks", "configs", "roofcalc", "gradedring", "latticecore", "bwbcoh", "motivicring", "_text",
                   "fractions"},
}


def _probe(argv: list[str], preamble: str = "") -> set[str]:
    """The modules PROBE reports for one command, run after ``preamble`` in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", preamble + PROBE, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


@pytest.mark.parametrize("command", LOADS)
def test_command_loads_only_what_it_runs(command):
    want = {"roofpairs", "roofpairs.cli", "roofpairs.errors"}
    want |= {m if m == "fractions" else f"roofpairs.{m}" for m in LOADS[command]}
    assert _probe(command.split()) == want


# dataclasses (with inspect, ast and dis behind it) is the largest import a
# command could pay for.  pytest has loaded it already, so each case runs in a
# fresh process; importing checks stands for verify-all without its run time.
@pytest.mark.parametrize("preamble, argv", [
    *(pytest.param("", argv, id=" ".join(argv)) for argv in (
        ["--version"], ["describe", "g2dagger"], ["lemma7", "d4"], ["mukai", "g2dagger"], ["bwb", "5", "G", "1"],
        ["motivic"])),
    pytest.param("import roofpairs.checks\n", ["--version"], id="import roofpairs.checks"),
])
def test_start_up_does_not_import_dataclasses(preamble, argv):
    assert "dataclasses" not in _probe(argv, preamble)


def test_motivicring_loads_only_the_leaf():
    # motivicring prints through signed_sum, which lives in the dependency-free _text, not in gradedring,
    # and takes its integer rule from the dependency-free errors
    code = "import json, sys, roofpairs.motivicring; print(json.dumps([m for m in sys.modules if 'roofpairs' in m]))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert set(json.loads(out)) == {"roofpairs", "roofpairs._text", "roofpairs.errors", "roofpairs.motivicring"}


def test_no_module_imports_dataclasses():
    for path in pathlib.Path(roofpairs.__file__).parent.glob("*.py"):
        assert "dataclasses" not in _absolute_imports(path), path.name


@pytest.mark.parametrize("name", sorted(EXPORTED))
def test_every_public_name_still_imports(name):
    namespace = {}
    exec(f"from roofpairs import {name}", namespace)
    home = importlib.import_module(f"roofpairs.{EXPORTED[name]}")
    assert namespace[name] is getattr(home, name)


def test_star_import_gives_the_declared_surface():
    namespace = {}
    exec("from roofpairs import *", namespace)
    assert set(EXPORTED) | set(ERROR_HOMES) <= set(roofpairs.__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        roofpairs.no_such_name


@pytest.mark.parametrize("name", sorted(ERROR_HOMES))
def test_error_roots_live_in_errors(name):
    cls = getattr(errors, name)
    home = importlib.import_module(f"roofpairs.{ERROR_HOMES[name]}")
    assert getattr(home, name) is cls
    assert getattr(roofpairs, name) is cls
    assert cls.__module__ == "roofpairs.errors"


def test_parser_names_the_builtin_configurations():
    assert cli.BUILTIN_NAMES == configs.builtin_names()


def _package_imports(path: pathlib.Path) -> set[str]:
    """The roofpairs modules a source file imports anywhere: at module level,
    inside functions and under ``TYPE_CHECKING`` alike."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("roofpairs")):
            module = node.module if node.level else node.module.removeprefix("roofpairs").lstrip(".")
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("roofpairs.")}
    return found


def _absolute_imports(path: pathlib.Path) -> set[str]:
    """The top-level modules a source file imports by absolute name anywhere."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
    return found


def test_imports_only_the_standard_library():
    # pins dependencies = [] in pyproject.toml against every third-party module, numpy included; the one
    # dynamic import, in __init__, loads the package's own modules
    package = pathlib.Path(roofpairs.__file__).parent
    for path in package.glob("*.py"):
        assert _absolute_imports(path) - sys.stdlib_module_names == set(), path.name
        calls = {node.func.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
        assert "import_module" not in calls or path.name == "__init__.py", path.name


def test_no_assert_statements():
    # python -O strips asserts, so every internal check in the package raises explicitly
    for path in pathlib.Path(roofpairs.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


def test_no_test_module_imports_another():
    # the tests share their configs and builders through plain modules such as roofcorpus
    for path in pathlib.Path(__file__).parent.glob("test_*.py"):
        assert not any(m.startswith("test_") for m in _absolute_imports(path)), path.name


# importing __main__ runs the command line
@pytest.mark.parametrize("name", sorted(p.stem for p in pathlib.Path(roofpairs.__file__).parent.glob("*.py")
                                        if p.stem != "__main__"))
def test_doctests_pass(name):
    module = roofpairs if name == "__init__" else importlib.import_module(f"roofpairs.{name}")
    assert doctest.testmod(module).failed == 0


def test_latticecore_is_a_leaf():
    path = pathlib.Path(roofpairs.__file__).with_name("latticecore.py")
    assert _package_imports(path) == {"errors"}


def test_signed_sum_lives_in_a_leaf():
    text = importlib.import_module("roofpairs._text")
    package = pathlib.Path(roofpairs.__file__).parent
    assert _package_imports(package / "_text.py") == set()
    assert _package_imports(package / "motivicring.py") == {"_text", "errors"}
    assert importlib.import_module("roofpairs.gradedring").signed_sum is text.signed_sum


def test_mukai_vector_lives_in_roofcalc():
    roofcalc = importlib.import_module("roofpairs.roofcalc")
    latticecore = importlib.import_module("roofpairs.latticecore")
    assert roofpairs.mukai_vector is roofcalc.mukai_vector
    assert not hasattr(latticecore, "mukai_vector")


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_cli_uses_no_private_package_name():
    # the commands use each module's public surface: describe, lemma7 and mukai render from
    # roofcalc.RoofQuery, and describe takes its group from RoofQuery.group
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    modules = {p.stem for p in pathlib.Path(cli.__file__).parent.glob("*.py")}
    package_imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                       and (node.level or (node.module or "").startswith("roofpairs"))]
    # local names bound to package modules, as in `from . import latticecore, roofcalc`
    bound = {alias.asname or alias.name for node in package_imports
             if (node.module or "roofpairs") == "roofpairs" for alias in node.names if alias.name in modules}
    private = {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in bound and _private(node.attr)}
    private |= {alias.name for node in package_imports for alias in node.names if _private(alias.name)}
    assert private == set()
