"""The mutant catalogue: named faults in the exact kernels that the tests must detect.

Each mutant replaces one source fragment, which must occur exactly once in
its file under ``src/roofpairs/``, and names the test files, or test node
ids (``file::test``), that must fail on the result.  ``python tests/mutants.py`` (no options) copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory per mutant,
applies the patch there and runs pytest on the named files with a fixed
hypothesis seed; a run past the timeout counts as killed.  A control run on
an unpatched copy first checks that the killer files pass and that the
child imports ``roofpairs`` from the copy.  The script exits 1 and names
every survivor; it writes nothing outside its temporary directories.

To add a mutant, append a ``Mutant`` to ``MUTANTS``.  A frozen reference
implementation in ``tests/`` may be retired only when mutants of the code it
guards are in this catalogue and their named killers, which do not include
the reference, kill them.  ``tests/test_mutant_catalogue.py`` checks the
catalogue's shape in tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

# the child imports roofpairs before pytest does, and refuses to run from anywhere but the copy
_CHILD = """\
import sys, pytest, roofpairs
src = sys.argv.pop(1)
if not roofpairs.__file__.startswith(src):
    print(f"roofpairs imported from {roofpairs.__file__}, not from {src}")
    sys.exit(99)
sys.exit(pytest.main(sys.argv[1:]))
"""


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/roofpairs/
    fragment: str  # occurs exactly once in that file
    replacement: str
    killers: tuple[str, ...]  # test files under tests/, or node ids in them; killed when their run fails


def _m(name, module, fragment, replacement, *killers) -> Mutant:
    return Mutant(name, module + ".py", fragment, replacement, killers)


LAT, ROOF, GRADED, BWB, MOT = ("test_latticecore.py", "test_roofcalc.py", "test_gradedring.py",
                               "test_bwbcoh.py", "test_motivicring.py")
GOLDEN, RECORDS, CONTRACT, CLI = "test_cli_golden.py", "test_records.py", "test_contract.py", "test_cli.py"
INPUTS, CHECKS, ORACLES = "test_input_checks.py", "test_checks.py", "test_engine_oracles.py"
SEGRE = f"{ORACLES}::test_segre_oracle"

MUTANTS = (
    # latticecore: Smith normal form
    _m("smith-no-divisibility-fix", "latticecore", "if offender is not None:", "if False:", LAT),
    _m("smith-no-final-sign", "latticecore", "        if a[t][t] < 0:\n            a[t] = [-x for x in a[t]]\n",
       "", LAT),
    _m("smith-no-hermite-reduction", "latticecore", "        for i in range(r):\n", "        for i in range(0):\n",
       LAT),
    _m("smith-xgcd-cofactor-sign", "latticecore", "t1, t - q * t1", "t1, t + q * t1", LAT),
    # latticecore: Bareiss elimination and the exact solves
    _m("bareiss-no-swap-sign", "latticecore", "            sign = -sign", "            sign = sign", LAT),
    _m("bareiss-no-exact-division", "latticecore", "[(p * x - f * y) // prev for", "[(p * x - f * y) for", LAT),
    _m("det-forward-skips-a-row", "latticecore", "0 if jordan else r + 1", "0 if jordan else r + 2", LAT),
    _m("solve-rational-kernel-sign", "latticecore", "Fraction(-row[c], d)", "Fraction(row[c], d)", LAT),
    _m("solve-rational-no-consistency-test", "latticecore",
       "    if any(row[ncols] for row in a[len(pivots):]):", "    if False:", LAT),
    _m("solve-integral-ignores-the-kernel", "latticecore", "    if kernel:", "    if False:", LAT),
    _m("solve-integral-accepts-fractions", "latticecore", "    if any(x.denominator != 1 for x in solution):",
       "    if False:", LAT),
    # latticecore: discriminant groups, kernels, isotropic pairs
    _m("discriminant-generator-unscaled", "latticecore", "tuple(x // d for x in image)", "tuple(image)", LAT),
    _m("kernel-sign-not-normalised", "latticecore", "        if lead < 0:\n            col = [-x for x in col]\n",
       "", LAT),
    _m("isotropic-bound-strict", "latticecore", "max(abs(x) for x in u + v) <= bound",
       "max(abs(x) for x in u + v) < bound", LAT),
    _m("isotropic-answer-unchecked", "latticecore",
       "    if (_form(gram, a, a), _form(gram, b, b), _form(gram, a, ell), _form(gram, b, ell), _form(gram, a, b)) \\\n"
       "            != (0, 0, 0, 0, 1):\n", "    if False:\n", LAT),
    # latticecore: the input contract, the tall path and the Smith oracle
    _m("int-rows-truncates-entries", "latticecore", "list(map(index, row))", "list(map(int, row))", INPUTS),
    _m("smith-tall-transforms-unswapped", "latticecore",
       "SmithDecomposition(_transposed(v, rows), _transposed(d, rows), _transposed(u, cols))",
       "SmithDecomposition(_transposed(u, cols), _transposed(d, rows), _transposed(v, rows))", LAT),
    _m("smith-verify-skips-product-test", "latticecore",
       "        if mat_mul(mat_mul(self.U, m), self.V) != [list(r) for r in self.D]:\n            return False\n", "",
       LAT),
    _m("smith-verify-skips-diagonal-test", "latticecore",
       "        if any(x for i, row in enumerate(self.D) for j, x in enumerate(row) if i != j):\n"
       "            return False\n", "", LAT),
    # the library boundary: integer scalars and matching shapes at the public entries
    _m("mat-mul-shapes-unchecked", "latticecore",
       "if any(len(row) != len(b) for row in a) or any(len(row) != len(cols) for row in b):", "if False:", INPUTS),
    _m("mat-vec-shapes-unchecked", "latticecore", "if any(len(row) != len(v) for row in a):", "if False:", INPUTS),
    _m("kernel-sublattice-width-unchecked", "latticecore", 'n, "sublattice")', 'None, "sublattice")', LAT),
    _m("weight-coordinate-admits-floats", "bwbcoh", '_typed(c, Fraction, "weight coordinate", BWBError)',
       '_typed(c, (Fraction, float), "weight coordinate", BWBError)', CONTRACT),
    _m("gram-squareness-unchecked", "latticecore",
       'if any(len(_typed(row, (list, tuple), "gram matrix row", LatticeError)) != n for row in gram):', "if False:",
       LAT),
    _m("isotropic-bound-not-an-index", "latticecore", 'bound = _index(bound, "the coordinate bound", LatticeError)',
       "bound = bound", CONTRACT),
    _m("isotropic-ell-length-unchecked", "latticecore", "if len(ell) != 3:", "if False:", INPUTS),
    _m("isotropic-ell-entries-unchecked", "latticecore", "ell = tuple(map(index, ell))", "ell = tuple(ell)", INPUTS),
    _m("quadric-dimension-not-an-index", "gradedring", 'dim = _index(dim, "quadric dimension", InvalidDimensionError)',
       "dim = dim", INPUTS),
    _m("ring-dimension-not-an-index", "gradedring",
       'self.dimension = dimension = _index(dimension, "ring dimension", GradedRingError)',
       "self.dimension = dimension", CONTRACT),
    _m("l-power-not-an-index", "gradedring", 'p = _index(p, "hyperplane power", GradedRingError)', "pass", CONTRACT),
    _m("chern-twist-not-an-index", "gradedring", 'ring, r, t = c.ring, c.rank, _index(t, "twist", GradedRingError)',
       "ring, r = c.ring, c.rank", CONTRACT),
    _m("basis-label-error-unwrapped", "gradedring", "self._degrees[label]\n        except (KeyError, TypeError):",
       "self._degrees[label]\n        except ():", INPUTS),
    _m("basis-product-error-unwrapped", "gradedring", "self._products[x, y]\n        except (KeyError, TypeError):",
       "self._products[x, y]\n        except ():", INPUTS),
    _m("reduce-exponent-not-an-index", "roofcalc", 'e = _index(e, "xi exponent", RoofError)', "e = int(e)", CONTRACT),
    _m("reduce-exponent-admits-bools", "roofcalc", 'e = _index(e, "xi exponent", RoofError)', "e = e.__index__()",
       ROOF, CONTRACT),
    _m("reduce-degree-unchecked", "roofcalc",
       '    if degree is not None and type(degree) is not int:\n        degree = _index(degree, "expression degree", '
       'RoofError)\n', "", CONTRACT),
    _m("side-rank-not-an-index", "roofcalc", 'rank = _index(rank, "rank", InvalidRoofError)', "pass", CONTRACT),
    _m("roof-config-degree-not-an-index", "roofcalc",
       'polarization_degree = _index(polarization_degree, "polarization degree", InvalidRoofError)', "pass", CONTRACT),
    _m("bundle-class-degree-not-an-index", "roofcalc", 'degree = _index(degree, "degree", RoofError)', "pass",
       CONTRACT),
    _m("side-middle-basis-not-normalised", "roofcalc",
       'tuple((x, _index(e, "middle_basis exponent", InvalidRoofError)) for x, e in middle_basis)',
       'tuple([x, _index(e, "middle_basis exponent", InvalidRoofError)] for x, e in middle_basis)', ROOF),
    _m("load-config-path-type-unchecked", "configs", "if not isinstance(path, (str, PathLike)):", "if False:", CLI),
    _m("root-system-rank-not-integral", "bwbcoh", 'rank = _index(rank, "rank", BWBError)', "pass", CONTRACT),
    _m("quadric-dimension-not-integral", "bwbcoh", 'n = _index(n, "quadric dimension", BWBError)', "pass", CONTRACT),
    _m("les-top-degree-not-integral", "bwbcoh", 'top = _index(seq.top_degree, "top degree", BWBError)',
       "top = seq.top_degree", CONTRACT),
    _m("sequence-twist-not-integral", "bwbcoh",
       '    """Table for a dictionary bundle or one of the sequence-resolved bundles."""\n'
       '    t = _index(t, "twist", BWBError)\n',
       '    """Table for a dictionary bundle or one of the sequence-resolved bundles."""\n', INPUTS),
    _m("proj-class-dimension-not-integral", "motivicring",
       'k = _index(k, "projective space dimension", ValueError)', "pass", CONTRACT),
    _m("fibration-rank-not-integral", "motivicring",
       '([B] - [Y]).\n    """\n    r = _index(r, "rank", ValueError)\n', '([B] - [Y]).\n    """\n', CONTRACT),
    _m("closed-form-rank-not-integral", "motivicring", '    True\n    """\n    r = _index(r, "rank", ValueError)\n',
       '    True\n    """\n', CONTRACT),
    # errors: the two shared argument rules
    _m("index-rule-admits-anything", "errors", "        return index(value)\n", "        return value\n", CONTRACT),
    _m("index-rule-admits-bools", "errors", "        if type(value) is not bool:\n", "        if True:\n", CONTRACT,
       ROOF),
    _m("typed-rule-admits-anything", "errors", "    if not isinstance(value, cls):", "    if False:", CONTRACT, ROOF),
    # the scalar operands of the class operators: an int or Fraction, never a bool
    _m("graded-mul-admits-bools", "gradedring", "type(other) is not bool and isinstance(other, (int, Fraction))",
       "isinstance(other, (int, Fraction))", CONTRACT),
    _m("bundle-mul-admits-bools", "roofcalc", "type(other) is not bool and isinstance(other, (int, Fraction))",
       "isinstance(other, (int, Fraction))", CONTRACT),
    _m("motivic-operand-admits-bools", "motivicring", "isinstance(other, int) and type(other) is not bool:",
       "isinstance(other, int):", CONTRACT),
    # roofcalc: the declared locus signs of RoofConfig, and the stage that RoofQuery names
    _m("roof-config-signs-unchecked", "roofcalc", "if any(s not in (1, -1) for s in signs):", "if False:", ROOF,
       CLI),
    _m("stage-named-at-every-level", "roofcalc", 'if hasattr(exc, "stage"):', "if False:", "test_roof_queries.py",
       CLI),
    # roofcalc: the pieces RoofQuery shares between twin sides
    _m("twin-key-drops-relation", "roofcalc", "tilde._key()[1:] == side._key()[1:]",
       "tilde._key()[1:3] + tilde._key()[4:] == side._key()[1:3] + side._key()[4:]", "test_roof_queries.py"),
    _m("twin-key-drops-middle-basis", "roofcalc", "tilde._key()[1:] == side._key()[1:]",
       "tilde._key()[1:4] == side._key()[1:4]", "test_roof_queries.py", GOLDEN),
    _m("lattice-built-on-the-first-side", "roofcalc", "return _nondegenerate(side, gram, det)",
       "return _nondegenerate(self.config.side, gram, det)", "test_roof_queries.py"),
    _m("lattice-checked-on-the-first-side", "roofcalc",
       "_check_middle_basis(side)\n            gram, det, _ = self._gram(side)",
       "_check_middle_basis(self.config.side)\n            gram, det, _ = self._gram(side)",
       f"{ORACLES}::test_describe_failure_matches_public_functions"),
    # roofcalc: a lattice's class written down from its coordinates, each on its own monomial
    _m("coordinate-on-the-wrong-xi-power", "roofcalc", "parts[e][label] = parts[e].get(label, 0) + _exact(c)",
       "parts[-1 - e][label] = parts[-1 - e].get(label, 0) + _exact(c)", f"{ORACLES}::test_gram_oracle"),
    _m("coordinate-on-the-wrong-label", "roofcalc", "parts[e][label] = parts[e].get(label, 0) + _exact(c)",
       "parts[e][lat.monomials[0][0]] = parts[e].get(lat.monomials[0][0], 0) + _exact(c)",
       f"{ORACLES}::test_gram_oracle"),
    _m("coordinate-count-unchecked", "roofcalc",
       'if len(_typed(coords, (list, tuple), "coordinates", RoofError)) != lat.rank:', "if False:",
       f"{ROOF}::TestBundleClassChecks::test_one_coordinate_per_middle_monomial"),
    _m("bundle-mul-drops-the-first-part", "roofcalc", "ps = [(i, p) for i, p in enumerate(self._flat) if p]",
       "ps = [(i, p) for i, p in enumerate(self._flat) if p and i]",
       f"{ROOF}::test_fold_kernel_matches_its_definitions"),
    _m("config-builds-a-ring-per-side", "configs", "for d in dict.fromkeys(base_dims)}", "for d in base_dims}", ROOF),
    _m("switched-locus-built-on-the-tilde-lattice", "roofcalc", "switch_side(cfg, class_from_coordinates(lat, locus))",
       "switch_side(cfg, class_from_coordinates(lat_t, locus))", f"{ORACLES}::test_lemma7_oracle",
       "test_roof_queries.py"),
    _m("twin-pieces-not-shared", "roofcalc", 'id(tilde): "side" if', 'id(tilde): "tilde side" if',
       "test_roof_queries.py"),
    _m("group-built-before-the-locus", "cli",
       "    coords = q.locus(side)  # before the group: a config refused at the locus class pays for no Smith form\n"
       "    locus, group = roofcalc.class_from_coordinates(lat, coords), q.group(side)\n",
       "    group = q.group(side)\n"
       "    coords = q.locus(side)\n    locus = roofcalc.class_from_coordinates(lat, coords)\n",
       "test_roof_queries.py::test_what_each_command_builds"),
    # checks: the bundle-ring law check of verify-all
    _m("law-check-unit-law-dropped", "checks",
       '            elif ab != (b if x == "1" else a):\n                return False\n', "", CHECKS),
    _m("law-check-presentation-error-passes", "checks", "    except GradedRingError:\n        return False\n",
       "    except GradedRingError:\n        return True\n", CHECKS),
    # checks: the section count of the Ottaviani bundle, computed from both tables
    _m("g1-difference-literal", "checks",
       'bwbcoh.bundle_cohomology(5, "Sdual", 1).get(0, 0)\n           - bwbcoh.bundle_cohomology(5, "O", 1).get(0, 0)',
       "48 - 7", CHECKS),
    # _text: the signed-sum renderer
    _m("signed-sum-shows-minus-one", "_text", "(mono if size == 1 else", "(mono if c == 1 else", GRADED, GOLDEN),
    _m("signed-sum-always-plus", "_text", 'parts.append(f"- {term}" if parts', 'parts.append(f"+ -{term}" if parts',
       GRADED, GOLDEN),
    # gradedring
    _m("graded-mul-drops-multiplicity", "gradedring", "out[z] = out.get(z, 0) + ce * m",
       "out[z] = out.get(z, 0) + ce", GRADED),
    _m("graded-add-left-keys-only", "gradedring", "out[k] = out.get(k, 0) + v",
       "out[k] = out[k] + v if k in out else 0", GRADED),
    _m("exact-keeps-integral-fractions", "gradedring", "return x.numerator if x.denominator == 1 else x",
       "return x", GRADED),
    _m("graded-eq-ignores-degree", "gradedring", "self.ring is other.ring and self.degree == other.degree and",
       "self.ring is other.ring and", GRADED),
    # gradedring: the exact associativity check on sorted triples
    _m("assoc-drops-third-arrangement", "gradedring",
       " \\\n                    or xyz != self._combo_times_label(products[x, z], y)", "", INPUTS),
    _m("assoc-skips-top-degree-triples", "gradedring", "degrees[x] + degrees[y] + degrees[z] > self.dimension",
       "degrees[x] + degrees[y] + degrees[z] >= self.dimension", GRADED),
    _m("assoc-skips-repeated-labels", "gradedring", "            if degrees[x] + degrees[y] + degrees[z]",
       "            if len({x, y, z}) < 3 or degrees[x] + degrees[y] + degrees[z]", GRADED),
    _m("assoc-check-skipped", "gradedring", 'raise GradedRingError(f"table not associative at ({x}, {y}, {z})")',
       "pass", GRADED),
    # gradedring: the checks of ChernVector
    _m("chern-vector-length-unchecked", "gradedring", "if len(components) != rank:", "if False:", INPUTS),
    _m("chern-vector-degree-unchecked", "gradedring", "if c.degree != i:", "if False:", INPUTS),
    # the record checks of structured input: labels, Chern vectors, middle bases and sequence tables
    _m("graded-class-unknown-label-leaks", "gradedring", "d = degrees.get(label)", "d = degrees[label]", CONTRACT),
    _m("graded-class-skips-labels-of-zeros", "gradedring", "            d = degrees.get(label)\n",
       "            if not c:\n                continue\n            d = degrees.get(label)\n", INPUTS),
    # gradedring: an exact coefficient is an int or a Fraction, never a bool
    _m("exact-admits-bools", "gradedring", "if isinstance(x, int) and type(x) is not bool:", "if isinstance(x, int):",
       INPUTS),
    _m("table-coefficient-admits-bools", "gradedring",
       "type(v) is not bool and isinstance(v, (int, Fraction))", "isinstance(v, (int, Fraction))", INPUTS),
    _m("chern-vector-empty-accepted", "gradedring", "        if not components:\n", "        if False:\n", INPUTS),
    _m("side-middle-basis-pairs-unchecked", "roofcalc",
       "if any(not isinstance(m, (tuple, list)) or len(m) != 2 for m in middle_basis):", "if False:", CONTRACT),
    _m("side-middle-exponent-not-an-index", "roofcalc", '_index(e, "middle_basis exponent", InvalidRoofError)', "e",
       CONTRACT),
    _m("les-table-entries-not-integral", "bwbcoh", '_index(t.get(k, 0), "cohomology table entry", BWBError)',
       "t.get(k, 0)", CONTRACT),
    # the class and side arguments of the public functions, through errors._typed
    _m("pairing-operand-types-unchecked", "roofcalc",
       "    if type(a) is not BundleClass or type(b) is not BundleClass:", "    if False:", CONTRACT),
    _m("switch-operand-type-unchecked", "roofcalc", 'source = _typed(a, BundleClass, "switched class", RoofError).side',
       "source = a.side", CONTRACT),
    _m("integrate-operand-type-unchecked", "gradedring", '    _typed(a, GradedClass, "integrate", GradedRingError)\n',
       "", CONTRACT),
    _m("middle-lattice-side-type-unchecked", "roofcalc",
       'its own normal form."""\n    _typed(side, RoofSide, "side", RoofError)\n',
       'its own normal form."""\n', ROOF, CONTRACT),
    _m("reduce-drops-the-degree-of-a-zero-term", "roofcalc", "            coeffs, d = cls.coeffs, cls.degree\n",
       "            coeffs, d = cls.coeffs, cls.degree\n            if not coeffs:\n                continue\n", ROOF),
    # reduce is the one door of a bundle class: every term checked, dict terms and parts included
    _m("reduce-dict-terms-unchecked", "roofcalc", "            for label, c in cls.items():\n",
       "            for label, c in ():\n", INPUTS),
    _m("reduce-dict-term-needs-no-degree", "roofcalc", "            if given is None:\n", "            if False:\n",
       INPUTS),
    _m("reduce-admits-a-term-off-the-base", "roofcalc", "            if cls.ring is not base:\n",
       "            if False:\n", INPUTS),
    _m("bundle-class-bypasses-reduce", "roofcalc", "reduce(side, dict(enumerate(parts)), degree)._flat",
       "tuple(dict(p.coeffs) for p in parts)", INPUTS),
    _m("reduce-side-unchecked", "roofcalc",
       '    if type(side) is not RoofSide:\n        _typed(side, RoofSide, "side", RoofError)\n', "", CONTRACT),
    _m("les-sequence-length-unchecked", "bwbcoh", "    if len(names) != 3 or len(tables) != 3:", "    if False:",
       CONTRACT),
    # gradedring: quadric rings from one rule
    _m("quadric-parity-flipped", "gradedring", "(g == h) == (m % 2 == 0)", "(g == h) == (m % 2 == 1)", GRADED),
    _m("quadric-l-low-coefficient-one", "gradedring", '{"Pi": 2} if odd', '{"Pi": 1} if odd', GRADED),
    _m("quadric-pi2-not-folded", "gradedring", '        if g == "Pi2" and k:\n            g = "Pi1"\n', "", GRADED),
    # roofcalc
    _m("relation-coefficient-sign-ignored", "roofcalc", "((-1) ** i * m, monomial_name",
       "((-1) ** i * abs(m), monomial_name", f"{ROOF}::TestSideConstruction::test_relation_prints_each_sign_once"),
    _m("relation-negative-sum-sign-kept-inside", "roofcalc", "sign = -1 if max(c.coeffs.values()) < 0 else 1",
       "sign = 1", f"{ROOF}::TestSideConstruction::test_all_negative_coefficient_has_its_sign_outside"),
    _m("bundle-str-ascending-xi", "roofcalc", "in reversed(tuple(enumerate(self.parts)))",
       "in enumerate(self.parts)", ROOF, GOLDEN),
    _m("monomial-name-xi-to-the-one", "roofcalc", '("xi" if e == 1 else f"xi^{e}")', 'f"xi^{e}"', ROOF, GOLDEN),
    # roofcalc: the xi-power table, xi^e = sum_(j<r) P_e[j] * xi^j, and reduce's reading of it
    _m("fold-unsigned-relation", "roofcalc", "{z: (-1) ** (i + 1) * m for", "{z: m for", ROOF),
    _m("power-row-keeps-its-top-part-unfolded", "roofcalc", "[{}, *map(dict, rows[-1][:-1])]",
       "[dict(rows[-1][-1]), *map(dict, rows[-1][:-1])]", ROOF),
    _m("power-row-ignores-the-exponent", "roofcalc", "        return rows[e - self.rank]\n",
       "        return rows[-1]\n", ROOF),
    _m("segre-memo-shared-by-all-sides", "roofcalc", '"_sigma", {})', '"_sigma", globals().setdefault("_SIGMA", {}))',
       SEGRE, "test_records.py"),
    _m("power-table-shared-by-all-sides", "roofcalc", '"_powers", [relation[::-1]])',
       '"_powers", globals().setdefault("_POWERS", [relation[::-1]]))', ROOF, RECORDS),
    _m("power-cutoff-off-by-one", "roofcalc", "if e <= side.dim_total:", "if e <= side.dim_total + 1:", ROOF),
    _m("power-vanishing-skip-off-by-one", "roofcalc", "low = max(self.rank + len(rows) - self.base.dimension, 0)",
       "low = max(self.rank + len(rows) - self.base.dimension + 1, 0)", ROOF),
    _m("reduce-vanishing-skip-off-by-one", "roofcalc", "low = max(degree - base.dimension, 0)",
       "low = max(degree - base.dimension + 1, 0)", ROOF),
    _m("middle-gram-entry-corrupted", "roofcalc", "tuple(pairing_on_M(side, a, b) for b in classes)",
       "tuple(pairing_on_M(side, a, b) + (a is b is classes[-1]) for b in classes)", f"{ORACLES}::test_gram_oracle"),
    # roofcalc: the query engine's Gram matrix, read off the Segre classes
    _m("segre-read-off-the-next-power", "roofcalc", "self._power(r - 1 + k)[r - 1]", "self._power(r + k)[r - 1]",
       SEGRE),
    _m("segre-index-shifted", "roofcalc", "k = side.base, s - side.rank + 1", "k = side.base, s - side.rank", SEGRE),
    _m("segre-read-for-every-label", "roofcalc",
       "if k < 0 or base._degrees[x] + base._degrees[y] + k != base.dimension:", "if k < 0:", SEGRE),
    _m("table-gram-lower-triangle-zero", "roofcalc", "gram[i][k] = gram[k][i] = int(val)", "gram[i][k] = int(val)",
       f"{ORACLES}::test_gram_oracle"),
    _m("table-gram-integrality-unchecked", "roofcalc",
       '            if val.denominator != 1:\n                raise IntegralityError(', '            if False:\n'
       '                raise IntegralityError(', f"{ORACLES}::test_fraction_relation"),
    # roofcalc: the query engine's determinant, locus class and group, read off the splitting L = S + Zj
    _m("splitting-admits-any-nonzero-det-s", "roofcalc", "if det_s not in (1, -1):", "if det_s == 0:",
       f"{ORACLES}::test_describe_oracle"),
    _m("splitting-block-reversal-sign-flipped", "roofcalc", "det_s = (-1) ** sum(", "det_s = -(-1) ** sum(",
       f"{ORACLES}::test_describe_oracle"),
    _m("splitting-group-order-signed", "roofcalc", "d = abs(lat.determinant)", "d = lat.determinant",
       f"{ORACLES}::test_describe_oracle"),
    _m("splitting-locus-sign-inverted", "roofcalc", "x if p > 0 else -x for x in k", "-x if p > 0 else x for x in k",
       f"{ORACLES}::test_describe_oracle"),
    _m("splitting-one-by-one-block-det-unsigned", "roofcalc", "gram[blocks[e][0]][blocks[k - e][0]] if sizes[e] == 1",
       "abs(gram[blocks[e][0]][blocks[k - e][0]]) if sizes[e] == 1",
       f"{ORACLES}::test_splitting_of_a_synthetic_gram_matrix"),
    _m("splitting-one-by-one-block-solve-unsigned", "roofcalc", "solution = [rhs[0] * gram[rows[0]][cols[0]]]",
       "solution = [rhs[0]]", f"{ORACLES}::test_splitting_of_a_synthetic_gram_matrix"),
    # roofcalc: the locus class off G^-1 e_top where there is no splitting, and the one sign-law check
    _m("locus-sign-law-unchecked", "roofcalc", "    if pairing != law:\n", "    if False:\n", "test_roof_queries.py"),
    _m("locus-law-skipped-on-the-splitting-branch", "roofcalc",
       "            return _lawful(lat, k, self.config.polarization_degree)\n",
       "            return k if j else _lawful(lat, k, self.config.polarization_degree)\n", "test_roof_queries.py"),
    _m("public-locus-law-unchecked", "roofcalc",
       "class_from_coordinates(lat, _lawful(lat, kernel[0] if p > 0 else [-x for x in kernel[0]], cy_degree(side)))",
       "class_from_coordinates(lat, kernel[0] if p > 0 else [-x for x in kernel[0]])",
       INPUTS),
    _m("closed-form-rank-counts-the-pullback", "roofcalc", "has rank {len(top)}, expected 1",
       "has rank {lat.rank - len(top)}, expected 1", f"{ORACLES}::test_rank_error_without_one_top_monomial"),
    _m("closed-form-scaled-by-the-determinant", "roofcalc", "m = lcm(*(x.denominator for x in v))",
       "m = lat.determinant", f"{ORACLES}::test_fallback_locus_class_is_the_orthogonal_kernel"),
    _m("pairing-reads-first-part", "roofcalc", "xi_power(side, 1))._flat[-1]", "xi_power(side, 1))._flat[0]",
       ROOF),
    _m("switch-substitution-unsigned", "roofcalc", "c * comb(p, k) * (-1) ** k", "c * comb(p, k)", ROOF),
    _m("residue-scan-degree-unchecked", "roofcalc", "    if d < 1:\n", "    if False:\n",
       INPUTS),
    _m("residue-crt-no-compatibility-test", "roofcalc", "        if (r - k0) % h:\n            return None\n", "",
       ROOF),
    _m("locus-sign-not-normalised", "roofcalc", "kernel[0] if p > 0 else [-x for x in kernel[0]]", "kernel[0]", ROOF),
    # roofcalc: the checks of RoofConfig
    _m("roof-config-rank-unchecked", "roofcalc", "if side.rank != tilde_side.rank:", "if False:", INPUTS),
    _m("roof-config-dimension-unchecked", "roofcalc", "if side.dim_total != tilde_side.dim_total:", "if False:",
       INPUTS),
    _m("roof-config-degree-unchecked", "roofcalc", "if d != polarization_degree:", "if False:", INPUTS),
    _m("record-make-skips-validation", "roofcalc", "    _make = classmethod(lambda cls, iterable: cls(*iterable))", "",
       INPUTS),
    # bwbcoh: the checks of RootSystem
    _m("root-system-family-unchecked", "bwbcoh", 'if family not in ("B", "D"):', "if False:", INPUTS),
    _m("root-system-rank-unchecked", "bwbcoh", "if rank < 2:", "if False:", INPUTS),
    # bwbcoh: the Weyl-group kernel
    _m("conjugate-d-parity-flipped", "bwbcoh", "sum(c < 0 for c in doubled) % 2:",
       "sum(c < 0 for c in doubled) % 2 == 0:", BWB),
    _m("rho-b-off-by-one", "bwbcoh", "2 * (m - i) - 1 for i", "2 * (m - i) + 1 for i", BWB),
    _m("pairings-short-roots-on-d", "bwbcoh", '    if rs.family == "B":\n        out += doubled',
       '    if rs.family == "D":\n        out += doubled', BWB),
    _m("length-counts-positive-pairings", "bwbcoh", "sum(v < 0 for v in pairs)", "sum(v > 0 for v in pairs)",
       BWB),
    _m("dimension-numerator-signed", "bwbcoh", "zip(map(abs, pairs), _rho_pairings(rs))",
       "zip(pairs, _rho_pairings(rs))", BWB),
    _m("weight-rank-unchecked", "bwbcoh", "if len(doubled) != rs.rank:", "if len(doubled) < rs.rank:", BWB),
    # bwbcoh: the weight dictionary and its entry points
    _m("twist-not-doubled", "bwbcoh", "(w[0] + 2 * t,)", "(w[0] + t,)", BWB),
    _m("sminus-as-splus", "bwbcoh", '"Sminus": ((-1,) + half[1:] + (-1,),)', '"Sminus": ((-1,) + half,)', BWB),
    _m("small-quadrics-accepted", "bwbcoh", "    if n < 3:", "    if n < 1:", INPUTS),
    _m("non-integral-twist-accepted", "bwbcoh", '    t = _index(t, "twist", BWBError)\n    tables = [',
       "    tables = [", INPUTS),
    _m("cayley-twist-converts-integral-floats", "bwbcoh",
       'cannot force it."""\n    t = _index(t, "twist", BWBError)\n',
       'cannot force it."""\n    t = _index(int(t) if type(t) is float and t.is_integer() else t, "twist", BWBError)\n',
       INPUTS),
    # bwbcoh: the long exact sequence solver
    _m("les-run-parity-flipped", "bwbcoh", "value = -total if unknowns[0] % 2 == 0 else total",
       "value = total if unknowns[0] % 2 == 0 else -total", BWB),
    _m("les-known-run-unchecked", "bwbcoh", "if not unknowns and total != 0:", "if False:", BWB),
    _m("les-two-unknowns-in-a-run", "bwbcoh", "            if len(unknowns) > 1:",
       "            if len(unknowns) > 2:", BWB),
    _m("les-negative-dimension-accepted", "bwbcoh", "                if value < 0:", "                if False:",
       BWB),
    _m("les-degree-outside-accepted", "bwbcoh", "            if k not in range(top + 1):", "            if False:",
       INPUTS),
    _m("les-known-middle-returned-as-given", "bwbcoh", "{k: v for k, v in enumerate(entries[1::3]) if v}",
       "dict(seq.tables[1])", BWB),
    # motivicring
    _m("motivic-term-order-lexicographic", "motivicring", "sorted(zip(map(sum, co), co, co.values()))",
       "sorted(zip(co, co, co.values()))", MOT),
    _m("motivic-str-shows-exponent-one", "motivicring", 'f"*{s}" if x == 1 else f"*{s}^{x}"', 'f"*{s}^{x}"', MOT),
    _m("motivic-str-shows-l-exponent-one", "motivicring", 'f"L{text}" if e == 1 else f"L^{e}{text}"',
       'f"L^{e}{text}"', MOT),
    _m("motivic-one-term-product-drops-c2", "motivicring", "): c1 * c2\n", "): c1\n", MOT),
    _m("motivic-one-term-product-drops-c1", "motivicring", "): c1 * c2\n", "): c2\n",
       f"{MOT}::test_product_against_double_loop"),
    _m("motivic-one-term-shift-swaps-b-and-bt", "motivicring",
       "out = {(b0 + a0, b1 + a1, b2 + a2, b3 + a3, b4 + a4,", "out = {(b0 + a0, b1 + a1, b2 + a2, b3 + a4, b4 + a3,",
       MOT),
    # the accumulator that sums, products and substitutions share
    _m("accumulate-keeps-cancelled-zeros", "motivicring",
       "c * k\n        if v:\n            out[m] = v\n        else:\n            del out[m]\n", "c * k\n        out[m] = v\n",
       f"{MOT}::TestProjClass::test_telescoping"),
    _m("accumulate-shift-swaps-y-and-yt", "motivicring",
       "m = (b0 + a0, b1 + a1, b2 + a2,", "m = (b0 + a0, b1 + a2, b2 + a1,", MOT),
    _m("accumulate-shift-swaps-l-and-m", "motivicring", "m = (b0 + a0, b1 + a1, b2 + a2, b3 + a3, b4 + a4, b5 + a5)",
       "m = (b0 + a5, b1 + a1, b2 + a2, b3 + a3, b4 + a4, b5 + a0)", f"{MOT}::test_substitute_by_single_terms"),
    _m("accumulate-skips-term-coefficients", "motivicring", "v = out.get(m, 0) + c * k", "v = out.get(m, 0) + c",
       f"{MOT}::test_substitute_by_single_terms"),
    # the residual: the section's image under {Y -> Y~, B -> B~} relabels exponents, subtracted in one pass
    _m("residual-sign-flipped", "motivicring", "v = out.get(m, 0) - c", "v = out.get(m, 0) + c",
       f"{MOT}::test_residual_closed_form_to_rank_200"),
    _m("residual-relabel-moves-y-into-bt", "motivicring", "m = (e0, 0, e2 + e1, 0, e4 + e3, e5)",
       "m = (e0, 0, e2, 0, e4 + e3 + e1, e5)", f"{MOT}::test_residual_against_substituted_section_to_rank_300"),
    _m("motivic-mul-zero-factor-unhandled", "motivicring",
       "        if not small:\n            return MotivicPoly._of({})\n", "",
       f"{MOT}::test_substitute_by_single_terms"),
    _m("motivic-sub-adds", "motivicring", "return self._plus(other, -1)", "return self._plus(other, 1)", MOT),
    _m("motivic-pow-wrong-bit", "motivicring", "if e & 1:", "if e & 2:", MOT),
    _m("motivic-pow-first-factor-dropped", "motivicring", "out = base if out is None else out * base",
       "out = _ONE if out is None else out * base", f"{MOT}::test_first_power_is_the_polynomial"),
    # the fibration class: [P^(r-1)][Y] in closed form, then one pass over the fibre adding [P^(r-2)]([B] - [Y])
    _m("fibration-keeps-cancelled-y-terms", "motivicring",
       "        v = out.get(y, 0) - 1\n        if v:\n            out[y] = v\n        else:\n            del out[y]\n",
       "        out[y] = out.get(y, 0) - 1\n", f"{MOT}::test_fibration_class_against_double_loop_to_rank_300"),
    _m("fibration-fibre-one-term-short", "motivicring", "    for i in range(r - 1):\n        b, y =",
       "    for i in range(r - 2):\n        b, y =",
       f"{MOT}::test_fibration_class_against_ring_arithmetic_to_rank_300"),
    _m("fibration-drops-the-top-y-term", "motivicring", "zip(range(r), repeat(1),", "zip(range(r - 1), repeat(1),",
       f"{MOT}::test_fibration_class_against_double_loop_to_rank_300"),
    _m("proj-class-one-term-short", "motivicring", "zip(range(k + 1),", "zip(range(k),", MOT),
    _m("substitute-keeps-assigned-exponents", "motivicring", "mono[i] if i in positions else 0", "0", MOT),
    _m("substitute-images-applied-in-turn", "motivicring",
       "        assigned = sorted((_symbol(s), self._coerce(image, f\"image of {s}\"))\n",
       "        if len(assignments) > 1:  # a later image then reads the exponents an earlier one wrote\n"
       "            (s, image), *others = assignments.items()\n"
       "            return self.substitute({s: image}).substitute(dict(others))\n"
       "        assigned = sorted((_symbol(s), self._coerce(image, f\"image of {s}\"))\n",
       f"{MOT}::test_substitute_by_single_terms"),
    _m("substitute-shift-keyed-by-first-image", "motivicring", "exponents_of = itemgetter(*positions)",
       "exponents_of = itemgetter(positions[0])", f"{MOT}::test_substitute_swap"),
    _m("substitute-image-unchecked", "motivicring", 'self._coerce(image, f"image of {s}")', "image", CONTRACT),
    _m("substitute-assignments-untyped", "motivicring",
       '_typed(assignments, Mapping, "substitute assignments", ValueError).items()', "assignments.items()",
       CONTRACT),
)

# Not run: the known equivalent mutants, each with its reason.
# Their fragments are checked like those above.
EXCLUDED = (
    (_m("hermite-pivot-sign-fix-dropped", "latticecore",
        "        if a[r][r] < 0:\n            a[r] = [-x for x in a[r]]\n", "", LAT),
     "equivalent: the entries above a negative pivot p are reduced into (p, 0] instead of [0, -p),"
     " which bounds M as well, and the Smith loop makes every pivot positive"),
    (_m("pivot-no-early-return", "latticecore",
        "                if x == 1:\n                    return i, j\n", "", LAT),
     "equivalent: the row-major scan keeps the first of equal values, so stopping at |x| = 1 only saves time"),
    (_m("isotropic-rays-accept-non-square", "latticecore", "    if s == 0 or s * s != disc:", "    if s == 0:", LAT),
     "equivalent: a wrong pair can no longer be returned; with a non-square discriminant the rays are"
     " irrational, so their integer stand-ins are not isotropic, and isotropic_pair_solve checks its answer"
     " (a^2 = b^2 = a.ell = b.ell = 0, a.b = 1) before returning it"),
    (_m("residual-keeps-cancelled-zeros", "motivicring",
        "        v = out.get(m, 0) - c\n        if v:\n            out[m] = v\n        else:\n            del out[m]\n",
        "        out[m] = out.get(m, 0) - c\n", f"{MOT}::test_residual_against_substituted_section_to_rank_300"),
     "equivalent: every term of the section carries Y or B and every image term neither, so no image lands on"
     " a section term and no sum cancels; the drop keeps the pass canonical for any section"),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _apply(dest: Path, mutant: Mutant) -> None:
    path = dest / "src" / "roofpairs" / mutant.module
    text = path.read_text()
    if text.count(mutant.fragment) != 1:
        raise SystemExit(f"{mutant.name}: the fragment occurs {text.count(mutant.fragment)} times in {mutant.module}")
    path.write_text(text.replace(mutant.fragment, mutant.replacement))


def run_pytest(mutant: Mutant | None, killers) -> tuple[int | None, str, float]:
    """Exit code (None after a timeout), output and seconds of pytest on ``killers`` in a fresh
    copy of the tree, patched with ``mutant`` unless it is None."""
    with tempfile.TemporaryDirectory(prefix="roofpairs-mutant-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        if mutant is not None:
            _apply(dest, mutant)
        src = str(dest / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
               "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-c", _CHILD, src + os.sep, "-q", "-x", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", *(f"tests/{k}" for k in killers)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=dest, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, "", time.perf_counter() - start
        return proc.returncode, proc.stdout + proc.stderr, time.perf_counter() - start


def main() -> int:
    killers = sorted({k.split("::")[0] for m in MUTANTS for k in m.killers})
    code, output, seconds = run_pytest(None, killers)
    if code != 0:
        print(output)
        print(f"control run failed (exit {code}): the unpatched tree must pass {', '.join(killers)}")
        return 2
    print(f"control run passed in {seconds:.1f} s")
    survivors = []
    for mutant in MUTANTS:
        code, output, seconds = run_pytest(mutant, mutant.killers)
        if code == 99:
            print(output)
            return 2
        # pytest exits 1 on a failed test and 2 on a collection error; a timeout is a kill too
        killed = code in (1, 2, None)
        print(f"{'killed  ' if killed else 'SURVIVED'} {mutant.name} ({seconds:.1f} s)", flush=True)
        if not killed:
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    if survivors:
        print("survivors:", ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
