"""Every refusal of the library, one row each: the call, its exact error class and its whole message.

The library takes only the paper's objects: each row puts one input that is
not one of them into a public function or record of one layer, every other
argument valid, and the one runner asserts that the call raises exactly the
row's class, not a subclass or a parent, with exactly the row's message.  A
message that ends in "..." goes on in the standard library's words, which
differ between Python versions: the row pins the program's prefix and the
library's fragment after it.

``test_contract.py`` puts junk of every kind into every argument slot and
pins the shared texts of the argument rules; ``test_cli.py``'s ``ERRORS``
pins the line the command line writes for each refusal.  Refusals checked
over drawn inputs, or across the query engine's paths, stay with those
tests.
"""

from fractions import Fraction
from itertools import product

import pytest

from roofpairs import bwbcoh, gradedring as gr, latticecore as lc, motivicring as mr, roofcalc as rc
from roofpairs.configs import builtin_config, config_from_dict

from golden_grams import G2_GRAM
from references import PLANES_WITHOUT_A_PAIR, THIRD_ARRANGEMENT
from roofcorpus import DATA_CONFIGS, _d4_without_pi2, _zero_degree

G2, D4, TOY = builtin_config("g2dagger"), builtin_config("d4"), DATA_CONFIGS["toy_symmetric"]
SIDE, Q5 = G2.side, G2.side.base
FOREIGN_Q5 = gr.make_quadric_ring(5)
D4_WITHOUT_PI2 = config_from_dict(_d4_without_pi2())
HALF = Fraction(1, 2)
ONE, P1, P2, H1 = gr.BasisElement("1", 0), gr.BasisElement("p", 1), gr.BasisElement("p", 2), gr.BasisElement("h", 1)
SEQUENCE_TABLES = {"named_bundle_table": lambda t: bwbcoh.named_bundle_table(5, "Cdual", t),
                   "ottaviani_table": bwbcoh.ottaviani_table, "ottaviani_dual_table": bwbcoh.ottaviani_dual_table,
                   "cayley_table": bwbcoh.cayley_table}
SMALL_QUADRIC_CALLS = {"dictionary_names": lambda n, name: bwbcoh.dictionary_names(n),
                       "bundle_weights": bwbcoh.bundle_weights, "named_bundle_table": bwbcoh.named_bundle_table,
                       "bundle_cohomology": lambda n, name: bwbcoh.bundle_cohomology(n, name, 0)}
# name -> (an expression on the base q, reduce's message with no degree given, and with degree 2)
MALFORMED_EXPRESSIONS = {
    "negative exponent": (lambda q: {-1: q.unit()}, "negative xi exponent", "negative xi exponent"),
    "negative exponent of a zero class": (lambda q: {-1: q.zero(1)}, "negative xi exponent", "negative xi exponent"),
    "non-homogeneous": (lambda q: {0: q.l_power(1), 1: q.l_power(1)},
                        "expression is not homogeneous of degree 1: its xi^1 term has degree 1, expected 0",
                        "expression is not homogeneous of degree 2: its xi^0 term has degree 1, expected 2"),
    "non-homogeneous once folded": (lambda q: {4: q.unit(), 1: q.l_power(2)},
                                    "expression is not homogeneous of degree 4: its xi^1 term has degree 2, expected 3",
                                    "expression is not homogeneous of degree 2: its xi^4 term has degree 0, "
                                    "expected -2"),
}
SYMBOL_CALLS = {"var": mr.MotivicPoly.var,
                "substitute": lambda name: mr.Y.substitute({"Y": mr.L, name: mr.L})}


def _ring(dimension, basis, point="p", table=None):
    return gr.RingPresentation("toy", dimension, basis, point, table or {})


def _t2(extra):
    """The ring 1, h, p of dimension 2 with h*h = p and the ``extra`` table entries."""
    return _ring(2, [ONE, H1, P2], table={("h", "h"): {"p": 1}, **extra})


def _switch_between_inconsistent_sides():
    """Switch the locus class of a roof whose two Q5 sides differ in their relation's L coefficient, 5 against 4."""
    sides = []
    for name, c in (("a", 5), ("b", 4)):
        q5 = gr.make_quadric_ring(5)
        relation = (q5.l_power(1) * c, q5.l_power(2) * 9, q5.basis_class("Pi") * 12)
        sides.append(rc.RoofSide(name, q5, 3, relation, (("Pi", 0), ("L^2", 1), ("L", 2))))
    return rc.switch_side(rc.RoofConfig("mismatch", *sides, 12), rc.locus_pushforward_class(sides[0]))


def _side(base, rank):
    return rc.RoofSide("other", base, rank, tuple(base.l_power(i) for i in range(1, rank + 1)))


CASES = [
    # gradedring: records, RingPresentation, quadric rings and l_power
    ("duplicate labels", lambda: _ring(1, [ONE, P1, P1]), gr.GradedRingError, "duplicate basis labels in 'toy'"),
    ("degree out of range", lambda: _ring(1, [ONE, P2]), gr.GradedRingError, "basis degree 2 outside [0, 1]"),
    ("two units", lambda: _ring(1, [ONE, gr.BasisElement("u", 0), P1]), gr.GradedRingError,
     "presentation needs exactly one degree-0 (unit) element"),
    ("point not top", lambda: _ring(1, [ONE, P1], point="1"), gr.GradedRingError,
     "exactly one top-degree basis element, the point class, is required"),
    ("missing product", lambda: _ring(2, [ONE, H1, P2]), gr.GradedRingError,
     "multiplication table of 'toy' lacks 'h' * 'h'"),
    ("ungraded product", lambda: _ring(2, [ONE, H1, P2], table={("h", "h"): {"h": 1}}), gr.GradedRingError,
     "h*h is not graded: contains h"),
    ("entry beyond the top degree", lambda: _t2({("h", "p"): {"p": 7}}), gr.GradedRingError,
     "h*p exceeds top degree but is nonzero"),
    *((f"entry {a}*{b} on the unit", lambda e=(a, b): _t2({e: {"h": 1}}), gr.GradedRingError,
       f"multiplication table of 'toy' lists {a!r} * {b!r}; products with the unit are implicit")
      for a, b in (("1", "h"), ("h", "1"))),
    *((f"entry {entry} naming {label}", lambda e=entry, c=combo: _t2({e: c}), gr.GradedRingError,
       f"multiplication table of 'toy' names unknown label {label!r}")
      for entry, combo, label in ((("h", "q"), {"p": 1}, "q"), (("q", "h"), {"p": 1}, "q"),
                                  (("h", "h2"), {}, "h2"), (("p", "h"), {"pt": 1}, "pt"))),
    *((f"table coefficient {c!r}", lambda c=c: _t2({("h", "h"): {"p": c}}), gr.GradedRingError,
       f"multiplication table of 'toy' gives 'h' * 'h' the coefficient {c!r} on 'p', not an integer")
      for c in (1.5, Fraction(3, 2), 2.0, "1", True)),
    ("conflicting entries for one pair", lambda: _ring(2, [ONE, H1, gr.BasisElement("k", 1), P2], table={
        ("h", "h"): {}, ("k", "k"): {}, ("h", "k"): {"p": 1}, ("k", "h"): {"p": 5}}), gr.GradedRingError,
     "multiplication table of 'toy' lists 'h' * 'k' and 'k' * 'h' with different products"),
    ("not associative in the third arrangement only", lambda: _ring(3, *THIRD_ARRANGEMENT), gr.GradedRingError,
     "table not associative at (a, b, c)"),
    ("product across two Q5 rings", lambda: Q5.basis_class("Pi") * FOREIGN_Q5.basis_class("Pi"),
     gr.IncompatibleRingError, "classes live in different rings ('Q5' vs 'Q5')"),
    ("product of two fresh Q5 rings", lambda: gr.make_quadric_ring(5).l_power(1) * gr.make_quadric_ring(5).l_power(1),
     gr.IncompatibleRingError, "classes live in different rings ('Q5' vs 'Q5')"),
    ("sum of two degrees", lambda: Q5.l_power(1) + Q5.l_power(2), gr.GradedRingError,
     "cannot add classes of different degrees"),
    ("l_power without hyperplane", lambda: _ring(1, [ONE, P1]).l_power(1), gr.GradedRingError,
     "'toy' carries no hyperplane-power data"),
    ("negative l_power", lambda: Q5.l_power(-1), gr.GradedRingError, "negative power of the hyperplane class"),
    *((f"basis product {x!r} * {y!r}", lambda x=x, y=y: FOREIGN_Q5.basis_product(x, y), gr.GradedRingError,
       f"unknown basis label {label!r} on Q5") for x, y, label in (("nope", "L", "nope"), ("L", ["L"], ["L"]))),
    *((f"basis label {label!r}", lambda label=label: Q5.basis_class(label), gr.GradedRingError,
       f"unknown basis label {label!r} on Q5") for label in ("nope", "pi", ["Pi"])),
    # a class checks every label, a zero coefficient's too, and takes no bool as a coefficient
    *((f"graded class {coeffs}", lambda c=coeffs: gr.GradedClass(Q5, 1, c), gr.GradedRingError, message)
      for coeffs, message in (({"nope": 0}, "unknown basis label 'nope' on Q5"),
                              ({"Pi": 0}, "coefficient key 'Pi' has degree 3, not 1"),
                              ({"L": True}, "coefficients must be exact integers or Fractions, got bool"),
                              ({"L": False}, "coefficients must be exact integers or Fractions, got bool"))),
    ("graded class scaled by True", lambda: Q5.l_power(1).scale(True), gr.GradedRingError,
     "coefficients must be exact integers or Fractions, got bool"),
    ("quadric of dimension 1", lambda: gr.make_quadric_ring(1), gr.InvalidDimensionError,
     "quadric dimension must be >= 2, got 1"),
    *((f"quadric dimension {d!r}", lambda d=d: gr.make_quadric_ring(d), gr.InvalidDimensionError,
       f"quadric dimension must be an integer, got {d!r}") for d in (2.0, 5.0, "5", None)),
    ("basis degree replaced", lambda: gr.BasisElement("L", 1)._replace(degree="1"), gr.GradedRingError,
     "basis degree must be an integer, got '1'"),
    ("empty Chern vector", lambda: gr.ChernVector(0, ()), gr.GradedRingError,
     "a Chern vector needs at least one component"),
    ("Chern vector longer than its rank", lambda: gr.ChernVector(2, (Q5.l_power(1), Q5.l_power(2), Q5.l_power(3))),
     gr.GradedRingError, "Chern vector length must equal the rank"),
    ("Chern vector made shorter than its rank", lambda: gr.ChernVector._make((2, (Q5.l_power(1),))),
     gr.GradedRingError, "Chern vector length must equal the rank"),
    ("Chern component of the wrong degree", lambda: gr.ChernVector(2, (Q5.l_power(1), Q5.l_power(1))),
     gr.GradedRingError, "component 2 has degree 1"),
    # roofcalc: RoofSide, bundle classes, reduce, lattices, locus classes, switching and RoofConfig
    ("side of rank 0", lambda: rc.RoofSide("s", Q5, 0, ()), rc.InvalidRoofError, "rank must be positive"),
    ("wrong coefficient count", lambda: rc.RoofSide("s", Q5, 3, SIDE.groth_coeffs[:2]), rc.InvalidRoofError,
     "need exactly rank relation coefficients"),
    ("coefficient of the wrong degree", lambda: rc.RoofSide("s", Q5, 1, (Q5.l_power(2),)), rc.InvalidRoofError,
     "relation coefficient 1 must live on the base in degree 1"),
    ("odd middle section", lambda: rc.RoofSide("s", Q5, 2, SIDE.groth_coeffs[:2]).middle_codim,
     rc.InvalidRoofError, "hyperplane section has odd-dimensional middle cohomology"),
    ("rank exceeding the base", lambda: rc.cy_degree(rc.RoofSide("wide", Q5, 6, tuple(
        Q5.l_power(i) for i in range(1, 7)))), rc.InvalidRoofError,
     "side 'wide': bundle rank exceeds what the base dimension supports"),
    *((f"xi power {e!r}", lambda e=e: rc.xi_power(SIDE, e), rc.RoofError, f"xi exponent must be an integer, got {e!r}")
      for e in (1.5, True)),
    ("bundle classes of two degrees", lambda: rc.xi_power(SIDE, 1) + rc.xi_power(SIDE, 2), rc.RoofError,
     "cannot add bundle classes of different degrees"),
    ("product across sides", lambda: rc.xi_power(SIDE, 1) * rc.xi_power(D4.side, 1), rc.RoofError,
     "bundle classes live on different roof sides"),
    ("part count other than the rank", lambda: rc.BundleClass(SIDE, 2, [Q5.l_power(2), Q5.l_power(1)]),
     rc.RoofError, "normal form needs exactly rank xi-components"),
    # a bundle class is reduce of its parts, so reduce's rule refuses a part
    ("misgraded part", lambda: rc.BundleClass(SIDE, 2, [Q5.l_power(2), Q5.l_power(2), Q5.unit()]), rc.RoofError,
     "expression is not homogeneous of degree 2: its xi^1 term has degree 2, expected 1"),
    ("part off the base", lambda: rc.BundleClass(SIDE, 2, [FOREIGN_Q5.l_power(2), FOREIGN_Q5.zero(1),
                                                          FOREIGN_Q5.zero(0)]), gr.IncompatibleRingError,
     "expression has a class off the base 'Q5' of 'g2dagger:side'"),
    *((f"scalar {s!r}", lambda s=s: rc.xi_power(SIDE, 1).scale(s), gr.GradedRingError,
       f"coefficients must be exact integers or Fractions, got {type(s).__name__}")
      for s in (0.0, 1.5, "1", None, True)),
    *((f"{name}, degree {d}", lambda m=make, d=d: rc.reduce(SIDE, m(Q5), d), rc.RoofError, message)
      for name, (make, *messages) in MALFORMED_EXPRESSIONS.items() for d, message in zip((None, 2), messages)),
    *((f"foreign ring at xi^{e}", lambda e=e: rc.reduce(SIDE, {e: FOREIGN_Q5.basis_class("L")}),
       gr.IncompatibleRingError, "expression has a class off the base 'Q5' of 'g2dagger:side'") for e in (0, 2, 3, 9)),
    ("foreign zero class beside a term", lambda: rc.reduce(SIDE, {0: Q5.l_power(1), 1: FOREIGN_Q5.zero(0)}),
     gr.IncompatibleRingError, "expression has a class off the base 'Q5' of 'g2dagger:side'"),
    # a {label: coefficient} term, the shape of the ring's own products, passes the same rule
    *((f"dict term {expression}, degree {d}", lambda x=expression, d=d: rc.reduce(SIDE, x, d), error, message)
      for expression, d, error, message in (
          ({1.5: {}}, None, rc.RoofError, "xi exponent must be an integer, got 1.5"),
          ({4.0: {"L": 1}}, None, rc.RoofError, "xi exponent must be an integer, got 4.0"),
          ({3: {"nope": 1}}, 4, gr.GradedRingError, "unknown basis label 'nope' on Q5"),
          ({3: {"L": "x"}}, 4, gr.GradedRingError, "coefficients must be exact integers or Fractions, got str"),
          ({0: {"L": True}}, 1, gr.GradedRingError, "coefficients must be exact integers or Fractions, got bool"),
          ({0: {"L": 1}}, 0, rc.RoofError,
           "expression is not homogeneous of degree 0: its xi^0 term has degree 1, expected 0"),
          ({0: {"L": 1}}, None, rc.RoofError, "expression term xi^0 is a dict, which needs an explicit degree"))),
    ("dict term beside a class, no degree", lambda: rc.reduce(SIDE, {0: Q5.l_power(1), 1: {"1": 1}}), rc.RoofError,
     "expression term xi^1 is a dict, which needs an explicit degree"),
    ("middle monomial of the wrong codimension",
     lambda: rc.middle_lattice(rc.RoofSide("s", Q5, 3, SIDE.groth_coeffs, (("1", 0),))), rc.RoofError,
     "middle monomial 1*xi^0 has codimension 0, expected 3"),
    ("degenerate middle basis", lambda: rc.middle_lattice(rc.RoofSide(
        "bad", Q5, 3, SIDE.groth_coeffs, (("Pi", 0), ("Pi", 0), ("L", 2)))), rc.DegenerateBasisError,
     "declared middle basis is degenerate under the pairing"),
    ("pairing off the total dimension",
     lambda: rc.pairing_on_M(SIDE, rc.monomial(SIDE, "Pi", 0), rc.monomial(SIDE, "L", 1)), rc.DegreeMismatchError,
     "codimensions 3 + 2 + 1 != dim X = 7"),
    ("locus class of a short middle basis", lambda: rc.locus_pushforward_class(rc.RoofSide(
        "short", Q5, 3, SIDE.groth_coeffs, (("Pi", 0), ("L^2", 1)))), rc.UnexpectedRankError,
     "orthogonal complement of the pullback sublattice has rank 0, expected 1"),
    ("coordinates off the middle degree",
     lambda: rc.coordinates_in_lattice(rc.middle_lattice(SIDE), rc.xi_power(SIDE, 1)), rc.DegreeMismatchError,
     "class is not of middle degree"),
    *((f"coordinate {c!r}", lambda c=c: rc.class_from_coordinates(rc.middle_lattice(SIDE), [1, c, 0]),
       gr.GradedRingError, f"coefficients must be exact integers or Fractions, got {type(c).__name__}")
      for c in (0.0, 1.5, 2.0, "1", None, True)),
    *((f"{public.__name__} breaking the sign law", lambda f=public: f(D4_WITHOUT_PI2.side), rc.UnexpectedRankError,
       "locus class -Pi1*xi + 6*Pi1*L has self-pairing 0, but the sign law needs (-1)^(r-1) d = -12")
      for public in (rc.locus_pushforward_class, rc.locus_coordinates, rc.polarized_sign_check)),
    ("unswitchable class", lambda: rc.switch_side(TOY, rc.monomial(TOY.side, "Pi1", 0)), rc.SwitchError,
     "Pi1 is not expressible as a polynomial in (L, xi)"),
    ("non-integral switch", lambda: rc.switch_side(G2, rc.monomial(SIDE, "Pi", 0).scale(HALF)), gr.IntegralityError,
     "non-integral bundle class 1/2*L*xi^2 - 3/2*L^2*xi + 5/2*Pi"),
    ("switch between inconsistent sides", _switch_between_inconsistent_sides, rc.InvalidRoofError,
     "the two sides are inconsistent under the hyperplane substitution"),
    ("foreign side", lambda: G2.other(rc.RoofSide("s", Q5, 3, SIDE.groth_coeffs)), rc.RoofError,
     "side does not belong to this configuration"),
    ("residue scan of degree 0", lambda: rc.residue_scan(config_from_dict(_zero_degree())), rc.InvalidRoofError,
     "the residue scan needs a polarization degree of at least 1, got 0"),
    ("sides of two ranks", lambda: rc.RoofConfig("bad", SIDE, _side(Q5, 2), 12), rc.InvalidRoofError,
     "the two sides must have equal rank"),
    ("sides of two ranks from the toy", lambda: rc.RoofConfig("bad", SIDE, TOY.side, 12), rc.InvalidRoofError,
     "the two sides must have equal rank"),
    ("sides of two dimensions", lambda: rc.RoofConfig("bad", SIDE, _side(gr.make_quadric_ring(6), 3), 12),
     rc.InvalidRoofError, "the two sides must have equal total-space dimension"),
    *((f"wrong polarization degree {d}", lambda d=d: rc.RoofConfig("bad", SIDE, G2.tilde_side, d),
       rc.InvalidRoofError, f"declared polarization degree {d} != computed 12 on 'g2dagger:side'") for d in (11, 13)),
    ("polarization degree replaced", lambda: G2._replace(polarization_degree=1.5), rc.InvalidRoofError,
     "polarization degree must be an integer, got 1.5"),
    # latticecore
    *((f"{fn.__name__} of {m}", lambda fn=fn, m=m: fn(m), lc.LatticeError, message) for fn, m, message in (
        (lc.det, [[1, 2]], "det needs a square matrix, got 1x2"),
        (lc.det, [[1, 2, 3], [4, 5, 6]], "det needs a square matrix, got 2x3"),
        (lc.det, [[1, 2], [3, 4], [5, 6]], "det needs a square matrix, got 3x2"),
        (lc.det, [[1, 2], [3]], "matrix rows must have 2 entries each, got [2, 1]"),
        (lc.det, [[1], [2, 3]], "matrix rows must have 2 entries each, got [1, 2]"),
        (lc.det, [[1.5, 2], [3, 5]], "matrix entries must be ints: 'float' object..."),
        (lc.det, [[2.0, 0], [0, 1]], "matrix entries must be ints: 'float' object..."),
        (lc.det, [[Fraction(2), 0], [0, 1]], "matrix entries must be ints: 'Fraction' object..."),
        (lc.smith_normal_form, [[1, 2], [3]], "matrix rows must have 2 entries each, got [2, 1]"),
        (lc.smith_normal_form, [[1], [2, 3]], "matrix rows must have 1 entry each, got [1, 2]"),
        (lc.smith_normal_form, [[1.5, 2], [3, 5]], "matrix entries must be ints: 'float' object..."),
        (lc.smith_normal_form, [[1, 2], [3, "4"]], "matrix entries must be ints: 'str' object..."),
        (lc.smith_normal_form, [[1], [2], [Fraction(1, 2)]], "matrix entries must be ints: 'Fraction' object..."))),
    *((f"mat_mul of {a} and {b}", lambda a=a, b=b: lc.mat_mul(a, b), lc.LatticeError,
       f"cannot multiply a {shapes} matrix") for a, b, shapes in (
        ([[1, 2]], [[1], [2], [3]], "1x2 matrix by a 3x1"), ([[1, 2]], [[1, 2], [3]], "1x2 matrix by a 2x1/2"),
        ([[1, 2], [3]], [[1], [2]], "2x1/2 matrix by a 2x1"))),
    *((f"mat_vec by {v}", lambda v=v: lc.mat_vec([[1, 2, 3]], v), lc.LatticeError,
       f"cannot multiply a 1x3 matrix by a vector of length {len(v)}") for v in ([1, 1], [1, 1, 1, 1])),
    *((f"verify against {m}", lambda m=m: lc.smith_normal_form([[2, 0], [0, 4]]).verify(m), lc.LatticeError,
       f"cannot multiply a {shapes} matrix") for m, shapes in (
        ([[2, 0, 1], [0, 4, 1]], "2x3 matrix by a 2x2"), ([[2, 0], [0, 4], [1, 1]], "2x2 matrix by a 3x2"))),
    ("asymmetric gram", lambda: lc.discriminant_group([[1, 2], [3, 4]]), lc.LatticeError,
     "gram matrix must be symmetric"),
    ("singular gram", lambda: lc.discriminant_group([[1, 2], [2, 4]]), lc.DegenerateLatticeError,
     "gram matrix is singular"),
    *((f"gram {g}", lambda g=g: lc.discriminant_group(g), lc.LatticeError, f"gram matrix must be square, got {shape}")
      for g, shape in (([[2, 1]], "1x2"), ([[2, 1], [1]], "2x1/2"))),
    ("isotropic pair on a 2x2 gram", lambda: lc.isotropic_pair_solve([[0, 1], [1, 0]], (1, 0, 0)), lc.LatticeError,
     "isotropic_pair_solve expects a rank-3 gram matrix"),
    ("isotropic pair on a float gram entry", lambda: lc.isotropic_pair_solve(
        [*G2_GRAM[:2], (5, 32, 82.0)], (18, -5, 1), bound=5), lc.LatticeError,
     "gram matrix entries must be ints: 'float' object..."),
    *((f"isotropic pair bound {b}", lambda b=b: lc.isotropic_pair_solve(G2_GRAM, (18, -5, 1), bound=b),
       lc.LatticeError, f"the coordinate bound must be non-negative, got {b}") for b in (-1, -3)),
    *((f"polarization {ell}", lambda ell=ell: lc.isotropic_pair_solve(G2_GRAM, ell, bound=5), lc.LatticeError,
       f"the polarization vector ell must have 3 entries, got {len(ell)}") for ell in ((18, -5), (18, -5, 1, 0))),
    *((f"polarization {ell}", lambda ell=ell: lc.isotropic_pair_solve(G2_GRAM, ell, bound=5), lc.LatticeError,
       f"the polarization vector ell must have integer entries, got {list(ell)}") for ell in (
        (18, -5, 1.0), (18, "-5", 1))),
    ("isotropic pair on a definite form", lambda: lc.isotropic_pair_solve([[2, 0, 0], [0, 2, 0], [0, 0, 2]], (1, 0, 0),
                                                                           bound=4),
     lc.SearchExhaustedError, "no isotropic pair inside the [-4, 4] box"),
    *((f"isotropic pair on {g}", lambda g=g: lc.isotropic_pair_solve(g, (0, 0, 1), bound=6), lc.SearchExhaustedError,
       "no isotropic pair inside the [-6, 6] box") for g in PLANES_WITHOUT_A_PAIR),
    ("isotropic polarization", lambda: lc.isotropic_pair_solve([[0, 1, 0], [1, 0, 0], [0, 0, 2]], (1, 0, 0), bound=4),
     lc.LatticeError, "the polarization vector must have nonzero self-pairing"),
    # bwbcoh
    ("root family A", lambda: bwbcoh.RootSystem("A", 3), bwbcoh.BWBError, "family must be 'B' or 'D', got 'A'"),
    ("root rank 1", lambda: bwbcoh.RootSystem("B", 1), bwbcoh.BWBError, "rank must be at least 2"),
    ("root rank 1 made", lambda: bwbcoh.RootSystem._make(("B", 1)), bwbcoh.BWBError, "rank must be at least 2"),
    ("weight of mixed half-integrality", lambda: bwbcoh.weight((HALF, 1, 0)), bwbcoh.BWBError,
     "half-integrality must be uniform across coordinates: (Fraction(1, 2), 1, 0)"),
    ("weight of a third", lambda: bwbcoh.weight((Fraction(1, 3), 0, 0)), bwbcoh.BWBError,
     "coordinates must be integral or half-integral: (Fraction(1, 3), 0, 0)"),
    *((f"cohomology of {name} on Q{n}", lambda n=n, name=name: bwbcoh.bundle_cohomology(n, name, 0),
       bwbcoh.UnsupportedBundleError, f"no weight dictionary entry for {name!r} on Q{n}")
      for n, name in ((7, "Sym2Sdual"), (5, "Nope"))),
    ("named bundle G on Q6", lambda: bwbcoh.named_bundle_table(6, "G", 1), bwbcoh.UnsupportedBundleError,
     "unsupported bundle descriptor 'G' on Q6"),
    *((f"sequence {name}", lambda spec=spec: bwbcoh.les_solve(bwbcoh.SequenceSpec(*spec)), error, message)
      for name, spec, error, message in (
          ("with a nonzero alternating sum", (("A", "B", "C"), ({0: 1}, {0: 1}, {0: 1}), 5),
           bwbcoh.InconsistentSequenceError, "alternating sum 1 != 0 in a zero-flanked run of ('A', 'B', 'C')"),
          ("forcing a negative dimension", (("A", "B", "C"), ({0: 3}, {0: 1}, None), 5),
           bwbcoh.InconsistentSequenceError, "forced negative dimension in ('A', 'B', 'C')"),
          ("with two unknowns", (("C(1)", "G", "O(1)"), (None, {0: 7}, {0: 7}), 5), bwbcoh.Underdetermined,
           "2 unknown dimensions in one zero-flanked run of ('C(1)', 'G', 'O(1)')"))),
    # C(2) sits in 0 -> C(2) -> G(1) -> O(2) -> 0; dimensions alone only pin h^0 - h^1 = 14, so no guess
    ("cayley twist 2", lambda: bwbcoh.cayley_table(2), bwbcoh.Underdetermined,
     "2 unknown dimensions in one zero-flanked run of ('C(2)', 'G(1)', 'O(2)')"),
    *((f"{name} on Q{n} of {bundle}", lambda f=f, n=n, b=bundle: f(n, b), bwbcoh.BWBError,
       "quadric dimension must be at least 3 for the cohomology engine")
      for (name, f), n, bundle in product(SMALL_QUADRIC_CALLS.items(), (1, 2), ("O", "Bogus"))
      if name != "dictionary_names" or bundle == "O"),
    *((f"{bundle} twisted by {t!r}", lambda b=bundle, t=t: bwbcoh.bundle_cohomology(5, b, t), bwbcoh.BWBError,
       f"twist must be an integer, got {t!r}")
      for bundle, t in (("Sdual", HALF), ("Sdual", Fraction(-7, 2)), ("Sdual", 0.5), ("O", Fraction(2)))),
    *((f"{name} twisted by {t!r}", lambda f=f, t=t: f(t), bwbcoh.BWBError, f"twist must be an integer, got {t!r}")
      for (name, f), t in product(SEQUENCE_TABLES.items(), ("2", -2.0))),
    *((f"cohomology degree {d!r}", lambda d=d: bwbcoh.les_solve(bwbcoh.SequenceSpec(
        ("A", "B", "C"), ({0: 1}, None, {d: 7}), 5)), bwbcoh.BWBError, f"cohomology degree {d!r} of C is outside 0..5")
      for d in (9, 6, -1, "x")),
    ("vanishing case 4", lambda: bwbcoh.vanishing_case(4), bwbcoh.BWBError, "case must be 1, 2 or 3, got 4"),
    # motivicring
    ("negative motivic power", lambda: mr.MotivicPoly.var("L") ** -1, ValueError,
     "negative powers are not in the ring"),
    *((f"power {e!r}", lambda e=e: mr.Y ** e, ValueError, f"exponent must be an integer, got {e!r}")
      for e in (1.5, HALF, float("nan"), "2", 2.0, Fraction(6, 2))),
    ("projective space of dimension -1", lambda: mr.proj_class(-1), ValueError,
     "projective space dimension must be nonnegative"),
    ("fibration of rank 1", lambda: mr.fibration_class(1), mr.InvalidRankError, "rank must be at least 2, got 1"),
    ("closed-form residual of rank 1", lambda: mr.residual_closed_form(1), mr.InvalidRankError,
     "rank must be at least 2, got 1"),
    *((f"coefficient {c!r} of {m}", lambda m=m, c=c: mr.MotivicPoly({m: c}), ValueError,
       f"coefficient must be an integer, got {c!r}") for m, c in (
        ((1, 0, 0, 0, 0, 0), 1.5), ((1, 0, 0, 0, 0, 0), Fraction(7, 2)), ((0,) * 6, Fraction(6, 2)), ((0,) * 6, 2.0))),
    *((f"exponent {e!r}", lambda e=e, c=c: mr.MotivicPoly({(e, 0, 0, 0, 0, 0): c}), ValueError,
       f"exponent must be an integer, got {e!r}")
      for e, c in ((1.5, 1), (Fraction(3, 2), 1), (Fraction(2), 3), (2.0, 3))),
    *((f"monomial {m}", lambda m=m: mr.MotivicPoly({m: 1}), ValueError, f"bad monomial {m}")
      for m in ((-1, 0, 0, 0, 0, 0), (1, 0, 0))),
    *((f"constant {c!r}", lambda c=c: mr.MotivicPoly.const(c), ValueError, f"coefficient must be an integer, got {c!r}")
      for c in (2.9, "3", float("nan"), float("inf"))),
    *((f"{how} of symbol {name!r}", lambda f=f, name=name: f(name), ValueError,
       f"unknown symbol {name!r}; choose from ('L', 'Y', 'Yt', 'B', 'Bt', 'M')")
      for how, f in SYMBOL_CALLS.items() for name in ("y", "Lambda", "")),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_refusal_raises_its_error_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    if message.endswith("..."):
        assert str(info.value).startswith(message[:-3])
    else:
        assert str(info.value) == message
