"""The argument contract of the public surface, as one table.

``TABLE`` declares the argument slots of every name in ``roofpairs.__all__``:
each slot has a kind, a valid value, a call that puts a value into that slot
with every other argument valid, and a pattern that an error about the slot
matches.  ``junk(kind, valid)`` derives the wrong values of each kind: 1.5,
4.0, Fraction(5, 2), Fraction(4), "2", None and True in every slot; ragged, empty or wrong-length
sequences; a config where a side is meant and the reverse; a class from
another side or ring; and mappings with junk keys or values.  One test, run
once per probe, puts each junk value into its slot, and ``check`` accepts two
outcomes: a result equal to the valid call's result, compared field by field
with types, or the error of the name's layer with a message that names the
slot.  A builtin exception never passes.  Where no other test pins a check's
wording, the slot's pattern spells out the whole message.

Every integer slot of every layer is an index slot: it reads its value
through ``errors._index``, so ``check`` accepts only the layer's error there,
for each of those scalars and the valid value written as a float alike, with
the shared text ``must be an integer, got <value>``.
Entries of matrices, vectors and tables are read through ``operator.index``
or the same rule, so their junk is 1.5, "2" and None.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import inf, nan
from typing import Callable, NamedTuple

import pytest

import roofpairs
from roofpairs import errors
from roofpairs.bwbcoh import SequenceSpec, named_bundle_table, quadric_root_system
from roofpairs.configs import builtin_config
from roofpairs.gradedring import BasisElement, RingPresentation
from roofpairs.motivicring import Y_TILDE, residual_closed_form
from roofpairs.roofcalc import reduce, xi_power

from golden_grams import G2_GRAM
from references import ottaviani_chern

G2, D4 = builtin_config("g2dagger"), builtin_config("d4")
SIDE, TILDE, Q5, Q6 = G2.side, G2.tilde_side, G2.side.base, D4.side.base
XI3, TILDE_XI3, D4_XI3 = xi_power(SIDE, 3), xi_power(TILDE, 3), xi_power(D4.side, 3)
G2_LOCUS = (18, -5, 1)
ONE, P1 = BasisElement("1", 0), BasisElement("p", 1)
B3, RHO_B3 = quadric_root_system(5), (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))
SEQUENCE = SequenceSpec(("a", "b", "c"), ({0: 1}, None, {}), 4)
CHERN = ottaviani_chern(Q5)
PARTS = (Q5.l_power(2), Q5.l_power(1), Q5.unit())
MONO = (4, 0, 0, 0, 0, 0)
NON_INTEGERS = (1.5, "2", None)
# the scalars put into every slot: numbers that are not ints, exact ones too, a digit string, None and a bool
SCALARS = (1.5, 4.0, Fraction(5, 2), Fraction(4), "2", None, True)


def _with(seq, i, value) -> tuple:
    return tuple(value if j == i else x for j, x in enumerate(seq))


def _lengths(v) -> list:
    """The empty, short and long versions of a sequence."""
    return [v[:0], v[:-1], v + v[:1]]


def _rows(m, row) -> list:
    return [list(row), *map(list, m[1:])]


# kind -> the junk of that kind beyond the five scalars, derived from a valid value
JUNK: dict[str, Callable[[object], list]] = {
    # an index slot's valid value as a float is refused too; 4.0 is already among the scalars
    "index": lambda v: [float(v)] if v != 4 else [],
    "name": lambda v: [[]], "key": lambda v: [[]],
    "side": lambda v: [G2], "config": lambda v: [SIDE], "ring": lambda v: [SIDE, Q5.unit()],
    "root system": lambda v: [str(v), tuple(v)], "sequence": lambda v: [tuple(v)],
    "chern vector": lambda v: [v.components], "path": lambda v: [[], 5],
    "class": lambda v: [TILDE_XI3, Q5.unit()], "roof class": lambda v: [D4_XI3, Q5.unit()],
    "graded class": lambda v: [XI3],
    "classes": lambda v: [*_lengths(v), *(_with(v, 0, j) for j in (*NON_INTEGERS, Q6.l_power(v[0].degree)))],
    "basis": lambda v: [(), _with(v, 0, ("1", 0)), _with(v, 0, None)],
    "pairs": lambda v: [_with(v, 0, j) for j in (1.5, None, ("Pi",), ("Pi", "0"), ("Pi", 0, 0))],
    "vector": lambda v: [*_lengths(v), *(_with(v, 0, j) for j in NON_INTEGERS)],
    "weight": lambda v: [*_lengths(v), *(_with(v, 0, j) for j in ("2", None, Fraction(1, 3), nan, inf))],
    "names": _lengths,
    "tables": lambda v: [*_lengths(v), _with(v, 0, 1.5), _with(v, 0, "2")],
    "matrix": lambda v: [_rows(v, v[0][:-1]), *(_rows(v, _with(v[0], 0, j)) for j in NON_INTEGERS)],
    "gram": lambda v: [v[:-1], [row[:-1] for row in v], *JUNK["matrix"](v)],
    "rank-3 gram": lambda v: [[], *JUNK["gram"](v)],
    "mapping": lambda v: [*({**v, k: v[next(iter(v))]} for k in (1.5, None, "2", (1,))),
                          *({**v, next(iter(v)): j} for j in NON_INTEGERS)],
    "expression": lambda v: [*({**v, e: Q5.unit()} for e in (1.5, None, -1)),
                             *({**v, 1: j} for j in (*NON_INTEGERS, Q6.unit(), TILDE.base.unit(), {"1": 1}))],
    "table": lambda v: [*({**v, k: 1} for k in ("2", 1.5, None)), *({**v, 1: j} for j in NON_INTEGERS)],
    # a substitution's symbol -> image mapping, also given as a list of pairs; an image is a polynomial or an int
    "assignments": lambda v: [*JUNK["mapping"](v), list(v.items())],
    "image": lambda v: [Q5.unit(), [v]],
    "monomials": lambda v: [*({**v, m: 1} for m in (5, (1, 2), ("2",) * 6, (-1,) * 6)),
                            *({**v, MONO: j} for j in NON_INTEGERS)],
}


def junk(kind: str, valid) -> list:
    """The junk of ``kind``; any string is a name, and None or an empty value is an optional slot left out."""
    base = kind.removeprefix("optional ")
    values = [*(s for s in SCALARS if not (base == "name" and s == "2")), *JUNK[base](valid)]
    return [v for v in values if base == kind or v not in (None, (), {})]


class Slot(NamedTuple):
    kind: str
    valid: object
    call: Callable
    names: str  # a regular expression that an error about this slot matches


S = Slot


def _ring(name="toy", dimension=1, basis=(ONE, P1), point="p", table=None, hyperplane=None, fano=None):
    return RingPresentation(name, dimension, basis, point, table or {}, hyperplane, fano)


def _side(name="s", base=Q5, rank=3, coeffs=SIDE.groth_coeffs, middle=SIDE.middle_basis):
    return roofpairs.RoofSide(name, base, rank, coeffs, middle)


def _config(name="g2", side=SIDE, tilde=TILDE, degree=12, signs=(1, -1)):
    return roofpairs.RoofConfig(name, side, tilde, degree, signs)


# public name -> {slot: Slot}; the exceptions and the records that are only returned take no input
TABLE: dict[str, dict[str, Slot]] = {
    **dict.fromkeys(("BWBError", "ConfigError", "GradedRingError", "LatticeError", "RoofError",
                     "UnsupportedBundleError", "MiddleLattice", "ResidueScan", "DiscriminantGroup", "MukaiSolution",
                     "SmithDecomposition"), {}),
    # gradedring
    "BasisElement": {"label": S("name", "L", lambda v: BasisElement(v, 1), "label"),
                     "degree": S("index", 1, lambda v: BasisElement("L", v), "degree")},
    "ChernVector": {
        "rank": S("index", 3, lambda v: roofpairs.ChernVector(v, CHERN.components), "rank"),
        "components": S("classes", CHERN.components, lambda v: roofpairs.ChernVector(3, v), "Chern vector"),
    },
    "GradedClass": {
        "ring": S("ring", Q5, lambda v: roofpairs.GradedClass(v, 1, {"L": 1}), "ring"),
        "degree": S("index", 1, lambda v: roofpairs.GradedClass(Q5, v, {"L": 1}), "degree"),
        "coeffs": S("mapping", {"L": 1}, lambda v: roofpairs.GradedClass(Q5, 1, v),
                    r"^(coefficients(: expected a Mapping| must be exact integers or Fractions), got \w+"
                    r"|unknown basis label .+ on Q5)$"),
    },
    "RingPresentation": {
        "name": S("name", "toy", lambda v: _ring(name=v), "name"),
        "dimension": S("index", 1, lambda v: _ring(dimension=v), "dimension"),
        "basis": S("basis", (ONE, P1), lambda v: _ring(basis=v), "basis|unit"),
        "point_label": S("key", "p", lambda v: _ring(point=v), "point"),
        "table": S("mapping", {("h", "h"): {"p": 1}}, lambda v: _ring(
            dimension=2, basis=(ONE, BasisElement("h", 1), BasisElement("p", 2)), table=v), "multiplication table"),
        "hyperplane_form": S("optional mapping", {"p": 1}, lambda v: _ring(hyperplane=v),
                             "hyperplane|coefficient|basis label"),
        "fano_index": S("optional index", 1, lambda v: _ring(fano=v), "fano index"),
        "l_power exponent": S("index", 2, lambda v: Q5.l_power(v), "hyperplane power"),
        "basis_class label": S("key", "Pi", lambda v: Q5.basis_class(v), "basis label"),
    },
    "chern_twist": {"c": S("chern vector", CHERN, lambda v: roofpairs.chern_twist(v, 1), "Chern vector"),
                    "twist": S("index", 1, lambda v: roofpairs.chern_twist(CHERN, v), "twist")},
    "integrate": {"a": S("graded class", Q5.l_power(5), lambda v: roofpairs.integrate(v),
                         r"integrate: expected a GradedClass, got \w+")},
    "make_quadric_ring": {"dimension": S("index", 5, lambda v: roofpairs.make_quadric_ring(v), "quadric dimension")},
    # roofcalc
    "BundleClass": {"side": S("side", SIDE, lambda v: roofpairs.BundleClass(v, 2, PARTS), "side"),
                    "degree": S("index", 2, lambda v: roofpairs.BundleClass(SIDE, v, PARTS), "degree"),
                    "parts": S("classes", PARTS, lambda v: roofpairs.BundleClass(SIDE, 2, v), "component|expression")},
    "RoofConfig": {
        "name": S("name", "g2", lambda v: _config(name=v), "name"),
        "side": S("side", SIDE, lambda v: _config(side=v), "side"),
        "tilde_side": S("side", TILDE, lambda v: _config(tilde=v), "tilde side"),
        "degree": S("index", 12, lambda v: _config(degree=v), "polarization degree"),
        "declared_locus_signs": S("vector", (1, -1), lambda v: _config(signs=v), "declared_locus_signs"),
    },
    "RoofSide": {
        "name": S("name", "s", lambda v: _side(name=v), "name"),
        "base": S("ring", Q5, lambda v: _side(base=v), "base"),
        "rank": S("index", 3, lambda v: _side(rank=v), "rank"),
        "groth_coeffs": S("classes", SIDE.groth_coeffs, lambda v: _side(coeffs=v), "relation coefficient"),
        "middle_basis": S("optional pairs", SIDE.middle_basis, lambda v: _side(middle=v),
                          r"middle_basis(: expected a| entries must be \(label, exponent\) pairs, got"
                          r"| exponent must be an integer, got)"),
    },
    "cy_degree": {"side": S("side", SIDE, lambda v: roofpairs.cy_degree(v), "side")},
    "locus_pushforward_class": {"side": S("side", SIDE, lambda v: roofpairs.locus_pushforward_class(v), "side")},
    "middle_lattice": {"side": S("side", SIDE, lambda v: roofpairs.middle_lattice(v), "side")},
    "mukai_vector": {"config": S("config", G2, lambda v: roofpairs.mukai_vector(v, 50), "config"),
                     "bound": S("index", 50, lambda v: roofpairs.mukai_vector(G2, v), "bound")},
    "pairing_on_M": {"a": S("class", XI3, lambda v: roofpairs.pairing_on_M(SIDE, v, XI3),
                            r"first class: expected a BundleClass, got \w+|classes do not live on the requested side"),
                     "b": S("class", XI3, lambda v: roofpairs.pairing_on_M(SIDE, XI3, v),
                            r"second class: expected a BundleClass, got \w+|classes do not live on the requested side"),
                     "side": S("side", SIDE, lambda v: roofpairs.pairing_on_M(v, XI3, XI3), "side")},
    "polarized_sign_check": {"side": S("side", SIDE, lambda v: roofpairs.polarized_sign_check(v),
                                       r"^side: expected a RoofSide, got \w+$")},
    "reduce": {
        "side": S("side", SIDE, lambda v: reduce(v, {1: Q5.unit()}), "side"),
        "expression": S("expression", {1: Q5.unit()}, lambda v: reduce(SIDE, v), "expression|xi exponent"),
        "exponent": S("index", 1, lambda v: reduce(SIDE, {v: Q5.unit()}), "xi exponent"),
        # None: the degree is read off the terms
        "degree": S("optional index", 1, lambda v: reduce(SIDE, {1: Q5.unit()}, v), "degree"),
        "degree of no terms": S("optional index", 1, lambda v: reduce(SIDE, {}, v), "degree"),
    },
    "residue_scan": {"config": S("config", G2, lambda v: roofpairs.residue_scan(v), "config")},
    "switch_side": {
        "config": S("config", G2, lambda v: roofpairs.switch_side(v, XI3), "config"),
        "a": S("roof class", XI3, lambda v: roofpairs.switch_side(G2, v),
               r"switched class: expected a BundleClass, got \w+|side does not belong to this configuration"),
    },
    # latticecore
    "discriminant_group": {"gram": S("gram", G2_GRAM, lambda v: roofpairs.discriminant_group(v), "matrix")},
    "isotropic_pair_solve": {
        "gram": S("rank-3 gram", G2_GRAM, lambda v: roofpairs.isotropic_pair_solve(v, G2_LOCUS, 50), "gram"),
        "ell": S("vector", G2_LOCUS, lambda v: roofpairs.isotropic_pair_solve(G2_GRAM, v, 50), "polarization"),
        "bound": S("index", 50, lambda v: roofpairs.isotropic_pair_solve(G2_GRAM, G2_LOCUS, v), "bound"),
    },
    "orthogonal_kernel": {
        "gram": S("gram", G2_GRAM, lambda v: roofpairs.orthogonal_kernel(v, [[1, 0, 0]]), "gram matrix"),
        "sublattice": S("matrix", [[1, 0, 0]], lambda v: roofpairs.orthogonal_kernel(G2_GRAM, v), "sublattice"),
    },
    "smith_normal_form": {"m": S("matrix", [[2, 4, 4], [-6, 6, 12]], lambda v: roofpairs.smith_normal_form(v),
                                 "matrix")},
    # bwbcoh
    "RootSystem": {"family": S("key", "B", lambda v: roofpairs.RootSystem(v, 4), "family"),
                   "rank": S("index", 4, lambda v: roofpairs.RootSystem("B", v), "rank")},
    "bundle_cohomology": {
        "dimension": S("index", 4, lambda v: roofpairs.bundle_cohomology(v, "O", 1), "quadric dimension"),
        "name": S("key", "Sdual", lambda v: roofpairs.bundle_cohomology(5, v, 1), "bundle name|weight dictionary"),
        "twist": S("index", 4, lambda v: roofpairs.bundle_cohomology(5, "Sdual", v), "twist"),
    },
    "dominant_conjugate": {
        "rs": S("root system", B3, lambda v: roofpairs.dominant_conjugate(v, RHO_B3), "root system"),
        "w": S("weight", RHO_B3, lambda v: roofpairs.dominant_conjugate(B3, v), "weight|coordinates"),
    },
    "euler_characteristic": {"table": S("table", {0: 4, 2: 1}, lambda v: roofpairs.euler_characteristic(v),
                                        "cohomology")},
    "les_solve": {
        "seq": S("sequence", SEQUENCE, lambda v: roofpairs.les_solve(v), "sequence"),
        "names": S("names", SEQUENCE.names, lambda v: roofpairs.les_solve(SEQUENCE._replace(names=v)), "names"),
        "tables": S("tables", SEQUENCE.tables, lambda v: roofpairs.les_solve(SEQUENCE._replace(tables=v)),
                    "table|unknown terms"),
        "known table": S("table", {0: 1}, lambda v: roofpairs.les_solve(SEQUENCE._replace(tables=(v, None, {}))),
                         "cohomology (table of a: expected|degree .+ of a is outside"
                         "|table entry must be an integer, got)|unknown terms"),
        "top degree": S("index", 4, lambda v: roofpairs.les_solve(SEQUENCE._replace(top_degree=v)),
                        "top degree"),
    },
    "rho": {"rs": S("root system", B3, lambda v: roofpairs.rho(v), "root system")},
    "vanishing_case": {"case": S("index", 1, lambda v: roofpairs.vanishing_case(v), "case")},
    # motivicring
    "MotivicPoly": {
        "coeffs": S("monomials", {MONO: 1}, lambda v: roofpairs.MotivicPoly(v), "monomial|coefficient|exponent"),
        "exponent": S("index", 4, lambda v: roofpairs.MotivicPoly({(v, 0, 0, 0, 0, 0): 1}), "exponent"),
        "power": S("index", 4, lambda v: roofpairs.MotivicPoly.var("L") ** v, "exponent"),
        "var name": S("key", "L", lambda v: roofpairs.MotivicPoly.var(v), "symbol"),
        "const": S("index", 4, lambda v: roofpairs.MotivicPoly.const(v), "coefficient"),
        "substitute assignments": S(
            "assignments", {"Y": Y_TILDE}, lambda v: roofpairs.fibration_class(3).substitute(v),
            r"^(substitute assignments: expected a Mapping, got \w+|symbol: expected a str, got \w+"
            r"|unknown symbol .+|image of Y: expected a MotivicPoly or int, got \w+)$"),
        "substitute image": S("image", Y_TILDE, lambda v: roofpairs.fibration_class(3).substitute({"Y": v}),
                              r"^image of Y: expected a MotivicPoly or int, got \w+$"),
    },
    "fibration_class": {"rank": S("index", 4, lambda v: roofpairs.fibration_class(v), "rank")},
    "l_equivalence_residual": {"rank": S("index", 4, lambda v: roofpairs.l_equivalence_residual(v), "rank")},
    "proj_class": {"dimension": S("index", 4, lambda v: roofpairs.proj_class(v), "projective space dimension")},
    # configs
    "builtin_config": {"name": S("key", "g2dagger", lambda v: roofpairs.builtin_config(v), "configuration")},
    "load_config": {"path": S("path", "tests/data/toy_symmetric.json", lambda v: roofpairs.load_config(v),
                              "path|No such file")},
}

# entry points outside __all__ that the command line and the checks call, as "<home module>.<name>"
HELPERS: dict[str, dict[str, Slot]] = {
    "bwbcoh.quadric_root_system": {"dimension": S("index", 4, lambda v: quadric_root_system(v),
                                                  "quadric dimension")},
    "bwbcoh.named_bundle_table": {"twist": S("index", 4, lambda v: named_bundle_table(5, "G", v), "twist")},
    "motivicring.residual_closed_form": {"rank": S("index", 4, lambda v: residual_closed_form(v), "rank")},
}
SLOTS = {**TABLE, **HELPERS}

# home module -> the errors its names raise; roofcalc computes through gradedring and latticecore,
# and motivicring documents ValueError
LAYER = {
    "gradedring": errors.GradedRingError, "latticecore": errors.LatticeError, "bwbcoh": errors.BWBError,
    "roofcalc": (errors.RoofError, errors.GradedRingError, errors.LatticeError), "motivicring": ValueError,
    "configs": errors.ConfigError,
}
PROBES = [(name, slot, value) for name, slots in SLOTS.items() for slot, s in slots.items()
          for value in junk(s.kind, s.valid)]


def _home(name: str) -> str:
    return name.split(".")[0] if "." in name else roofpairs._HOMES[name]


def _value(x):
    """What a result is compared by: its type and, recursively, its fields, so that 4.0 kept in place of 4
    shows; a ring presentation by its data, since it compares by identity."""
    if type(x) is RingPresentation:
        return x.name, x.dimension, x.basis, x.point_label, x._products, x._l_powers, x.fano_index
    if isinstance(x, tuple):
        return type(x), tuple(map(_value, x))
    if isinstance(x, dict):
        return dict, {k: _value(v) for k, v in x.items()}
    return type(x), x


@functools.cache
def _valid(name: str, slot: str):
    s = SLOTS[name][slot]
    return _value(s.call(s.valid))


def check(name: str, slot: str, value) -> None:
    """``value`` in the slot gives the valid call's result or the layer's error naming the slot; in an
    integer slot, only the error, and for a scalar, with the shared text of ``errors._index``."""
    s = SLOTS[name][slot]
    layer, integer = LAYER[_home(name)], s.kind.removeprefix("optional ") == "index"
    try:
        got = s.call(value)
    except layer as exc:
        assert type(exc).__module__.startswith("roofpairs.") or layer is ValueError, repr(exc)
        assert re.search(s.names, str(exc)), f"{name} {slot}: {exc}"
        if integer:
            assert re.search(f"must be an integer, got {re.escape(repr(value))}$", str(exc)), \
                f"{name} {slot}: {exc}"
    else:
        assert not integer, f"{name} {slot} took {value!r}"
        assert _value(got) == _valid(name, slot), f"{name} {slot} returned {got!r}"


def test_the_table_covers_the_public_surface():
    assert set(TABLE) == set(roofpairs.__all__)


def test_every_valid_call_gives_a_result():
    for name, slots in SLOTS.items():
        for slot in slots:
            _valid(name, slot)


def _probe_id(probe) -> str:
    name, slot, value = probe
    text = repr(value)
    return f"{name}-{slot}-{text if len(text) <= 24 else type(value).__name__}"


@pytest.mark.parametrize("probe", PROBES, ids=map(_probe_id, PROBES))
def test_junk_gives_the_valid_result_or_the_layer_error(probe):
    check(*probe)


# the arithmetic classes follow Python's operator protocol: an operand that is neither a class of the same
# kind nor, for *, an int or Fraction gives NotImplemented, and so Python's own TypeError; a bool is refused
# here as by every integer argument
CLASSES = {"GradedClass": Q5.l_power(1), "BundleClass": XI3, "MotivicPoly": roofpairs.MotivicPoly.var("L")}
OPERATORS = {"add": lambda a, x: a + x, "radd": lambda a, x: x + a, "sub": lambda a, x: a - x,
             "rsub": lambda a, x: x - a, "mul": lambda a, x: a * x, "rmul": lambda a, x: x * a}
OPERANDS = [(cls, op, x) for cls in CLASSES for op in OPERATORS for x in (1.5, None, True, False)] + [
    # the graded classes have no integer constants, and no ring has Fraction constants
    (cls, op, x) for cls in CLASSES for op in OPERATORS if "mul" not in op
    for x in ((1, Fraction(1, 2)) if cls != "MotivicPoly" else (Fraction(1, 2),))]


@pytest.mark.parametrize("cls, op, x", OPERANDS, ids=[f"{c}-{o}-{x!r}" for c, o, x in OPERANDS])
def test_class_operators_refuse_other_operands_with_a_type_error(cls, op, x):
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for [-+*]: "):
        OPERATORS[op](CLASSES[cls], x)


@pytest.mark.parametrize("a, b, error", [
    (Q5.l_power(1), Q6.l_power(1), errors.GradedRingError), (XI3, TILDE_XI3, errors.RoofError),
], ids=["GradedClass", "BundleClass"])
def test_class_operators_keep_the_layer_error_across_rings_and_sides(a, b, error):
    for op in OPERATORS.values():
        with pytest.raises(error, match="different"):
            op(a, b)
