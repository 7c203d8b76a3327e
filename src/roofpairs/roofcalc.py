"""The roof engine.

Cohomology of a projectivized rank-r bundle over a quadric base is presented
as the free module over the base ring on 1, xi, ..., xi^(r-1), with the
degree-r relation

    xi^r = c_1 xi^(r-1) - c_2 xi^(r-2) + ... + (-1)^(r+1) c_r

rewriting higher powers.  On top of that normal form this module builds
the middle intersection lattice of a hyperplane section, the pushforward
class of the polarized zero locus, the side-switching substitution
L -> xi - L~ across the two bundle structures, the residue scan that
obstructs an isomorphism of the two polarized surfaces, and the
Fourier-Mukai pipeline: both sides' isotropic pairs, the switched generator
and its integer coordinates in the other side's isotropic basis.

The bundle-ring arithmetic runs on plain {label: coefficient} dicts.  Each
side keeps one table of xi^e = sum_(j<r) P_e[j] * xi^j, r <= e <= N, built row by
row on first use (``RoofSide._power``); ``reduce`` checks every term c * xi^e,
a class or such a dict, and adds c * P_e.  A BundleClass holds its parts as such
dicts, which products, reductions and coordinate sums build directly, and is
built through ``reduce``; ``BundleClass.parts`` builds GradedClasses.

``middle_lattice`` computes each Gram entry by its definition, ``pairing_on_M``
of two monomial classes.  ``RoofQuery``, the engine of describe, lemma7 and
mukai, reads the same entries off the side's Segre classes (``_table_gram``):
by the projective-bundle formula, int x*xi^e . y*xi^f . xi = int_B x*y*s_k with
k = e + f + 2 - r, a sum over the base product x*y of the pairings
sigma(z) = int_B z*s_k that each side builds once (``RoofSide._segre``).
Where the pullback sublattice S is unimodular, it reads the determinant, the
locus class and the discriminant group off the splitting L = S + Zj
(``_splitting``) instead of eliminating on the whole Gram matrix, and elsewhere
the locus class off one rational solve, G v = e_top.  Both run ``_check_middle_basis``
and ``_nondegenerate`` and hold no classes: a declared monomial x*xi^e, e < r, is its
own normal form (``class_from_coordinates``).  Each side keeps its own
xi-power table and Segre data; twin sides share pieces only through
``RoofQuery``, which keys each piece that names no side by a representative side.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm, prod
from typing import Mapping, NamedTuple, Optional, Sequence

from . import latticecore
from .errors import GradedRingError, LatticeError, RoofError, _index, _typed
from .gradedring import (
    GradedClass,
    IncompatibleRingError,
    IntegralityError,
    RingPresentation,
    _exact,
    integrate,
    signed_sum,
)
from .latticecore import _solve_integral, _solve_rational


class InvalidRoofError(RoofError):
    """Inconsistent roof data (ranks, dimensions, polarization degree)."""


class DegreeMismatchError(RoofError):
    """Operands have degrees incompatible with the requested pairing."""


class DegenerateBasisError(RoofError):
    """A declared middle basis is degenerate under the intersection pairing."""


class UnexpectedRankError(RoofError):
    """The orthogonal complement of the pullback sublattice is not rank one."""


class SwitchError(RoofError):
    """A class is not expressible as a rational polynomial in (L, xi)."""


# ---------------------------------------------------------------------------
# sides and bundle classes
# ---------------------------------------------------------------------------

class RoofSide:
    """One projective-bundle structure: base ring, rank, relation coefficients.

    ``groth_coeffs[i-1]`` is the degree-i coefficient c_i of the defining
    relation; for a bundle given by Chern data these are the Chern classes of
    the twisted bundle (``chern_twist(c, t).components``).  ``middle_basis``
    lists the monomials (base label, xi exponent) spanning the middle
    algebraic cohomology of a hyperplane section, stored as tuple pairs;
    ``rank`` and each exponent go through ``operator.index``.  Read-only, equal and
    hashed by these five fields; its xi-power table ``_powers`` and Segre data
    ``_sigma`` take no part and are its own, never shared with another side
    (twin sides share only the pieces that name no side, through ``RoofQuery``).
    A plain class, unlike the other records: it owns that data, and ``reduce``
    reads its fields on every call, where a NamedTuple ran about 2 % slower.
    """

    def __init__(self, name: str, base: RingPresentation, rank: int, groth_coeffs: tuple[GradedClass, ...],
                 middle_basis: Optional[tuple[tuple[str, int], ...]] = None):
        _typed(name, str, "side name", InvalidRoofError)
        rank = _index(rank, "rank", InvalidRoofError)
        if rank < 1:
            raise InvalidRoofError("rank must be positive")
        if len(_typed(groth_coeffs, (tuple, list), "relation coefficients", InvalidRoofError)) != rank:
            raise InvalidRoofError("need exactly rank relation coefficients")
        for i, c in enumerate(groth_coeffs, start=1):
            if _typed(c, GradedClass, f"relation coefficient {i}", InvalidRoofError).ring is not base or c.degree != i:
                raise InvalidRoofError(f"relation coefficient {i} must live on the base in degree {i}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "groth_coeffs", tuple(groth_coeffs))
        if middle_basis:
            middle_basis = tuple(_typed(middle_basis, (tuple, list), "middle_basis", InvalidRoofError))
            if any(not isinstance(m, (tuple, list)) or len(m) != 2 for m in middle_basis):
                raise InvalidRoofError(f"middle_basis entries must be (label, exponent) pairs, got {middle_basis!r}")
            middle_basis = tuple((x, _index(e, "middle_basis exponent", InvalidRoofError)) for x, e in middle_basis)
        object.__setattr__(self, "middle_basis", middle_basis or None)
        # P_r, P_(r+1), ..., P_N, built by _power from the relation xi^r = sum_i (-1)^(i+1) c_i * xi^(r-i)
        relation = tuple({z: (-1) ** (i + 1) * m for z, m in c.coeffs.items()} for i, c in enumerate(groth_coeffs, 1))
        object.__setattr__(self, "_powers", [relation[::-1]])
        object.__setattr__(self, "_sigma", {})  # z -> int_B z * s_(n - deg z), filled by _segre

    def __setattr__(self, name, value):
        raise AttributeError(f"RoofSide.{name} is read-only")

    def _key(self) -> tuple:
        return self.name, self.base, self.rank, self.groth_coeffs, self.middle_basis

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is RoofSide else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def _power(self, e: int) -> tuple[dict[str, int | Fraction], ...]:
        """P_e for r <= e <= N: xi^e = sum_(j<r) P_e[j] * xi^j, with P_e[j] of degree e - j on the base.
        P_r is the signed relation; P_(e+1) is xi * P_e, its xi^r part P_e[r-1] folded through P_r.  Rows
        are built once, in order, up to the one asked for; a coefficient that cancels stays as a 0."""
        rows = self._powers
        while len(rows) <= e - self.rank:
            top, row = rows[-1][-1], [{}, *map(dict, rows[-1][:-1])]
            low = max(self.rank + len(rows) - self.base.dimension, 0)  # the parts below have degree above n
            for p, c in zip(row[low:], rows[0][low:]):
                self.base.add_product(p, top, c)
            rows.append(tuple(row))
        return rows[e - self.rank]

    def _segre(self) -> dict[str, int | Fraction]:
        """sigma(z) = int_B z * s_k for each base label z, k = n - deg z, built once, on first use.  By the
        projective-bundle formula the Segre class s_k is the xi^(r-1) part of xi^(r-1+k): s_0 = 1 and
        s_k = P_(r-1+k)[r-1] (``_power``)."""
        if not self._sigma:
            base, r = self.base, self.rank
            s = [{base.unit_label: 1}] + [self._power(r - 1 + k)[r - 1] for k in range(1, base.dimension + 1)]
            for z, d in base._degrees.items():
                self._sigma[z] = sum(m * base.basis_product(z, w).get(base.point_label, 0)
                                     for w, m in s[base.dimension - d].items())
        return self._sigma

    @property
    def dim_total(self) -> int:
        return self.base.dimension + self.rank - 1

    @property
    def middle_codim(self) -> int:
        d = self.dim_total - 1
        if d % 2:
            raise InvalidRoofError("hyperplane section has odd-dimensional middle cohomology")
        return d // 2

    def relation_string(self) -> str:
        """sum_i (-1)^i c_i * xi^(r-i) = 0; a zero c_i is left out, and one of several terms is parenthesised,
        with the sign outside when all its terms are negative."""
        terms = [(1, f"xi^{self.rank}")]
        for i, c in enumerate(self.groth_coeffs, start=1):
            if len(c.coeffs) == 1:
                ((label, m),) = c.coeffs.items()
                terms.append(((-1) ** i * m, monomial_name(self, label, self.rank - i)))
            elif c.coeffs:
                xi = monomial_name(self, self.base.unit_label, self.rank - i)
                sign = -1 if max(c.coeffs.values()) < 0 else 1
                terms.append(((-1) ** i * sign, "*".join(p for p in (f"({c * sign})", xi) if p)))
        return signed_sum(terms) + " = 0"


class BundleClass:
    """Normal form sum_(i < r) xi^i * (base class of degree d - i).

    ``BundleClass(side, degree, parts)``, its side, degree and r parts checked, is ``reduce`` of sum_i
    parts[i] * xi^i.  The parts are held as {label: coefficient} dicts (``_flat``) with no zeros and integral
    values as ints; ``parts`` builds GradedClasses on each read, and ``parts[-1]`` is the pushforward to the base.
    """

    __slots__ = ("side", "degree", "_flat")

    def __init__(self, side: RoofSide, degree: int, parts: Sequence[GradedClass]):
        _typed(side, RoofSide, "side", RoofError)
        degree = _index(degree, "degree", RoofError)
        if len(_typed(parts, (tuple, list), "xi components", RoofError)) != side.rank:
            raise RoofError("normal form needs exactly rank xi-components")
        self.side, self.degree, self._flat = side, degree, reduce(side, dict(enumerate(parts)), degree)._flat

    @classmethod
    def _of(cls, side: RoofSide, degree: int, flat) -> "BundleClass":
        """Wrap r coefficient dicts of the right degrees unchecked; a dict with
        a zero or a non-int is copied without zeros and with integral values as ints."""
        parts = []
        for p in flat:
            for v in p.values():
                if not v or type(v) is not int:
                    p = {k: _exact(c) for k, c in p.items() if c}
                    break
            parts.append(p)
        a = cls.__new__(cls)
        a.side, a.degree, a._flat = side, degree, tuple(parts)
        return a

    @property
    def parts(self) -> tuple[GradedClass, ...]:
        return tuple(GradedClass(self.side.base, self.degree - i, p) for i, p in enumerate(self._flat))

    @property
    def is_zero(self) -> bool:
        return not any(self._flat)

    def assert_integral(self) -> "BundleClass":
        if any(c.denominator != 1 for p in self._flat for c in p.values()):
            raise IntegralityError(f"non-integral bundle class {self}")
        return self

    def _check(self, other: "BundleClass") -> None:
        if self.side is not other.side:
            raise RoofError("bundle classes live on different roof sides")

    def __add__(self, other: "BundleClass") -> "BundleClass":
        if type(other) is not BundleClass:
            return NotImplemented
        self._check(other)
        if self.degree != other.degree:
            raise RoofError("cannot add bundle classes of different degrees")
        return BundleClass._of(self.side, self.degree, [
            {k: p.get(k, 0) + q.get(k, 0) for k in {**p, **q}} for p, q in zip(self._flat, other._flat)])

    def __sub__(self, other: "BundleClass") -> "BundleClass":
        return self + (-other) if type(other) is BundleClass else NotImplemented

    def __neg__(self) -> "BundleClass":
        return BundleClass._of(self.side, self.degree, [{k: -v for k, v in p.items()} for p in self._flat])

    def scale(self, c) -> "BundleClass":
        c = _exact(c)
        return BundleClass._of(self.side, self.degree, [{k: c * v for k, v in p.items()} for p in self._flat])

    def __mul__(self, other):
        if type(other) is not BundleClass:
            return self.scale(other) if type(other) is not bool and isinstance(other, (int, Fraction)) \
                else NotImplemented
        self._check(other)
        add_product = self.side.base.add_product
        terms: dict[int, dict[str, int | Fraction]] = {}
        ps = [(i, p) for i, p in enumerate(self._flat) if p]
        qs = [(j, q) for j, q in enumerate(other._flat) if q]
        for i, p in ps:
            for j, q in qs:
                add_product(terms.setdefault(i + j, {}), p, q)
        return reduce(self.side, terms, self.degree + other.degree)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, BundleClass):
            return NotImplemented
        return self.side is other.side and self.degree == other.degree and self._flat == other._flat

    def __str__(self):
        return signed_sum(
            (c, monomial_name(self.side, label, i))
            for i, part in reversed(tuple(enumerate(self.parts)))
            for label, c in part.sorted_items()
        )

    def __repr__(self):
        return f"<{self} : codim {self.degree} on {self.side.name}>"


def monomial_name(side: RoofSide, label: str, e: int) -> str:
    """``label*xi^e`` without the unit label or ``xi^0``; "" for 1."""
    xi = "" if e == 0 else ("xi" if e == 1 else f"xi^{e}")
    base = "" if label == side.base.unit_label else label
    return "*".join(p for p in (base, xi) if p)


def monomial(side: RoofSide, label: str, xi_exp: int) -> BundleClass:
    """The class (base basis element) * xi^e, reduced to normal form."""
    return reduce(side, {xi_exp: side.base.basis_class(label)})


def xi_power(side: RoofSide, e: int) -> BundleClass:
    return reduce(side, {e: side.base.unit()})


def reduce(
    side: RoofSide, expression: Mapping[int, GradedClass | dict[str, int | Fraction]], degree: Optional[int] = None
) -> BundleClass:
    """Fold a formal polynomial in xi with base-class coefficients to normal form.

    Every term c * xi^e passes one rule: e is an integer at least 0 (``errors._index``), and c is a class on
    the side's base of degree ``degree - e``: a GradedClass, whose degree, zero or not, sets ``degree`` when
    that is None, or a {label: coefficient} dict, the shape of the ring's own products, which needs an
    explicit ``degree``.  Terms below xi^r are already reduced; c * xi^e with r <= e <= N adds c * P_e[j]
    to the xi^j part, where xi^e = sum_j P_e[j] * xi^j is a row of the side's table (``RoofSide._power``);
    parts of degree above n vanish and are skipped, and a term past N is zero.
    """
    if type(side) is not RoofSide:
        _typed(side, RoofSide, "side", RoofError)
    if degree is not None and type(degree) is not int:
        degree = _index(degree, "expression degree", RoofError)
    if type(expression) is not dict:
        _typed(expression, Mapping, "expression", RoofError)
    base, given, labels = side.base, degree, side.base._degrees
    terms: dict[int, dict[str, int | Fraction]] = {}
    for e, cls in expression.items():
        if type(e) is not int:
            e = _index(e, "xi exponent", RoofError)
        if e < 0:
            raise RoofError("negative xi exponent")
        if isinstance(cls, dict):
            if given is None:
                raise RoofError(f"expression term xi^{e} is a dict, which needs an explicit degree")
            coeffs, d = cls, degree - e
            for label, c in cls.items():
                if labels.get(label) != d:  # refuse an unknown label; a known one gives the term's degree
                    d = base.basis_class(label).degree
                    break
                if type(c) is not int:
                    _exact(c)
        else:
            if type(cls) is not GradedClass:
                _typed(cls, (GradedClass, dict), "expression term", RoofError)
            if cls.ring is not base:
                raise IncompatibleRingError(f"expression has a class off the base {base.name!r} of {side.name!r}")
            coeffs, d = cls.coeffs, cls.degree
            if degree is None:
                degree = e + d
        if e + d != degree:
            raise RoofError(f"expression is not homogeneous of degree {degree}: its xi^{e} term has degree {d}, "
                            f"expected {degree - e}")
        terms[e] = coeffs
    if degree is None:
        degree = 0

    parts = [dict(terms.pop(j, ())) for j in range(side.rank)]
    low = max(degree - base.dimension, 0)  # the parts below have degree above n and vanish
    for e, coeffs in terms.items():
        if e <= side.dim_total:  # xi^e = 0 past the top degree
            for out, p in zip(parts[low:], side._power(e)[low:]):
                base.add_product(out, coeffs, p)
    return BundleClass._of(side, degree, parts)


# ---------------------------------------------------------------------------
# the hyperplane-section pairing and the middle lattice
# ---------------------------------------------------------------------------

def pairing_on_M(side: RoofSide, a: BundleClass, b: BundleClass) -> int:
    """Intersection number of two classes on the hyperplane section, int_X a.b.xi."""
    if type(a) is not BundleClass or type(b) is not BundleClass:
        _typed(a, BundleClass, "first class", RoofError)
        _typed(b, BundleClass, "second class", RoofError)
    if a.side is not side or b.side is not side:
        raise RoofError("classes do not live on the requested side")
    if a.degree + b.degree + 1 != side.dim_total:
        raise DegreeMismatchError(
            f"codimensions {a.degree} + {b.degree} + 1 != dim X = {side.dim_total}")
    # a.b.xi has top degree, so its integral is the point coefficient of the xi^(r-1) part
    val = (a * b * xi_power(side, 1))._flat[-1].get(side.base.point_label, 0)
    if val.denominator != 1:
        raise IntegralityError(f"non-integral intersection number {val}")
    return int(val)


class MiddleLattice(NamedTuple):
    """Declared middle basis, its exact integer intersection matrix and determinant; a class is its coordinates."""

    side: RoofSide
    monomials: tuple[tuple[str, int], ...]
    gram: tuple[tuple[int, ...], ...]
    determinant: int

    @property
    def rank(self) -> int:
        return len(self.monomials)


def middle_lattice(side: RoofSide) -> MiddleLattice:
    """Gram matrix of the declared middle basis under the hyperplane-section pairing,
    each entry by definition: ``pairing_on_M`` of two monomial classes."""
    _check_middle_basis(side)
    classes = [monomial(side, label, e) for label, e in side.middle_basis]
    gram = tuple(tuple(pairing_on_M(side, a, b) for b in classes) for a in classes)
    return _nondegenerate(side, gram, latticecore.det(gram))


def _check_middle_basis(side: RoofSide) -> None:
    """The basis checks of a middle lattice: each declared monomial x*xi^e has 0 <= e < r, a label on the
    base and middle codimension, so it is its own normal form."""
    _typed(side, RoofSide, "side", RoofError)
    if side.middle_basis is None:
        raise RoofError(f"side {side.name!r} declares no middle basis")
    mc = side.middle_codim
    for label, e in side.middle_basis:
        if not 0 <= e < side.rank:
            raise RoofError(f"middle monomial xi exponent {e} outside [0, {side.rank - 1}]")
        degree = e + side.base.basis_class(label).degree
        if degree != mc:
            raise RoofError(f"middle monomial {label}*xi^{e} has codimension {degree}, expected {mc}")


def _nondegenerate(side: RoofSide, gram: tuple[tuple[int, ...], ...], determinant: int) -> MiddleLattice:
    """The middle lattice of ``side``, unless its determinant is 0."""
    if determinant == 0:
        raise DegenerateBasisError("declared middle basis is degenerate under the pairing")
    return MiddleLattice(side, side.middle_basis, gram, determinant)


def _table_integral(side: RoofSide, x: str, y: str, s: int) -> int | Fraction:
    """int_X x*y*xi^s for base labels x and y, read off the side's Segre classes (``RoofSide._segre``).

    By the projective-bundle formula (Fulton, Intersection Theory 3.1), int_X z*xi^(r-1+k) =
    int_B z*s_k, so for x*y = sum c_z z it is the sum of c_z * sigma(z) with k = s - r + 1: zero for
    s < r - 1 or when x*y has a degree other than n - k, as the normal form of x*y*xi^s gives."""
    base, k = side.base, s - side.rank + 1
    if k < 0 or base._degrees[x] + base._degrees[y] + k != base.dimension:
        return 0
    sigma = side._segre()
    return sum(c * sigma[z] for z, c in base.basis_product(x, y).items())


def _table_gram(side: RoofSide) -> tuple[tuple[int, ...], ...]:
    """The Gram matrix of the middle monomials read off the Segre classes: the entry of x*xi^e
    and y*xi^f is int_X x*y*xi^(e+f+1) (``_table_integral``).  Equal to ``middle_lattice``'s, its
    integrality error included: the first non-integral entry in row order lies in the upper
    triangle, which is computed and mirrored."""
    monomials = side.middle_basis
    gram = [[0] * len(monomials) for _ in monomials]
    for i, (x, e) in enumerate(monomials):
        for k in range(i, len(monomials)):
            y, f = monomials[k]
            val = _table_integral(side, x, y, e + f + 1)
            if val.denominator != 1:
                raise IntegralityError(f"non-integral intersection number {val}")
            gram[i][k] = gram[k][i] = int(val)
    return tuple(map(tuple, gram))


def _splitting(side: RoofSide, gram: Sequence[Sequence[int]]) -> Optional[tuple[int, tuple[int, ...]]]:
    """The determinant of the middle lattice and the coordinates of j, read off its splitting L = S + Zj, or
    None when this closed form does not apply.

    Order the middle monomials x*xi^e by e and let S be spanned by those with e <= r - 2.  The
    pairing of the e-block with the f-block vanishes for e + f < r - 2, so S's Gram matrix is block
    anti-triangular and det S is the product of the determinants of the anti-diagonal blocks B_e
    (the e-block against the (r-2-e)-block), signed by the reversal of the blocks.  The form applies
    when exactly one monomial has e = r - 1, every B_e is square, the blocks above the anti-diagonal
    vanish and det S = +-1.  Then S is unimodular, so it splits off (Milnor-Husemoller, Symmetric
    Bilinear Forms): L = S + Zj and det L = det S * j.j.  j = e_top - c with G_SS c = G_S,top,
    solved block by block through the unimodular B_e, last block first, and j.j = G_top,top - G_top,S c."""
    k = side.rank - 2
    blocks = [[i for i, (_, e) in enumerate(side.middle_basis) if e == f] for f in range(k + 2)]
    top = blocks.pop()
    if len(top) != 1 or any(len(blocks[e]) != len(blocks[k - e]) for e in range(k + 1)):
        return None
    if any(gram[i][j] for e in range(k) for f in range(k - e) for i in blocks[e] for j in blocks[f]):
        return None
    sizes = [len(b) for b in blocks]
    # a 1 x 1 block, the usual case, is its own determinant
    det_s = (-1) ** sum(a * b for a, b in combinations(sizes, 2)) * prod(
        gram[blocks[e][0]][blocks[k - e][0]] if sizes[e] == 1 else
        latticecore.det([[gram[i][j] for j in blocks[k - e]] for i in blocks[e]]) for e in range(k + 1))
    if det_s not in (1, -1):
        return None
    b, c = top[0], [0] * len(gram)
    for e in range(k + 1):  # row block e reads B_e c_(k-e) = g_e - sum_(f > k-e) G_(e,f) c_f
        rows, cols = blocks[e], blocks[k - e]
        rhs = [gram[i][b] - sum(gram[i][j] * c[j] for block in blocks[k - e + 1:] for j in block) for i in rows]
        if sizes[e] == 1:  # B_e = (+-1), since det S = +-1, and it is its own inverse
            solution = [rhs[0] * gram[rows[0]][cols[0]]]
        else:
            solution = _solve_integral([[gram[row][col] for row in rows] for col in cols], rhs)
        for i, x in zip(cols, solution):
            c[i] = x
    jj = gram[b][b] - sum(g * x for g, x in zip(gram[b], c))
    return det_s * jj, tuple(int(i == b) - x for i, x in enumerate(c))


def class_from_coordinates(lat: MiddleLattice, coords: Sequence) -> BundleClass:
    """The class sum_k coords[k] * x_k*xi^e_k; each declared monomial, e_k < r, is its own normal form.
    ``coords`` is a list or tuple of ``lat.rank`` numbers; anything else is a RoofError."""
    if len(_typed(coords, (list, tuple), "coordinates", RoofError)) != lat.rank:
        raise RoofError(f"expected {lat.rank} coordinates, one per declared middle monomial, got {len(coords)}")
    parts: list[dict[str, int | Fraction]] = [{} for _ in range(lat.side.rank)]
    for c, (label, e) in zip(coords, lat.monomials):
        parts[e][label] = parts[e].get(label, 0) + _exact(c)
    return BundleClass._of(lat.side, lat.side.middle_codim, parts)


def coordinates_in_lattice(lat: MiddleLattice, a: BundleClass) -> tuple[int | Fraction, ...]:
    """Coordinates of a middle-degree class in the declared monomial basis.

    Requires the basis to exhaust the monomials supporting the class; the
    reconstruction is verified exactly.
    """
    if a.degree != lat.side.middle_codim:
        raise DegreeMismatchError("class is not of middle degree")
    coords = [a._flat[e].get(label, 0) for label, e in lat.monomials]
    if class_from_coordinates(lat, coords) != a:
        raise RoofError("class is not supported on the declared middle basis")
    return tuple(coords)


# ---------------------------------------------------------------------------
# roof configurations
# ---------------------------------------------------------------------------

class RoofConfig(NamedTuple("RoofConfig", [("name", str), ("side", RoofSide), ("tilde_side", RoofSide),
                                            ("polarization_degree", int), ("declared_locus_signs", tuple)])):
    """Two projective-bundle structures glued along xi = L + L~ (k = 1).

    ``declared_locus_signs`` records, per side, the sign of the declared
    pushforward-locus representative relative to the positivity-normalized
    one; it only affects which representatives the residue report echoes.
    Validated on construction: an integer degree, exactly two signs, each an integer 1 or -1,
    equal ranks and dimensions, and on each side (through ``cy_degree``) a rank within the base
    dimension and the declared degree.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # the default skips __new__; _replace calls it

    def __new__(cls, name: str, side: RoofSide, tilde_side: RoofSide, polarization_degree: int,
                declared_locus_signs: tuple[int, int] = (1, 1)):
        _typed(name, str, "configuration name", InvalidRoofError)
        _typed(side, RoofSide, "side", InvalidRoofError)
        _typed(tilde_side, RoofSide, "tilde side", InvalidRoofError)
        polarization_degree = _index(polarization_degree, "polarization degree", InvalidRoofError)
        try:
            first, second = declared_locus_signs
        except (TypeError, ValueError):
            raise InvalidRoofError(f"declared_locus_signs must be a pair, got {declared_locus_signs!r}") from None
        signs = tuple(_index(s, "declared_locus_signs entry", InvalidRoofError) for s in (first, second))
        if any(s not in (1, -1) for s in signs):
            raise InvalidRoofError(f"declared_locus_signs entries must be 1 or -1, got {declared_locus_signs!r}")
        if side.rank != tilde_side.rank:
            raise InvalidRoofError("the two sides must have equal rank")
        if side.dim_total != tilde_side.dim_total:
            raise InvalidRoofError("the two sides must have equal total-space dimension")
        for s in (side, tilde_side):
            d = cy_degree(s)
            if d != polarization_degree:
                raise InvalidRoofError(
                    f"declared polarization degree {polarization_degree} != computed {d} on {s.name!r}")
        return super().__new__(cls, name, side, tilde_side, polarization_degree, signs)

    @property
    def rank(self) -> int:
        return self.side.rank

    @property
    def n(self) -> int:
        return self.side.base.dimension

    def other(self, side: RoofSide) -> RoofSide:
        if side is self.side:
            return self.tilde_side
        if side is self.tilde_side:
            return self.side
        raise RoofError("side does not belong to this configuration")

    def swap(self) -> "RoofConfig":
        return RoofConfig(self.name + "-swapped", self.tilde_side, self.side,
                          self.polarization_degree, self.declared_locus_signs[::-1])


def cy_degree(side: RoofSide) -> int:
    """Degree of the polarized zero locus: integral of c_r * L^(n-r) over the base.

    A bundle rank above the base dimension is an ``InvalidRoofError`` naming the side.
    """
    n, r = _typed(side, RoofSide, "side", RoofError).base.dimension, side.rank
    if n - r < 0:
        raise InvalidRoofError(f"side {side.name!r}: bundle rank exceeds what the base dimension supports")
    val = integrate(side.groth_coeffs[r - 1] * side.base.l_power(n - r))
    if val.denominator != 1:
        raise IntegralityError(f"non-integral zero-locus degree {val}")
    return int(val)


# ---------------------------------------------------------------------------
# locus pushforward class
# ---------------------------------------------------------------------------

def locus_pushforward_class(side: RoofSide) -> BundleClass:
    """Primitive generator of the orthogonal complement of the pullback sublattice.

    The pullback sublattice is spanned by the middle-basis monomials of
    xi-exponent at most r - 2.  The generator's sign is normalized so that
    its pairing with xi^(r-1) * L is strictly positive; one whose self-pairing breaks the sign
    law (-1)^(r-1) d, d = ``cy_degree(side)``, as on a degenerate pullback sublattice, is an
    ``UnexpectedRankError``.  Builds the side's middle lattice on each call; ``RoofQuery.locus``, its
    coordinates, once.
    """
    return _locus_class(middle_lattice(side))


def _locus_class(lat: MiddleLattice) -> BundleClass:
    """The locus pushforward class of ``lat.side``, read off its middle lattice."""
    side = lat.side
    sub = [
        [int(i == k) for k in range(lat.rank)]
        for i, (_, e) in enumerate(lat.monomials)
        if e <= side.rank - 2
    ]
    kernel = latticecore.orthogonal_kernel(lat.gram, sub)
    if len(kernel) != 1:
        raise UnexpectedRankError(
            f"orthogonal complement of the pullback sublattice has rank {len(kernel)}, expected 1")
    cls = class_from_coordinates(lat, kernel[0]).assert_integral()
    h = side.base.hyperplane
    if h is None:
        raise RoofError(f"base ring {side.base.name!r} has no hyperplane class")
    p = pairing_on_M(side, cls, reduce(side, {side.rank - 1: h}))  # xi^(r-1) * L, nef, fixes the sign
    if p == 0:
        raise UnexpectedRankError("locus class pairs to zero with the normalization monomial")
    return class_from_coordinates(lat, _lawful(lat, kernel[0] if p > 0 else [-x for x in kernel[0]], cy_degree(side)))


def _top_dual(lat: MiddleLattice) -> tuple[int, ...]:
    """S^perp's generator in closed form, with ``_locus_class``'s rank error.  G is nondegenerate, so S^perp
    is G^-1 of the vectors on the monomials of xi exponent r - 1, and its rank is their number; with one,
    e_top, v = G^-1 e_top spans it.  m*v, for the lcm m of v's denominators, is primitive: no prime of m
    divides all of it, and if another p did, m*v = p*u would make G u = (m/p) e_top integral."""
    top = [i for i, (_, e) in enumerate(lat.monomials) if e == lat.side.rank - 1]
    if len(top) != 1:
        raise UnexpectedRankError(
            f"orthogonal complement of the pullback sublattice has rank {len(top)}, expected 1")
    v = _solve_rational(lat.gram, [int(i == top[0]) for i in range(lat.rank)])[0]
    m = lcm(*(x.denominator for x in v))
    return tuple(int(x * m) for x in v)


def _signed(lat: MiddleLattice, k: Sequence[int]) -> tuple[int, ...]:
    """The coordinates k of S^perp's generator, signed as in ``_locus_class``, with the pairing of
    their class against xi^(r-1) * L read off the Segre classes (``_table_integral``), and the
    errors of ``_locus_class`` and its ``pairing_on_M``."""
    side = lat.side
    h = side.base.hyperplane
    if h is None:
        raise RoofError(f"base ring {side.base.name!r} has no hyperplane class")
    r, mc = side.rank, side.middle_codim
    if mc + r + 1 != side.dim_total:  # xi^(r-1) * L has codimension r, as pairing_on_M checks it
        raise DegreeMismatchError(f"codimensions {mc} + {r} + 1 != dim X = {side.dim_total}")
    p = sum(x * c * _table_integral(side, y, label, e + r)
            for x, (y, e) in zip(k, lat.monomials) if x for label, c in h.coeffs.items())
    if p.denominator != 1:
        raise IntegralityError(f"non-integral intersection number {p}")
    if p == 0:
        raise UnexpectedRankError("locus class pairs to zero with the normalization monomial")
    return tuple(x if p > 0 else -x for x in k)


def _lawful(lat: MiddleLattice, k: Sequence[int], d: int) -> tuple[int, ...]:
    """The locus coordinates k, unless the self-pairing k^T G k of their class breaks the sign law
    (-1)^(r-1) d of a locus class, as S^perp's generator does where S is degenerate."""
    law = (-1) ** (lat.side.rank - 1) * d
    pairing = sum(x * g * y for x, row in zip(k, lat.gram) for g, y in zip(row, k))
    if pairing != law:
        raise UnexpectedRankError(f"locus class {class_from_coordinates(lat, k)} has self-pairing {pairing}, "
                                  f"but the sign law needs (-1)^(r-1) d = {law}")
    return tuple(k)


def locus_coordinates(side: RoofSide) -> tuple[int, ...]:
    lat = middle_lattice(side)
    return coordinates_in_lattice(lat, locus_pushforward_class(side))


def polarized_sign_check(side: RoofSide) -> int:
    """Self-pairing of the locus class of ``side``: (-1)^(r-1) times the locus degree."""
    cls = locus_pushforward_class(side)
    return pairing_on_M(side, cls, cls)


# ---------------------------------------------------------------------------
# side switching
# ---------------------------------------------------------------------------

def _l_xi_monomials(side: RoofSide, d: int) -> list[tuple[tuple[int, int], BundleClass]]:
    """Normal forms of the monomials L^(d-q) * xi^q spanning the (L, xi)-subring."""
    out = []
    for q in range(d + 1):
        base = side.base.l_power(d - q)
        if base.is_zero:
            continue
        out.append(((d - q, q), reduce(side, {q: base}, degree=d)))
    return out


def _lift_to_l_xi(side: RoofSide, a: BundleClass):
    """Rational (L, xi)-polynomials with normal form a: one solution plus the kernel.

    Raises SwitchError when no polynomial in (L, xi) represents the class
    modulo the relation.
    """
    monos = _l_xi_monomials(side, a.degree)
    slots = [(e, label) for e in range(side.rank) for label in side.base.degree_labels.get(a.degree - e, ())]
    columns = [[cls._flat[e].get(label, 0) for e, label in slots] for _, cls in monos]
    res = _solve_rational(columns, [a._flat[e].get(label, 0) for e, label in slots])
    if res is None:
        raise SwitchError(f"{a} is not expressible as a polynomial in (L, xi)")
    solution, kernel = res
    keys = [key for key, _ in monos]
    to_poly = lambda vec: {k: _exact(c) for k, c in zip(keys, vec) if c}  # keeps _substitute on ints
    return to_poly(solution), [to_poly(v) for v in kernel]


def _substitute(target: RoofSide, l_poly: Mapping[tuple[int, int], Fraction], degree: int) -> BundleClass:
    """Apply L -> xi - L~ to an (L, xi)-polynomial and reduce on the target side."""
    expanded: dict[tuple[int, int], int | Fraction] = {}
    for (p, q), c in l_poly.items():
        for k in range(p + 1):
            key = (k, q + p - k)
            expanded[key] = expanded.get(key, 0) + c * comb(p, k) * (-1) ** k
    terms: dict[int, dict[str, int | Fraction]] = {}
    for (k, q), c in expanded.items():
        acc = terms.setdefault(q, {})
        for z, v in target.base.l_power(k).coeffs.items():
            acc[z] = acc.get(z, 0) + c * v
    return reduce(target, terms, degree=degree)


def switch_side(config: RoofConfig, a: BundleClass) -> BundleClass:
    """Carry a class across the roof through the substitution L -> xi - L~.

    The class must be representable as a rational polynomial in (L, xi)
    modulo the relation (any representative; for ambiguous lifts the
    relation-compatibility of the two sides is verified first).  The result
    is reduced with the other side's relation and asserted integral.
    """
    _typed(config, RoofConfig, "config", RoofError)
    source = _typed(a, BundleClass, "switched class", RoofError).side
    target = config.other(source)
    l_poly, kernel = _lift_to_l_xi(source, a)
    for null_poly in kernel:
        if not _substitute(target, null_poly, a.degree).is_zero:
            raise InvalidRoofError(
                "the two sides are inconsistent under the hyperplane substitution")
    out = _substitute(target, l_poly, a.degree)
    return out.assert_integral()


# ---------------------------------------------------------------------------
# residue scan (discriminant-group comparison)
# ---------------------------------------------------------------------------

class ResidueScan(NamedTuple):
    """Outcome of the divisibility scan comparing the two locus classes.

    ``residue_set`` collects k mod d with (j - k*j~)/d integral, computed
    with positivity-normalized representatives; ``witnesses`` holds the
    integral quotient for both integer representatives of each residue.  The
    ``declared_*`` fields repeat the scan with the declared-representative signs
    of the configuration.
    """

    degree: int
    j_coords: tuple[int, ...]
    jt_coords: tuple[int, ...]
    residue_set: tuple[int, ...]
    sign_orbit: tuple[int, ...]
    iso_obstructed: bool
    witnesses: tuple[tuple[int, tuple[int, ...]], ...]
    declared_residue_set: tuple[int, ...]
    declared_witnesses: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def declared_witness(self) -> Optional[tuple[int, tuple[int, ...]]]:
        """The declared-convention witness with the smallest coefficients, or None
        when the declared residue set is empty."""
        return min(
            self.declared_witnesses,
            key=lambda kw: (max(map(abs, kw[1]), default=0), sum(map(abs, kw[1])), abs(kw[0]), kw[0]),
            default=None,
        )


def _residue_class(j, jt, d: int) -> Optional[tuple[int, int]]:
    """(k0, m) such that d divides j - k*j~ exactly when k = k0 (mod m), or None.

    Each coordinate is the linear congruence k*j~_i = j_i (mod d).  It is
    solvable iff g = gcd(j~_i, d) divides j_i, and then fixes k modulo d/g.
    The congruences combine by the generalised Chinese remainder theorem, so
    m divides d and 0 <= k0 < m.
    """
    k0, m = 0, 1
    for b, a in zip(j, jt):
        g = gcd(a, d)
        if b % g:
            return None
        n = d // g
        r = b // g * pow(a // g, -1, n) % n
        h = gcd(m, n)
        if (r - k0) % h:
            return None
        k0 += m * ((r - k0) // h * pow(m // h, -1, n // h) % (n // h))
        m = m // h * n
    return k0, m


def _divisibility_scan(j, jt, d):
    """The residues k in 0..d-1 with d | j - k*j~, ascending, and their witnesses.

    Each residue k > 0 has the witnesses (k, (j - k*j~)/d) and
    (k - d, (j - (k - d)*j~)/d), in that order; the residue 0 has only the
    representative 0, except when d = 1, where it has 0 and -1.
    """
    cls = _residue_class(j, jt, d) if d > 0 else None
    if cls is None:
        return (), ()
    residues = tuple(range(cls[0], d, cls[1]))
    witnesses = tuple(
        (rep, tuple((x - rep * y) // d for x, y in zip(j, jt)))
        for k in residues for rep in ((k, k - d) if k or d == 1 else (0,))
    )
    return residues, witnesses


def residue_scan(config: RoofConfig) -> ResidueScan:
    """The k in 0..d-1 with (j - k*j~)/d integral in the tilde middle lattice.

    j is the side locus class carried across the roof, j~ the tilde side's
    own locus class; d is the polarization degree.  The isomorphism of
    discriminant groups is obstructed iff no residue in the +-1 orbit occurs.
    Builds every lattice and class it needs on each call; ``RoofQuery.residue_scan``
    builds each once.
    """
    j_cls = switch_side(config, locus_pushforward_class(_typed(config, RoofConfig, "config", RoofError).side))
    lat_t = middle_lattice(config.tilde_side)
    j = coordinates_in_lattice(lat_t, j_cls)
    jt = locus_coordinates(config.tilde_side)
    return _scan_coordinates(config, j, jt)


def _scan_coordinates(config: RoofConfig, j: tuple[int, ...], jt: tuple[int, ...]) -> ResidueScan:
    """The residue scan of ``config`` on given coordinates of j and j~ in the tilde lattice."""
    d = config.polarization_degree
    if d < 1:
        raise InvalidRoofError(f"the residue scan needs a polarization degree of at least 1, got {d}")
    residue_set, witnesses = _divisibility_scan(j, jt, d)
    orbit = sorted({k % d for k in residue_set} | {(-k) % d for k in residue_set})
    obstructed = not ({1 % d, (-1) % d} & set(orbit))

    s, st = config.declared_locus_signs
    sj = tuple(s * x for x in j)
    sjt = tuple(st * x for x in jt)
    declared_residues, declared_witnesses = _divisibility_scan(sj, sjt, d)

    return ResidueScan(
        degree=d,
        j_coords=j,
        jt_coords=jt,
        residue_set=residue_set,
        sign_orbit=tuple(orbit),
        iso_obstructed=obstructed,
        witnesses=witnesses,
        declared_residue_set=declared_residues,
        declared_witnesses=declared_witnesses,
    )


# ---------------------------------------------------------------------------
# the Fourier-Mukai vector
# ---------------------------------------------------------------------------

def mukai_vector(config: RoofConfig, bound: int = 50) -> tuple[int, int, int]:
    """Fourier-Mukai vector of the K3 pair of a rank-3-lattice roof configuration.

    The isotropic pair is solved on both sides, the first side's degree-0
    generator image is carried across the roof with the hyperplane-class
    substitution, expanded in the other side's basis (v, polarization, w),
    and normalized by the residual exchange/sign symmetry so that the first
    two components are positive.  ``RoofQuery.mukai`` builds each lattice once.
    """
    return _mukai(_typed(config, RoofConfig, "config", RoofError), middle_lattice, locus_coordinates, bound)[-1]


def _mukai(config: RoofConfig, lattice, coordinates, bound: int):
    """The side's isotropic pair, the coordinates of theta(v) carried to the tilde side and the vector,
    from each side's ``lattice(side)`` and ``coordinates(side)``; the rank is checked before any lattice."""
    sides = (config.side, config.tilde_side)
    if all(s.middle_basis is not None for s in sides) and any(len(s.middle_basis) != 3 for s in sides):
        raise latticecore.LatticeError("isotropic_pair_solve expects a rank-3 gram matrix")
    lat, lat_t = map(lattice, sides)
    ell, ell_t = map(coordinates, sides)
    sol = latticecore.isotropic_pair_solve(lat.gram, ell, bound)
    sol_t = latticecore.isotropic_pair_solve(lat_t.gram, ell_t, bound)
    image_coords = coordinates_in_lattice(lat_t, switch_side(config, class_from_coordinates(lat, sol.a)))
    x, y, z = _solve_integral([sol_t.a, ell_t, sol_t.b], image_coords)
    candidates = {(x, y, z), (z, y, x), (-x, -y, -z), (-z, -y, -x)}
    chosen = [c for c in candidates if c[0] > 0 and c[1] > 0]
    if len(chosen) != 1:
        raise latticecore.InconsistencyError(f"sign/exchange normalization is not unique: {sorted(candidates)}")
    return sol, image_coords, chosen[0]


class RoofQuery:
    """One configuration's pipeline, each piece built once, on first request.  A ``RoofError``,
    ``GradedRingError`` or ``LatticeError`` raised while building is raised again by the
    innermost build that failed, as the same type with the text ``stage '<piece>' failed:
    <message>``; the builds around it pass the named error on unchanged.

    A side's Gram matrix is read off its Segre classes (``_table_gram``).  Where the
    pullback sublattice S is unimodular (``_splitting``), the middle lattice splits as
    L = S + Zj, and its determinant and discriminant group are read off that splitting:
    det S * j.j and Z/|det L|, generated by the dual vector of the monomial of xi exponent
    r - 1 (valid, not canonical, like every ``DiscriminantGroup`` generator).  Elsewhere they
    come from ``det`` and ``discriminant_group`` on the Gram matrix.  The locus coordinates are
    +-j, or else G^-1 e_top made primitive (``_top_dual``), signed by their pairing with
    xi^(r-1) * L read off the Segre classes (``_signed``), and held to the sign law (``_lawful``).

    The two sides are twins when they differ only in name: one base ring, rank, relation
    and middle basis, as on every built-in.  Each piece that names no side, the Gram matrix
    with its determinant and j, the locus coordinates and the discriminant group, is keyed by
    a representative of the config side asked for, picked once: the side for a twin tilde
    side, and otherwise the side itself.  The first side asked for builds it from its own
    data, so an error always comes from that side.  Only the middle lattice is built per
    side, from the shared Gram data and the side's own basis checks, which reduce nothing:
    the engine reduces only inside its side switch.  Each side has its own xi-power table
    and Segre data; a twin that takes its pieces from the other side builds no Segre data,
    and only the table rows that its own side switch asks for."""

    def __init__(self, config: RoofConfig):
        self.config, self._built = config, {}
        side, tilde = config.side, config.tilde_side
        # keys of the pieces that name no side; a lattice is keyed by id(side), an int, never one of these
        self._rep = {id(side): "side", id(tilde): "side" if tilde._key()[1:] == side._key()[1:] else "tilde side"}

    def _once(self, stage: str, key, build):
        if (stage, key) not in self._built:
            try:
                self._built[stage, key] = build()
            except (RoofError, GradedRingError, LatticeError) as exc:
                if hasattr(exc, "stage"):
                    raise  # named by the piece inside this one that failed
                named = type(exc)(f"stage '{stage}' failed: {exc}")
                named.stage = stage
                raise named from exc
        return self._built[stage, key]

    def _gram(self, side: RoofSide) -> tuple[tuple[tuple[int, ...], ...], int, Optional[tuple[int, ...]]]:
        """The Gram matrix of ``side``'s middle basis, its determinant, and j, or None where it does not split."""
        def build():
            gram = _table_gram(side)
            split = _splitting(side, gram)
            return (gram, latticecore.det(gram), None) if split is None else (gram, *split)

        return self._once("middle lattice", self._rep[id(side)], build)

    def lattice(self, side: RoofSide) -> MiddleLattice:
        def build():
            _check_middle_basis(side)
            gram, det, _ = self._gram(side)
            return _nondegenerate(side, gram, det)

        return self._once("middle lattice", id(side), build)

    def locus(self, side: RoofSide) -> tuple[int, ...]:
        """The coordinates of ``side``'s locus class in its middle lattice."""
        def build():
            lat, j = self.lattice(side), self._gram(side)[2]
            k = _signed(lat, _top_dual(lat) if j is None else j)
            return _lawful(lat, k, self.config.polarization_degree)

        return self._once("locus class", self._rep[id(side)], build)

    def group(self, side: RoofSide) -> latticecore.DiscriminantGroup:
        def build():  # the dual of the top monomial maps S to 0 and j to 1: it generates Z/|j.j| = Z/|det L|
            lat, j = self.lattice(side), self._gram(side)[2]
            if j is None:
                return latticecore.discriminant_group(lat.gram)
            d = abs(lat.determinant)
            dual = tuple(int(e == side.rank - 1) for _, e in lat.monomials)
            return latticecore.DiscriminantGroup((d,), (dual,)) if d > 1 else latticecore.DiscriminantGroup((), ())

        return self._once("discriminant group", self._rep[id(side)], build)

    def residue_scan(self) -> ResidueScan:
        """``residue_scan``, in the stage order lemma7 reports: both lattices, then both locus classes."""
        cfg, sides = self.config, (self.config.side, self.config.tilde_side)
        lat, lat_t = map(self.lattice, sides)
        locus, locus_t = map(self.locus, sides)
        switched = self._once("side switch", None, lambda: switch_side(cfg, class_from_coordinates(lat, locus)))
        return self._once("residue scan", None, lambda: _scan_coordinates(
            cfg, coordinates_in_lattice(lat_t, switched), locus_t))

    def mukai(self, bound: int):
        return self._once("mukai vector", bound, lambda: _mukai(self.config, self.lattice, self.locus, bound))
