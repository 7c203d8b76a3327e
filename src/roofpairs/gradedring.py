"""Exact arithmetic in finite graded commutative quotient rings.

A ring is presented by a finite graded basis together with an integer
multiplication table, which the presentation completes to one two-sided
table over all basis pairs and validates exactly, associativity included, on
every construction; all class coefficients are exact rationals, stored as
Python ints when integral and as Fractions otherwise, so the integral classes
that make up almost all roof arithmetic never build a Fraction.  The powers
of a named hyperplane class are derived with the ring's own product.  The
family shipped here is the cohomology rings of smooth quadric hypersurfaces,
graded by codimension and built from one rule for both parities, but the
presentation machinery is generic: any finite graded basis with a
commutative, associative integer table will do.

Conventions for the quadric ring of dimension ``2m+1``::

    basis  1, L, ..., L^m, Pi, Pi*L, ..., Pi*L^m
    L^(m+1) = 2*Pi            (Pi is the class of a maximal linear space)
    point class = Pi*L^m      (integral of L^(2m+1) is 2)

and for dimension ``2m``::

    basis  1, L, ..., L^(m-1), Pi1, Pi2, Pi1*L, ..., Pi1*L^m
    L^m = Pi1 + Pi2,  Pi1*L = Pi2*L
    Pi1*Pi2 = point and Pi_i^2 = 0   if m is odd
    Pi_i^2 = point and Pi1*Pi2 = 0   if m is even
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Mapping, NamedTuple, Optional, Sequence

from ._text import signed_sum
from .errors import GradedRingError, _index, _typed


class InvalidDimensionError(GradedRingError):
    """Quadric dimension out of range."""


class IncompatibleRingError(GradedRingError):
    """Operands belong to different ring presentations."""


class IntegralityError(GradedRingError):
    """A class asserted to be integral has a non-integer coefficient."""


class BasisElement(NamedTuple("BasisElement", [("label", str), ("degree", int)])):
    """One named basis class; ``degree`` is codimension (half the topological degree). Validated on construction."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # the default skips __new__; _replace calls it

    def __new__(cls, label: str, degree: int):
        return super().__new__(cls, _typed(label, str, "basis label", GradedRingError),
                               _index(degree, "basis degree", GradedRingError))


def _exact(x) -> int | Fraction:
    """An exact rational coefficient: an int when integral, a Fraction otherwise; never a bool."""
    if type(x) is int:
        return x
    if type(x) is Fraction or isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int) and type(x) is not bool:
        return int(x)
    raise GradedRingError(f"coefficients must be exact integers or Fractions, got {type(x).__name__}")


class RingPresentation:
    """A finite graded commutative ring with explicit integer multiplication table.

    ``table`` maps pairs of non-unit basis labels, in either order, to integer
    linear combinations of basis labels.  It fills one two-sided table over
    all label pairs, ``_products``, together with the implied products: with
    the unit (which may not be listed) and beyond the top degree (empty, if
    listed).  That table is validated at every construction: completeness,
    gradedness, exact associativity (on the sorted triples that can fail, see
    ``_validate_table``) and uniqueness of the top class, which with
    gradedness makes every top-degree product a multiple of the point class.
    The powers of the degree-1 ``hyperplane_form`` are derived with the ring's
    own product.
    """

    def __init__(
        self,
        name: str,
        dimension: int,
        basis: Sequence[BasisElement],
        point_label: str,
        table: Mapping[tuple[str, str], Mapping[str, int]],
        hyperplane_form: Optional[Mapping[str, int | Fraction]] = None,
        fano_index: Optional[int] = None,
    ):
        self.name = _typed(name, str, "ring name", GradedRingError)
        self.dimension = dimension = _index(dimension, "ring dimension", GradedRingError)
        self.basis = tuple(_typed(b, BasisElement, "basis entry", GradedRingError)
                           for b in _typed(basis, (tuple, list), "basis", GradedRingError))
        self.point_label = point_label
        self.fano_index = None if fano_index is None else _index(fano_index, "fano index", GradedRingError)

        self._degrees = {b.label: b.degree for b in self.basis}
        if len(self._degrees) != len(self.basis):
            raise GradedRingError(f"duplicate basis labels in {name!r}")
        for b in self.basis:
            if not 0 <= b.degree <= dimension:
                raise GradedRingError(f"basis degree {b.degree} outside [0, {dimension}]")
        units = [b for b in self.basis if b.degree == 0]
        if len(units) != 1:
            raise GradedRingError("presentation needs exactly one degree-0 (unit) element")
        self.unit_label = units[0].label
        tops = [b for b in self.basis if b.degree == dimension]
        if len(tops) != 1 or tops[0].label != point_label:
            raise GradedRingError("exactly one top-degree basis element, the point class, is required")

        self._order = {b.label: i for i, b in enumerate(self.basis)}
        self.degree_labels: dict[int, tuple[str, ...]] = {}
        for b in self.basis:
            self.degree_labels.setdefault(b.degree, ())
            self.degree_labels[b.degree] += (b.label,)
        self._products: dict[tuple[str, str], dict[str, int]] = {}
        for pair, combo in _typed(table, Mapping, "multiplication table", GradedRingError).items():
            if type(pair) is not tuple or len(pair) != 2:
                raise GradedRingError(f"multiplication table of {name!r} has the key {pair!r}, not a pair of labels")
            x, y = pair
            if type(combo) is not dict:
                _typed(combo, Mapping, f"multiplication table entry {x!r} * {y!r}", GradedRingError)
            unknown = [z for z in (x, y, *combo) if z not in self._order]
            if unknown:
                raise GradedRingError(f"multiplication table of {name!r} names unknown label {unknown[0]!r}")
            if self.unit_label in (x, y):
                raise GradedRingError(
                    f"multiplication table of {name!r} lists {x!r} * {y!r}; products with the unit are implicit")
            product = {}
            for k, v in combo.items():
                c = _exact(v) if type(v) is not bool and isinstance(v, (int, Fraction)) else None
                if type(c) is not int:
                    raise GradedRingError(
                        f"multiplication table of {name!r} gives {x!r} * {y!r} the coefficient {v!r} "
                        f"on {k!r}, not an integer")
                if c:
                    product[k] = c
            # a pair already present was listed in the other order
            if self._products.setdefault((x, y), product) != product \
                    or self._products.setdefault((y, x), product) != product:
                raise GradedRingError(
                    f"multiplication table of {name!r} lists {y!r} * {x!r} and {x!r} * {y!r} "
                    "with different products")

        self._validate_table()

        self.hyperplane = self._l_powers = None
        if hyperplane_form is not None:
            _typed(hyperplane_form, Mapping, "hyperplane form", GradedRingError)
            self.hyperplane = GradedClass(self, 1, hyperplane_form)
            powers = [self.unit()]
            for _ in range(dimension):  # L^p, p = 0 .. dimension (beyond is zero)
                powers.append(powers[-1] * self.hyperplane)
            self._l_powers = tuple(power.coeffs for power in powers)

    def basis_product(self, x: str, y: str) -> dict[str, int]:
        """Product of two basis elements as an integer combination of basis labels."""
        try:
            return self._products[x, y]
        except (KeyError, TypeError):  # the table holds every pair of labels, so x or y is not one
            bad = y if isinstance(x, str) and x in self._degrees else x
            raise GradedRingError(f"unknown basis label {bad!r} on {self.name}") from None

    def _validate_table(self) -> None:
        """Complete ``_products`` with the implied entries and check it, on every construction.

        The completed table is commutative, so associativity on all ordered
        triples amounts to (xy)z = (yz)x = (xz)y on each sorted triple.  A triple with
        the unit holds trivially, and one past the top degree is zero on every
        side once gradedness holds, so only non-unit triples of total degree
        at most ``dimension`` are compared.
        """
        labels = [b.label for b in self.basis]
        products, degrees, unit = self._products, self._degrees, self.unit_label
        # completeness and gradedness
        for x in labels:
            for y in labels:
                d = degrees[x] + degrees[y]
                prod = products.get((x, y))
                if prod is None:
                    if d <= self.dimension and unit not in (x, y):
                        raise GradedRingError(f"multiplication table of {self.name!r} lacks {x!r} * {y!r}")
                    prod = products[x, y] = {y: 1} if x == unit else {x: 1} if y == unit else {}
                if d > self.dimension and prod:
                    raise GradedRingError(f"{x}*{y} exceeds top degree but is nonzero")
                for z in prod:
                    if degrees[z] != d:
                        raise GradedRingError(f"{x}*{y} is not graded: contains {z}")
        # associativity, exactly
        for x, y, z in combinations_with_replacement([b.label for b in self.basis if b.degree], 3):
            if degrees[x] + degrees[y] + degrees[z] > self.dimension:
                continue
            xyz = self._combo_times_label(products[x, y], z)
            if xyz != self._combo_times_label(products[y, z], x) \
                    or xyz != self._combo_times_label(products[x, z], y):
                raise GradedRingError(f"table not associative at ({x}, {y}, {z})")

    def add_product(self, out: dict[str, int | Fraction], p: Mapping[str, int | Fraction],
                    q: Mapping[str, int | Fraction]) -> None:
        """Add p * q into ``out``, for combinations p and q of basis labels: every class product runs
        through this one routine, which the associativity check at construction validates."""
        products = self._products
        for x, c in p.items():
            for y, e in q.items():
                ce = c * e
                for z, m in products[x, y].items():
                    out[z] = out.get(z, 0) + ce * m

    def _combo_times_label(self, combo: Mapping[str, int], z: str) -> dict[str, int]:
        out: dict[str, int] = {}
        self.add_product(out, combo, {z: 1})
        return {k: v for k, v in out.items() if v}

    # -- constructors for classes ------------------------------------------

    def zero(self, degree: int) -> "GradedClass":
        return GradedClass(self, degree, {})

    def unit(self) -> "GradedClass":
        return GradedClass(self, 0, {self.unit_label: 1})

    def basis_class(self, label: str) -> "GradedClass":
        try:
            degree = self._degrees[label]
        except (KeyError, TypeError):
            raise GradedRingError(f"unknown basis label {label!r} on {self.name}") from None
        return GradedClass(self, degree, {label: 1})

    def l_power(self, p: int) -> "GradedClass":
        """The class of L^p on the basis (zero beyond the top degree)."""
        if self._l_powers is None:
            raise GradedRingError(f"{self.name!r} carries no hyperplane-power data")
        p = _index(p, "hyperplane power", GradedRingError)
        if p < 0:
            raise GradedRingError("negative power of the hyperplane class")
        if p > self.dimension:
            return self.zero(p)
        return GradedClass(self, p, dict(self._l_powers[p]))

    def __repr__(self):
        return f"RingPresentation({self.name!r}, dim={self.dimension}, basis={len(self.basis)})"


class GradedClass:
    """A homogeneous class: exact rational coefficients over basis labels of one degree.

    Every label must be a basis label of ``degree``, a zero coefficient's too.
    Zeros are dropped; a nonzero coefficient is stored as an ``int`` when
    integral and as a ``Fraction`` otherwise (``Fraction(4, 2)`` as ``2``).
    """

    __slots__ = ("ring", "degree", "coeffs")

    def __init__(self, ring: RingPresentation, degree: int, coeffs: Mapping[str, int | Fraction]):
        if type(ring) is not RingPresentation:
            _typed(ring, RingPresentation, "ring", GradedRingError)
        if type(degree) is not int:
            degree = _index(degree, "degree", GradedRingError)
        if type(coeffs) is not dict:
            _typed(coeffs, Mapping, "coefficients", GradedRingError)
        self.ring = ring
        self.degree = degree
        degrees = ring._degrees
        clean: dict[str, int | Fraction] = {}
        for label, c in coeffs.items():
            if type(c) is not int:
                c = _exact(c)
            d = degrees.get(label)
            if d != degree:
                raise GradedRingError(f"unknown basis label {label!r} on {ring.name}" if d is None
                                      else f"coefficient key {label!r} has degree {d}, not {degree}")
            if c:
                clean[label] = c
        self.coeffs = clean

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, label: str) -> int | Fraction:
        return self.coeffs.get(label, 0)

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "GradedClass") -> None:
        if self.ring is not other.ring:
            raise IncompatibleRingError(
                f"classes live in different rings ({self.ring.name!r} vs {other.ring.name!r})"
            )

    def __add__(self, other: "GradedClass") -> "GradedClass":
        if type(other) is not GradedClass:
            return NotImplemented
        self._check_ring(other)
        if self.degree != other.degree:
            raise GradedRingError("cannot add classes of different degrees")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return GradedClass(self.ring, self.degree, out)

    def __sub__(self, other: "GradedClass") -> "GradedClass":
        return self + (-other) if type(other) is GradedClass else NotImplemented

    def __neg__(self) -> "GradedClass":
        return GradedClass(self.ring, self.degree, {k: -v for k, v in self.coeffs.items()})

    def scale(self, c) -> "GradedClass":
        c = _exact(c)
        return GradedClass(self.ring, self.degree, {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if type(other) is not GradedClass:
            return self.scale(other) if type(other) is not bool and isinstance(other, (int, Fraction)) \
                else NotImplemented
        self._check_ring(other)
        d = self.degree + other.degree
        out: dict[str, int | Fraction] = {}
        if d <= self.ring.dimension:
            self.ring.add_product(out, self.coeffs, other.coeffs)
        return GradedClass(self.ring, d, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self.ring is other.ring and self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ring), self.degree, frozenset(self.coeffs.items())))

    def sorted_items(self) -> list[tuple[str, int | Fraction]]:
        return sorted(self.coeffs.items(), key=lambda kv: self.ring._order[kv[0]])

    def __str__(self):
        unit = self.ring.unit_label
        return signed_sum((c, "" if label == unit else label) for label, c in self.sorted_items())

    def __repr__(self):
        return f"<{self} : deg {self.degree} on {self.ring.name}>"


class ChernVector(NamedTuple("ChernVector", [("rank", int), ("components", tuple[GradedClass, ...])])):
    """Total Chern data of a rank-r bundle: component i is a degree-i class. Validated on construction."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # the default skips __new__; _replace calls it

    def __new__(cls, rank: int, components: tuple[GradedClass, ...]):
        rank = _index(rank, "rank", GradedRingError)
        _typed(components, (tuple, list), "Chern vector components", GradedRingError)
        if not components:
            raise GradedRingError("a Chern vector needs at least one component")
        if len(components) != rank:
            raise GradedRingError("Chern vector length must equal the rank")
        for i, c in enumerate(components, start=1):
            if _typed(c, GradedClass, f"Chern vector component {i}", GradedRingError).ring is not components[0].ring:
                raise GradedRingError(f"Chern vector component {i} is on {c.ring.name}, not {components[0].ring.name}")
            if c.degree != i:
                raise GradedRingError(f"component {i} has degree {c.degree}")
        return super().__new__(cls, rank, tuple(components))

    @property
    def ring(self) -> RingPresentation:
        return self.components[0].ring

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


# ---------------------------------------------------------------------------
# quadric rings
# ---------------------------------------------------------------------------

def make_quadric_ring(dim: int) -> RingPresentation:
    """Cohomology ring of the smooth quadric of dimension ``dim`` (codimension grading).

    Every basis class is g*L^j, where g is the unit or a middle class of
    degree ``low`` (Pi, or Pi1 and Pi2), and ``times_l(g, k)`` writes g*L^k
    on the basis: L^low = 2*Pi or Pi1 + Pi2, Pi2*L = Pi1*L.  A product
    g*L^i * h*L^j is ``times_l(g*h, i + j)``, except Pi_a * Pi_b in even
    dimension, which follows the parity rule; the table lists only products
    up to the top degree, so ``times_l`` never leaves it.

    >>> q5 = make_quadric_ring(5)
    >>> str(q5.l_power(3))
    '2*Pi'
    >>> q6 = make_quadric_ring(6)
    >>> str(q6.basis_class("Pi1") * q6.basis_class("Pi2"))
    'Pi1*L^3'
    """
    dim = _index(dim, "quadric dimension", InvalidDimensionError)
    if dim < 2:
        raise InvalidDimensionError(f"quadric dimension must be >= 2, got {dim}")
    m, odd = divmod(dim, 2)
    low = m + odd
    middle = ("Pi",) if odd else ("Pi1", "Pi2")
    l_low = {"Pi": 2} if odd else {"Pi1": 1, "Pi2": 1}
    degree = {"1": 0, **dict.fromkeys(middle, low)}

    def label(g: str, j: int) -> str:
        if j == 0:
            return g
        power = "L" if j == 1 else f"L^{j}"
        return power if g == "1" else f"{g}*{power}"

    def times_l(g: str, k: int) -> dict[str, int]:
        if g == "1" and k >= low:  # L^k = L^low * L^(k - low)
            out: dict[str, int] = {}
            for h, c in l_low.items():
                for z, e in times_l(h, k - low).items():
                    out[z] = out.get(z, 0) + c * e
            return out
        if g == "Pi2" and k:
            g = "Pi1"
        return {label(g, k): 1}

    # the non-unit basis as (generator, power of L)
    classes = [("1", j) for j in range(1, low)] + [(g, 0) for g in middle]
    classes += [(middle[0], j) for j in range(1, dim - low + 1)]
    labels = [label(g, j) for g, j in classes]
    point = labels[-1]
    table: dict[tuple[str, str], dict[str, int]] = {}
    for a, (g, i) in enumerate(classes):
        for b in range(a, len(classes)):
            h, j = classes[b]
            if degree[g] + degree[h] + i + j > dim:
                continue
            if g == "1":
                table[labels[a], labels[b]] = times_l(h, i + j)
            else:  # Pi_i^2 = point and Pi1*Pi2 = 0 when m is even; the other way round when m is odd
                table[g, h] = {point: 1} if (g == h) == (m % 2 == 0) else {}
    basis = [BasisElement("1", 0)] + [BasisElement(x, degree[g] + j) for x, (g, j) in zip(labels, classes)]
    return RingPresentation(f"Q{dim}", dim, basis, point, table, hyperplane_form=times_l("1", 1), fano_index=dim)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def integrate(a: GradedClass) -> int | Fraction:
    """Coefficient of the point class in top degree, 0 in any other degree."""
    _typed(a, GradedClass, "integrate", GradedRingError)
    if a.degree != a.ring.dimension:
        return 0
    return a.coefficient(a.ring.point_label)


def chern_twist(c: ChernVector, t: int) -> ChernVector:
    """Chern data of E(t) = E tensor O(t): c_k' = sum_i C(r-i, k-i) t^(k-i) h^(k-i) c_i.

    >>> q5 = make_quadric_ring(5)
    >>> c = ChernVector(3, (q5.l_power(1) * 2, q5.l_power(2) * 2, q5.basis_class("Pi") * 2))
    >>> str(chern_twist(c, 1))
    '(5*L, 9*L^2, 12*Pi)'
    """
    _typed(c, ChernVector, "Chern vector", GradedRingError)
    ring, r, t = c.ring, c.rank, _index(t, "twist", GradedRingError)
    h_pow = [ring.l_power(p) for p in range(r + 1)]
    comps = [ring.unit()] + list(c.components)  # comps[i] = c_i, c_0 = 1
    out = []
    for k in range(1, r + 1):
        acc = ring.zero(k)
        for i in range(0, k + 1):
            acc = acc + comps[i] * h_pow[k - i] * (comb(r - i, k - i) * t ** (k - i))
        out.append(acc)
    return ChernVector(r, tuple(out))
