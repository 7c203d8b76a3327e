"""Polynomial arithmetic in a fragment of the Grothendieck ring of varieties.

The fragment is the free commutative ring on six formal symbols: the class
``L`` of the affine line and the classes of the two surfaces, two bases and
the hyperplane section of a roof.  Polynomials are kept in canonical form,
nonzero ``int`` coefficients on tuples of non-negative ``int`` exponents, so
equality is coefficient-wise.  Every integer input (an exponent, coefficient,
power, rank or projective dimension) follows the ``errors._index`` rule, so
4.0 and True raise ``ValueError`` instead of being converted.  The public
constructor (and so ``var`` and ``const``) checks once; the ring operations
wrap their canonical results unchecked.  Projective-space classes are
written in closed form, and powers are taken by repeated squaring from the
lowest set bit of the exponent, so no unit is multiplied in.  One
accumulator adds c*x^a times a polynomial into a dict in one pass, dropping
zeros, for sums (no negated copy), products after their first term and
substitutions.  The fibration class and the residual are single passes that
drop each term as it cancels: over the fibre, adding [P^(r-2)]*([B] - [Y])
into the closed form of [P^(r-1)]*[Y], and over the section, subtracting its
image under {Y -> Y~, B -> B~}, which only moves exponents.  Shifts and
relabelings write the six exponents out, so a monomial of any other length
fails at the unpacking.  ``str`` sorts the terms once, building the text of
the symbols other than L once per distinct part.

The point of the module is the piecewise-fibration bookkeeping: the two
projective-bundle descriptions of the hyperplane-section class cancel to an
identity annihilating the surface-class difference against a power of L,
checked here as an exact polynomial identity for each concrete rank.
"""

from __future__ import annotations

from itertools import repeat
from math import prod
from operator import itemgetter, sub
from types import MappingProxyType
from typing import Iterable, Mapping

from ._text import signed_sum
from .errors import _index, _typed

SYMBOLS = ("L", "Y", "Yt", "B", "Bt", "M")
_INDEX = {s: i for i, s in enumerate(SYMBOLS)}
_NO_TERMS: Mapping[tuple[int, ...], int] = MappingProxyType({})
_UNIT = (0,) * len(SYMBOLS)  # the monomial 1


def _symbol(name: str) -> int:
    """Position of ``name`` in SYMBOLS; ValueError for an unknown symbol."""
    if _typed(name, str, "symbol", ValueError) not in _INDEX:
        raise ValueError(f"unknown symbol {name!r}; choose from {SYMBOLS}")
    return _INDEX[name]


def _accumulate(out: dict, c: int, a: tuple[int, ...], terms: Iterable[tuple[tuple[int, ...], int]]) -> dict:
    """Add c*x^a times the (monomial, coefficient) ``terms`` into ``out``, dropping zeros; return ``out``."""
    a0, a1, a2, a3, a4, a5 = a
    for (b0, b1, b2, b3, b4, b5), k in terms:
        m = (b0 + a0, b1 + a1, b2 + a2, b3 + a3, b4 + a4, b5 + a5)
        v = out.get(m, 0) + c * k
        if v:
            out[m] = v
        else:
            del out[m]
    return out


class MotivicPoly:
    """Multivariate integer polynomial in the fixed symbol set, canonical form.

    ``coeffs`` maps exponent tuples, one exponent per symbol, to coefficients.
    Coefficients and exponents must be integers; anything else, and a
    ``coeffs`` that is not a mapping, raises ValueError rather than being
    converted.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, ...], int] = _NO_TERMS):
        clean: dict[tuple[int, ...], int] = {}
        for mono, c in _typed(coeffs, Mapping, "coefficients", ValueError).items():
            if not isinstance(mono, tuple) or len(mono) != len(SYMBOLS):
                raise ValueError(f"bad monomial {mono}")
            if type(mono) is not tuple or set(map(type, mono)) != {int}:
                mono = tuple(_index(e, "exponent", ValueError) for e in mono)
            if min(mono) < 0:
                raise ValueError(f"bad monomial {mono}")
            c = _index(c, "coefficient", ValueError)
            if c:
                clean[mono] = c
        self.coeffs = clean

    @classmethod
    def _of(cls, clean: dict[tuple[int, ...], int]) -> "MotivicPoly":
        """Wrap a dict already in canonical form, without checking it again."""
        p = cls.__new__(cls)
        p.coeffs = clean
        return p

    # -- constructors --------------------------------------------------------

    @classmethod
    def var(cls, name: str) -> "MotivicPoly":
        k = _symbol(name)
        return cls({tuple(int(i == k) for i in range(len(SYMBOLS))): 1})

    @classmethod
    def const(cls, c: int) -> "MotivicPoly":
        return cls({(0,) * len(SYMBOLS): c})

    # -- ring structure -------------------------------------------------------

    def _coerce(self, other, what: str = "") -> "MotivicPoly":
        """``other`` as a polynomial; else NotImplemented, or a ValueError about ``what`` if it is given."""
        if isinstance(other, MotivicPoly):
            return other
        if isinstance(other, int) and type(other) is not bool:
            return MotivicPoly.const(other)
        if what:
            raise ValueError(f"{what}: expected a MotivicPoly or int, got {type(other).__name__}")
        return NotImplemented

    def _plus(self, other, sign: int):
        """``self + sign * other`` in one pass over ``other``'s terms."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MotivicPoly._of(_accumulate(dict(self.coeffs), sign, _UNIT, other.coeffs.items()))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MotivicPoly._of({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __mul__(self, other):
        """One pass over each term pair; a factor of one term c*x^a shifts the other's terms."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        small, big = sorted((self.coeffs, other.coeffs), key=len)
        if not small:
            return MotivicPoly._of({})
        ((a0, a1, a2, a3, a4, a5), c1), *rest = small.items()
        # distinct terms shifted by one monomial stay distinct, and c1 * c2 != 0
        out = {(b0 + a0, b1 + a1, b2 + a2, b3 + a3, b4 + a4, b5 + a5): c1 * c2
               for (b0, b1, b2, b3, b4, b5), c2 in big.items()}
        for a, c1 in rest:
            _accumulate(out, c1, a, big.items())
        return MotivicPoly._of(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        """Square-and-multiply power; the lowest set bit of ``e`` starts the product, so no unit is multiplied."""
        e = _index(e, "exponent", ValueError)
        if e < 0:
            raise ValueError("negative powers are not in the ring")
        if not e:
            return MotivicPoly._of({_UNIT: 1})
        out, base = None, self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.coeffs.keys() <= {_UNIT}:  # a constant equals its int, so it hashes as that int
            return hash(self.coeffs.get(_UNIT, 0))
        return hash(frozenset(self.coeffs.items()))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def substitute(self, assignments: Mapping[str, "MotivicPoly | int"]) -> "MotivicPoly":
        """Ring homomorphism sending each named symbol to the given polynomial or int.

        Any other image, True included, and assignments that are not a
        mapping raise ValueError.  The images are simultaneous, so
        ``{"Y": Y_TILDE, "Yt": Y}`` swaps the two symbols: every exponent is
        read from the original monomial.  The product of the images' powers is
        built once per group of terms with equal exponents on the assigned
        symbols, as shifts that also clear those exponents, and each of its
        terms shifts the whole group in one pass.
        """
        assigned = sorted((_symbol(s), self._coerce(image, f"image of {s}"))
                          for s, image in _typed(assignments, Mapping, "substitute assignments", ValueError).items())
        positions = [i for i, _ in assigned]
        exponents_of = itemgetter(*positions) if positions else lambda mono: ()
        groups: dict = {}  # exponents on the assigned symbols -> [(monomial, coefficient), ...]
        for term in self.coeffs.items():
            groups.setdefault(exponents_of(term[0]), []).append(term)
        out: dict = {}
        for group in groups.values():
            mono = group[0][0]
            cleared = [mono[i] if i in positions else 0 for i in range(len(SYMBOLS))]
            first, *rest = [img ** mono[i] for i, img in assigned if mono[i]] or [_ONE]
            for m, k in prod(rest, start=first).coeffs.items():
                _accumulate(out, k, tuple(map(sub, m, cleared)), group)
        return MotivicPoly._of(out)

    def _by_degree(self) -> list[tuple[int, tuple[int, ...], int]]:
        """(total degree, exponents, coefficient) of each term, in the order ``str`` prints them."""
        co = self.coeffs
        # the exponent tuples are distinct, so two coefficients are never compared
        return sorted(zip(map(sum, co), co, co.values()))

    def __str__(self):
        """Each term is rendered once, as its power of L (``SYMBOLS[0]``) and the text of the rest."""
        rest_text: dict[tuple[int, ...], str] = {}  # (0, 2, 0, 1, 0) -> "*Y^2*B", built once per call
        terms = []
        for _, mono, c in self._by_degree():
            e, rest = mono[0], mono[1:]
            text = rest_text.get(rest)
            if text is None:
                text = rest_text[rest] = "".join(
                    f"*{s}" if x == 1 else f"*{s}^{x}" for s, x in zip(SYMBOLS[1:], rest) if x)
            terms.append((c, text[1:] if not e else f"L{text}" if e == 1 else f"L^{e}{text}"))
        return signed_sum(terms)

    def __repr__(self):
        return f"MotivicPoly({self})"


_ONE = MotivicPoly.const(1)
L = MotivicPoly.var("L")
Y = MotivicPoly.var("Y")
Y_TILDE = MotivicPoly.var("Yt")
B = MotivicPoly.var("B")
B_TILDE = MotivicPoly.var("Bt")


class InvalidRankError(ValueError):
    """Fibration rank below 2."""


def proj_class(k: int) -> MotivicPoly:
    """Class of projective k-space: 1 + L + ... + L^k.

    >>> str(proj_class(2))
    '1 + L + L^2'
    """
    k = _index(k, "projective space dimension", ValueError)
    if k < 0:
        raise ValueError("projective space dimension must be nonnegative")
    return MotivicPoly._of(dict.fromkeys(zip(range(k + 1), *[repeat(0)] * (len(SYMBOLS) - 1)), 1))


def fibration_class(r: int) -> MotivicPoly:
    """Class of the hyperplane section of a rank-r roof side, expanded.

    The fibers jump from P^(r-2) to P^(r-1) exactly over the surface:
    [M] = [P^(r-1)][Y] + [P^(r-2)]([B] - [Y]).
    """
    r = _index(r, "rank", ValueError)
    if r < 2:
        raise InvalidRankError(f"rank must be at least 2, got {r}")
    # [P^(r-1)][Y] in closed form: L^i*Y for i < r, exponents in SYMBOLS order (L, Y, Yt, B, Bt, M)
    out = dict.fromkeys(zip(range(r), repeat(1), repeat(0), repeat(0), repeat(0), repeat(0)), 1)
    # [P^(r-2)]([B] - [Y]) in one pass over the fibre: add L^i*B and subtract L^i*Y, dropping each L^i*Y at zero
    for i in range(r - 1):
        b, y = (i, 0, 0, 1, 0, 0), (i, 1, 0, 0, 0, 0)
        out[b] = out.get(b, 0) + 1
        v = out.get(y, 0) - 1
        if v:
            out[y] = v
        else:
            del out[y]
    return MotivicPoly._of(out)


def l_equivalence_residual(r: int) -> MotivicPoly:
    """Difference of the two fibration descriptions of the section class.

    Identically ([Y] - [Y~]) * L^(r-1) + [P^(r-2)] * ([B] - [B~]); whenever
    the two bases have equal class, the surface-class difference is
    annihilated by L^(r-1).  The section's image under {Y -> Y~, B -> B~} only
    moves exponents, so one pass subtracts it from a copy of the section.
    """
    section = fibration_class(r)
    out = dict(section.coeffs)
    for (e0, e1, e2, e3, e4, e5), c in section.coeffs.items():
        m = (e0, 0, e2 + e1, 0, e4 + e3, e5)
        v = out.get(m, 0) - c
        if v:
            out[m] = v
        else:
            del out[m]
    return MotivicPoly._of(out)


def residual_closed_form(r: int) -> MotivicPoly:
    """The value ``l_equivalence_residual(r)`` must take, written term by term.

    ([Y] - [Y~]) * L^(r-1) + (1 + L + ... + L^(r-2)) * ([B] - [B~]) has 2r
    monomials with coefficients +-1, so no ring arithmetic is needed.

    >>> residual_closed_form(3) == l_equivalence_residual(3)
    True
    """
    r = _index(r, "rank", ValueError)
    if r < 2:
        raise InvalidRankError(f"rank must be at least 2, got {r}")
    # exponents in SYMBOLS order: L, Y, Yt, B, Bt, M
    coeffs = {(r - 1, 1, 0, 0, 0, 0): 1, (r - 1, 0, 1, 0, 0, 0): -1}
    for i in range(r - 1):
        coeffs[(i, 0, 0, 1, 0, 0)] = 1
        coeffs[(i, 0, 0, 0, 1, 0)] = -1
    return MotivicPoly._of(coeffs)
