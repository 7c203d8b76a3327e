"""Cohomology of homogeneous bundles on quadrics.

The quadric of dimension n is homogeneous under the spin group whose root
system is B_((n+1)/2) for odd n and D_((n+2)/2) for even n.  An irreducible
bundle is labeled by its weight in epsilon-coordinates; its cohomology (at
most one nonzero group) is read off one list of pairings of lambda + rho with
the positive roots: a zero means none, the degree counts the negative ones
and the Weyl dimension is the product of their absolute values over rho's.
All of it runs on Python integers in doubled coordinates (2w, with rho
doubled too), so a half-integral weight is an odd integer vector and the
dimension is one exact division.  The root system and the doubled weight
dictionary of each quadric are built once; a twist by O(t) adds 2t to the
first doubled coordinate.  ``Fraction`` appears only in the public
signatures that take or return weights (``weight()`` validates its input);
``fractions`` is imported inside that boundary (``_doubled`` and
``_halved``), so the tables and pipelines that ``bwb`` runs never load it.
Every integer argument (a dimension, rank, twist, case or top degree, and the
degrees and entries of a table) follows the shared ``errors._index`` rule: an
int is taken as it is, and anything else, 4.0 and True included, is a ``BWBError``.

Bundles that are not irreducible (or not homogeneous under the full spin
group, like the Ottaviani and Cayley bundles on the five-dimensional
quadric) are handled through exact sequences: a conservative long-exact-
sequence solver fills in the unique table forced by exactness, and refuses
to guess otherwise.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence

from .errors import BWBError, UnsupportedBundleError, _index, _typed

if TYPE_CHECKING:
    from fractions import Fraction

    Weight = tuple[Fraction, ...]
CohomologyTable = dict[int, int]


class Underdetermined(BWBError):
    """Exactness alone does not force the requested table."""


class InconsistentSequenceError(BWBError):
    """Known tables cannot sit in an exact sequence."""


# ---------------------------------------------------------------------------
# root systems B_m / D_m in epsilon coordinates
# ---------------------------------------------------------------------------

class RootSystem(NamedTuple("RootSystem", [("family", str), ("rank", int)])):
    """The root system B_m or D_m (``family`` "B" or "D", ``rank`` m); validated on construction, a cache key below."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # the default skips __new__; _replace calls it

    def __new__(cls, family: str, rank: int):
        if family not in ("B", "D"):
            raise BWBError(f"family must be 'B' or 'D', got {family!r}")
        rank = _index(rank, "rank", BWBError)
        if rank < 2:
            raise BWBError("rank must be at least 2")
        return super().__new__(cls, family, rank)

    def positive_roots(self) -> list[tuple[int, ...]]:
        m = self.rank
        roots = []
        for i in range(m):
            for j in range(i + 1, m):
                for sj in (1, -1):
                    r = [0] * m
                    r[i], r[j] = 1, sj
                    roots.append(tuple(r))
        if self.family == "B":
            for i in range(m):
                r = [0] * m
                r[i] = 1
                roots.append(tuple(r))
        return roots

    def __str__(self):
        return f"{self.family}{self.rank}"


def _check_dimension(n: int) -> int:
    """``n`` as an int, one rule for every entry point: the engine covers quadrics of dimension 3 and up."""
    n = _index(n, "quadric dimension", BWBError)
    if n < 3:
        raise BWBError("quadric dimension must be at least 3 for the cohomology engine")
    return n


def quadric_root_system(n: int) -> RootSystem:
    """Root system of the symmetry group of the n-dimensional quadric."""
    n = _check_dimension(n)
    return RootSystem("B", (n + 1) // 2) if n % 2 else RootSystem("D", (n + 2) // 2)


def _doubled(coords: Sequence) -> tuple[int, ...]:
    """``2*w`` as ints for a weight ``w`` of int and Fraction coordinates, validated as ``weight()`` does."""
    from fractions import Fraction

    coords = _typed(coords, (tuple, list), "weight", BWBError)
    doubled = [2 * (c if type(c) is int else _typed(c, Fraction, "weight coordinate", BWBError)) for c in coords]
    if any(type(d) is not int and d.denominator != 1 for d in doubled):
        raise BWBError(f"coordinates must be integral or half-integral: {coords}")
    doubled = tuple(int(d) for d in doubled)
    if len({d % 2 for d in doubled}) > 1:
        raise BWBError(f"half-integrality must be uniform across coordinates: {coords}")
    return doubled


def _halved(doubled: Sequence[int]) -> Weight:
    from fractions import Fraction

    return tuple(Fraction(d, 2) for d in doubled)


def weight(coords: Sequence) -> Weight:
    """Validate and normalize an epsilon-coordinate weight.

    All coordinates must be integers or all half-odd-integers.
    """
    return _halved(_doubled(coords))


def _doubled_of_rank(rs: RootSystem, coords: Sequence) -> tuple[int, ...]:
    doubled = _doubled(coords)
    if len(doubled) != rs.rank:
        raise BWBError("weight rank mismatch")
    return doubled


@lru_cache(maxsize=32)
def _doubled_rho(rs: RootSystem) -> tuple[int, ...]:
    m = rs.rank
    if rs.family == "B":
        return tuple(2 * (m - i) - 1 for i in range(m))
    return tuple(2 * (m - 1 - i) for i in range(m))


def rho(rs: RootSystem) -> Weight:
    """Half-sum of the positive roots."""
    return _halved(_doubled_rho(_typed(rs, RootSystem, "root system", BWBError)))


def _pairings(rs: RootSystem, doubled: Sequence[int]) -> list[int]:
    """Pairings of a doubled weight with the positive roots, in ``positive_roots()`` order.

    Read off the coordinates (s_i + s_j, s_i - s_j, then s_i), so no root is built.
    """
    out: list[int] = []
    for i, a in enumerate(doubled):
        for b in doubled[i + 1:]:
            out += (a + b, a - b)
    if rs.family == "B":
        out += doubled
    return out


@lru_cache(maxsize=32)
def _rho_pairings(rs: RootSystem) -> tuple[int, ...]:
    """``_pairings`` of doubled rho: the Weyl dimension's denominator factors."""
    return tuple(_pairings(rs, _doubled_rho(rs)))


def _regular_pairings(rs: RootSystem, doubled: Sequence[int]) -> Optional[tuple[list[int], int]]:
    """``_pairings`` of a doubled weight and the number of negative ones; None for a singular weight."""
    pairs = _pairings(rs, doubled)
    return None if 0 in pairs else (pairs, sum(v < 0 for v in pairs))


def dominant_conjugate(rs: RootSystem, w: Weight) -> Optional[tuple[Weight, int]]:
    """Dominant Weyl conjugate of a rho-shifted weight, with the word length.

    Returns None when the weight is singular (fixed by some reflection); the
    length is the number of positive roots made negative, i.e. the
    cohomological degree in the dominance algorithm.
    """
    doubled = _doubled_of_rank(_typed(rs, RootSystem, "root system", BWBError), w)
    res = _regular_pairings(rs, doubled)
    if res is None:
        return None
    ab = sorted(map(abs, doubled), reverse=True)
    if rs.family == "D" and sum(c < 0 for c in doubled) % 2:
        ab[-1] = -ab[-1]
    return _halved(ab), res[1]


# ---------------------------------------------------------------------------
# the weight dictionary
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _quadric(n: int) -> tuple[RootSystem, dict[str, tuple[tuple[int, ...], ...]]]:
    """Root system and doubled irreducible summands of every named bundle on the n-quadric, built once per n.

    The spinor-bundle normalization has the dual spinor bundle globally
    generated with space of sections the spin representation.  On the
    five-dimensional quadric the second symmetric and exterior powers are
    included; the exterior square is NOT irreducible (its fiber splits off a
    trivial summand under the symplectic form of the small spin
    representation), which the dictionary records as a two-term sum.
    """
    m = n // 2 + 1  # quadric_root_system(n).rank
    half = (1,) * (m - 1)
    if n % 2 == 0:
        return quadric_root_system(n), {
            "O": ((0,) * m,), "Splus": ((-1,) + half,), "Sminus": ((-1,) + half[1:] + (-1,),),
            "Splusdual": (half + (1,),), "Sminusdual": (half + (-1,),)}
    names = {"O": ((0,) * m,), "S": ((-1,) + half,), "Sdual": (half + (1,),)}
    if n == 5:
        names.update(Sym2S=((-2, 2, 2),), Sym2Sdual=((2, 2, 2),),
                     Wedge2S=((-2, 2, 0), (-2, 0, 0)), Wedge2Sdual=((2, 2, 0), (2, 0, 0)))
    return quadric_root_system(n), names


def dictionary_names(n: int) -> tuple[str, ...]:
    return tuple(_quadric(_check_dimension(n))[1])


def _summands(n: int, name: str) -> tuple[RootSystem, tuple[tuple[int, ...], ...]]:
    n = _check_dimension(n)
    rs, names = _quadric(n)
    summands = names.get(_typed(name, str, "bundle name", UnsupportedBundleError))
    if summands is None:
        raise UnsupportedBundleError(f"no weight dictionary entry for {name!r} on Q{n}")
    return rs, summands


def bundle_weights(n: int, name: str) -> tuple[Weight, ...]:
    """Irreducible summands (as weights) of a named bundle on the n-quadric."""
    return tuple(_halved(w) for w in _summands(n, name)[1])


def _irreducible_table(rs: RootSystem, doubled: Sequence[int]) -> CohomologyTable:
    """Table of the irreducible bundle with a doubled weight: empty or one entry.  The Weyl group permutes the roots
    up to sign, so the absolute pairings of lambda + rho are its dominant conjugate's; equal factors cancel."""
    res = _regular_pairings(rs, [a + b for a, b in zip(doubled, _doubled_rho(rs))])
    if res is None:
        return {}
    pairs, length = res
    num = den = 1
    for a, b in zip(map(abs, pairs), _rho_pairings(rs)):
        if a != b:
            num *= a
            den *= b
    dim, rem = divmod(num, den)
    if rem or dim <= 0:
        raise BWBError(f"internal error: the Weyl dimension of {tuple(doubled)} (doubled) is not a positive integer")
    return {length: dim}


def bundle_cohomology_of_weight(n: int, lam: Weight) -> CohomologyTable:
    """Table of the irreducible bundle with the given weight: empty or one entry."""
    rs = quadric_root_system(n)
    return _irreducible_table(rs, _doubled_of_rank(rs, lam))


def bundle_cohomology(n: int, name: str, t: int = 0) -> CohomologyTable:
    """Cohomology table of a dictionary bundle twisted by O(t) on the n-quadric.

    Empty table means acyclic; irreducible inputs give at most one entry.

    >>> bundle_cohomology(5, "Sdual", 1)
    {0: 48}
    """
    rs, summands = _summands(n, name)
    t = _index(t, "twist", BWBError)
    tables = [_irreducible_table(rs, (w[0] + 2 * t,) + w[1:]) for w in summands]
    return tables[0] if len(tables) == 1 else add_tables(*tables)  # one table is fresh: {} or {length: dim > 0}


def euler_characteristic(table: Mapping[int, int]) -> int:
    """The alternating sum of a cohomology table; a degree that is negative or not an integer, or an entry
    that is not an integer, is a ``BWBError``."""
    chi = 0
    for k, d in _typed(table, Mapping, "cohomology table", BWBError).items():
        k = _index(k, "cohomology degree", BWBError)
        if k < 0:
            raise BWBError(f"cohomology degree {k} is negative")
        chi += (-1) ** k * _index(d, "cohomology table entry", BWBError)
    return chi


# ---------------------------------------------------------------------------
# long exact sequence solver
# ---------------------------------------------------------------------------

class SequenceSpec(NamedTuple):
    """A short exact sequence of bundles with tables known for a subset of terms.

    ``tables`` holds one cohomology table per term, ``None`` marking the
    unknown; ``top_degree`` is the dimension of the underlying variety.
    """

    names: tuple[str, str, str]
    tables: tuple[Optional[CohomologyTable], Optional[CohomologyTable], Optional[CohomologyTable]]
    top_degree: int


def les_solve(seq: SequenceSpec) -> CohomologyTable:
    """The unique table forced on the unknown term by the long exact sequence.

    Only what exactness of dimensions implies is used: every maximal run of
    the long exact sequence between known zeros must have alternating sum
    zero.  A run with one unknown entry determines it; two or more raise
    Underdetermined; a negative forced dimension or a nonzero alternating
    sum of knowns raises InconsistentSequenceError.  With all three tables
    known the sequence is checked and the middle table returned, its entries
    as ints.  A table degree outside 0..top_degree raises BWBError, and so
    does a ``seq`` that is not a ``SequenceSpec`` of three names and three
    tables, each a mapping or None.
    """
    if type(seq) is not SequenceSpec:
        _typed(seq, SequenceSpec, "sequence", BWBError)
    names = _typed(seq.names, (tuple, list), "sequence names", BWBError)
    tables = _typed(seq.tables, (tuple, list), "sequence tables", BWBError)
    if len(names) != 3 or len(tables) != 3:
        raise BWBError(f"a short exact sequence has 3 terms, got {len(names)} names and {len(tables)} tables")
    missing = [i for i, t in enumerate(seq.tables) if t is None]
    if len(missing) > 1:
        raise Underdetermined(f"{len(missing)} unknown terms in {seq.names}")

    top = _index(seq.top_degree, "top degree", BWBError)
    for name, t in zip(names, tables):
        if t is not None and type(t) is not dict:
            _typed(t, Mapping, f"cohomology table of {name}", BWBError)
        for k in t or ():
            if k not in range(top + 1):
                raise BWBError(f"cohomology degree {k!r} of {name} is outside 0..{top}")
    entries = [None if t is None else _index(t.get(k, 0), "cohomology table entry", BWBError)
               for k in range(top + 1) for t in seq.tables]
    table: CohomologyTable = {}
    total, unknowns = 0, []
    # each zero closes a run; the sentinel zero closes the last one
    for i, v in enumerate(entries + [0]):
        if v is None:
            unknowns.append(i)
        elif v != 0:
            total += (-1) ** i * v
        else:
            if not unknowns and total != 0:
                raise InconsistentSequenceError(
                    f"alternating sum {total} != 0 in a zero-flanked run of {seq.names}")
            if len(unknowns) > 1:
                raise Underdetermined(
                    f"{len(unknowns)} unknown dimensions in one zero-flanked run of {seq.names}")
            if unknowns:
                value = -total if unknowns[0] % 2 == 0 else total
                if value < 0:
                    raise InconsistentSequenceError(f"forced negative dimension in {seq.names}")
                if value:
                    table[unknowns[0] // 3] = value
            total, unknowns = 0, []
    return table if missing else {k: v for k, v in enumerate(entries[1::3]) if v}


def add_tables(*tables: Mapping[int, int]) -> CohomologyTable:
    out: CohomologyTable = {}
    for t in tables:
        for k, v in t.items():
            out[k] = out.get(k, 0) + v
    return {k: out[k] for k in sorted(out) if out[k]}


# ---------------------------------------------------------------------------
# the Ottaviani / Cayley bundle pipelines on the five-dimensional quadric
# ---------------------------------------------------------------------------

_DIM_Q5 = 5

# Classical vanishing inputs for twists of the rank-2 Cayley bundle: these
# are not forced by exactness of the defining sequences alone, so they enter
# as known tables (the bundle is homogeneous only under the exceptional
# subgroup, outside this engine's root systems).
CAYLEY_KNOWN: dict[int, CohomologyTable] = {1: {}, -1: {}, -3: {}}


def _seq(names, tables, top=_DIM_Q5) -> SequenceSpec:
    return SequenceSpec(tuple(names), tuple(tables), top)


def ottaviani_table(t: int) -> CohomologyTable:
    """Cohomology of the twisted Ottaviani bundle via 0 -> O(t) -> Sdual(t) -> G(t) -> 0."""
    t = _index(t, "twist", BWBError)
    return les_solve(_seq(
        (f"O({t})", f"Sdual({t})", f"G({t})"),
        (bundle_cohomology(5, "O", t), bundle_cohomology(5, "Sdual", t), None),
    ))


def ottaviani_dual_table(t: int) -> CohomologyTable:
    """Cohomology of Gdual(t) via the dualized sequence 0 -> Gdual(t) -> S(t) -> O(t) -> 0.

    Where exactness of that sequence leaves the table unforced, the dualized
    Cayley sequence 0 -> O(t-1) -> Gdual(t) -> C(t) -> 0 is tried instead.
    """
    t = _index(t, "twist", BWBError)
    try:
        return les_solve(_seq(
            (f"Gdual({t})", f"S({t})", f"O({t})"),
            (None, bundle_cohomology(5, "S", t), bundle_cohomology(5, "O", t)),
        ))
    except Underdetermined:
        return les_solve(_seq(
            (f"O({t - 1})", f"Gdual({t})", f"C({t})"),
            (bundle_cohomology(5, "O", t - 1), None, cayley_table(t)),
        ))


def cayley_table(t: int) -> CohomologyTable:
    """Cohomology of the twisted Cayley bundle, cited where exactness cannot force it."""
    t = _index(t, "twist", BWBError)
    if t in CAYLEY_KNOWN:
        return dict(CAYLEY_KNOWN[t])
    return les_solve(_seq(
        (f"C({t})", f"G({t - 1})", f"O({t})"),
        (None, ottaviani_table(t - 1), bundle_cohomology(5, "O", t)),
    ))


def named_bundle_table(n: int, name: str, t: int = 0) -> CohomologyTable:
    """Table for a dictionary bundle or one of the sequence-resolved bundles."""
    t = _index(t, "twist", BWBError)
    if name in dictionary_names(n):
        return bundle_cohomology(n, name, t)
    if n == _DIM_Q5:
        if name == "G":
            return ottaviani_table(t)
        if name == "Gdual":
            return ottaviani_dual_table(t)
        if name == "C":
            return cayley_table(t)
        if name == "Cdual":
            return cayley_table(t + 1)
    raise UnsupportedBundleError(f"unsupported bundle descriptor {name!r} on Q{n}")


def _sdual_tensor_g_table() -> CohomologyTable:
    """Sdual (x) G(-3) via 0 -> Sdual(-3) -> Sdual (x) Sdual(-3) -> Sdual (x) G(-3) -> 0.

    The middle term splits as Wedge2Sdual(-3) + Sym2Sdual(-3).
    """
    middle = add_tables(
        bundle_cohomology(5, "Wedge2Sdual", -3), bundle_cohomology(5, "Sym2Sdual", -3)
    )
    return les_solve(_seq(
        ("Sdual(-3)", "Sdual*Sdual(-3)", "Sdual*G(-3)"),
        (bundle_cohomology(5, "Sdual", -3), middle, None),
    ))


def vanishing_case(case: int) -> CohomologyTable:
    """The three scripted vanishing computations on the five-dimensional quadric.

    Case 1: Gdual(1); case 2: G (x) G~(-3); case 3: Cdual (x) C(-2).  Each
    runs the exact chain of short exact sequences used to establish the
    corresponding vanishing, with the conservative solver at every step.
    """
    case = _index(case, "case", BWBError)
    if case == 1:
        # dualize the Cayley sequence and twist: 0 -> O -> Gdual(1) -> C(1) -> 0
        return les_solve(_seq(
            ("O", "Gdual(1)", "C(1)"),
            (bundle_cohomology(5, "O", 0), None, cayley_table(1)),
        ))
    if case == 2:
        sdual_g = _sdual_tensor_g_table()
        # 0 -> G~(-3) -> Sdual (x) G~(-3) -> G (x) G~(-3) -> 0
        return les_solve(_seq(
            ("G(-3)", "Sdual*G(-3)", "G*G(-3)"),
            (ottaviani_table(-3), sdual_g, None),
        ))
    if case == 3:
        # S (x) G(-2) = Sdual (x) G(-3); then 0 -> Gdual (x) G(-2) -> S (x) G(-2) -> G(-2) -> 0
        gdual_g = les_solve(_seq(
            ("Gdual*G(-2)", "S*G(-2)", "G(-2)"),
            (None, _sdual_tensor_g_table(), ottaviani_table(-2)),
        ))
        # 0 -> G(-3) -> Gdual (x) G(-2) -> Cdual (x) G(-3) -> 0
        cdual_g = les_solve(_seq(
            ("G(-3)", "Gdual*G(-2)", "Cdual*G(-3)"),
            (ottaviani_table(-3), gdual_g, None),
        ))
        # 0 -> Cdual (x) C(-2) -> Cdual (x) G(-3) -> Cdual(-2) -> 0, Cdual(-2) = C(-1)
        return les_solve(_seq(
            ("Cdual*C(-2)", "Cdual*G(-3)", "Cdual(-2)"),
            (None, cdual_g, cayley_table(-1)),
        ))
    raise BWBError(f"case must be 1, 2 or 3, got {case!r}")


def ideal_section_table() -> CohomologyTable:
    """Cohomology of the twisted ideal sheaf of the degree-12 surface in the quadric.

    Resolved by 0 -> O(-3) -> G(-2) -> Gdual(1) -> I(2) -> 0, split at the
    cokernel K of the first map.
    """
    k_table = les_solve(_seq(
        ("O(-3)", "G(-2)", "K"),
        (bundle_cohomology(5, "O", -3), ottaviani_table(-2), None),
    ))
    return les_solve(_seq(
        ("K", "Gdual(1)", "I(2)"),
        (k_table, vanishing_case(1), None),
    ))
