"""Integer-lattice algorithms over arbitrary-precision integers.

Smith normal form with unimodular transforms, discriminant groups of
nondegenerate symmetric forms, saturated orthogonal kernels, and
hyperbolic-type isotropic pairs in rank 3 read off in closed form from the
binary form on the polarization's orthogonal plane.

Determinants and the one exact linear solve (``_solve_rational`` and its
integral form ``_solve_integral``, which ``roofcalc``'s side switch and Mukai
pipeline use) run on one fraction-free Bareiss elimination over the
integers; rational systems have their denominators cleared per row first.
``det`` runs it forward only, updating just the rows below each pivot; the
solve runs the full Gauss-Jordan pass.  Smith normal form runs its
elimination on one bordered matrix that carries both transforms; a
row-Hermite pass first bounds M, and with it U and V.  Discriminant-group
generators are read off M * V * D^-1 (column i of U^-1 is M * V[:, i] / d_i),
so no inverse of U is formed.

Matrices are sequences (lists or tuples) of rows of Python ints; a function
that eliminates in place copies its input first.  ``det`` and
``smith_normal_form`` check their input in that copy: a ragged matrix, a
non-square one given to ``det`` and an entry that is not an integer are each
a ``LatticeError``, never truncated.  ``mat_mul`` and ``mat_vec`` refuse
operands whose shapes do not match, reading row lengths only;
``discriminant_group`` and ``orthogonal_kernel`` refuse a non-square Gram
matrix (``orthogonal_kernel`` reads it and the sublattice as ints), and
``isotropic_pair_solve`` a polarization, bound or Gram entry that is not an
integer (the bound through the shared ``errors._index`` rule, the
polarization a list or tuple through ``errors._typed``) and checks its own
answer before returning it.  Everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import index, mul
from typing import NamedTuple, Optional, Sequence

from .errors import LatticeError, _index, _typed

Matrix = list[list[int]]
Vector = tuple[int, ...]


class DegenerateLatticeError(LatticeError):
    """The Gram matrix is singular where a nondegenerate form is required."""


class SearchExhaustedError(LatticeError):
    """No solution inside the requested coordinate box."""


class InconsistencyError(LatticeError):
    """A result asserted to lie in an integer span does not."""


# ---------------------------------------------------------------------------
# basic exact matrix helpers
# ---------------------------------------------------------------------------

def _shape(m: Sequence[Sequence[int]]) -> str:
    """``rows x columns``, every distinct row length listed for a ragged matrix."""
    return f"{len(m)}x{'/'.join(map(str, sorted({len(row) for row in m}))) or 0}"


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """``a * b``; a row of ``a`` that is not as long as ``b`` is tall, or a ragged ``b``, is a ``LatticeError``.

    The check reads row lengths only, since ``SmithDecomposition.verify`` multiplies twice per decomposition.
    """
    cols = list(zip(*b))
    if any(len(row) != len(b) for row in a) or any(len(row) != len(cols) for row in b):
        raise LatticeError(f"cannot multiply a {_shape(a)} matrix by a {_shape(b)} matrix")
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    """``a * v``; a row of ``a`` that is not as long as ``v`` is a ``LatticeError``."""
    if any(len(row) != len(v) for row in a):
        raise LatticeError(f"cannot multiply a {_shape(a)} matrix by a vector of length {len(v)}")
    return [sum(map(mul, row, v)) for row in a]


def _bareiss(a: Matrix, ncols: int, jordan: bool = True) -> tuple[list[int], int, int]:
    """Fraction-free elimination of the first ``ncols`` columns, in place.

    One-step Bareiss (1968): every update is divided exactly by the previous
    pivot, so every entry stays an integer (a minor of the input).  The pivot
    of a column is its first nonzero entry at or below the current row;
    columns without one are skipped.  Returns ``(pivots, d, sign)``: the pivot
    columns, the last pivot ``d`` and the sign of the row permutation.  For a
    square ``a`` with ``ncols`` pivots, ``sign * d`` is its determinant.

    With ``jordan`` (Gauss-Jordan) every other row is updated, so on return
    the pivot rows come first and are ``d`` times the reduced row echelon
    form; the other rows are zero in the first ``ncols`` columns.  Without
    it only the rows below each pivot are updated: the rows at and below the
    current one, hence the pivots, ``d`` and the sign, are the same, and the
    rows above are left as they were when they became pivot rows.
    """
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[c]
        for i in range(0 if jordan else r + 1, len(a)):
            if i != r:
                row = a[i]
                f = row[c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
    return pivots, prev, sign


def _int_rows(m: Sequence[Sequence[int]], width: Optional[int], what: str = "matrix", square: str = "") -> Matrix:
    """A copy of ``m`` as lists of ints; a row that is not a sequence or a non-integer entry is a
    ``LatticeError``, and so is a row that is not ``width`` long, unless ``width`` is None.  A caller
    that needs a square matrix passes its name as ``square``: rows of one length other than ``width``
    are then refused by the matrix's shape, and only a ragged matrix by its row lengths."""
    try:  # operator.index copies ints (and bools) exactly and refuses floats, Fractions and strings
        a = [list(map(index, row)) for row in m]
    except TypeError as exc:
        raise LatticeError(f"{what} entries must be ints: {exc}") from None
    if width is not None and any(len(row) != width for row in a):
        lengths = [len(row) for row in a]
        if square and len(set(lengths)) == 1:
            raise LatticeError(f"{square} needs a square matrix, got {_shape(a)}")
        raise LatticeError(f"{what} rows must have {width} {'entry' if width == 1 else 'entries'} each, got {lengths}")
    return a


def _transposed(m: Sequence[Sequence[int]], width: int) -> tuple[tuple[int, ...], ...]:
    """The transpose of a matrix with ``width`` columns (the width fixes its shape when it has no rows)."""
    return tuple(tuple(row[j] for row in m) for j in range(width))


def det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square int matrix by fraction-free (Bareiss) forward elimination."""
    n = len(m)
    pivots, d, sign = _bareiss(_int_rows(m, n, square="det"), n, jordan=False)
    return sign * d if len(pivots) == n else 0


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class SmithDecomposition(NamedTuple):
    """U * M * V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: tuple[tuple[int, ...], ...]
    D: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        k = min(len(self.D), len(self.D[0]) if self.D else 0)
        return tuple(self.D[i][i] for i in range(k))

    def verify(self, m: Sequence[Sequence[int]]) -> bool:
        """The whole definition: U * M * V = D, D diagonal, factors >= 0 with
        each dividing the next (so zeros come last), and |det U| = |det V| = 1.  An ``m`` whose shape
        does not fit U and V is a ``LatticeError``."""
        if mat_mul(mat_mul(self.U, m), self.V) != [list(r) for r in self.D]:
            return False
        if any(x for i, row in enumerate(self.D) for j, x in enumerate(row) if i != j):
            return False
        facs = self.invariant_factors
        if any(d < 0 for d in facs) or any(b % a if a else b for a, b in zip(facs, facs[1:])):
            return False
        return abs(det(self.U)) == 1 and abs(det(self.V)) == 1


def _pivot(a: Matrix, t: int, rows: int, cols: int) -> Optional[tuple[int, int]]:
    """Smallest nonzero absolute value in a[t:rows][t:cols], (row, col) tie-break.

    The scan is row-major and keeps the first of equal values, so it may stop
    at the first entry of absolute value 1.
    """
    best, loc = 0, None
    for i in range(t, rows):
        row = a[i]
        for j in range(t, cols):
            x = abs(row[j])
            if x and (x < best or not best):
                if x == 1:
                    return i, j
                best, loc = x, (i, j)
    return loc


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with s * x + t * y = g, a gcd of x and y (its sign is not fixed)."""
    s, t, s1, t1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y, s, s1, t, t1 = y, x - q * y, s1, s - q * s1, t1, t - q * t1
    return x, s, t


def smith_normal_form(m: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Smith normal form over Z with both transforms.

    The elimination runs on the bordered matrix [[M, I], [I, 0]], so row
    operations on M carry U (to its right) and column operations carry V
    (below it).  A pivoted row-Hermite pass first makes M upper triangular
    with each entry above a pivot p reduced into [0, p); this bounds M, and
    with it U and V.  The smallest-pivot Smith loop then finishes.  Pivot
    choice in both is the smallest nonzero absolute value of the trailing
    block with (row, column) index as tie-break, so the output is
    deterministic.  U and V are valid transforms, not canonical ones.

    A tall M is decomposed through its transpose (U' M^T V' = D' gives
    V'^T M U'^T = D'^T), which keeps the transforms far smaller; every
    result passes ``SmithDecomposition.verify`` before it is returned.
    """
    rows = len(_typed(m, (list, tuple), "matrix", LatticeError))
    cols = len(_typed(m[0], (list, tuple), "matrix row", LatticeError)) if rows else 0
    a = _int_rows(m, cols)
    if rows > cols:
        u, d, v = _smith([list(col) for col in zip(*a)], cols, rows)
        snf = SmithDecomposition(_transposed(v, rows), _transposed(d, rows), _transposed(u, cols))
    else:
        snf = SmithDecomposition(*_smith(a, rows, cols))
    if not snf.verify(m):
        raise InconsistencyError("internal error: Smith decomposition failed to verify")
    return snf


def _smith(a: Matrix, rows: int, cols: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """(U, D, V) of the ``rows`` x ``cols`` matrix ``a``, which it extends and eliminates in place."""
    for i, row in enumerate(a):
        row += [int(i == j) for j in range(rows)]
    a += [[int(i == j) for j in range(cols)] + [0] * rows for i in range(cols)]

    for r in range(min(rows, cols)):
        loc = _pivot(a, r, rows, cols)
        if loc is None:
            break
        a[r], a[loc[0]] = a[loc[0]], a[r]
        j = loc[1]
        for row in a:  # rows above r and V's rows still have entries in these columns
            row[r], row[j] = row[j], row[r]
        for i in range(r + 1, rows):
            x = a[i][r]
            if x:
                top, p = a[r], a[r][r]
                if x % p == 0:
                    q = x // p
                    a[i] = [y - q * z for y, z in zip(a[i], top)]
                else:  # a unimodular 2x2 row operation: [[s, t], [-x/g, p/g]]
                    g, s, t = _xgcd(p, x)
                    xg, pg = x // g, p // g
                    a[r] = [s * z + t * y for z, y in zip(top, a[i])]
                    a[i] = [pg * y - xg * z for z, y in zip(top, a[i])]
        if a[r][r] < 0:
            a[r] = [-x for x in a[r]]
        top, p = a[r], a[r][r]
        for i in range(r):
            q = a[i][r] // p
            if q:
                a[i] = [y - q * z for y, z in zip(a[i], top)]

    t = 0
    while t < min(rows, cols):
        loc = _pivot(a, t, rows, cols)
        if loc is None:
            break
        # rows a[:t] are finished: zero in every column of M from t on
        a[t], a[loc[0]] = a[loc[0]], a[t]
        for r in a[t:]:
            r[t], r[loc[1]] = r[loc[1]], r[t]
        # one reduction pass; any surviving remainder is strictly smaller than
        # the pivot, so re-pivoting makes the pivot magnitude descend
        incomplete = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                incomplete = incomplete or a[i][t] != 0
        live = a[t:]  # the row pass above rebinds rows, so slice after it
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                for r in live:
                    r[j] -= q * r[t]
                incomplete = incomplete or a[t][j] != 0
        if incomplete:
            continue
        # divisibility: the pivot must divide the whole trailing block
        offender = next(
            (i for i in range(t + 1, rows)
             if any(a[i][j] % a[t][t] for j in range(t + 1, cols))),
            None,
        )
        if offender is not None:  # pull the offending row in; the next pass shrinks the pivot
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1

    return (
        tuple(tuple(r[cols:]) for r in a[:rows]),
        tuple(tuple(r[:cols]) for r in a[:rows]),
        tuple(tuple(r[:cols]) for r in a[rows:]),
    )


# ---------------------------------------------------------------------------
# discriminant groups
# ---------------------------------------------------------------------------

class DiscriminantGroup(NamedTuple):
    """Finite quotient (dual lattice)/(lattice) as a chain of cyclic factors.

    ``generators[i]`` is an integer vector in dual-basis coordinates whose
    class generates the factor of order ``factors[i]``.  They are valid, not
    canonical: another Smith elimination may give other generators.
    """

    factors: tuple[int, ...]
    generators: tuple[Vector, ...]

    @property
    def order(self) -> int:
        return prod(self.factors)

    def __str__(self):
        if not self.factors:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.factors)


def _symmetric_size(gram: Sequence[Sequence[int]]) -> int:
    """The size n of an n x n symmetric gram matrix; a matrix that is not a list or tuple of them, or a
    non-square or asymmetric one, is a ``LatticeError``."""
    n = len(_typed(gram, (list, tuple), "gram matrix", LatticeError))
    if any(len(_typed(row, (list, tuple), "gram matrix row", LatticeError)) != n for row in gram):
        raise LatticeError(f"gram matrix must be square, got {_shape(gram)}")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
        raise LatticeError("gram matrix must be symmetric")
    return n


def discriminant_group(gram: Sequence[Sequence[int]]) -> DiscriminantGroup:
    """Cyclic decomposition of coker(gram : L -> Hom(L, Z)) for symmetric nonsingular gram."""
    _symmetric_size(gram)  # det and the Smith form refuse a non-integer entry
    if det(gram) == 0:
        raise DegenerateLatticeError("gram matrix is singular")
    # The generator of the factor d_i is column i of U^-1.  From U * M * V = D
    # that column is M * V[:, i] / d_i, so no inverse is formed.
    snf = smith_normal_form(gram)
    factors, gens = [], []
    for i, d in enumerate(snf.invariant_factors):
        if d > 1:
            image = mat_vec(gram, [row[i] for row in snf.V])
            if any(x % d for x in image):
                raise InconsistencyError("internal error: M * V is not divisible by the Smith factors")
            factors.append(d)
            gens.append(tuple(x // d for x in image))
    return DiscriminantGroup(tuple(factors), tuple(gens))


def orthogonal_kernel(
    gram: Sequence[Sequence[int]], sublattice: Sequence[Sequence[int]]
) -> list[Vector]:
    """Basis of the saturated kernel {v : v . gram . s = 0 for all s}.

    Returned vectors are primitive (columns of a unimodular matrix), with the
    first nonzero coordinate normalized positive, listed deterministically.
    At kernel rank >= 2 the basis is valid, not canonical: it is read off the
    Smith transform V.
    """
    n = _symmetric_size(gram)
    # both are read as ints of width n first, so mat_vec neither converts nor refuses a row
    gram, sublattice = _int_rows(gram, n, "gram matrix"), _int_rows(sublattice, n, "sublattice")
    if not sublattice:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rows = [mat_vec(gram, s) for s in sublattice]
    snf = smith_normal_form(rows)
    rank = sum(1 for d in snf.invariant_factors if d != 0)
    out = []
    for j in range(rank, n):
        col = [snf.V[i][j] for i in range(n)]
        lead = next(x for x in col if x != 0)
        if lead < 0:
            col = [-x for x in col]
        out.append(tuple(col))
    return out


# ---------------------------------------------------------------------------
# isotropic pairs and exact solves
# ---------------------------------------------------------------------------

class MukaiSolution(NamedTuple):
    """The canonical isotropic pair and its solution orbits (at most one exists)."""

    a: Vector
    b: Vector
    orbits: tuple[tuple[Vector, Vector], ...]


def _form(gram: Sequence[Sequence[int]], x: Sequence[int], y: Sequence[int]) -> int:
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(x)))


def _canonical_pair(a: Vector, b: Vector) -> tuple[Vector, Vector]:
    """Representative of the orbit under swap and global sign."""
    def norm(p: Vector, q: Vector) -> tuple[Vector, Vector]:
        lead = next((x for x in p if x != 0), 0)
        if lead < 0:
            p = tuple(-x for x in p)
            q = tuple(-x for x in q)
        return (p, q)

    return min(norm(a, b), norm(b, a))


def _isotropic_rays(gram: Sequence[Sequence[int]], w: Sequence[int]) -> Optional[tuple[Vector, Vector]]:
    """Primitive generators of the two isotropic rays in the plane w^perp of Z^3.

    On a basis p, q of the plane the form is A x^2 + B xy + C y^2.  It has
    exactly two isotropic rays iff B^2 - 4AC is a nonzero square; otherwise
    it has none, or (when degenerate) only isotropic vectors that pair to zero
    with each other, and ``None`` is returned.  w^perp meets Z^3 in a
    saturated sublattice, so dividing a ray by the gcd of its coordinates
    gives its generator.  Signs are arbitrary.
    """
    k = next(i for i in range(3) if w[i])
    i, j = (t for t in range(3) if t != k)
    p, q = [0, 0, 0], [0, 0, 0]
    p[i], p[k] = w[k], -w[i]
    q[j], q[k] = w[k], -w[j]
    a, b, c = _form(gram, p, p), 2 * _form(gram, p, q), _form(gram, q, q)
    disc = b * b - 4 * a * c
    s = isqrt(disc) if disc > 0 else 0
    if s == 0 or s * s != disc:
        return None
    coeffs = [(-b + s, 2 * a), (-b - s, 2 * a)] if a else [(1, 0), (-c, b)]
    rays = []
    for x, y in coeffs:
        r = [x * pi + y * qi for pi, qi in zip(p, q)]
        g = gcd(*r)
        rays.append(tuple(v // g for v in r))
    return rays[0], rays[1]


def isotropic_pair_solve(
    gram: Sequence[Sequence[int]], ell: Sequence[int], bound: int = 50
) -> MukaiSolution:
    """Pairs a, b with a^2 = b^2 = a.ell = b.ell = 0 and a.b = 1, in closed form.

    Such a pair spans the plane ell^perp, so a and b generate its two
    isotropic rays and exist iff those generators u, v satisfy |u.v| = 1.
    The solutions then form exactly one orbit of the symmetry group {swap a
    and b, global sign}.  It is reported iff every coordinate of the pair lies
    in [-bound, bound], which is what a search of that coordinate box finds.
    A bound, an entry of ``ell`` or of ``gram`` that is not an integer, an
    ``ell`` of the wrong length and a negative bound are each a ``LatticeError``.
    The pair is checked against the five equations before it is returned: a
    pair that fails them is an ``InconsistencyError``, never an answer.
    The canonical representative is the lexicographically smallest pair after
    normalizing the first nonzero coordinate of ``a`` positive.
    """
    gram = _int_rows(gram, None, "gram matrix")
    if len(gram) != 3 or any(len(row) != 3 for row in gram):
        raise LatticeError("isotropic_pair_solve expects a rank-3 gram matrix")
    _typed(ell, (list, tuple), "the polarization vector ell", LatticeError)
    if len(ell) != 3:
        raise LatticeError(f"the polarization vector ell must have 3 entries, got {len(ell)}")
    try:
        ell = tuple(map(index, ell))
    except TypeError:
        raise LatticeError(f"the polarization vector ell must have integer entries, got {list(ell)}") from None
    bound = _index(bound, "the coordinate bound", LatticeError)
    if bound < 0:
        raise LatticeError(f"the coordinate bound must be non-negative, got {bound}")
    if _form(gram, ell, ell) == 0:
        raise LatticeError("the polarization vector must have nonzero self-pairing")

    rays = _isotropic_rays(gram, mat_vec(gram, ell))
    pair = None
    if rays is not None:
        u, v = rays
        uv = _form(gram, u, v)
        if abs(uv) == 1 and max(abs(x) for x in u + v) <= bound:
            pair = _canonical_pair(u, tuple(uv * x for x in v))
    if pair is None:
        raise SearchExhaustedError(f"no isotropic pair inside the [-{bound}, {bound}] box")
    a, b = pair
    if (_form(gram, a, a), _form(gram, b, b), _form(gram, a, ell), _form(gram, b, ell), _form(gram, a, b)) \
            != (0, 0, 0, 0, 1):
        raise InconsistencyError(f"the computed pair {pair} is not isotropic, orthogonal to ell and unimodular")
    return MukaiSolution(a, b, (pair,))


def _solve_rational(columns: Sequence[Sequence], target: Sequence):
    """Particular solution (free variables zero) and kernel basis of A x = b.

    A is given by ``columns`` and b is ``target``; entries may be ints or
    Fractions.  The result is in Fractions, or None for an inconsistent
    system.  Each row of [A | b] is scaled by the lcm of its
    denominators, which leaves the solutions unchanged, and then eliminated.
    """
    ncols = len(columns)
    a = []
    for i, t in enumerate(target):
        row = [col[i] for col in columns] + [t]
        den = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (den // x.denominator) for x in row])
    pivots, d, _ = _bareiss(a, ncols)
    if any(row[ncols] for row in a[len(pivots):]):
        return None
    solution = [Fraction(0)] * ncols
    for row, c in zip(a, pivots):
        solution[c] = Fraction(row[ncols], d)
    kernel = []
    for c in range(ncols):
        if c not in pivots:
            vec = [Fraction(0)] * ncols
            vec[c] = Fraction(1)
            for row, pc in zip(a, pivots):
                vec[pc] = Fraction(-row[c], d)
            kernel.append(vec)
    return solution, kernel


def _solve_integral(columns: Sequence[Sequence], target: Sequence) -> Vector:
    """Solve sum_j x_j * columns[j] = target; the solution must be unique and integral."""
    res = _solve_rational(columns, target)
    if res is None:
        raise InconsistencyError("vector lies outside the span")
    solution, kernel = res
    if kernel:
        raise InconsistencyError("basis vectors are linearly dependent")
    if any(x.denominator != 1 for x in solution):
        raise InconsistencyError("image is not in the integer span of the basis")
    return tuple(x.numerator for x in solution)
