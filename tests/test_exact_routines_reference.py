"""The shared exact routines against the per-class copies they replaced.

The references below are the former closure-based ``smith_normal_form`` and
the three former ``__str__`` bodies of ``GradedClass``, ``BundleClass`` and
``MotivicPoly``, kept verbatim.  The library must give the same strings on
every input.  Smith normal form must give the same D; its U and V are only
held to the contract U * M * V = D with |det U| = |det V| = 1, since the
Hermite pass before the Smith loop chooses other (smaller) transforms.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from roofpairs.configs import builtin_config
from roofpairs.gradedring import GradedClass, make_quadric_ring
from roofpairs.latticecore import det, mat_mul, smith_normal_form
from roofpairs.motivicring import SYMBOLS, MotivicPoly, l_equivalence_residual
from roofpairs.roofcalc import BundleClass

# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _ref_pivot(a, t):
    best = None
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            if a[i][j] != 0:
                key = (abs(a[i][j]), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
    return None if best is None else (best[1], best[2])


def ref_smith_normal_form(m):
    """(U, D, V) as tuples of tuples, from separate U and V kept in step by closures."""
    a = [list(map(int, row)) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = _identity(rows)
    v = _identity(cols)

    def row_op(dst, src, q):
        for j in range(cols):
            a[dst][j] -= q * a[src][j]
        for j in range(rows):
            u[dst][j] -= q * u[src][j]

    def col_op(dst, src, q):
        for i in range(rows):
            a[i][dst] -= q * a[i][src]
        for i in range(cols):
            v[i][dst] -= q * v[i][src]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(rows, cols):
        loc = _ref_pivot(a, t)
        if loc is None:
            break
        swap_rows(t, loc[0])
        swap_cols(t, loc[1])
        incomplete = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                row_op(i, t, a[i][t] // a[t][t])
                incomplete = incomplete or a[i][t] != 0
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                col_op(j, t, a[t][j] // a[t][t])
                incomplete = incomplete or a[t][j] != 0
        if incomplete:
            continue
        offender = next(
            (i for i in range(t + 1, rows)
             if any(a[i][j] % a[t][t] for j in range(t + 1, cols))),
            None,
        )
        if offender is not None:
            row_op(t, offender, -1)
            continue
        if a[t][t] < 0:
            for j in range(cols):
                a[t][j] = -a[t][j]
            for j in range(rows):
                u[t][j] = -u[t][j]
        t += 1
    as_tuples = lambda x: tuple(tuple(r) for r in x)
    return as_tuples(u), as_tuples(a), as_tuples(v)


def ref_graded_str(cls):
    if cls.is_zero:
        return "0"
    parts = []
    for label, c in cls.sorted_items():
        body = label if label != cls.ring.unit_label else "1"
        if c == 1 and body != "1":
            term = body
        elif c == -1 and body != "1":
            term = f"-{body}"
        elif body == "1":
            term = str(c)
        else:
            term = f"{c}*{body}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def ref_bundle_str(cls):
    terms = []
    for i in range(cls.side.rank - 1, -1, -1):
        p = cls.parts[i]
        if p.is_zero:
            continue
        xi = "" if i == 0 else ("xi" if i == 1 else f"xi^{i}")
        for label, c in p.sorted_items():
            body = label if label != p.ring.unit_label else ""
            stem = "*".join(x for x in (body, xi) if x) or "1"
            if c == 1 and stem != "1":
                terms.append(stem)
            elif c == -1 and stem != "1":
                terms.append(f"-{stem}")
            elif stem == "1":
                terms.append(str(c))
            else:
                terms.append(f"{c}*{stem}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def ref_motivic_str(poly):
    if poly.is_zero:
        return "0"
    parts = []
    for mono, c in poly.sorted_items():
        body = "*".join(
            s if e == 1 else f"{s}^{e}" for s, e in zip(SYMBOLS, mono) if e
        )
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

_ENTRY = st.one_of(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
                   st.integers(-10**6, 10**6))
_MATRIX = st.integers(0, 7).flatmap(lambda r: st.integers(0, 7).flatmap(
    lambda c: st.lists(st.lists(_ENTRY, min_size=c, max_size=c), min_size=r, max_size=r)))


def _assert_smith_contract(m):
    snf = smith_normal_form(m)
    assert snf.D == ref_smith_normal_form(m)[1]
    assert mat_mul(mat_mul(snf.U, m), snf.V) == [list(row) for row in snf.D]
    assert abs(det(snf.U)) == 1 and abs(det(snf.V)) == 1


@settings(max_examples=400, deadline=None)
@given(_MATRIX)
def test_smith_factors_match_reference(m):
    _assert_smith_contract(m)


def test_smith_factors_match_reference_on_edge_shapes():
    for m in ([], [[]], [[], []], [[0, 0, 0]], [[0], [0]], [[-7]], [[0, 4], [6, 0], [0, 0]]):
        _assert_smith_contract(m)


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

_COEFF = st.one_of(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
)
_RINGS = {n: make_quadric_ring(n) for n in (5, 6)}
_SIDES = {f"{name}{tag}": getattr(builtin_config(name), attr)
          for name in ("g2dagger", "d4") for tag, attr in (("", "side"), ("~", "tilde_side"))}


@st.composite
def _graded_class(draw, ring, degree):
    labels = ring.degree_labels.get(degree, ())
    return GradedClass(ring, degree, {lbl: draw(_COEFF) for lbl in labels})


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_RINGS)).flatmap(
    lambda n: st.integers(0, n).flatmap(lambda d: _graded_class(_RINGS[n], d))))
def test_graded_class_str_matches_reference(cls):
    assert str(cls) == ref_graded_str(cls)


@st.composite
def _bundle_class(draw):
    side = _SIDES[draw(st.sampled_from(sorted(_SIDES)))]
    degree = draw(st.integers(0, side.dim_total))
    parts = []
    for i in range(side.rank):
        d = degree - i
        if 0 <= d <= side.base.dimension and draw(st.booleans()):
            parts.append(draw(_graded_class(side.base, d)))
        else:
            parts.append(side.base.zero(d))
    return BundleClass(side, degree, parts)


@settings(max_examples=300, deadline=None)
@given(_bundle_class())
def test_bundle_class_str_matches_reference(cls):
    assert str(cls) == ref_bundle_str(cls)


_MONO = st.tuples(*[st.integers(0, 3)] * len(SYMBOLS))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_MONO, st.integers(-4, 4) | st.integers(-10**6, 10**6), max_size=8))
def test_motivic_str_matches_reference(coeffs):
    poly = MotivicPoly(coeffs)
    assert str(poly) == ref_motivic_str(poly)
    assert str(-poly) == ref_motivic_str(-poly)


def test_motivic_residual_str_matches_reference():
    for r in range(2, 20):
        poly = l_equivalence_residual(r)
        assert str(poly) == ref_motivic_str(poly)
