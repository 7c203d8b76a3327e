"""Reference arithmetic written for the benchmark, independent of roofpairs.

Outputs of the program are checked against these functions and against
values published with the paper, never against roofpairs' own code.
"""

from __future__ import annotations

import re
from math import comb, gcd


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def bareiss_det(m) -> int:
    """Determinant by Bareiss' fraction-free elimination."""
    a = [list(map(int, row)) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def rank(rows) -> int:
    """Rank over Q by fraction-free row reduction."""
    a = [list(map(int, r)) for r in rows]
    rk, cols = 0, len(a[0]) if a else 0
    for c in range(cols):
        piv = next((r for r in range(rk, len(a)) if a[r][c] != 0), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        for r in range(rk + 1, len(a)):
            if a[r][c]:
                f, g = a[r][c], a[rk][c]
                a[r] = [x * g - y * f for x, y in zip(a[r], a[rk])]
        rk += 1
    return rk


def vec_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def divisibility_chain(factors) -> bool:
    nz = [d for d in factors if d]
    return all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))


def residues(j, jt, d) -> list[int]:
    """k in [0, d) with j - k*jt divisible by d, coordinatewise."""
    return [k for k in range(d) if all((a - k * b) % d == 0 for a, b in zip(j, jt))]


# -- quadric cohomology -------------------------------------------------------

def h0_line_bundle(n: int, t: int) -> int:
    """h^0(O(t)) on the smooth n-dimensional quadric, t >= 0."""
    return comb(n + 1 + t, n + 1) - comb(n - 1 + t, n + 1)


def line_bundle_table(n: int, t: int) -> dict[int, int]:
    """Full cohomology of O(t) on Q_n: sections, then Serre duality with K = O(-n)."""
    if t >= 0:
        return {0: h0_line_bundle(n, t)}
    if t <= -n:
        return {n: h0_line_bundle(n, -n - t)}
    return {}


def serre_dual(table: dict, n: int) -> dict:
    return {n - i: v for i, v in table.items()}


# -- Grothendieck-ring residual -------------------------------------------------

SYMBOLS = ("L", "Y", "Yt", "B", "Bt", "M")
_TERM = re.compile(r"^(?:(\d+)\*)?(.+)$")


def residual_by_hand(r: int) -> dict[tuple[int, ...], int]:
    """(Y - Yt) L^(r-1) + (1 + L + ... + L^(r-2)) (B - Bt) as exponent tuples."""
    def mono(l_exp: int, sym: str) -> tuple[int, ...]:
        e = [0] * len(SYMBOLS)
        e[0] = l_exp
        e[SYMBOLS.index(sym)] += 1
        return tuple(e)

    out = {mono(r - 1, "Y"): 1, mono(r - 1, "Yt"): -1}
    for k in range(r - 1):
        out[mono(k, "B")] = 1
        out[mono(k, "Bt")] = -1
    return out


def parse_motivic(text: str) -> dict[tuple[int, ...], int]:
    """Parse the rendered polynomial ("-Bt + B - L*Yt + 3*L^2*Y") into exponent tuples."""
    out: dict[tuple[int, ...], int] = {}
    tokens = text.replace(" - ", " + -").split(" + ")
    for tok in tokens:
        sign = -1 if tok.startswith("-") else 1
        m = _TERM.match(tok.lstrip("-"))
        coeff = int(m.group(1) or 1)
        e = [0] * len(SYMBOLS)
        for factor in m.group(2).split("*"):
            sym, _, power = factor.partition("^")
            e[SYMBOLS.index(sym)] += int(power or 1)
        out[tuple(e)] = out.get(tuple(e), 0) + sign * coeff
    return out
