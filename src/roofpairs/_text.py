"""The renderer of signed sums, with no dependencies.

Ring classes, bundle classes and motivic polynomials all print through
``signed_sum``; ``gradedring`` re-exports it under the same name.  It lives
in this leaf so that ``motivicring`` loads no ring code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from fractions import Fraction


def signed_sum(terms: Iterable[tuple[int | Fraction, str]]) -> str:
    """Render (coefficient, monomial) pairs as ``a + 2*b - c``, or "0" when there are none.

    An empty monomial is the constant term; a +-1 coefficient is left off any other.

    >>> signed_sum([(1, "L"), (2, "Pi"), (-1, "L^2"), (-3, "")])
    'L + 2*Pi - L^2 - 3'
    """
    parts: list[str] = []
    for c, mono in terms:
        if not mono:
            term = str(c)
        elif c == 1 or c == -1:
            term = mono if c == 1 else f"-{mono}"
        else:
            term = f"{c}*{mono}"
        parts.append(term if not parts else f"- {term[1:]}" if term[0] == "-" else f"+ {term}")
    return " ".join(parts) or "0"
