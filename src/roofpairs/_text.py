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
        size = -c if c < 0 else c
        term = (mono if size == 1 else f"{size}*{mono}") if mono else str(size)
        if c < 0:
            parts.append(f"- {term}" if parts else f"-{term}")
        else:
            parts.append(f"+ {term}" if parts else term)
    return " ".join(parts) or "0"
