"""Host-speed calibration.

The speed of a small shared host drifts by tens of percent over seconds to
minutes, for every process alike.  A fixed kernel doing the same kind of work
as roofpairs (big-integer Bareiss elimination, Fraction Gaussian
elimination, products of dict polynomials with Fraction coefficients) and
using none of its code is timed between ops, at least every ``INTERVAL_S``.
Each op's latency is then reported at the reference speed:

    scaled = raw * REFERENCE_S / (mean kernel time of the two samples around it)

i.e. the time the op would take on a host where the kernel takes exactly
``REFERENCE_S``.  Raw times are kept in the provenance.

Ops that are whole processes (golden's CLI commands) are dominated by
interpreter start-up and imports, whose speed the in-process kernel tracks
poorly.  ``ChildClock`` samples a reference child process instead (start-up,
the kernel's imports and two kernel runs) before and after every op, and
scales to a host where that child takes ``CHILD_REFERENCE_S``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import oracles as orc

REFERENCE_S = 0.010
INTERVAL_S = 0.25
CHILD_REFERENCE_S = 0.100
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {HERE!r}); import calibrate; "
         "calibrate.kernel(); calibrate.kernel()"]

_rng = random.Random(0)
_BIG = [[_rng.randint(-1000, 1000) for _ in range(9)] for _ in range(9)]
_FRAC = [[Fraction(_rng.randint(-50, 50), _rng.randint(1, 9)) for _ in range(7)] for _ in range(7)]
_POLY = {(i, j): Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for i in range(6) for j in range(6)}


def _gauss(m) -> Fraction:
    a = [row[:] for row in m]
    d = Fraction(1)
    for i in range(len(a)):
        p = next(r for r in range(i, len(a)) if a[r][i])
        a[i], a[p] = a[p], a[i]
        d *= a[i][i]
        for r in range(i + 1, len(a)):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return d


def _poly_square(p) -> dict:
    out: dict = {}
    for (a, b), c in p.items():
        for (e, f), g in p.items():
            out[a + e, b + f] = out.get((a + e, b + f), 0) + c * g
    return out


def kernel() -> None:
    orc.bareiss_det(_BIG)
    _gauss(_FRAC)
    _poly_square(_POLY)


class Clock:
    """Kernel timings taken along a run; scales the latencies measured between them."""

    reference = REFERENCE_S

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = 0.0
        self.work()  # first call warms the caches; not a sample

    def work(self) -> None:
        kernel()

    def sample(self) -> None:
        t0 = perf_counter()
        self.work()
        self.last = perf_counter()
        self.samples.append(self.last - t0)

    def due(self) -> bool:
        return perf_counter() - self.last >= INTERVAL_S

    def scale(self, raw: float, k: int) -> float:
        """raw seconds measured between samples k and k+1, at the reference speed."""
        return raw * self.reference * 2 / (self.samples[k] + self.samples[k + 1])


class ChildClock(Clock):
    """Reference child processes around every op, for ops that are processes."""

    reference = CHILD_REFERENCE_S

    def work(self) -> None:
        subprocess.run(CHILD, check=True, capture_output=True, timeout=170)

    def due(self) -> bool:
        return True
