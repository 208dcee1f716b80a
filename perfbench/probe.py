"""A fixed reference computation that measures how fast the host runs now.

On a shared host the speed of the same code drifts by tens of percent
over minutes, with CPU time moving as much as wall time, so neither run
length nor medians remove it from a timing.  The benchmark therefore
times this probe next to the work it measures, in the same process, and
reports times in reference units: a raw time multiplied by
REFERENCE_S / (the probe's time at that moment).  A time in reference
seconds is what the raw time would read on a host where the probe takes
REFERENCE_S.

The probe does the kind of work opfactor does: Euclid's algorithm on
polynomials with Fraction coefficients, with the allocation and the
big-integer gcds that brings.  It depends on nothing in the program, so
no change to the program can change it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# about what one probe took on the 2.0 GHz Xeon guest of the first
# baseline under CPython 3.11; it only sets the scale of reference units
REFERENCE_S = 0.006

_POLYS = [
    [Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(9)] + [Fraction(1)]
    for i in range(6)
]


def _strip(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, bk in enumerate(b):
            a[shift + k] -= c * bk
        a.pop()
        _strip(a)
    return a


def _gcd(a, b):
    a, b = _strip(list(a)), _strip(list(b))
    while b:
        a, b = b, _rem(a, b)
    return a


def _work():
    out = []
    for i in range(0, len(_POLYS), 2):
        p, q = _POLYS[i], _POLYS[i + 1]
        product = [x * y for x, y in zip(p, q)]
        out.append(_gcd(product + [Fraction(1)], q))
        out.append(_gcd(p, q))
    return out


def probe():
    """Seconds one run of the reference computation takes now."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0
