"""Gamma function and small helpers used by every gamma factor.

The complex gamma function is a fixed-coefficient Lanczos approximation
(g = 7, 9 terms, double-precision budget ~1e-13 relative on the right
half-plane), extended to Re s < 1/2 by the reflection formula.  Values
inside a guard band around the poles 0, -1, -2, ... raise PoleError
instead of returning huge numbers.
"""

from __future__ import annotations

import cmath
import math

from .errors import PoleError

POLE_GUARD = 1e-6

# Lanczos coefficients, g = 7.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def pole_distance(s: complex) -> float:
    """Distance from s to the nearest nonpositive integer."""
    re, im = s.real, s.imag
    k = round(re)
    if k > 0:
        k = 0
    return math.hypot(re - k, im)


def gamma(s: complex) -> complex:
    """Complex gamma via Lanczos + reflection; PoleError within POLE_GUARD
    of a pole."""
    s = complex(s)
    if pole_distance(s) < POLE_GUARD:
        raise PoleError(f"gamma evaluated within {POLE_GUARD} of a pole: s={s}")
    if s.real < 0.5:
        # reflection: Gamma(s) Gamma(1-s) = pi / sin(pi s)
        return math.pi / (cmath.sin(math.pi * s) * gamma(1.0 - s))
    z = s - 1.0
    x = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        x += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


def harmonic(k: int) -> float:
    """Partial harmonic sum H_k = sum_{j=1..k} 1/j, with H_0 = 0."""
    if k < 0:
        raise ValueError(f"harmonic needs k >= 0, got {k}")
    return sum(1.0 / j for j in range(1, k + 1))


def gamma_factor_1d(s: complex) -> complex:
    """The 1D functional-equation factor (2 pi)^(-s) Gamma(s) 2 cos(pi s / 2)."""
    s = complex(s)
    return (2.0 * math.pi) ** (-s) * gamma(s) * 2.0 * cmath.cos(math.pi * s / 2.0)
