"""Numeric dilogarithm Li2 on (-inf, 1/2], with error accounting.

Li2(x) = sum_{k>=1} x^k / k^2.  Every value comes from that power series
summed at an argument in [-1/2, 1/2], reached by one of three routes:

    x in [-1/2, 1/2]   the series at x itself;
    x in [-1, -1/2)    Landen's identity (Zagier, "The Dilogarithm
                       Function", 2007), with z = x/(x-1) in (1/3, 1/2]

                           Li2(x) = -Li2(z) - (1/2) ln(1-x)^2;

    x < -1             the inversion identity (y = 1/x lies in (-1, 0))

                           Li2(x) = -pi^2/6 - (1/2) ln(-x)^2 - Li2(y),

                       with Li2(y) from one of the two routes above.

The exact points 0 and -1 are returned directly.  Arguments above 1/2 are
refused: every closed form produced by this library stays in that range.

At a ratio of at most 1/2 the series reaches its relative cutoff of 1e-17
within 46 terms, the most at x = +-1/2.  Each result carries an honest
absolute error estimate of at most 1e-14 max(1, |Li2(x)|): the series'
truncation tail bound (alternating-series bound for negative x,
geometric for positive) plus a small multiple of machine epsilon for the
compensated summation and for the rounding of each identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError

PI_SQUARED = math.pi * math.pi

_REL_CUTOFF = 1e-17
_EPS = 2.220446049250313e-16


@dataclass(frozen=True, slots=True)
class DilogResult:
    value: float
    est_error: float


def dilog(x: Union[float, int, Fraction]) -> DilogResult:
    """Li2(x) for x <= 1/2; an exact x beyond float range is a DomainError."""
    try:
        value = float(x)
    except OverflowError:
        raise DomainError("dilog argument is beyond floating-point range") from None
    # The bound is checked on x itself: an exact x just above 1/2 rounds to
    # 0.5, so it is shown exactly rather than as the float.
    if math.isnan(value) or x > 0.5:
        shown = x if value == 0.5 else value
        raise DomainError(f"dilog argument must be <= 1/2, got {shown}")
    x = value
    if x == 0.0:
        return DilogResult(0.0, 0.0)
    if x == -1.0:
        return DilogResult(-PI_SQUARED / 12.0, _EPS)
    if x < -1.0:
        inner = _li2(1.0 / x)
        log_term = math.log(-x)
        value = -PI_SQUARED / 6.0 - 0.5 * log_term * log_term - inner.value
        return DilogResult(value, inner.est_error + 4.0 * _EPS * (abs(value) + 2.0))
    return _li2(x)


def _li2(x: float) -> DilogResult:
    """Li2(x) for x in [-1, 1/2], from the series at a ratio of at most 1/2."""
    if x >= -0.5:
        return _series(x)
    # Landen's identity at z = x/(x-1) in (1/3, 1/2], with L = ln(1-x) in
    # (ln 3/2, ln 2].  With u = 2^-53 (so _EPS = 2u), the computed value
    # is off by at most the sum of three parts:
    #   - the inner series' own bound, for its truncation and summation;
    #   - the rounding of z: x - 1 and the division round once each, so
    #     z carries a relative error d <= 2u + u^2.  That moves Li2 by
    #     |Li2'(z) z d| = |ln(1-z)| d <= ln(2) (2u + u^2) < _EPS;
    #   - the rounding of log1p (at most one ulp, a relative 2u), of the
    #     square (twice that, plus u) and of the final sum (u |value|):
    #     5u L^2/2 + u |value| <= 3 _EPS |value|, since Li2(z) and L^2/2
    #     are both positive and so L^2/2 <= |value|.
    inner = _series(x / (x - 1.0))
    log_term = math.log1p(-x)
    value = -inner.value - 0.5 * log_term * log_term
    return DilogResult(value, inner.est_error + _EPS + 3.0 * _EPS * abs(value))


def _series(x: float) -> DilogResult:
    """Direct summation of x^k/k^2 for x in [-1/2, 1/2], compensated."""
    total = 0.0
    comp = 0.0  # Kahan correction
    power = x
    k = 1
    while True:
        term = power / (k * k)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        power *= x
        k += 1
        next_term = abs(power) / (k * k)
        # "<=": for a subnormal x the cutoff underflows to 0, and so does
        # the next term.
        if next_term <= _REL_CUTOFF * abs(total):
            break
    if x < 0.0:
        tail = next_term  # alternating, terms decreasing
    else:
        tail = next_term / (1.0 - x)  # geometric tail, x <= 1/2
    return DilogResult(total, tail + 3.0 * _EPS * abs(total))


def euler_identity_residual(z: Union[float, int, Fraction]) -> float:
    """Defect of the inversion identity at -z; zero in exact arithmetic.

    Computes Li2(-z) + Li2(-1/z) + pi^2/6 + ln(z)^2/2 for z > 0, each
    dilogarithm through the public entry point, so the two branches are
    exercised against each other.
    """
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"inversion residual needs z > 0, got {z}")
    lg = math.log(z)
    return dilog(-z).value + dilog(-1.0 / z).value + PI_SQUARED / 6.0 + 0.5 * lg * lg
