"""Numeric dilogarithm Li2 on (-inf, 1/2], with error accounting.

Li2(x) = sum_{k>=1} x^k / k^2.  The power series is summed directly for
x in [-1, 1/2]; for x < -1 the inversion identity

    Li2(-z) + Li2(-1/z) = -pi^2/6 - (1/2) ln(z)^2      (z > 0)

maps the argument back into [-1, 0).  Arguments above 1/2 are refused:
every closed form produced by this library stays in that range, and the
series there is comfortably convergent (ratio <= 1/2).

Each result carries an honest absolute error estimate: a truncation tail
bound (alternating-series bound for negative x, geometric for positive)
plus a small multiple of machine epsilon for the compensated summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError

PI_SQUARED = math.pi * math.pi

_REL_CUTOFF = 1e-17
_MAX_TERMS = 100_000
_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class DilogResult:
    value: float
    est_error: float


def dilog(x: Union[float, int, Fraction]) -> DilogResult:
    """Li2(x) for x <= 1/2; an exact x beyond float range is a DomainError."""
    try:
        x = float(x)
    except OverflowError:
        raise DomainError("dilog argument is beyond floating-point range") from None
    if math.isnan(x) or x > 0.5:
        raise DomainError(f"dilog argument must be <= 1/2, got {x}")
    if x == 0.0:
        return DilogResult(0.0, 0.0)
    if x == -1.0:
        return DilogResult(-PI_SQUARED / 12.0, _EPS)
    if x < -1.0:
        inner = _series(1.0 / x)
        log_term = math.log(-x)
        value = -PI_SQUARED / 6.0 - 0.5 * log_term * log_term - inner.value
        return DilogResult(value, inner.est_error + 4.0 * _EPS * (abs(value) + 2.0))
    return _series(x)


def _series(x: float) -> DilogResult:
    """Direct summation of x^k/k^2 for x in [-1, 1/2], compensated."""
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
        # The cap is unreachable for x in [0, 1/2]; for x very close to -1
        # it stops the sum with the (still honest) alternating tail bound.
        if next_term < _REL_CUTOFF * abs(total) or k > _MAX_TERMS:
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
