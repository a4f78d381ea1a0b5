"""Numeric oracle: adaptive quadrature for int_a^b R(x) (ln x)^m dx.

This route never touches the closed-form machinery, so it can referee
it.  The integrand is the raw (numerator, denominator) Polynomial pair,
never its partial-fraction decomposition: the oracle evaluates P(x)/Q(x)
in floats and finds the real poles from Q's coefficients, so it shares
no algebra with the routes it checks.  A polynomial P is (P, 1).

For a = 0 with m >= 1 the integrand has a logarithmic singularity at the
origin; the substitution x = exp(-u) turns int_0^s into

    int_{-ln s}^{inf} R(exp(-u)) (-u)^m exp(-u) du

whose integrand is smooth and exponentially decaying.  The infinite tail
is cut at a point U chosen so that  C * Gamma(m+1, U)  is far below the
requested tolerance, C being a sampled bound for |R| near the origin;
the cut contributes to the reported error estimate.

Real poles within the integration interval, or within rounding distance
of either endpoint, raise SingularInterior; an infinite upper limit
counts only the poles at or above the lower one.  So does a quadrature
node that lands on a pole the float root scan missed.  Coefficients or
bounds beyond float range raise DomainError; a tail that cannot be
bounded raises NoConvergence.  QUADPACK's subinterval limit bounds the
work; a piece that reaches it short of the tolerance is not converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NoConvergence, SingularInterior, ZeroDenominator
from .poly import Polynomial, integer_at_least


@dataclass(frozen=True, slots=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


def _upper_incomplete_gamma(m: int, u: float) -> float:
    """Gamma(m+1, u) = m! e^{-u} sum_{k<=m} u^k/k!  (integer m >= 0)."""
    s = math.fsum(u**k / math.factorial(k) for k in range(m + 1))
    return math.factorial(m) * math.exp(-u) * s


def quad_log(
    integrand: tuple[Polynomial, Polynomial],
    a,
    b,
    m: int = 1,
    tol: float = 1e-11,
) -> QuadResult:
    """Numerically integrate P(x)/Q(x) (ln x)^m over [a, b], 0 <= a < b,
    the integrand given as the pair (P, Q)."""
    # Imported on first use, not with the module: numpy and scipy make
    # `import logint` take about five times the memory, and the symbolic
    # side never needs them.
    import numpy as np
    from scipy.integrate import quad

    num, den = integrand
    try:
        a = float(a)
        b = float(b)
        # Checked here once, so the float evaluation below cannot overflow.
        den_coeffs = [float(c) for c in reversed(den.coeffs)]
        for c in num.coeffs:
            float(c)
    except OverflowError:
        raise DomainError(
            "an integrand coefficient or a bound is beyond floating-point range"
        ) from None
    integer_at_least(m, 0, "log power")
    if m > 60:
        raise DomainError("log power too large for the tail bound")
    if not (tol > 0.0):
        raise DomainError("tolerance must be positive")
    if a < 0.0:
        raise DomainError(f"lower limit must be >= 0, got {a}")
    if not b > a:
        raise DomainError(f"need lower < upper, got [{a}, {b}]")

    if den.is_zero:
        raise ZeroDenominator("denominator is identically zero")
    # A pole within rounding distance of either endpoint counts as inside.
    lo = a - 1e-12 * (1.0 + a)
    hi = b + 1e-12 * (1.0 + b)
    for root in np.roots(den_coeffs):
        p = float(root.real)
        if abs(root.imag) <= 1e-9 * (1.0 + abs(p)) and lo <= p <= hi:
            raise SingularInterior(
                f"integrand has a pole at x = {p:.17g} inside [{a:g}, {b:g}]"
            )

    def f(x: float) -> float:
        try:
            return num(float(x)) / den(float(x))
        except ZeroDivisionError:
            # A repeated root can come back from np.roots off the real
            # axis; a node that lands on it is still a pole inside.
            raise SingularInterior(
                f"integrand has a pole at x = {x:.17g} inside [{a:g}, {b:g}]"
            ) from None

    tail_bound = 0.0
    if a == 0.0 and m >= 1:
        split = min(b, 1.0)
        u0 = -math.log(split)  # 0 when b >= 1
        # Bound |R| near the origin to place the tail cut.
        cut = None
        for u_cut in (40.0, 80.0, 160.0, 320.0, 640.0):
            samples = (math.exp(-u_cut), math.exp(-2.0 * u_cut), 0.0)
            c_bound = 1.5 * max(abs(f(x)) for x in samples)
            bound = c_bound * _upper_incomplete_gamma(m, u_cut)
            if bound <= tol / 10.0:
                cut = u_cut
                tail_bound = bound
                break
        if cut is None:
            raise NoConvergence("could not bound the tail of the integrand")

        def transformed(u: float) -> float:
            return f(math.exp(-u)) * (-u) ** m * math.exp(-u)

        pieces = [(transformed, u0, cut)]
        if b > 1.0:
            pieces.append((lambda x: f(x) * math.log(x) ** m, 1.0, b))
    else:
        pieces = [(lambda x: f(x) * math.log(x) ** m, a, b)]

    # QUADPACK counts the evaluations (neval) and bounds them: with
    # limit=200 a piece stops after at most 21 + 42 * 199 of them.
    outs = [
        quad(g, lo, hi, epsabs=tol / 4.0, epsrel=1e-12, limit=200, full_output=1)
        for g, lo, hi in pieces
    ]
    value = math.fsum(out[0] for out in outs)
    err = math.fsum(out[1] for out in outs) + tail_bound
    clean = all(len(out) == 3 for out in outs)
    converged = clean and err <= max(tol, 1e-12 * abs(value))
    return QuadResult(
        value=value,
        abs_error_estimate=err,
        evaluations=sum(out[2]["neval"] for out in outs),
        converged=converged,
    )
