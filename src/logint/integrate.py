"""Closed forms for integrals of rational functions against powers of ln x.

Everything here reduces to integrals based at 0, evaluated as a
difference F(upper) - F(lower), so ln 0 never appears: the only base
quantities needed are

    int_0^b x^j (ln x)^k dx           = (-1)^k k! b^(j+1) / (j+1)^(k+1)
                                        ... binomially shifted by ln b,
    int_0^b ln x / (x + r) dx         = ln b ln((b+r)/r) + Li2(-b/r),
    int_0^b ln x / (x + r)^n dx       = f_n(b, r), one closed form, whose
                                        r = 1 case h_n(b) is refereed by the
                                        recurrence unit_pole_log_parts.

All arithmetic on coefficients is exact; results are ClosedForm values
whose atoms are the products 1, pi^2, ln q, (ln q)^k, ln q1 ln q2 and
Li2(q).

Poles must lie on the strictly negative axis.  A pole inside the
integration interval means the integral diverges (PoleInInterval); a
non-negative pole elsewhere defeats the reduction to [0, b]
(UnsupportedPole).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .closedform import (
    ClosedForm,
    Dilog,
    Log,
    LogProd,
    UNIT,
)
from .errors import (
    DegenerateInterval,
    DomainError,
    PoleInInterval,
    UnsupportedLogPower,
    UnsupportedPole,
)
from .poly import Polynomial, Scalar, exact, integer_at_least, positive
from .ratfunc import FactoredDenominator, factor_denominator, partial_fractions


def integrate_monomial_log(j: int, k: int, b: Scalar) -> ClosedForm:
    """int_0^b x^j (ln x)^k dx, exactly.

    Scaling x = b t reduces to the unit interval, where
    int_0^1 t^j (ln t)^k dt = (-1)^k k! / (j+1)^(k+1).
    """
    integer_at_least(j, 0, "monomial degree")
    integer_at_least(k, 0, "log power")
    b = positive(b, "upper limit")
    scale = b ** (j + 1)
    terms = []
    for i in range(k + 1):
        core = Fraction((-1) ** i * math.factorial(i), (j + 1) ** (i + 1))
        atom = UNIT if i == k else Log(b, k - i)
        terms.append((atom, scale * math.comb(k, i) * core))
    return ClosedForm(terms)


def integrate_poly_log(p: Polynomial, b: Scalar, m: int) -> ClosedForm:
    """int_0^b P(x) (ln x)^m dx by linearity over the monomials."""
    b = positive(b, "upper limit")
    integer_at_least(m, 0, "log power")
    return ClosedForm.combine(
        (a, integrate_monomial_log(j, m, b)) for j, a in enumerate(p.coeffs) if a
    )


def integrate_simple_pole(b: Scalar, r: Scalar) -> ClosedForm:
    """int_0^b ln x / (x + r) dx  =  ln b ln((b+r)/r) + Li2(-b/r)."""
    b = positive(b, "upper limit")
    r = positive(r, "pole parameter")
    return ClosedForm(((LogProd(b, (b + r) / r), 1), (Dilog(-b / r), 1)))


def integrate_two_simple_poles(
    a: Scalar, b: Scalar, r1: Scalar, r2: Scalar
) -> ClosedForm:
    """int_a^b ln x / ((x + r1)(x + r2)) dx for distinct positive poles.

    The driver splits 1/((x+r1)(x+r2)) into two simple poles and takes
    the base-point difference: at most four log products and four
    dilogarithms before they are merged.  Equal poles raise
    PoleCollision, and a pole that is not negative PoleInInterval or
    UnsupportedPole, as for any IntegralSpec.
    """
    den = FactoredDenominator(1, ((r1, 1), (r2, 1)))
    return integrate_rational_log(IntegralSpec(Polynomial((1,)), den, a, b))


def symmetric_two_pole_elementary(a: Scalar, b: Scalar) -> ClosedForm:
    """int_a^b ln x / ((x + a)(x + b)) dx, dilogarithm-free.

    When the integration limits equal the two pole magnitudes, every
    dilogarithm cancels and the value collapses to

        ln(ab) / (2(b-a)) * ln((a+b)^2 / (4ab)).
    """
    a = positive(a, "lower limit")
    b = exact(b, "upper limit")
    if a == b:
        raise DegenerateInterval(f"empty interval [{a}, {b}]")
    if b < a:
        raise DomainError(f"limits out of order: [{a}, {b}]")
    prod = a * b
    ratio = (a + b) ** 2 / (4 * prod)
    return ClosedForm.of(LogProd(prod, ratio), Fraction(1, 2) / (b - a))


def symmetric_two_pole_dilog(a: Scalar, b: Scalar) -> ClosedForm:
    """Same integral as symmetric_two_pole_elementary, but assembled
    by the generic driver through the two-pole route, so dilogarithms
    appear (and the pair at -1 collapses to a pi^2 term).  Agreement of
    the two routes is a nontrivial identity between log products and
    dilogarithms."""
    return integrate_two_simple_poles(a, b, a, b)


def unit_pole_log_integral(n: int, b: Scalar) -> ClosedForm:
    """h_n(b) = int_0^b ln t / (1 + t)^n dt for n >= 2: the r = 1 case of
    integrate_multiple_pole, whose ln r term vanishes."""
    return integrate_multiple_pole(n, b, 1)


def integrate_multiple_pole(n: int, b: Scalar, r: Scalar) -> ClosedForm:
    """f_n(b, r) = int_0^b ln x / (x + r)^n dx for n >= 2 and r > 0.

    Integrate by parts against (r^(1-n) - (x+r)^(1-n)) / (n-1), the
    antiderivative of (x+r)^(-n) that vanishes at 0, and expand
    (1 - (r/(x+r))^(n-1)) / x = sum_{k=1}^{n-1} r^(k-1) / (x+r)^k.
    With y = r/(b+r),

        f_n(b, r) = [ (1 - y^(n-1)) ln b - ln(1 + b/r)
                      - sum_{k=1}^{n-2} (1 - y^k)/k ] / ((n-1) r^(n-1)).

    At r = 1 this is h_n(b), which unit_pole_log_parts referees.
    """
    integer_at_least(n, 2, "pole order")
    b = positive(b, "upper limit")
    r = positive(r, "pole parameter")
    t = b / r
    y = r / (b + r)
    y_k = Fraction(1)
    rest = Fraction(0)
    for k in range(1, n - 1):
        y_k *= y
        rest -= (1 - y_k) / k
    s = 1 / ((n - 1) * r ** (n - 1))
    c = (1 - y_k * y) * s
    # ln b stays split as ln r + ln(b/r): the canonical forms, and so the
    # golden digests, carry both atoms.
    return ClosedForm(
        ((Log(r), c), (Log(t), c), (Log(1 + t), -s), (UNIT, rest * s))
    )


@dataclass(frozen=True)
class LogIntegralParts:
    """(1+b)^(n-1) h_n(b) split as  X(b) ln b + Y(b) ln(1+b) + Z(b)."""

    n: int
    log_b: Polynomial
    log_one_plus_b: Polynomial
    rational: Polynomial

    def value_at(self, b: float) -> float:
        b = float(b)
        return (
            self.log_b(b) * math.log(b)
            + self.log_one_plus_b(b) * math.log1p(b)
            + self.rational(b)
        )


def unit_pole_log_parts(n: int) -> LogIntegralParts:
    """Polynomial coefficients of (1+b)^(n-1) h_n(b), n >= 2.

    The independent referee of unit_pole_log_integral: it does not use
    that closed form, but raises the pole order one integration by parts
    at a time,

        h_n = (n-2)/(n-1) h_{n-1} + b ln b / ((n-1)(1+b)^(n-1))
              - ((1+b)^(n-2) - 1) / ((n-1)(n-2)(1+b)^(n-2)),

    from h_2(b) = b/(1+b) ln b - ln(1+b), with b left symbolic.  It
    then checks the two parts that admit closed forms:

        X_n = ((1+b)^(n-1) - 1) / (n-1),    Y_n = -(1+b)^(n-1) / (n-1).

    The power (1+b)^(k-1) is carried from step to step, one product by
    (1+b) each, so the whole recurrence costs O(n^2) coefficient
    operations.  X_n is built without it, so a wrong power still fails
    the check.
    """
    integer_at_least(n, 2, "pole order")
    bpoly = Polynomial.x()
    one_plus = Polynomial((1, 1))
    x_part = bpoly
    y_part = -one_plus
    z_part = Polynomial()
    power = one_plus  # (1+b)^(k-1)
    for k in range(3, n + 1):
        step = Fraction(k - 2, k - 1) * one_plus
        power = power * one_plus
        x_part = step * x_part + Fraction(1, k - 1) * bpoly
        y_part = step * y_part
        z_part = step * z_part + Fraction(1, (k - 1) * (k - 2)) * (
            one_plus - power
        )
    expected_x = Fraction(1, n - 1) * (power - 1)
    expected_y = Fraction(-1, n - 1) * power
    if x_part != expected_x or y_part != expected_y:
        raise AssertionError("recurrence disagrees with closed-form parts")
    return LogIntegralParts(
        n=n, log_b=x_part, log_one_plus_b=y_part, rational=z_part
    )


@dataclass(frozen=True)
class IntegralSpec:
    """int_lower^upper  numerator/denominator * (ln x)^log_power  dx."""

    numerator: Polynomial
    denominator: Union[Polynomial, FactoredDenominator]
    lower: Fraction
    upper: Fraction
    log_power: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.numerator, Polynomial):
            raise TypeError(
                f"numerator must be a Polynomial, got {type(self.numerator).__name__}"
            )
        if not isinstance(self.denominator, (Polynomial, FactoredDenominator)):
            raise TypeError(
                "denominator must be a Polynomial or FactoredDenominator, "
                f"got {type(self.denominator).__name__}"
            )
        lower = exact(self.lower, "lower limit")
        upper = exact(self.upper, "upper limit")
        if lower < 0:
            raise DomainError(f"lower limit must be >= 0, got {lower}")
        if upper == lower:
            raise DegenerateInterval(f"empty interval [{lower}, {upper}]")
        if upper < lower:
            raise DomainError(f"limits out of order: [{lower}, {upper}]")
        integer_at_least(self.log_power, 1, "log_power")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


def integrate_rational_log(spec: IntegralSpec) -> ClosedForm:
    """Exact closed form for the integral described by ``spec``.

    The denominator is factored over Q (NonRationalPole if impossible);
    each pole must be strictly negative and outside [lower, upper].  The
    fraction is not reduced first: a denominator factor names a pole
    even if the numerator happens to cancel it.
    """
    den = spec.denominator
    if isinstance(den, Polynomial):
        den = factor_denominator(den)

    if spec.log_power >= 2 and den.degree >= 1:
        raise UnsupportedLogPower(
            "log powers >= 2 are only supported for polynomial integrands"
        )

    for pole in den.pole_locations():
        if spec.lower <= pole <= spec.upper:
            raise PoleInInterval(
                f"pole at x = {pole} lies inside [{spec.lower}, {spec.upper}]"
            )
        if pole >= 0:
            raise UnsupportedPole(
                f"pole at x = {pole} is not on the negative axis"
            )

    decomp = partial_fractions(spec.numerator, den)

    # F(upper) - F(lower), with F(t) the integral based at 0 (F(0) = 0).
    parts: list[tuple[Scalar, ClosedForm]] = []
    for t, sign in ((spec.upper, 1), (spec.lower, -1)):
        if t == 0:
            continue
        parts.append((sign, integrate_poly_log(decomp.quotient, t, spec.log_power)))
        for pole in decomp.poles:
            for j, c in enumerate(pole.residues, start=1):
                if not c:
                    continue
                if j == 1:
                    piece = integrate_simple_pole(t, pole.shift)
                else:
                    piece = integrate_multiple_pole(j, t, pole.shift)
                parts.append((sign * c, piece))
    return ClosedForm.combine(parts)
