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
from .poly import (
    MAX_DEGREE,
    Polynomial,
    Scalar,
    at_most,
    exact,
    integer_at_least,
    positive,
)
from .ratfunc import (
    FactoredDenominator,
    FactoredRationalFunction,
    factored,
    partial_fractions,
)

# The largest power m of ln x.  The closed form of x^j (ln x)^m has
# m + 1 terms with coefficients near m!, so the work grows faster than
# m^2: m = 1,000 takes well under a second for one monomial, and an
# unbounded m would never return.  The largest pole order is MAX_DEGREE.
MAX_LOG_POWER = 1000


def _log_power(m: int, least: int, what: str) -> int:
    return at_most(integer_at_least(m, least, what), MAX_LOG_POWER, what)


def _pole_order(n: int) -> int:
    return at_most(integer_at_least(n, 2, "pole order"), MAX_DEGREE, "pole order")


def integrate_monomial_log(j: int, k: int, b: Scalar) -> ClosedForm:
    """int_0^b x^j (ln x)^k dx, exactly.

    Scaling x = b t reduces to the unit interval, where
    int_0^1 t^j (ln t)^k dt = (-1)^k k! / (j+1)^(k+1).
    """
    integer_at_least(j, 0, "monomial degree")
    _log_power(k, 0, "log power")
    return ClosedForm(_monomial_log_terms(j, k, positive(b, "upper limit")))


def integrate_poly_log(p: Polynomial, b: Scalar, m: int) -> ClosedForm:
    """int_0^b P(x) (ln x)^m dx by linearity over the monomials."""
    b = positive(b, "upper limit")
    _log_power(m, 0, "log power")
    return ClosedForm(_poly_log_terms(p, b, m))


def integrate_simple_pole(b: Scalar, r: Scalar) -> ClosedForm:
    """int_0^b ln x / (x + r) dx  =  ln b ln((b+r)/r) + Li2(-b/r)."""
    b = positive(b, "upper limit")
    return ClosedForm(_simple_pole_terms(b, positive(r, "pole parameter")))


# Each piece's terms come from one generator, _<piece>_terms, which
# yields raw (atom, coefficient) pairs from arguments the caller has
# already checked (Fractions, b and r > 0).  The public piece functions
# and the driver hand them to one ClosedForm, which reduces every atom
# and merges equal ones.


def _monomial_log_terms(j: int, k: int, b: Fraction):
    scale = b ** (j + 1)
    for i in range(k + 1):
        core = Fraction((-1) ** i * math.factorial(i), (j + 1) ** (i + 1))
        atom = UNIT if i == k else Log(b, k - i)
        yield atom, scale * math.comb(k, i) * core


def _poly_log_terms(p: Polynomial, b: Fraction, m: int):
    for j, a in enumerate(p.coeffs):
        if a:
            for atom, c in _monomial_log_terms(j, m, b):
                yield atom, a * c


def _simple_pole_terms(b: Fraction, r: Fraction):
    yield LogProd(b, (b + r) / r), 1
    yield Dilog(-b / r), 1


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
    """h_n(b) = int_0^b ln t / (1 + t)^n dt for 2 <= n <= MAX_DEGREE: the
    r = 1 case of integrate_multiple_pole, whose ln r term vanishes."""
    return integrate_multiple_pole(n, b, 1)


def integrate_multiple_pole(n: int, b: Scalar, r: Scalar) -> ClosedForm:
    """f_n(b, r) = int_0^b ln x / (x + r)^n dx for 2 <= n <= MAX_DEGREE
    and r > 0.

    Integrate by parts against (r^(1-n) - (x+r)^(1-n)) / (n-1), the
    antiderivative of (x+r)^(-n) that vanishes at 0, and expand
    (1 - (r/(x+r))^(n-1)) / x = sum_{k=1}^{n-1} r^(k-1) / (x+r)^k.
    With y = r/(b+r),

        f_n(b, r) = [ (1 - y^(n-1)) ln b - ln(1 + b/r)
                      - sum_{k=1}^{n-2} (1 - y^k)/k ] / ((n-1) r^(n-1)).

    It is evaluated in integers: with y = p/q, the sum is one integer
    over lcm(1, ..., n-2) q^(n-2), built by Horner's rule in O(n)
    integer operations, and each of the three coefficients is made a
    Fraction once, at the end.

    At r = 1 this is h_n(b), which unit_pole_log_parts referees.
    """
    _pole_order(n)
    b = positive(b, "upper limit")
    return ClosedForm(_multiple_pole_terms(n, b, positive(r, "pole parameter")))


def _multiple_pole_terms(n: int, b: Fraction, r: Fraction):
    # In integers: with b = bn/bd and r = rn/rd, y = p/q for p = rn bd and
    # q = bn rd + p, so b/r = bn rd/p and 1 + b/r = q/p, and with
    # L = lcm(1, ..., n-2)
    #
    #   sum_{k=1}^{n-2} (1 - y^k)/k  =  N / (L q^(n-2)),
    #   N = sum_{k=1}^{n-2} (L/k) (q^k - p^k) q^(n-2-k),
    #
    # which Horner's rule accumulates while p^k and q^k are carried.  Each
    # coefficient is then one Fraction of two integers: no gcd in the loop.
    bn, bd = b.numerator, b.denominator
    rn, rd = r.numerator, r.denominator
    p = rn * bd
    q = bn * rd + p
    lcm = math.lcm(*range(1, n - 1))
    total, p_k, q_k = 0, 1, 1
    for k in range(1, n - 1):
        p_k *= p
        q_k *= q
        total = total * q + lcm // k * (q_k - p_k)
    # 1/s = (n-1) r^(n-1) = scale / rd^(n-1).
    rd_n = rd ** (n - 1)
    scale = (n - 1) * rn ** (n - 1)
    c = Fraction((q_k * q - p_k * p) * rd_n, q_k * q * scale)
    # ln b stays split as ln r + ln(b/r): the canonical forms, and so the
    # golden digests, carry both atoms.
    yield Log(r), c
    yield Log(Fraction(bn * rd, p)), c
    yield Log(Fraction(q, p)), Fraction(-rd_n, scale)
    yield UNIT, Fraction(-total * rd_n, lcm * q_k * scale)


@dataclass(frozen=True, slots=True)
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
    """Polynomial coefficients of (1+b)^(n-1) h_n(b), 2 <= n <= MAX_DEGREE.

    The independent referee of unit_pole_log_integral: it does not use
    that closed form, but raises the pole order one integration by parts
    at a time,

        h_n = (n-2)/(n-1) h_{n-1} + b ln b / ((n-1)(1+b)^(n-1))
              - ((1+b)^(n-2) - 1) / ((n-1)(n-2)(1+b)^(n-2)),

    from h_2(b) = b/(1+b) ln b - ln(1+b), with b left symbolic.  It
    then checks the two parts that admit closed forms:

        X_n = ((1+b)^(n-1) - 1) / (n-1),    Y_n = -(1+b)^(n-1) / (n-1).

    Each part is carried scaled by (k-1)!, which makes every coefficient
    an integer and the step free of division:

        A_k = (k-2)(1+b) A_(k-1) + (k-2)! b               (X),
        B_k = (k-2)(1+b) B_(k-1)                           (Y),
        C_k = (k-2)(1+b) C_(k-1) + (k-3)! ((1+b) - (1+b)^(k-1))   (Z),

    and the three are divided by (n-1)! once, at the end.  The power
    (1+b)^(k-1) is carried from step to step, one product by (1+b)
    each, so the whole recurrence costs O(n^2) integer operations.  A_n
    is built without it, so a wrong power still fails the check.
    """
    _pole_order(n)
    # Ascending integer coefficients of A_k, B_k, C_k and (1+b)^(k-1).
    x_part, y_part, z_part, power = [0, 1], [-1, -1], [0, 0], [1, 1]
    fact = 1  # (k-3)! at step k
    for k in range(3, n + 1):
        m = k - 2
        # c -> m (1+b) c is  c_j <- m (c_j + c_(j-1)).
        power = [p + q for p, q in zip(power + [0], [0] + power)]
        x_part = [m * (p + q) for p, q in zip(x_part + [0], [0] + x_part)]
        x_part[1] += m * fact
        y_part = [m * (p + q) for p, q in zip(y_part + [0], [0] + y_part)]
        z_part = [
            m * (p + q) - fact * r
            for p, q, r in zip(z_part + [0], [0] + z_part, power)
        ]
        z_part[0] += fact
        z_part[1] += fact
        fact *= m
    # Now fact = (n-2)!, so (n-1)! X_n = fact ((1+b)^(n-1) - 1) and
    # (n-1)! Y_n = -fact (1+b)^(n-1).
    expected_x = [fact * p for p in power]
    expected_x[0] -= fact
    if x_part != expected_x or y_part != [-fact * p for p in power]:
        raise AssertionError("recurrence disagrees with closed-form parts")
    scale = fact * (n - 1)
    x_poly, y_poly, z_poly = (
        Polynomial([Fraction(c, scale) for c in part])
        for part in (x_part, y_part, z_part)
    )
    return LogIntegralParts(
        n=n, log_b=x_poly, log_one_plus_b=y_poly, rational=z_poly
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
        _log_power(self.log_power, 1, "log_power")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


def integrate_rational_log(spec: IntegralSpec) -> ClosedForm:
    """Exact closed form for the integral described by ``spec``.

    The denominator is factored over Q first (NonRationalPole if
    impossible), and the domain is decided from its factors alone,
    before any decomposition: a log power of 2 or more with a pole
    raises UnsupportedLogPower, and then each pole, in ascending order,
    must lie outside [lower, upper] and strictly below 0.  So a factored
    and an expanded Q give the same error.  Only then is the fraction
    decomposed.  It is not reduced first: a denominator factor names a
    pole even if the numerator happens to cancel it, with all its
    residues zero.
    """
    fd = factored(spec.denominator)

    if spec.log_power >= 2 and fd.factors:
        raise UnsupportedLogPower(
            "log powers >= 2 are only supported for polynomial integrands"
        )

    for pole in sorted(-shift for shift, _ in fd.factors):
        if spec.lower <= pole <= spec.upper:
            raise PoleInInterval(
                f"pole at x = {pole} lies inside [{spec.lower}, {spec.upper}]"
            )
        if pole >= 0:
            raise UnsupportedPole(
                f"pole at x = {pole} is not on the negative axis"
            )

    decomp = partial_fractions(spec.numerator, fd)
    return ClosedForm(_rational_log_terms(decomp, spec))


def _rational_log_terms(decomp: FactoredRationalFunction, spec: IntegralSpec):
    # F(upper) - F(lower), with F(t) the integral based at 0 (F(0) = 0):
    # the terms of every piece at both limits, each piece scaled once by
    # its sign times its residue.
    for t, sign in ((spec.upper, 1), (spec.lower, -1)):
        if t == 0:
            continue
        for atom, c in _poly_log_terms(decomp.quotient, t, spec.log_power):
            yield atom, sign * c
        for pole in decomp.poles:
            for j, c in enumerate(pole.residues, start=1):
                if not c:
                    continue
                if j == 1:
                    piece = _simple_pole_terms(t, pole.shift)
                else:
                    piece = _multiple_pole_terms(j, t, pole.shift)
                w = sign * c
                for atom, a in piece:
                    yield atom, w * a
