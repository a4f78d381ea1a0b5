"""Numeric oracle: adaptive quadrature for int_a^b R(x) (ln x)^m dx.

This route never touches the closed-form machinery, so it can referee
it.  The integrand is the raw (numerator, denominator) Polynomial pair,
never its partial-fraction decomposition: the oracle evaluates P(x)/Q(x)
in floats and decides the real poles exactly from Q's coefficients, so
it shares no algebra with the routes it checks.  A polynomial P is
(P, 1).

For a = 0 with m >= 1 the integrand has a logarithmic singularity at the
origin; the substitution x = exp(-u) turns int_0^s into

    int_{-ln s}^{inf} R(exp(-u)) (-u)^m exp(-u) du

whose integrand is smooth and exponentially decaying.  The infinite tail
is cut at a point U > -ln s chosen so that  C * Gamma(m+1, U)  is far
below the requested tolerance, C being a sampled bound for |R| near the
origin; the cut contributes to the reported error estimate.

A real pole within the integration interval, or within rounding distance
of either endpoint, raises SingularInterior, whose message names the
float nearest the least such pole; an infinite upper limit counts only
the poles at or above the lower one.  The test is exact, on Q's integer
coefficients (Collins and Akritas, 1976): Descartes' rule of signs
alone when Q's coefficients show no sign change and Q(0) != 0, as for
every denominator whose poles are all negative; otherwise sign
variations of Q mapped onto the interval, and exact bisection of its
square-free part where they leave the count open.  Coefficients or
bounds beyond float range raise DomainError; a tail that cannot be
bounded raises NoConvergence.  QUADPACK's subinterval limit bounds the
work; a piece that reaches it short of the tolerance is not converged.

QUADPACK's QAGS (finite ranges) and QAGI ([a, inf)) run in-tree, from
`logint.quadpack`; the tests referee that port against
scipy.integrate.quad, which must return the same floats to the bit.  P
and Q are converted to floats once per call, each QUADPACK rule
evaluates its nodes in one call of the integrand, and each node costs
float arithmetic only.  The oracle depends on the standard library
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


def _variations(coeffs) -> int:
    """The sign changes of a coefficient sequence, zeros skipped."""
    signs = [c > 0 for c in coeffs if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _primitive(coeffs) -> list[int]:
    """Rational coefficients as coprime integers, the last one positive."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (lcm // c.denominator) for c in coeffs]
    g = math.gcd(*ints)
    return [c // (g if ints[-1] > 0 else -g) for c in ints]


def _shift(coeffs: list[int], s: int) -> list[int]:
    """The coefficients of p(x + s) (Taylor shift, ascending order)."""
    out = list(coeffs)
    n = len(out)
    for i in range(n - 1):
        for k in range(n - 2, i - 1, -1):
            out[k] += s * out[k + 1]
    return out


def _to_unit(coeffs: list[int], origin: int, width: int, denom: int) -> list[int]:
    """denom^d p((origin + width*t)/denom): p with the interval from
    origin/denom to (origin + width)/denom mapped onto t in [0, 1]."""
    d = len(coeffs) - 1
    out = _shift([c * denom ** (d - k) for k, c in enumerate(coeffs)], origin)
    return [c * width**k for k, c in enumerate(out)]


def _unit_variations(coeffs: list[int]) -> int:
    """Sign changes of (1+t)^d p(1/(1+t)), whose positive roots t are
    the roots of p in (0, 1): by Descartes' rule, their number is this
    count less an even number."""
    return _variations(_shift(coeffs[::-1], 1))


def _least_unit_root(coeffs: list[int]) -> tuple[Fraction, Fraction] | None:
    """(lo, hi) within [0, 1] holding the least root of the square-free
    p in (0, 1), and no other one, or (t, t) when that root is t; None
    when p has no root there.  p(0) must not be 0.

    Collins and Akritas (1976): bisect until the count of sign changes
    is 0 (no root) or 1 (exactly one), which Vincent's theorem says
    happens once the piece is small enough.  The pieces are taken left
    to right, each with its own copy of p mapped onto (0, 1)."""
    stack = [(coeffs, 0, 0)]  # p of the piece (c/2^k, (c+1)/2^k)
    while stack:
        p, c, k = stack.pop()
        if p is None:  # its left end is a root, and the least one
            return Fraction(c, 2**k), Fraction(c, 2**k)
        v = _unit_variations(p)
        if v == 1:
            return Fraction(c, 2**k), Fraction(c + 1, 2**k)
        if v == 0:
            continue
        d = len(p) - 1
        left = [a * 2 ** (d - j) for j, a in enumerate(p)]  # 2^d p(t/2)
        right = _shift(left, 1)
        # A root at the midpoint is less than any of the right half's.
        stack.append((right if right[0] else None, 2 * c + 1, k + 1))
        stack.append((left, 2 * c, k + 1))
    return None


def _sign_at(coeffs: list[int], x: Fraction) -> int:
    """The sign of p(x), exactly."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def _as_float(x: Fraction) -> float:
    """float(x), or inf above float range (every x here is >= lo)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _nearest_float(coeffs: list[int], lo: Fraction, hi: Fraction) -> float:
    """The float nearest the one root of p in (lo, hi), where p(lo) != 0;
    by exact bisection until lo and hi round to one float, or to
    neighbours, which the sign of p halfway between them decides."""
    if lo < 0 < hi and coeffs[0] == 0:
        # The root is 0, where the floats are densest: bisection would
        # take about 1,100 halvings to reach it.
        return 0.0
    s = _sign_at(coeffs, lo)
    while True:
        u, v = _as_float(lo), _as_float(hi)
        if u == v:
            return u
        if math.nextafter(u, math.inf) == v < math.inf:
            mid = (Fraction(u) + Fraction(v)) / 2
            sm = _sign_at(coeffs, mid)
            return float(mid) if sm == 0 else v if sm == s else u
        mid = (lo + hi) / 2
        sm = _sign_at(coeffs, mid)
        if sm == 0:
            return _as_float(mid)
        if sm == s:
            lo = mid
        else:
            hi = mid


def _square_free(coeffs: list[int]) -> list[int]:
    """p / gcd(p, p'): the same roots, each of multiplicity one."""
    p = Polynomial(coeffs)
    g, r = p, p.derivative()
    while r:
        g, r = r, g % r
    return _primitive((p // g).coeffs)


def _pole_in(coeffs, lo: float, hi: float) -> float | None:
    """The float nearest the least real root of Q in [lo, hi], or None.

    Q is given by its exact coefficients, lowest degree first; lo and hi
    count as the exact rationals they are, and hi may be inf.  The
    decision is exact: Descartes' rule of signs on images of Q, with no
    float root-finding.  An endpoint root shows as a zero end
    coefficient of Q mapped onto [0, 1]."""
    if lo >= 0.0 and coeffs[0] and _variations(c.numerator for c in coeffs) == 0:
        # No sign change and Q(0) != 0: no root in [0, inf).  This holds
        # for every denominator whose poles are all negative.
        return None
    q = _primitive(coeffs)
    if hi == math.inf:
        # Cauchy's bound: every root x of Q has |x| < hi.
        hi = 1 - (-max(map(abs, q[:-1]), default=0) // q[-1])
        if hi <= lo:
            return None
    a = Fraction(lo)
    b = Fraction(hi)
    # [lo, hi] = [origin, origin + width] / denom, in integers.
    denom = math.lcm(a.denominator, b.denominator)
    origin = a.numerator * (denom // a.denominator)
    width = b.numerator * (denom // b.denominator) - origin

    def x_at(t: Fraction) -> Fraction:
        return (origin + width * t) / denom

    p = _to_unit(q, origin, width, denom)
    if p[0] == 0:
        return lo
    v = _unit_variations(p)
    if v == 1:
        # Exactly one root in (lo, hi), and a simple one.
        return _nearest_float(q, a, b)
    if v >= 2:
        # A multiple root counts more than once; the square-free part
        # has the same roots, each once, so bisection can isolate them.
        sf = _square_free(q)
        piece = _least_unit_root(_to_unit(sf, origin, width, denom))
        if piece is not None:
            t_lo, t_hi = piece
            if t_lo == t_hi:
                return _as_float(x_at(t_lo))
            return _nearest_float(sf, x_at(t_lo), x_at(t_hi))
    if sum(p) == 0:
        return hi
    return None


def quad_log(
    integrand: tuple[Polynomial, Polynomial],
    a,
    b,
    m: int = 1,
    tol: float = 1e-11,
) -> QuadResult:
    """Numerically integrate P(x)/Q(x) (ln x)^m over [a, b], 0 <= a < b,
    the integrand given as the pair (P, Q)."""
    # Imported on first use, not with the module: compiling quadpack
    # from source adds about 0.8 MB, and the symbolic side never needs it.
    from .quadpack import qagi, qags

    num, den = integrand
    try:
        a = float(a)
        b = float(b)
        # Converted once, highest degree first: every node then costs
        # float arithmetic only, and the evaluation cannot overflow.
        num_coeffs = [float(c) for c in reversed(num.coeffs)]
        den_coeffs = [float(c) for c in reversed(den.coeffs)]
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
    pole = _pole_in(
        den.coeffs, a - 1e-12 * (1.0 + a), b + 1e-12 * (1.0 + b)
    )
    if pole is not None:
        raise SingularInterior(
            f"integrand has a pole at x = {pole:.17g} inside [{a:g}, {b:g}]"
        )

    def f(xs: list[float], log_weighted: bool = False) -> list[float]:
        """P(x)/Q(x) at each node, times (ln x)^m if log_weighted."""
        out = []
        for x in xs:
            # Horner's rule in the order of Polynomial.__call__, so the
            # floats are the ones it gives.
            p = 0.0
            for c in num_coeffs:
                p = p * x + c
            q = 0.0
            for c in den_coeffs:
                q = q * x + c
            try:
                fx = p / q
            except ZeroDivisionError:
                # Safety code: the exact test leaves no pole in [a, b],
                # but Q's float value can still be 0.0 at a node, by
                # cancellation or underflow beside a pole outside it.
                raise SingularInterior(
                    f"integrand has a pole at x = {x:.17g} inside [{a:g}, {b:g}]"
                ) from None
            out.append(fx * math.log(x) ** m if log_weighted else fx)
        return out

    def log_weighted(xs: list[float]) -> list[float]:
        return f(xs, True)

    tail_bound = 0.0
    if a == 0.0 and m >= 1:
        split = min(b, 1.0)
        u0 = -math.log(split)  # 0 when b >= 1
        # Bound |R| near the origin to place the tail cut.
        cut = None
        for u_cut in (40.0, 80.0, 160.0, 320.0, 640.0):
            if u_cut <= u0:  # b < e^-40: the range starts past this cut
                continue
            samples = [math.exp(-u_cut), math.exp(-2.0 * u_cut), 0.0]
            c_bound = 1.5 * max(map(abs, f(samples)))
            bound = c_bound * _upper_incomplete_gamma(m, u_cut)
            if bound <= tol / 10.0:
                cut = u_cut
                tail_bound = bound
                break
        if cut is None:
            raise NoConvergence("could not bound the tail of the integrand")

        def transformed(us: list[float]) -> list[float]:
            xs = [math.exp(-u) for u in us]
            return [fx * (-u) ** m * x for fx, u, x in zip(f(xs), us, xs)]

        pieces = [(transformed, u0, cut)]
        if b > 1.0:
            pieces.append((log_weighted, 1.0, b))
    else:
        pieces = [(log_weighted, a, b)]

    # QUADPACK counts the evaluations (neval) and bounds them: with
    # limit=200 a piece stops after at most 21 + 42 * 199 of them.
    outs = [
        qagi(g, lo, epsabs=tol / 4.0, epsrel=1e-12, limit=200)
        if hi == math.inf
        else qags(g, lo, hi, epsabs=tol / 4.0, epsrel=1e-12, limit=200)
        for g, lo, hi in pieces
    ]
    value = math.fsum(out.value for out in outs)
    err = math.fsum(out.abserr for out in outs) + tail_bound
    clean = all(out.ier == 0 for out in outs)
    converged = clean and err <= max(tol, 1e-12 * abs(value))
    return QuadResult(
        value=value,
        abs_error_estimate=err,
        evaluations=sum(out.neval for out in outs),
        converged=converged,
    )
