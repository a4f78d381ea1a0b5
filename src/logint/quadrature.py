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
the poles at or above the lower one.  The test is exact, in integers on
Q's coefficients: Descartes' rule of signs alone when they show no sign
change and Q(0) != 0, as for every denominator whose poles are all
negative; otherwise Sturm's theorem (Sturm, 1835), which counts Q's
distinct real roots in any interval, and one bisection by that count,
which names the pole.  Coefficients or bounds beyond float range raise
DomainError; a tail that cannot be bounded raises NoConvergence.
QUADPACK's subinterval limit bounds the work; a piece that reaches it
short of the tolerance is not converged.

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


def _as_float(x: Fraction) -> float:
    """float(x), or inf above float range (every x here is >= lo)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _scaled_at(p: list[int], x: Fraction) -> int:
    """den(x)^deg p(x) for a rational x: an integer with the sign of p(x)."""
    n, d = x.numerator, x.denominator
    acc, w = 0, 1
    for c in reversed(p):
        acc = acc * n + c * w
        w *= d
    return acc


def _derivative(p: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def _sturm(q: list[int]) -> list[list[int]]:
    """Q's Sturm sequence: Q, Q' and each remainder negated, every one
    scaled by a positive factor to coprime integers."""
    chain = [q, _derivative(q)]
    while len(chain[-1]) > 1:
        r, g = list(chain[-2]), chain[-1]
        # Pseudo-division by |lead g|, which keeps the remainder's sign.
        while len(r) >= len(g):
            c = r.pop() if g[-1] > 0 else -r.pop()
            s = len(r) + 1 - len(g)
            r = [abs(g[-1]) * a for a in r]
            for i, b in enumerate(g[:-1]):
                r[s + i] -= c * b
            while r and not r[-1]:
                r.pop()
        if not r:
            break
        content = math.gcd(*r)
        chain.append([-a // content for a in r])
    return chain


def _sturm_variations(chain: list[list[int]], x: Fraction) -> int:
    """V(x): the chain's sign changes at x.  At a repeated root every
    element is 0, being a multiple of gcd(Q, Q'); differentiating each
    as often as the root's multiplicity there divides that factor out."""
    while True:
        values = [_scaled_at(p, x) for p in chain]
        if any(values):
            return _variations(values)
        chain = [_derivative(p) for p in chain]


def _pole_in(coeffs, lo: float, hi: float) -> float | None:
    """The float nearest the least real root of Q in [lo, hi], or None.

    Q is given by its exact coefficients, lowest degree first; lo and hi
    count as the exact rationals they are, and hi may be inf.  The
    decision is exact and in integers, with no float root-finding: by
    Sturm's theorem, Q has V(a) - V(b) distinct roots in (a, b], V(x)
    being the sign changes of Q's Sturm sequence at x.  One bisection
    of (lo, hi] keeps the half that holds the least root, until its
    ends round to one float."""
    if lo >= 0.0 and coeffs[0] and _variations(c.numerator for c in coeffs) == 0:
        # No sign change and Q(0) != 0: no root in [0, inf).  This holds
        # for every denominator whose poles are all negative.
        return None
    q = _primitive(coeffs)
    zero = None
    if q[0] == 0:
        # Strip the factor x^k; with 0 inside, search only [lo, 0], as
        # bisecting toward 0, where floats are densest, takes ~1,100 steps.
        q = q[next(k for k, c in enumerate(q) if c):]
        if lo <= 0.0 <= hi:
            zero = hi = 0.0
    if hi == math.inf:
        # Cauchy's bound: every root x of Q has |x| < hi.
        hi = 1 - (-max(map(abs, q[:-1]), default=0) // q[-1])
    a, b = Fraction(lo), Fraction(hi)
    if _scaled_at(q, a) == 0:
        return lo
    chain = _sturm(q)
    va = _sturm_variations(chain, a)
    if va <= _sturm_variations(chain, b):
        return zero
    # The least root lies in (a, b], and a is no root.
    while True:
        u, v = _as_float(a), _as_float(b)
        if u == v:
            return u
        if math.nextafter(u, math.inf) == v < math.inf:
            # Neighbours: the least root rounds to u below their midpoint
            # m, to v above it, and to float(m) if it is m, the one root
            # in (a, m].
            m = (Fraction(u) + Fraction(v)) / 2
            n = va - _sturm_variations(chain, m)
            if n == 0:
                return v
            return float(m) if n == 1 and _scaled_at(q, m) == 0 else u
        m = (a + b) / 2
        vm = _sturm_variations(chain, m)
        if vm < va:
            b = m
        else:
            a, va = m, vm


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

    def rational(xs: list[float]) -> list[float]:
        """P(x)/Q(x) at each node."""
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
                out.append(p / q)
            except ZeroDivisionError:
                # Safety code: the exact test leaves no pole in [a, b],
                # but Q's float value can still be 0.0 at a node, by
                # cancellation or underflow beside a pole outside it.
                raise SingularInterior(
                    f"integrand has a pole at x = {x:.17g} inside [{a:g}, {b:g}]"
                ) from None
        return out

    def log_weighted(xs: list[float]) -> list[float]:
        return [fx * math.log(x) ** m for fx, x in zip(rational(xs), xs)]

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
            c_bound = 1.5 * max(map(abs, rational(samples)))
            bound = c_bound * _upper_incomplete_gamma(m, u_cut)
            if bound <= tol / 10.0:
                cut = u_cut
                tail_bound = bound
                break
        if cut is None:
            raise NoConvergence("could not bound the tail of the integrand")

        def transformed(us: list[float]) -> list[float]:
            xs = [math.exp(-u) for u in us]
            return [fx * (-u) ** m * x for fx, u, x in zip(rational(xs), us, xs)]

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
