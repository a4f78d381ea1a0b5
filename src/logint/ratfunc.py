"""Rational functions with exact partial-fraction decompositions.

A denominator is kept as a product of linear factors (x + shift)^mult
with distinct rational shifts, times a nonzero rational constant.  It
is multiplied out in integer arithmetic (`FactoredDenominator.expand`),
because every decomposition pays for that expansion.  The decomposition
of P/Q is

    P/Q = quotient(x) + sum over poles i, powers j of
          residues[i][j-1] / (x + shift_i)^j

computed entirely over the rationals: the polynomial part by exact long
division, needed only when deg P >= deg Q, and the residues at a pole of
multiplicity m by a truncated power-series division of the numerator's
Taylor head there (P's first m Taylor coefficients) by the cofactor's
series.  The residues need no remainder P mod Q: P and the remainder
differ by quotient * Q, which adds to P over the cofactor only terms of
order m and above.  The head is m synthetic divisions of P by
(x - root), keeping each remainder; the cofactor (Q without the pole's
factor) is Q's coefficients divided by (x - root) m times by the same
step (`_synthetic_division`), which must leave no remainder there
(`_deflate`).  Neither needs a power of (x + shift) or a long division.

An expanded denominator is split into its rational linear factors first
(`rational_roots_factorize`), in integer arithmetic on the primitive
integer multiple f of q.  Candidates p/s come from the rational root
theorem, and each is decided by dividing it out of f (`_divide_out`):
one integral synthetic division is at once the root test and the
deflation.  Roots are returned with 0 first, then in ascending order.
`factored` is the one caller of `factor_denominator`: it turns either
form of Q into factors, for `partial_fractions` and for
`integrate_rational_log`, which rejects a pole before any decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import NonRationalPole, PoleCollision, ZeroDenominator
from .poly import MAX_DEGREE, Polynomial, at_most, exact, integer_at_least


@dataclass(frozen=True)
class FactoredDenominator:
    """Product  constant * prod_i (x + shift_i)^multiplicity_i, of degree
    at most MAX_DEGREE."""

    constant: Fraction
    factors: tuple[tuple[Fraction, int], ...]  # (shift, multiplicity)

    def __post_init__(self) -> None:
        const = exact(self.constant, "constant factor")
        if const == 0:
            raise ZeroDenominator("constant factor must be nonzero")
        seen: set[Fraction] = set()
        norm: list[tuple[Fraction, int]] = []
        for shift, mult in self.factors:
            shift = exact(shift, "factor shift")
            integer_at_least(mult, 1, "factor multiplicity")
            if shift in seen:
                raise PoleCollision(f"repeated factor (x + {shift})")
            seen.add(shift)
            norm.append((shift, mult))
        object.__setattr__(self, "constant", const)
        object.__setattr__(self, "factors", tuple(norm))
        at_most(self.degree, MAX_DEGREE, "denominator degree")

    def expand(self) -> Polynomial:
        """The product multiplied out, in integers.

        With each shift p/s in lowest terms,

            c * prod (x + p/s)^m  =  (c / prod s^m) * prod (s x + p)^m ,

        so the coefficients of prod (s x + p)^m are integers.  They are
        built one linear factor at a time, a step that costs two integer
        products per coefficient, and each is made a Fraction once, when
        the scale c / prod s^m is applied.  A product of Fraction
        polynomials would take a gcd per coefficient at every step.
        """
        f = [1]
        scale = 1
        for shift, mult in self.factors:
            p, s = shift.numerator, shift.denominator
            scale *= s**mult
            for _ in range(mult):
                # f * (s x + p): f_k <- p f_k + s f_(k-1), from the top down.
                f.append(s * f[-1])
                for k in range(len(f) - 2, 0, -1):
                    f[k] = p * f[k] + s * f[k - 1]
                f[0] *= p
        c = self.constant / scale
        return Polynomial([Fraction(c.numerator * a, c.denominator) for a in f])

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.factors)


def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, in ascending order.

    They are built from the prime factorization of |n|, found by trial
    division that stops at the square root of the cofactor still left,
    so a smooth n is quick however large it is.  An n with a large
    prime factor still costs up to its square root in divisions.
    """
    n = abs(n)
    divs = [1]
    p = 2
    while p * p <= n:
        if n % p == 0:
            powers = [1]
            while n % p == 0:
                n //= p
                powers.append(powers[-1] * p)
            divs = [d * e for d in divs for e in powers]
        p += 1 if p == 2 else 2
    if n > 1:
        divs += [d * n for d in divs]
    return sorted(divs)


def _divide_out(f: list[int], p: int, s: int) -> Optional[list[int]]:
    """f / (s x - p) for ascending integer coefficients f and p/s in
    lowest terms, or None if p/s is not a root of f.

    The quotient g is built from the top, g_(k-1) = (f_k + p g_k) / s.
    Gauss's lemma: (s x - p) is primitive, so p/s is a root exactly when
    every step divides and the remainder f_0 + p g_0 is zero.
    """
    g = [0] * (len(f) - 1)
    acc = f[-1]
    for k in range(len(g), 0, -1):
        g[k - 1], r = divmod(acc, s)
        if r:
            return None
        acc = f[k - 1] + p * g[k - 1]
    return g if acc == 0 else None


def _synthetic_division(
    f: Sequence[Fraction], root: Fraction
) -> tuple[list[Fraction], Fraction]:
    """(g, r) with f = (x - root) g + r, for ascending rational
    coefficients f, by synthetic division: g_(k-1) = f_k + root g_k from
    the top, and r = f(root).  The zero polynomial gives ([], 0)."""
    if not f:
        return [], Fraction(0)
    g = [Fraction(0)] * (len(f) - 1)
    acc = f[-1]
    for k in range(len(g), 0, -1):
        g[k - 1] = acc
        acc = f[k - 1] + root * acc
    return g, acc


def _deflate(f: Sequence[Fraction], root: Fraction) -> list[Fraction]:
    """f / (x - root) for ascending rational coefficients f of which root
    is a root.  The division must be exact; a remainder raises
    ArithmeticError.
    """
    g, r = _synthetic_division(f, root)
    if r:
        raise ArithmeticError(f"x = {root} is not a root of the denominator")
    return g


def _taylor_head(f: Sequence[Fraction], root: Fraction, n: int) -> list[Fraction]:
    """The first n Taylor coefficients of f at root, f(root) first: the
    remainders of n synthetic divisions by (x - root), each dividing the
    quotient of the one before."""
    head = []
    for _ in range(n):
        f, r = _synthetic_division(f, root)
        head.append(r)
    return head


def rational_roots_factorize(
    q: Polynomial,
) -> tuple[list[tuple[Fraction, int]], Polynomial]:
    """Split off every rational root of q, with multiplicity.

    Returns (roots, remainder) where roots is a list of (root, mult)
    pairs and remainder has no rational roots, such that

        q == remainder * prod (x - root)^mult .

    The root 0 comes first, as a power of x stripped off q; the nonzero
    roots follow in ascending order.  The search runs on the primitive
    integer multiple f of what is left, in integers only.  By the
    rational root theorem a root is p/s in lowest terms with p | f(0)
    and s | lead(f); each candidate is divided out of f by synthetic
    division as often as it divides.
    The remainder is the exact rational multiple of the final integer
    cofactor whose leading coefficient is lead(q).
    """
    if q.is_zero:
        raise ZeroDenominator("cannot factor the zero polynomial")

    coeffs = q.coeffs
    k = 0
    while coeffs[k] == 0:
        k += 1
    coeffs = coeffs[k:]

    scale = math.lcm(*(c.denominator for c in coeffs))
    f = [c.numerator * (scale // c.denominator) for c in coeffs]
    content = math.gcd(*f)
    f = [c // content for c in f]

    lead_divs = _divisors(f[-1])
    candidates = (
        (p, s)
        for p_abs in _divisors(f[0])
        for s in lead_divs
        if math.gcd(p_abs, s) == 1
        for p in (p_abs, -p_abs)
    )
    found: list[tuple[Fraction, int]] = []
    for p, s in candidates:
        if len(f) == 1:
            break
        mult = 0
        while (g := _divide_out(f, p, s)) is not None:
            f, mult = g, mult + 1
        if mult:
            found.append((Fraction(p, s), mult))

    found.sort()
    roots = ([(Fraction(0), k)] if k else []) + found
    ratio = coeffs[-1] / f[-1]
    return roots, Polynomial([ratio * c for c in f])


def factor_denominator(q: Polynomial) -> FactoredDenominator:
    """Factor q into linear terms over Q, or raise NonRationalPole."""
    roots, remainder = rational_roots_factorize(q)
    if remainder.degree >= 1:
        raise NonRationalPole(
            f"denominator factor {remainder} has no rational root"
        )
    return FactoredDenominator(
        constant=remainder.coeff(0),
        factors=tuple((-root, mult) for root, mult in roots),
    )


def factored(q: Union[Polynomial, FactoredDenominator]) -> FactoredDenominator:
    """q as linear factors: a FactoredDenominator as given, a Polynomial
    through factor_denominator."""
    if isinstance(q, Polynomial):
        return factor_denominator(q)
    return q


@dataclass(frozen=True)
class PoleTerm:
    """All partial-fraction terms attached to one pole x = -shift."""

    shift: Fraction
    residues: tuple[Fraction, ...]  # residues[j-1] / (x + shift)^j; multiplicity len(residues)


@dataclass(frozen=True)
class FactoredRationalFunction:
    """quotient(x) + sum of residue/(x + shift)^j terms."""

    quotient: Polynomial
    poles: tuple[PoleTerm, ...]

    def recompose(self) -> tuple[Polynomial, Polynomial]:
        """Return (P, Q) with self == P/Q and Q the monic denominator;
        two poles with one shift raise PoleCollision.

        Q and each rest * (x + shift)^(mult - j), rest being Q without
        the pole's factor, are multiplied out one linear factor at a time,
        with no division and not by `FactoredDenominator.expand`, so that
        a recomposition test does not share the algebra of the route it
        checks.
        """
        factors = tuple((pole.shift, len(pole.residues)) for pole in self.poles)
        FactoredDenominator(1, factors)  # a repeated shift raises PoleCollision
        p, q = Polynomial(), Polynomial.constant(1)
        for pole in self.poles:
            # q runs through rest * (x + shift)^(mult - j), j = mult, ..., 1,
            # and ends as Q.
            q = Polynomial.constant(1)
            for shift, mult in factors:
                for _ in range(mult if shift != pole.shift else 0):
                    q = q * Polynomial((shift, 1))
            for c in reversed(pole.residues):
                p = p + c * q
                q = q * Polynomial((pole.shift, 1))
        return p + self.quotient * q, q


def partial_fractions(
    numerator: Polynomial,
    denominator: Union[Polynomial, FactoredDenominator],
) -> FactoredRationalFunction:
    """Exact partial-fraction decomposition of numerator/denominator.

    A plain Polynomial denominator is factored first; a factor with no
    rational root raises NonRationalPole.

    At a pole of multiplicity m the residues are the first m Taylor
    coefficients of P over the cofactor, the series of P's Taylor head
    divided by the cofactor's.  They are those of (P mod Q) over the
    cofactor too, so P is divided by Q only for a nonzero quotient.
    """
    denominator = factored(denominator)
    q_expanded = denominator.expand()
    quotient = Polynomial()
    if numerator.degree >= q_expanded.degree:
        quotient = divmod(numerator, q_expanded)[0]

    poles: list[PoleTerm] = []
    for shift, mult in denominator.factors:
        root = -shift
        # q with this factor removed, Taylor-expanded about the pole.
        other = q_expanded.coeffs
        for _ in range(mult):
            other = _deflate(other, root)
        d = Polynomial(other).shift(root).coeffs  # d[0] = other(root) != 0
        r = _taylor_head(numerator.coeffs, root, mult)
        series: list[Fraction] = []
        for t in range(mult):
            num = r[t] - sum(series[u] * d[t - u] for u in range(t) if t - u < len(d))
            series.append(num / d[0])
        residues = tuple(series[mult - j] for j in range(1, mult + 1))
        poles.append(PoleTerm(shift=shift, residues=residues))

    return FactoredRationalFunction(quotient=quotient, poles=tuple(poles))
