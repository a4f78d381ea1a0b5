"""Rational functions with exact partial-fraction decompositions.

A denominator is kept as a product of linear factors (x + shift)^mult
with distinct rational shifts, times a nonzero rational constant.  The
decomposition of P/Q is

    P/Q = quotient(x) + sum over poles i, powers j of
          residues[i][j-1] / (x + shift_i)^j

computed entirely over the rationals: the polynomial part by exact long
division, the residues by a Taylor expansion of the remainder around
each pole followed by a truncated power-series division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import NonRationalPole, PoleCollision, ZeroDenominator
from .poly import Polynomial, exact


@dataclass(frozen=True)
class FactoredDenominator:
    """Product  constant * prod_i (x + shift_i)^multiplicity_i."""

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
            if not isinstance(mult, int) or mult < 1:
                raise ValueError("factor multiplicity must be a positive integer")
            if shift in seen:
                raise PoleCollision(f"repeated factor (x + {shift})")
            seen.add(shift)
            norm.append((shift, mult))
        object.__setattr__(self, "constant", const)
        object.__setattr__(self, "factors", tuple(norm))

    def expand(self) -> Polynomial:
        out = Polynomial((self.constant,))
        for shift, mult in self.factors:
            out = out * Polynomial((shift, 1)) ** mult
        return out

    def pole_locations(self) -> tuple[Fraction, ...]:
        return tuple(-shift for shift, _ in self.factors)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.factors)

    def __str__(self) -> str:
        parts = []
        if self.constant != 1 or not self.factors:
            parts.append(str(self.constant))
        for shift, mult in self.factors:
            if shift == 0:
                base = "x"
            elif shift > 0:
                base = f"(x + {shift})"
            else:
                base = f"(x - {-shift})"
            parts.append(base if mult == 1 else f"{base}^{mult}")
        return "".join(parts) if len(parts) == 1 else "*".join(parts)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots_factorize(
    q: Polynomial,
) -> tuple[list[tuple[Fraction, int]], Polynomial]:
    """Split off every rational root of q, with multiplicity.

    Returns (roots, remainder) where roots is a list of (root, mult)
    pairs and remainder has no rational roots, such that

        q == remainder * prod (x - root)^mult .

    Uses the rational root theorem on an integer-scaled copy of q; each
    confirmed root is divided out exactly before the next is tried.
    """
    if q.is_zero:
        raise ZeroDenominator("cannot factor the zero polynomial")

    roots: list[tuple[Fraction, int]] = []
    current = q

    # Strip powers of x first: root at zero.
    k = 0
    while current.degree >= 1 and current.coeff(0) == 0:
        current = Polynomial(current.coeffs[1:])
        k += 1
    if k:
        roots.append((Fraction(0), k))

    if current.degree >= 1:
        scale = math.lcm(*(c.denominator for c in current.coeffs))
        ints = [int(c * scale) for c in current.coeffs]
        g = math.gcd(*ints)
        ints = [c // g for c in ints]
        num_divs = _divisors(ints[0])
        den_divs = _divisors(ints[-1])
        candidates = sorted(
            {Fraction(s * p, qd) for p in num_divs for qd in den_divs for s in (1, -1)}
        )
        for cand in candidates:
            mult = 0
            while current.degree >= 1 and current(cand) == 0:
                current, rem = divmod(current, Polynomial((-cand, 1)))
                assert rem.is_zero
                mult += 1
            if mult:
                roots.append((cand, mult))
            if current.degree < 1:
                break

    return roots, current


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
        two poles with one shift raise PoleCollision."""
        factors = tuple((pole.shift, len(pole.residues)) for pole in self.poles)
        q = FactoredDenominator(1, factors).expand()
        p = self.quotient * q
        for pole in self.poles:
            mult = len(pole.residues)
            base = Polynomial((pole.shift, 1))
            rest = q // base ** mult
            for j, c in enumerate(pole.residues, start=1):
                p = p + c * (rest * base ** (mult - j))
        return p, q


def partial_fractions(
    numerator: Polynomial,
    denominator: Union[Polynomial, FactoredDenominator],
) -> FactoredRationalFunction:
    """Exact partial-fraction decomposition of numerator/denominator.

    A plain Polynomial denominator is factored first; a factor with no
    rational root raises NonRationalPole.
    """
    if isinstance(denominator, Polynomial):
        denominator = factor_denominator(denominator)
    q_expanded = denominator.expand()
    quotient, rem = divmod(numerator, q_expanded)

    poles: list[PoleTerm] = []
    for shift, mult in denominator.factors:
        root = -shift
        # q with this factor removed, Taylor-expanded about the pole.
        other = q_expanded // Polynomial((shift, 1)) ** mult
        d = other.shift(root).coeffs  # d[0] = other(root) != 0
        r = rem.shift(root).coeffs
        series: list[Fraction] = []
        for t in range(mult):
            num = r[t] if t < len(r) else Fraction(0)
            num -= sum(series[u] * d[t - u] for u in range(t) if t - u < len(d))
            series.append(num / d[0])
        residues = tuple(series[mult - j] for j in range(1, mult + 1))
        poles.append(PoleTerm(shift=shift, residues=residues))

    return FactoredRationalFunction(quotient=quotient, poles=tuple(poles))
