"""Random-case generators shared by the property and acceptance tests.

All draws go through an explicit random.Random instance so every suite
is reproducible from its stated seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from logint import FactoredDenominator, IntegralSpec, Polynomial

# Pole shifts live on the half-integer grid [1/2, 5]: distinct values are
# then automatically separated by >= 1/2, which keeps partial-fraction
# residues moderate and quadrature well-conditioned.
POLE_GRID = [Fraction(k, 2) for k in range(1, 11)]
BOUND_GRID = [Fraction(k, 4) for k in range(1, 41)]  # (0, 10]
CONSTANTS = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1), Fraction(-2)]


def random_polynomial(rng: random.Random, max_degree: int = 4,
                      lo: int = -9, hi: int = 9) -> Polynomial:
    """Nonzero polynomial with small integer coefficients."""
    while True:
        degree = rng.randint(0, max_degree)
        coeffs = [rng.randint(lo, hi) for _ in range(degree + 1)]
        p = Polynomial(coeffs)
        if not p.is_zero:
            return p


def random_factored_denominator(
    rng: random.Random, max_poles: int = 3, max_mult: int = 4
) -> FactoredDenominator:
    n_poles = rng.randint(1, max_poles)
    shifts = rng.sample(POLE_GRID, n_poles)
    factors = tuple((s, rng.randint(1, max_mult)) for s in shifts)
    return FactoredDenominator(constant=rng.choice(CONSTANTS), factors=factors)


def random_bounds(rng: random.Random, allow_zero_lower: bool = True) -> tuple[Fraction, Fraction]:
    if allow_zero_lower and rng.random() < 0.2:
        lower = Fraction(0)
    else:
        lower = rng.choice(BOUND_GRID[:-1])
    upper = rng.choice([u for u in BOUND_GRID if u > lower])
    return lower, upper


def random_spec(rng: random.Random) -> IntegralSpec:
    lower, upper = random_bounds(rng)
    return IntegralSpec(
        numerator=random_polynomial(rng),
        denominator=random_factored_denominator(rng),
        lower=lower,
        upper=upper,
        log_power=1,
    )


def linear_product(den: FactoredDenominator) -> Polynomial:
    """c * prod (x + s)^m multiplied out as a product of linear-factor
    Polynomials, not by `FactoredDenominator.expand`, so that a check
    built on it shares no algebra with the symbolic route it referees."""
    q = Polynomial.constant(den.constant)
    for shift, mult in den.factors:
        for _ in range(mult):
            q = q * Polynomial((shift, 1))
    return q


def oracle_integrand(spec: IntegralSpec) -> tuple[Polynomial, Polynomial]:
    """Raw (P, Q) pair, Q multiplied out, for a test that evaluates Q at
    a float.  quad_log itself takes the spec's denominator as it is."""
    den = spec.denominator
    if isinstance(den, FactoredDenominator):
        den = linear_product(den)
    return spec.numerator, den
