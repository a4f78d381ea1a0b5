"""Coefficient families from the unit-pole integrals, and shape checks.

The rational part Z_n of (1+b)^(n-1) h_n(b) hides a polynomial with
nonnegative integer coefficients:

    t_n(b) = -(n-1)! Z_n(b) / (b (1+b))

satisfying  t_2 = 0  and

    t_n = (n-2)(1+b) t_{n-1} + (n-3)! ((1+b)^(n-2) - 1) / b .

Composing with b -> b - 1 gives s_n(b) = t_n(b-1), which has its own
recurrence  s_n = (n-2) b s_{n-1} + (n-3)! (1 + b + ... + b^(n-3)) and
constant term (n-3)!.  Its coefficients have a closed form: that of b^j
is (n-2)! (H_{n-2} - H_{n-3-j}) = (n-2)! (1/(n-2-j) + ... + 1/(n-2)),
j = 0..n-3, with H_k the k-th harmonic number.  That harmonic tail gains
one positive term with each j, so the s_n coefficient sequences are
nondecreasing, hence unimodal; the t_n sequences are unimodal as a
consequence (a nonnegative-coefficient substitution b -> b+1 of a
nondecreasing sequence stays unimodal).  The tests check the closed
form against both recurrences for n = 3..60 and n = 120.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import DomainError
from .poly import Polynomial, at_most, integer_at_least

# The largest family index either recurrence accepts.  Each step
# multiplies polynomials of ever larger integers, so the work grows
# faster than n^2: n = 1,000 takes seconds, and an unbounded n would
# never return.
MAX_FAMILY_INDEX = 1000


def _check_family_index(n: int, least: int, what: str) -> None:
    at_most(integer_at_least(n, least, what), MAX_FAMILY_INDEX, what)


def family_poly(n: int) -> Polynomial:
    """t_n for 2 <= n <= MAX_FAMILY_INDEX (t_2 = 0, first nonzero at n = 3)."""
    _check_family_index(n, 2, "family index")
    one_plus = Polynomial((1, 1))
    t = Polynomial()
    for k in range(3, n + 1):
        # ((1+b)^(k-2) - 1)/b has coefficients C(k-2, r+1), r = 0..k-3.
        geom = Polynomial(tuple(math.comb(k - 2, r + 1) for r in range(k - 2)))
        t = (k - 2) * one_plus * t + math.factorial(k - 3) * geom
    return t


def shifted_family_poly(n: int) -> Polynomial:
    """s_n = t_n composed with b -> b - 1, for 3 <= n <= MAX_FAMILY_INDEX,
    by its own recurrence (s_3 = 1)."""
    _check_family_index(n, 3, "shifted family index")
    b = Polynomial.x()
    s = Polynomial((1,))
    for k in range(4, n + 1):
        geom = Polynomial((1,) * (k - 2))  # 1 + b + ... + b^(k-3)
        s = (k - 2) * b * s + math.factorial(k - 3) * geom
    return s


def check_nondecreasing(p: Polynomial) -> tuple[bool, Optional[int]]:
    """Whether the coefficient sequence c_0..c_deg never decreases.

    Returns (True, None), or (False, i) for the first index i with
    c_i < c_(i-1).
    """
    cs = p.coeffs
    for i in range(1, len(cs)):
        if cs[i] < cs[i - 1]:
            return False, i
    return True, None


def check_unimodal(p: Polynomial) -> tuple[bool, Optional[int]]:
    """Whether the coefficients rise then fall (either part may be empty).

    Returns (True, peak) with the smallest index of a maximal
    coefficient, or (False, None).  A sequence is unimodal exactly when
    every strict rise happens before every strict fall.
    """
    cs = p.coeffs
    if not cs:
        return True, None
    rises = [i for i in range(len(cs) - 1) if cs[i] < cs[i + 1]]
    falls = [i for i in range(len(cs) - 1) if cs[i] > cs[i + 1]]
    if rises and falls and max(rises) > min(falls):
        return False, None
    peak = rises[-1] + 1 if rises else 0
    return True, peak


@dataclass(frozen=True, slots=True)
class CoeffReport:
    """Shape summary for one member of a coefficient family.

    ``coeffs`` holds each integral coefficient as an ``int`` and any
    other as a ``Fraction``, so a report stays small when it is kept and
    still shows a coefficient that is not an integer.  Both print as
    the same string, so JSON and text output are as for Fractions.
    """

    n: int
    family: str  # "base" (t_n) or "shifted" (s_n)
    coeffs: tuple[Union[int, Fraction], ...]
    degree: int
    all_nonneg_integers: bool
    nondecreasing: bool
    first_decrease: Optional[int]
    unimodal: bool
    peak: Optional[int]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "coeffs": [str(c) for c in self.coeffs]}


def coeff_report(n: int, family: str = "shifted") -> CoeffReport:
    if family == "base":
        p = family_poly(n)
    elif family == "shifted":
        p = shifted_family_poly(n)
    else:
        raise DomainError(f"unknown family {family!r}; use 'base' or 'shifted'")
    nondec, first_dec = check_nondecreasing(p)
    unimodal, peak = check_unimodal(p)
    coeffs = tuple(c.numerator if c.denominator == 1 else c for c in p.coeffs)
    return CoeffReport(
        n=n,
        family=family,
        coeffs=coeffs,
        degree=p.degree,
        all_nonneg_integers=all(type(c) is int and c >= 0 for c in coeffs),
        nondecreasing=nondec,
        first_decrease=first_dec,
        unimodal=unimodal,
        peak=peak,
    )
