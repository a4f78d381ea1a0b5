"""Dense univariate polynomials over the rationals.

Coefficients are `fractions.Fraction`, stored densely in ascending degree
order with no trailing zeros; the zero polynomial is the empty tuple and
reports degree -1.  All arithmetic is exact.  Floats are deliberately
rejected as coefficients (a float that "looks like" 0.1 is not 1/10);
numeric evaluation is still available by calling the polynomial with a
float argument.  ``join_signed`` prints a sum of signed terms as
``a - b + c``, for polynomials and closed forms alike.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DomainError, LimitExceeded

Scalar = Union[int, Fraction]

# The largest degree of a parsed polynomial or factored denominator, and
# so the largest pole order.  Partial fractions and the multiple-pole
# closed forms take O(n^2) steps in the degree n, so an unbounded n
# would never return.
MAX_DEGREE = 1000


def exact(value: Scalar, what: str) -> Fraction:
    """``value`` as a Fraction; a float is refused, since it is not exact."""
    if isinstance(value, float):
        raise TypeError(f"{what} must be exact (int or Fraction), got float")
    return Fraction(value)


def positive(value: Scalar, what: str) -> Fraction:
    """``value`` as a Fraction that must be > 0 (DomainError if not)."""
    value = exact(value, what)
    if value <= 0:
        raise DomainError(f"{what} must be positive, got {value}")
    return value


def integer_at_least(value: int, least: int, what: str) -> int:
    """``value``, which must be an int >= ``least`` (DomainError if not).

    A bool is refused: True is an int to Python, not a count to a caller."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise DomainError(f"{what} must be an integer >= {least}")
    return value


def at_most(value: int, most: int, what: str) -> int:
    """``value``, which must be <= ``most`` (LimitExceeded if not)."""
    if value > most:
        raise LimitExceeded(f"{what} must be at most {most}")
    return value


class Polynomial:
    """Immutable dense polynomial with exact rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [exact(c, "polynomial coefficient") for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls((c,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    # -- inspection ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients in ascending degree order, no trailing zeros."""
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k (zero when k exceeds the degree)."""
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # A constant equals its scalar, so it hashes as that scalar does.
        if len(self._coeffs) > 1:
            return hash(self._coeffs)
        return hash(self.coeff(0))

    # -- ring operations ----------------------------------------------

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self._coeffs))

    def __add__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return Polynomial(
            tuple(self.coeff(k) + other.coeff(k) for k in range(n))
        )

    __radd__ = __add__

    def __sub__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple(c * other for c in self._coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __rmul__(self, other: Scalar) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Polynomial":
        n = integer_at_least(n, 0, "exponent")
        result, base = Polynomial((1,)), self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base  # squared only while a higher bit needs it

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quotient = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self._coeffs)
        d = other.degree
        lead = other._coeffs[-1]
        for shift in reversed(range(len(quotient))):
            factor = rem[shift + d] / lead
            quotient[shift] = factor
            for k in range(d + 1):
                rem[shift + k] -= factor * other._coeffs[k]
        return Polynomial(quotient), Polynomial(rem)

    # -- calculus / composition ----------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial(
            tuple(k * c for k, c in enumerate(self._coeffs) if k >= 1)
        )

    def shift(self, c: Scalar) -> "Polynomial":
        """Compose with a translation: returns P(x + c), exactly."""
        xc = Polynomial((exact(c, "shift"), Fraction(1)))
        out = Polynomial()
        for a in reversed(self._coeffs):
            out = out * xc + a
        return out

    def __call__(self, x):
        """Evaluate by Horner's rule.

        Exact for int/Fraction arguments.  For a float argument the sum
        starts at 0.0, and a float plus a Fraction is a float, so it
        evaluates in float arithmetic and returns a float.
        """
        acc = 0.0 if isinstance(x, float) else Fraction(0)
        for a in reversed(self._coeffs):
            acc = acc * x + a
        return acc

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        terms = reversed(list(enumerate(self._coeffs)))
        return join_signed((c, _term_str(abs(c), k)) for k, c in terms if c)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self._coeffs]})"


def join_signed(pairs: Iterable[tuple[Fraction, str]]) -> str:
    """The sum of signed terms as text, "a - b + c", or "0" if there is
    none.  Each pair is a nonzero coefficient c and the text of its term
    at magnitude |c|."""
    parts: list[str] = []
    for c, mag in pairs:
        if parts:
            parts.append("+" if c > 0 else "-")
        elif c < 0:
            mag = "-" + mag
        parts.append(mag)
    return " ".join(parts) or "0"


def _term_str(c: Fraction, k: int) -> str:
    if k == 0:
        return str(c)
    xpart = "x" if k == 1 else f"x^{k}"
    if c == 1:
        return xpart
    return f"{c}*{xpart}"


def _as_poly(value) -> Polynomial | None:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial((value,))
    return None
