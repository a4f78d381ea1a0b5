"""Text formats for polynomials, factored denominators, and bounds.

Expanded polynomials look like ``3x^2 - x/2 + 1``: terms joined by + or -,
each term an optional rational coefficient times an optional power of x.
``*`` between coefficient and x is optional, and a trailing ``/int``
divides the whole term, so ``3x^2/5`` means (3/5)x^2.

Factored denominators look like ``(x+1)(x+2)^2`` with an optional leading
rational constant and optional ``*`` between factors.  Shifts must be
rational; ``(x-1)`` is accepted here (the factor has a positive root) and
rejected later by the integration driver.

Errors carry the source text and offset; ``annotate`` renders the
two-line caret message used by the command-line tool.  An exponent or a
factor power above MAX_DEGREE is not a syntax error but a LimitExceeded
(a DomainError), raised as soon as it is read, before any polynomial is
built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .poly import MAX_DEGREE, Polynomial, at_most
from .ratfunc import FactoredDenominator


class ParseError(ValueError):
    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        self.message = message
        super().__init__(f"{message} (column {pos + 1})")

    def annotate(self) -> str:
        """Two-line rendering: the input, then a caret under the error."""
        return f"{self.text}\n{' ' * self.pos}^ {self.message}"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def error(self, message: str, pos: Optional[int] = None) -> ParseError:
        return ParseError(self.text, self.pos if pos is None else pos, message)

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:
            # Past the interpreter's digit limit for int(), which bounds
            # the work that one literal can cause.
            raise self.error("integer literal too long", start) from None

    def rational(self) -> Fraction:
        num = self.uint()
        if self.peek() == "/":
            self.take()
            den = self.uint()
            if den == 0:
                raise self.error("zero denominator in rational literal")
            return Fraction(num, den)
        return Fraction(num)

    def at_end(self) -> bool:
        return self.peek() == ""


def _parse_term(sc: _Scanner) -> tuple[Fraction, int]:
    """One term: returns (coefficient, power of x)."""
    coeff: Optional[Fraction] = None
    power = 0
    if sc.peek().isdigit():
        coeff = sc.rational()
        if sc.peek() == "*":
            sc.take()
    if sc.peek() in ("x", "X"):
        sc.take()
        power = 1
        if sc.peek() == "^":
            sc.take()
            power = at_most(sc.uint(), MAX_DEGREE, "x exponent")
        if sc.peek() == "/":
            sc.take()
            div = sc.uint()
            if div == 0:
                raise sc.error("division by zero in term")
            coeff = (coeff if coeff is not None else Fraction(1)) / div
    elif coeff is None:
        raise sc.error("expected a term (number or x)")
    return (coeff if coeff is not None else Fraction(1)), power


def parse_polynomial(text: str) -> Polynomial:
    """Parse the expanded format, e.g. ``3x^2 - x/2 + 1``."""
    sc = _Scanner(text)
    coeffs: dict[int, Fraction] = {}
    sign = Fraction(1)
    if sc.peek() in "+-":
        sign = Fraction(-1) if sc.take() == "-" else Fraction(1)
    while True:
        c, k = _parse_term(sc)
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * c
        if sc.at_end():
            break
        op = sc.peek()
        if op not in "+-":
            raise sc.error(f"expected '+' or '-', found {op!r}")
        sc.take()
        sign = Fraction(-1) if op == "-" else Fraction(1)
    n = max(coeffs) + 1 if coeffs else 0
    return Polynomial(tuple(coeffs.get(k, Fraction(0)) for k in range(n)))


def _parse_factor(sc: _Scanner) -> tuple[Fraction, int]:
    """One ``(x +/- rational)`` factor, its ``(`` already seen, with optional ^power."""
    sc.take()
    if sc.peek() not in ("x", "X"):
        raise sc.error("expected 'x' inside factor")
    sc.take()
    op = sc.peek()
    if op not in "+-":
        raise sc.error("expected '+' or '-' after x")
    sc.take()
    mag = sc.rational()
    shift = mag if op == "+" else -mag
    if sc.peek() != ")":
        raise sc.error("expected ')'")
    sc.take()
    mult = 1
    if sc.peek() == "^":
        sc.take()
        mult = at_most(sc.uint(), MAX_DEGREE, "factor power")
        if mult == 0:
            raise sc.error("factor power must be >= 1")
    return shift, mult


def parse_factored(text: str) -> FactoredDenominator:
    """Parse ``(x+1)(x+2)^2`` with optional leading rational constant."""
    sc = _Scanner(text)
    constant = Fraction(1)
    if sc.peek() in "+-":
        constant = Fraction(-1) if sc.take() == "-" else Fraction(1)
    if sc.peek().isdigit():
        constant *= sc.rational()
        if sc.peek() == "*":
            sc.take()
    factors: dict[Fraction, int] = {}
    saw_factor = False
    while sc.peek() == "(":
        shift, mult = _parse_factor(sc)
        factors[shift] = factors.get(shift, 0) + mult
        saw_factor = True
        if sc.peek() == "*":
            sc.take()
    if not sc.at_end():
        raise sc.error(f"unexpected {sc.peek()!r}")
    if not saw_factor:
        raise sc.error("expected at least one (x + r) factor")
    return FactoredDenominator(constant=constant, factors=tuple(factors.items()))


def parse_denominator(text: str) -> Union[Polynomial, FactoredDenominator]:
    """Dispatch on shape: parenthesised input is the factored format."""
    if "(" in text:
        return parse_factored(text)
    return parse_polynomial(text)


def parse_rational(text: str) -> Fraction:
    """Parse a bound: integer, fraction p/q, or decimal literal."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(text, 0, "expected a rational number like 3, 1/2 or 0.25")
