from fractions import Fraction

import pytest

from logint import FactoredDenominator, LimitExceeded, Polynomial
from logint.poly import MAX_DEGREE
from logint.parsing import (
    ParseError,
    parse_denominator,
    parse_factored,
    parse_polynomial,
    parse_rational,
)


def test_expanded_basic():
    assert parse_polynomial("3x^2 - x/2 + 1") == Polynomial(
        (1, Fraction(-1, 2), 3)
    )
    assert parse_polynomial("x^2 + 1") == Polynomial((1, 0, 1))
    assert parse_polynomial("6x^2 + 5x + 1") == Polynomial((1, 5, 6))


def test_expanded_shapes():
    assert parse_polynomial("2") == Polynomial((2,))
    assert parse_polynomial("3/4") == Polynomial((Fraction(3, 4),))
    assert parse_polynomial("-x + 1") == Polynomial((1, -1))
    assert parse_polynomial("3*x^2") == Polynomial((0, 0, 3))
    assert parse_polynomial("3x^2/5") == Polynomial((0, 0, Fraction(3, 5)))
    assert parse_polynomial("3/4x") == Polynomial((0, Fraction(3, 4)))
    assert parse_polynomial("  x^2+2x   +1 ") == Polynomial((1, 2, 1))
    # like terms merge
    assert parse_polynomial("x + x") == Polynomial((0, 2))


def test_expanded_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x^2 + 3x + Q")
    err = info.value
    assert err.pos == 11
    lines = err.annotate().splitlines()
    assert lines[0] == "x^2 + 3x + Q"
    assert lines[1].startswith(" " * 11 + "^")

    with pytest.raises(ParseError):
        parse_polynomial("")
    with pytest.raises(ParseError):
        parse_polynomial("x^")
    with pytest.raises(ParseError):
        parse_polynomial("2 +")
    with pytest.raises(ParseError):
        parse_polynomial("3//4")

    for text, pos, message in [
        ("3/0x", 3, "zero denominator in rational literal"),
        ("x/0", 3, "division by zero in term"),
        ("3x 2", 3, "expected '+' or '-', found '2'"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_polynomial(text)
        assert (info.value.pos, info.value.message) == (pos, message)


def test_factored_basic():
    den = parse_factored("(x+1)(x+2)^2")
    assert den == FactoredDenominator(
        constant=Fraction(1), factors=((Fraction(1), 1), (Fraction(2), 2))
    )
    assert parse_factored("2(x+1/2)") == FactoredDenominator(
        constant=Fraction(2), factors=((Fraction(1, 2), 1),)
    )
    assert parse_factored("(x+1)*(x+3)") == FactoredDenominator(
        constant=Fraction(1), factors=((Fraction(1), 1), (Fraction(3), 1))
    )


def test_factored_negative_shift_is_representable():
    # (x-1) parses fine; its positive pole is rejected later, by the driver.
    den = parse_factored("(x-1)")
    assert den.factors == ((Fraction(-1), 1),)
    assert tuple(-shift for shift, _ in den.factors) == (Fraction(1),)


def test_factored_repeated_factors_merge():
    den = parse_factored("(x+1)(x+1)")
    assert den.factors == ((Fraction(1), 2),)


def test_factored_errors():
    for bad in ("(x+)", "(y+1)", "(x+1", "(x+1)^0", "()", "3", "(x+1)z"):
        with pytest.raises(ParseError):
            parse_factored(bad)
    with pytest.raises(ParseError) as info:
        parse_factored("(x*1)")
    assert (info.value.pos, info.value.message) == (2, "expected '+' or '-' after x")


def test_denominator_dispatch():
    assert isinstance(parse_denominator("x^2 + 3x + 2"), Polynomial)
    assert isinstance(parse_denominator("(x+1)(x+2)"), FactoredDenominator)
    assert parse_denominator("6") == Polynomial((6,))


def test_parse_rational():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(" -3 ") == Fraction(-3)
    with pytest.raises(ParseError):
        parse_rational("three")
    with pytest.raises(ParseError):
        parse_rational("1/0")


LONG = "1" + "0" * 5000


@pytest.mark.parametrize(
    "text",
    [LONG + "x", "x^" + LONG, "x/" + LONG, "3/" + LONG,
     LONG + "(x+1)", "(x+" + LONG + ")", "(x+1)^" + LONG],
    ids=["coefficient", "power", "divisor", "denominator", "constant", "shift", "multiplicity"],
)
def test_integer_literal_past_the_digit_limit_is_a_parse_error(default_int_digit_limit, text):
    with pytest.raises(ParseError) as info:
        parse_denominator(text)
    assert (info.value.pos, info.value.message) == (text.index(LONG), "integer literal too long")


def _no_polynomial(*args):
    raise AssertionError("a refused exponent was densified")


@pytest.mark.parametrize("text", [f"x^{MAX_DEGREE + 1}", "1 + 2x - x^100000000"])
def test_exponent_above_the_limit_is_refused_before_densifying(monkeypatch, text):
    monkeypatch.setattr("logint.parsing.Polynomial", _no_polynomial)
    with pytest.raises(LimitExceeded, match=f"x exponent must be at most {MAX_DEGREE}$"):
        parse_polynomial(text)


def test_exponent_at_the_limit():
    assert parse_polynomial(f"2x^{MAX_DEGREE} + 1").degree == MAX_DEGREE


@pytest.mark.parametrize("text, what", [
    (f"(x+1)^{MAX_DEGREE + 1}", "factor power"),
    ("(x+1)(x+2)^100000000", "factor power"),
    (f"(x+1)^{MAX_DEGREE // 2}(x+2)^{MAX_DEGREE // 2 + 1}", "denominator degree"),
    (f"(x+1)^{MAX_DEGREE}(x+1)", "denominator degree"),
])
def test_factor_power_above_the_limit_is_refused(text, what):
    with pytest.raises(LimitExceeded, match=f"{what} must be at most {MAX_DEGREE}$"):
        parse_factored(text)


def test_factored_degree_at_the_limit():
    assert parse_factored(f"(x+1)^{MAX_DEGREE - 1}(x+2)").degree == MAX_DEGREE
