import math
import random
from fractions import Fraction

import pytest

from logint import DomainError, Polynomial
from logint.poly import integer_at_least, positive


def test_trailing_zeros_are_stripped():
    assert Polynomial((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial((0,)).coeffs == ()
    assert Polynomial().degree == -1


def test_positive():
    assert positive(3, "bound") == Fraction(3)
    assert positive(Fraction(1, 7), "bound") == Fraction(1, 7)
    for bad in (0, Fraction(-1, 2)):
        with pytest.raises(DomainError, match=f"bound must be positive, got {bad}$"):
            positive(bad, "bound")
    with pytest.raises(TypeError, match="bound must be exact"):
        positive(0.5, "bound")


def test_integer_at_least():
    assert integer_at_least(2, 2, "index") == 2
    for bad in (1, -5, 2.0, Fraction(3), "3", None):
        with pytest.raises(DomainError, match="index must be an integer >= 2$"):
            integer_at_least(bad, 2, "index")


def test_zero_polynomial_is_falsy():
    assert not Polynomial()
    assert Polynomial((0, 0)).is_zero
    assert Polynomial((1,))


def test_float_coefficients_are_rejected():
    with pytest.raises(TypeError):
        Polynomial((0.5,))


def test_eval_examples():
    assert Polynomial((1, 0, 1))(2) == 5
    assert Polynomial()(Fraction(7, 3)) == 0
    assert Polynomial((4, 3))(Fraction(1, 3)) == 5


def test_eval_float_returns_float():
    value = Polynomial((1, 0, 1))(0.5)
    assert isinstance(value, float)
    assert value == 1.25


def _float_horner(coeffs, x: float):
    # The float loop Polynomial.__call__ once kept apart: every
    # coefficient converted by float() before it is added.
    acc = 0.0
    for a in reversed(coeffs):
        acc = acc * x + float(a)
    return acc


def _outcome(f, *args):
    try:
        value = f(*args)
    except Exception as exc:  # the same exception counts as a match
        return type(exc), str(exc)
    return type(value), repr(value)


def test_eval_float_matches_a_float_horner_reference():
    # One Horner loop serves every argument; at a float it must give
    # what a loop in floats gives, down to the sign of zero and to nan,
    # inf and overflow.
    rng = random.Random(29)
    specials = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, -1e-300)
    for _ in range(10_000):
        coeffs = [
            Fraction(rng.randint(-9, 9) * 10 ** rng.choice((0, 0, 0, 5, 200, 400)),
                     rng.randint(1, 9) * 10 ** rng.choice((0, 0, 3, 400)))
            for _ in range(rng.randint(0, 6))
        ]
        x = rng.choice(specials) if rng.random() < 0.3 else rng.uniform(-4, 4)
        p = Polynomial(coeffs)
        assert _outcome(p, x) == _outcome(_float_horner, p.coeffs, x)


def test_constructors():
    assert Polynomial.constant(5).coeffs == (Fraction(5),)
    assert Polynomial.x().coeffs == (Fraction(0), Fraction(1))
    assert (2 * Polynomial.x() ** 3).degree == 3


def test_constant_hashes_as_its_scalar():
    # A constant equals its scalar, so a set or dict must find one by
    # the other.
    assert Polynomial((5,)) == 5 and hash(Polynomial((5,))) == hash(5)
    assert hash(Polynomial((Fraction(1, 3),))) == hash(Fraction(1, 3))
    assert hash(Polynomial()) == hash(0)
    assert 5 in {Polynomial((5,))}
    assert Polynomial() in {0}


def test_equal_polynomials_hash_alike():
    p, q = Polynomial((1, 2)), Polynomial((Fraction(2, 2), Fraction(4, 2), 0))
    assert p == q and hash(p) == hash(q)
    assert {p: "found"}[q] == "found"
    assert len({p, q, Polynomial((2, 1))}) == 2


def test_scalar_minus_polynomial():
    p = Polynomial((1, 2, Fraction(1, 3)))
    assert 3 - p == Polynomial((2, -2, Fraction(-1, 3)))
    assert Fraction(1, 2) - p == Polynomial((Fraction(-1, 2), -2, Fraction(-1, 3)))
    assert 1 - Polynomial((1,)) == Polynomial()
    with pytest.raises(TypeError):
        0.5 - p


def test_arithmetic_identities_random():
    rng = random.Random(101)
    for _ in range(60):
        a = _random_poly(rng)
        b = _random_poly(rng)
        c = _random_poly(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Polynomial()
        assert (a * b).degree == (
            -1 if a.is_zero or b.is_zero else a.degree + b.degree
        )


def test_divmod_reconstruction():
    rng = random.Random(202)
    for _ in range(60):
        a = _random_poly(rng)
        b = _random_poly(rng)
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(Polynomial((1,)), Polynomial())


def test_shift_is_composition():
    rng = random.Random(303)
    for _ in range(40):
        p = _random_poly(rng)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        assert p.shift(c)(x) == p(x + c)


def test_derivative_product_rule():
    rng = random.Random(404)
    for _ in range(40):
        a = _random_poly(rng)
        b = _random_poly(rng)
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_pow():
    x1 = Polynomial((1, 1))
    assert x1**0 == Polynomial((1,))
    assert x1**3 == Polynomial((1, 3, 3, 1))
    with pytest.raises(ValueError):
        x1**-1
    with pytest.raises(DomainError, match="exponent must be an integer >= 0"):
        x1**True


def test_pow_forms_no_product_above_its_degree(monkeypatch):
    # Square-and-multiply stops at the top bit: (x+1)**8 never squares
    # x^8 + ... into a degree-16 product it does not use.
    degrees = []
    mul = Polynomial.__mul__

    def recording(self, other):
        out = mul(self, other)
        degrees.append(out.degree)
        return out

    monkeypatch.setattr(Polynomial, "__mul__", recording)
    for p in (Polynomial((1, 1)), Polynomial((Fraction(1, 2), 0, 3))):
        for n in range(17):
            degrees.clear()
            expected = Polynomial((1,))
            for _ in range(n):
                expected = mul(expected, p)
            assert p**n == expected
            assert max(degrees, default=0) <= n * p.degree, (p, n)


def test_exactness_with_huge_components():
    # (a+b)-b must return a exactly even with ~200-digit parts.
    rng = random.Random(505)
    for _ in range(20):
        a = Fraction(rng.getrandbits(660), rng.getrandbits(660) | 1)
        b = Fraction(rng.getrandbits(660), rng.getrandbits(660) | 1)
        pa = Polynomial((a,))
        pb = Polynomial((b,))
        assert (pa + pb) - pb == pa


def test_str_rendering():
    assert str(Polynomial()) == "0"
    assert str(Polynomial((1, 0, 3))) == "3*x^2 + 1"
    assert str(Polynomial((Fraction(-1, 2), 1))) == "x - 1/2"
    assert str(Polynomial((0, -1))) == "-x"


def _random_poly(rng: random.Random) -> Polynomial:
    degree = rng.randint(-1, 6)
    if degree < 0:
        return Polynomial()
    return Polynomial(
        [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(degree)]
        + [Fraction(rng.randint(1, 20), rng.randint(1, 7))]
    )
