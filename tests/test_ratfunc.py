import random
from fractions import Fraction

import pytest

from logint import (
    FactoredDenominator,
    FactoredRationalFunction,
    NonRationalPole,
    PoleCollision,
    PoleTerm,
    Polynomial,
    ZeroDenominator,
    factor_denominator,
    partial_fractions,
    rational_roots_factorize,
)


def expand_roots(roots, remainder):
    q = remainder
    for root, mult in roots:
        q = q * Polynomial((-root, 1)) ** mult
    return q


class TestRationalRoots:
    def test_constructed_factorization(self):
        q = Polynomial((1, 1)) * Polynomial((2, 1)) ** 2  # (x+1)(x+2)^2
        roots, remainder = rational_roots_factorize(q)
        assert sorted(roots) == [(Fraction(-2), 2), (Fraction(-1), 1)]
        assert remainder == Polynomial((1,))

    def test_no_rational_roots(self):
        q = Polynomial((1, 0, 1))
        roots, remainder = rational_roots_factorize(q)
        assert roots == []
        assert remainder == q

    def test_fractional_roots_leave_constant(self):
        roots, remainder = rational_roots_factorize(Polynomial((1, 5, 6)))
        assert sorted(roots) == [(Fraction(-1, 2), 1), (Fraction(-1, 3), 1)]
        assert remainder == Polynomial((6,))

    def test_root_at_zero(self):
        roots, remainder = rational_roots_factorize(Polynomial((0, 0, 5)))
        assert roots == [(Fraction(0), 2)]
        assert remainder == Polynomial((5,))

    def test_zero_rejected(self):
        with pytest.raises(ZeroDenominator):
            rational_roots_factorize(Polynomial())

    def test_reconstruction_random(self):
        rng = random.Random(77)
        for _ in range(40):
            q = Polynomial((rng.choice([1, 2, 3, -2]),))
            for _ in range(rng.randint(0, 3)):
                root = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                q = q * Polynomial((-root, 1)) ** rng.randint(1, 3)
            if rng.random() < 0.4:
                q = q * Polynomial((rng.randint(1, 5), 0, 1))  # irreducible
            roots, remainder = rational_roots_factorize(q)
            assert expand_roots(roots, remainder) == q


class TestFactoredDenominator:
    def test_expand(self):
        den = FactoredDenominator(
            constant=Fraction(2), factors=((Fraction(1), 1), (Fraction(2), 1))
        )
        assert den.expand() == Polynomial((4, 6, 2))
        assert den.degree == 2
        assert den.pole_locations() == (Fraction(-1), Fraction(-2))

    def test_validation(self):
        with pytest.raises(ZeroDenominator):
            FactoredDenominator(constant=Fraction(0), factors=())
        with pytest.raises(PoleCollision):
            FactoredDenominator(
                constant=Fraction(1),
                factors=((Fraction(1), 1), (Fraction(1), 2)),
            )
        with pytest.raises(ValueError):
            FactoredDenominator(constant=Fraction(1), factors=((Fraction(1), 0),))

    def test_rejects_floats(self):
        # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10:
        # a float pole would be integrated exactly, at the wrong place.
        with pytest.raises(TypeError):
            FactoredDenominator(constant=1.5, factors=((Fraction(1, 10), 1),))
        with pytest.raises(TypeError):
            FactoredDenominator(constant=1, factors=((0.1, 1),))
        den = FactoredDenominator(constant=3, factors=((Fraction(1, 10), 1),))
        assert den.pole_locations() == (Fraction(-1, 10),)

    def test_factor_denominator_requires_rational_roots(self):
        with pytest.raises(NonRationalPole):
            factor_denominator(Polynomial((2, 0, 1)))


class TestPartialFractions:
    def test_two_simple_poles(self):
        # 1/((x+1)(x+3)) -> (1/2)/(x+1) - (1/2)/(x+3)
        den = FactoredDenominator(
            constant=Fraction(1), factors=((Fraction(1), 1), (Fraction(3), 1))
        )
        frf = partial_fractions(Polynomial((1,)), den)
        assert frf.quotient.is_zero
        by_shift = {p.shift: p.residues for p in frf.poles}
        assert by_shift[Fraction(1)] == (Fraction(1, 2),)
        assert by_shift[Fraction(3)] == (Fraction(-1, 2),)

    def test_quotient(self):
        # x/(x+1) = 1 - 1/(x+1)
        frf = partial_fractions(Polynomial((0, 1)), Polynomial((1, 1)))
        assert frf.quotient == Polynomial((1,))
        assert frf.poles[0].residues == (Fraction(-1),)

    def test_double_pole_coverup(self):
        # 1/((x+1)^2 (x+2)): at -1 residues (-1, 1); at -2 residue 1
        den = FactoredDenominator(
            constant=Fraction(1), factors=((Fraction(1), 2), (Fraction(2), 1))
        )
        frf = partial_fractions(Polynomial((1,)), den)
        by_shift = {p.shift: p.residues for p in frf.poles}
        assert by_shift[Fraction(1)] == (Fraction(-1), Fraction(1))
        assert by_shift[Fraction(2)] == (Fraction(1),)

    def test_constant_absorbed(self):
        # 1/(2(x+1)) -> residue 1/2
        den = FactoredDenominator(constant=Fraction(2), factors=((Fraction(1), 1),))
        frf = partial_fractions(Polynomial((1,)), den)
        assert frf.poles[0].residues == (Fraction(1, 2),)

    def test_expanded_denominator_is_factored_first(self):
        frf = partial_fractions(Polynomial((1,)), Polynomial((2, 3, 1)))
        assert {p.shift for p in frf.poles} == {Fraction(1), Fraction(2)}

    def test_nonrational_pole_rejected(self):
        with pytest.raises(NonRationalPole):
            partial_fractions(Polynomial((1,)), Polynomial((1, 1, 1)))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            partial_fractions(Polynomial((1,)), Polynomial())

    def test_recomposition_random(self):
        rng = random.Random(88)
        for _ in range(60):
            num = self._random_poly(rng)
            den = self._random_den(rng)
            frf = partial_fractions(num, den)
            p2, q2 = frf.recompose()
            # P/Q == P2/Q2 as rational functions
            assert num * q2 == p2 * den.expand()

    def test_recompose_rejects_a_repeated_pole(self):
        pole = PoleTerm(shift=Fraction(1), residues=(Fraction(1),))
        with pytest.raises(PoleCollision):
            FactoredRationalFunction(quotient=Polynomial(), poles=(pole, pole)).recompose()

    @staticmethod
    def _random_poly(rng):
        return Polynomial([rng.randint(-20, 20) for _ in range(rng.randint(1, 9))])

    @staticmethod
    def _random_den(rng):
        shifts = rng.sample(
            [Fraction(k, 2) for k in range(1, 9)], rng.randint(1, 3)
        )
        return FactoredDenominator(
            constant=Fraction(rng.choice([1, 2, 3, -1])),
            factors=tuple((s, rng.randint(1, 3)) for s in shifts),
        )
