import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from logint import (
    DomainError,
    FactoredDenominator,
    FactoredRationalFunction,
    LimitExceeded,
    NonRationalPole,
    PoleCollision,
    PoleTerm,
    Polynomial,
    ZeroDenominator,
    factor_denominator,
    partial_fractions,
    rational_roots_factorize,
)
from logint.poly import MAX_DEGREE
from logint.ratfunc import _divide_out, _divisors
from specgen import random_spec


def expand_roots(roots, remainder):
    q = remainder
    for root, mult in roots:
        q = q * Polynomial((-root, 1)) ** mult
    return q


def fraction_scan_reference(q):
    """The rational-root search as a scan over Fraction candidates, kept
    as a referee for rational_roots_factorize: every candidate +-p/s from
    the divisors of the end coefficients, in ascending order, each tried
    by Fraction evaluation and divided out by Polynomial divmod."""

    def divisors(n):
        small = [d for d in range(1, math.isqrt(abs(n)) + 1) if n % d == 0]
        return small + [abs(n) // d for d in small]

    roots = []
    current = q
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
        candidates = sorted(
            {Fraction(sign * p, s)
             for p in divisors(ints[0]) for s in divisors(ints[-1]) for sign in (1, -1)}
        )
        for cand in candidates:
            mult = 0
            while current.degree >= 1 and current(cand) == 0:
                current, rem = divmod(current, Polynomial((-cand, 1)))
                assert not rem
                mult += 1
            if mult:
                roots.append((cand, mult))
    return roots, current


def deep_numerator_case():
    """(P, Q) with deg P >= deg Q + 7 and a pole of multiplicity 7, so
    that P is not P mod Q and its Taylor head at every pole comes from
    more coefficients than the remainder has."""
    rng = random.Random(90)
    den = FactoredDenominator(
        Fraction(5, 4), ((Fraction(2, 3), 7), (Fraction(-1, 2), 2), (Fraction(3), 1))
    )
    num = Polynomial([rng.randint(-20, 20) for _ in range(den.degree + 9)] + [7])
    assert num.degree >= den.degree + 7
    assert divmod(num, den.expand())[1] != num
    return num, den


# Shifts p/s with s up to 7, on both sides of 0 and at 0.
SEVENTHS = sorted({Fraction(p, s) for p in range(-12, 13) for s in range(1, 8)})


def scaled_case(rng, i):
    """(P, Q) whose integer forms partial_fractions must scale: P with
    coefficients over 3, 7 and 12, Q with shifts p/s, s up to 7, and a
    pole at 0 in every third case."""
    shifts = rng.sample(SEVENTHS, rng.randint(1, 3))
    if i % 3 == 0 and Fraction(0) not in shifts:
        shifts[0] = Fraction(0)
    den = FactoredDenominator(
        constant=rng.choice([Fraction(1), Fraction(-2, 3), Fraction(5, 4)]),
        factors=tuple((s, rng.randint(1, 7)) for s in shifts),
    )
    degree = rng.randint(0, den.degree + 3)
    num = Polynomial(
        [Fraction(rng.randint(-20, 20), rng.choice([1, 3, 7, 12])) for _ in range(degree)]
        + [Fraction(rng.randint(1, 20), rng.choice([3, 7, 12]))]
    )
    return num, den


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

    def test_matches_the_fraction_scan_reference(self):
        rng = random.Random(2024)
        for _ in range(300):
            q = Polynomial((Fraction(rng.choice([-1, 1]) * rng.randint(1, 30),
                                     rng.randint(1, 12)),))
            for _ in range(rng.randint(0, 3)):
                root = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                q = q * Polynomial((-root, 1)) ** rng.randint(1, 3)
            if rng.random() < 0.4:  # no real root, so irreducible over Q
                b, c = rng.randint(-3, 3), rng.randint(1, 5)
                q = q * Polynomial((b * b + c, b, 1))
            roots, remainder = rational_roots_factorize(q)
            ref_roots, ref_remainder = fraction_scan_reference(q)
            assert roots == ref_roots, q
            assert remainder.coeffs == ref_remainder.coeffs, q

    @pytest.mark.parametrize(
        "factors, constant, roots",
        [
            # Roots p/s = 1 and -1, where s - p == 0 or s + p == 0: the
            # f(+-1) filters are vacuous.
            (((1, 1), (-1, 1)), 1, [(Fraction(-1), 1), (Fraction(1), 1)]),
            (((1, 2), (-1, 3)), 5, [(Fraction(-1), 3), (Fraction(1), 2)]),
            # f(1) == 0 or f(-1) == 0 next to other roots.
            (((1, 1), (Fraction(-3, 2), 1), (5, 1)), 2,
             [(Fraction(-3, 2), 1), (Fraction(1), 1), (Fraction(5), 1)]),
            (((-1, 2), (Fraction(2, 3), 1)), Fraction(-1, 4),
             [(Fraction(-1), 2), (Fraction(2, 3), 1)]),
            # A negative leading coefficient.
            (((Fraction(-1, 3), 1), (2, 2)), -3, [(Fraction(-1, 3), 1), (Fraction(2), 2)]),
            (((Fraction(-3, 7), 6),), 7 ** 6, [(Fraction(-3, 7), 6)]),
            (((0, 3), (Fraction(5, 2), 1)), 2, [(Fraction(0), 3), (Fraction(5, 2), 1)]),
        ],
    )
    def test_filter_edge_cases(self, factors, constant, roots):
        q = Polynomial((constant,))
        for root, mult in factors:
            q = q * Polynomial((-Fraction(root), 1)) ** mult
        assert rational_roots_factorize(q) == (roots, Polynomial((constant,)))
        assert fraction_scan_reference(q) == (roots, Polynomial((constant,)))

    def test_negative_leading_coefficient_keeps_its_cofactor(self):
        # -(3x + 1)(x - 2)(x^2 + 1) = (x + 1/3)(x - 2) * (-3x^2 - 3)
        q = (Polynomial((-1, -3)) * Polynomial((-2, 1)) * Polynomial((1, 0, 1)))
        roots, remainder = rational_roots_factorize(q)
        assert roots == [(Fraction(-1, 3), 1), (Fraction(2), 1)]
        assert remainder.coeffs == (Fraction(-3), Fraction(0), Fraction(-3))

    def test_constant_polynomial(self):
        q = Polynomial((Fraction(-3, 4),))
        assert rational_roots_factorize(q) == ([], q)

    def test_divisors_match_trial_division(self):
        for n in list(range(-60, 0)) + list(range(1, 2000)):
            assert _divisors(n) == [d for d in range(1, abs(n) + 1) if n % d == 0]

    def test_large_smooth_constant_is_quick(self):
        # Trial division up to sqrt(10^399) would never finish; factoring
        # the constant takes about a second.  A fresh interpreter bounds a
        # hang.
        c = 10 ** 399
        code = (
            "import sys\n"
            "from logint.cli import main\n"
            "sys.exit(main(['integrate', '--num', '1', '--den', sys.argv[1],"
            " '--lower', '1', '--upper', '2']))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", code, f"x+{c}"], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        # int_1^2 ln x/(x + c) dx = ln 2 * ln(1 + 2/c) + Li2(-2/c) - Li2(-1/c);
        # the float value cancels, so only the exact form is pinned.
        h = c // 2
        assert proc.stdout.splitlines()[0] == (
            f"closed-form: ln({h + 1}/{h})*ln(2) + Li2(-1/{h}) - Li2(-1/{c})"
        )


class TestFactoredDenominator:
    def test_expand(self):
        den = FactoredDenominator(
            constant=Fraction(2), factors=((Fraction(1), 1), (Fraction(2), 1))
        )
        assert den.expand() == Polynomial((4, 6, 2))
        assert den.degree == 2
        assert tuple(-shift for shift, _ in den.factors) == (Fraction(-1), Fraction(-2))

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

    @pytest.mark.parametrize(
        "mults", [(MAX_DEGREE + 1,), (MAX_DEGREE // 2, MAX_DEGREE // 2 + 1), (10**20, 1)]
    )
    def test_degree_above_the_limit_is_refused(self, mults):
        factors = tuple((Fraction(k + 1), m) for k, m in enumerate(mults))
        with pytest.raises(LimitExceeded, match=f"denominator degree must be at most {MAX_DEGREE}$"):
            FactoredDenominator(1, factors)

    def test_degree_at_the_limit(self):
        den = FactoredDenominator(1, ((Fraction(1), MAX_DEGREE - 1), (Fraction(2), 1)))
        assert den.degree == MAX_DEGREE

    @staticmethod
    def _factor_sets():
        """Seeded denominators for the expansion referees: no factors, a
        zero shift, negative shifts, shifts with large numerators and
        denominators, multiplicities up to 12, and negative or fractional
        constants."""
        rng = random.Random(41)
        dens = [
            FactoredDenominator(Fraction(-7, 3), ()),
            FactoredDenominator(1, ((Fraction(0), 12),)),
            FactoredDenominator(Fraction(5, 2), ((Fraction(0), 1), (Fraction(-1, 2), 3))),
            FactoredDenominator(-1, ((Fraction(10**18 + 9, 10**15 + 37), 12),)),
        ]
        while len(dens) < 60:
            shifts = dict.fromkeys(
                Fraction(rng.randint(-(10**size), 10**size), rng.randint(1, 10**size))
                for size in (rng.choice((1, 2, 2, 18)) for _ in range(rng.randint(0, 4)))
            )
            constant = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))
            dens.append(FactoredDenominator(
                constant, tuple((shift, rng.randint(1, 12)) for shift in shifts)
            ))
        return dens

    def test_expand_matches_the_polynomial_product(self):
        # The integer expansion against a product of Fraction polynomials.
        for den in self._factor_sets():
            ref = Polynomial((den.constant,))
            for shift, mult in den.factors:
                ref = ref * Polynomial((shift, 1)) ** mult
            assert den.expand() == ref, den

    def test_expand_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def rat(c):
            return sympy.Rational(c.numerator, c.denominator)

        for den in self._factor_sets():
            q = sympy.expand(rat(den.constant) * sympy.Mul(*[(x + rat(s)) ** m for s, m in den.factors]))
            theirs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(q, x).all_coeffs())]
            assert list(den.expand().coeffs) == theirs, den

    @pytest.mark.parametrize("mult", [0, -1, 1.0, Fraction(2), True])
    def test_bad_multiplicity_is_a_domain_error(self, mult):
        with pytest.raises(DomainError, match="factor multiplicity must be an integer >= 1"):
            FactoredDenominator(constant=1, factors=((Fraction(1), mult),))

    def test_rejects_floats(self):
        # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10:
        # a float pole would be integrated exactly, at the wrong place.
        with pytest.raises(TypeError):
            FactoredDenominator(constant=1.5, factors=((Fraction(1, 10), 1),))
        with pytest.raises(TypeError):
            FactoredDenominator(constant=1, factors=((0.1, 1),))
        den = FactoredDenominator(constant=3, factors=((Fraction(1, 10), 1),))
        assert tuple(-shift for shift, _ in den.factors) == (Fraction(-1, 10),)

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
        assert not frf.quotient
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
            self._check_recomposition(self._random_poly(rng), self._random_den(rng))

    def test_recomposition_random_deep_poles(self):
        # Shapes like the deep-poles benchmark's and beyond: multiplicities
        # up to 10, shifts p/s with s <= 4 on both sides of 0, and now and
        # then a numerator of higher degree than Q, so that the quotient
        # is not zero.
        rng = random.Random(89)
        shifts = sorted({Fraction(p, s) for p in range(-12, 13) for s in range(1, 5)})
        start = time.perf_counter()
        for i in range(40):
            den = FactoredDenominator(
                constant=rng.choice([Fraction(1), Fraction(-2, 3), Fraction(5, 4)]),
                factors=tuple((s, rng.randint(1, 10))
                              for s in rng.sample(shifts, rng.randint(1, 3))),
            )
            degree = den.degree + rng.randint(0, 3) if i % 4 == 0 else rng.randint(0, den.degree - 1)
            num = Polynomial([rng.randint(-20, 20) for _ in range(degree)] + [rng.randint(1, 20)])
            self._check_recomposition(num, den)
        self._check_recomposition(*deep_numerator_case())
        # Numerators with rational coefficients, and shifts over up to 7.
        rng = random.Random(35)
        for i in range(30):
            self._check_recomposition(*scaled_case(rng, i))
        assert time.perf_counter() - start < 60.0

    @staticmethod
    def _check_recomposition(num, den):
        """partial_fractions(num, Q) recomposes to num/Q, with Q given
        both factored (den) and expanded."""
        # Q multiplied out here rather than by the route's own
        # FactoredDenominator.expand.
        q = Polynomial((den.constant,))
        for shift, mult in den.factors:
            q = q * Polynomial((shift, 1)) ** mult
        for form in (den, q):
            p2, q2 = partial_fractions(num, form).recompose()
            # P/Q == P2/Q2 as rational functions.
            assert num * q2 == p2 * q, (num, den, form)
            # The equation above holds for q2 = p2 = 0; Q itself does not.
            assert q2 * den.constant == q, (num, den, form)

    def test_recomposition_check_rejects_an_empty_recompose(self, monkeypatch):
        monkeypatch.setattr(
            FactoredRationalFunction,
            "recompose",
            lambda self: (Polynomial(), Polynomial()),
        )
        with pytest.raises(AssertionError):
            self.test_recomposition_random()

    def test_matches_sympy_apart(self):
        # A referee that shares no code with partial_fractions: sympy
        # builds P/Q from the inputs' coefficients and factors and
        # decomposes it; our terms, rebuilt in sympy, must cancel it.
        # Every other case passes the denominator expanded, so that
        # factor_denominator runs too.
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def rat(c):
            return sympy.Rational(c.numerator, c.denominator)

        def poly(p):
            return sum((rat(c) * x**k for k, c in enumerate(p.coeffs)), sympy.Integer(0))

        rng = random.Random(97)
        cases = [(spec.numerator, spec.denominator) for spec in
                 (random_spec(rng) for _ in range(40))]
        for _ in range(20):
            shifts = rng.sample([Fraction(k, 3) for k in range(1, 16)], rng.randint(1, 3))
            den = FactoredDenominator(
                constant=rng.choice([Fraction(1), Fraction(-2), Fraction(3, 5)]),
                factors=tuple((s, rng.randint(1, 10)) for s in shifts),
            )
            degree = rng.randint(0, den.degree + 3)
            cases.append((Polynomial([rng.randint(-20, 20) for _ in range(degree + 1)]), den))
        cases.append(deep_numerator_case())
        rng = random.Random(36)
        cases += [scaled_case(rng, i) for i in range(12)]
        start = time.perf_counter()
        for i, (num, den) in enumerate(cases):
            q = rat(den.constant) * sympy.Mul(*[(x + rat(s)) ** m for s, m in den.factors])
            frf = partial_fractions(num, den.expand() if i % 2 else den)
            ours = poly(frf.quotient) + sum(
                rat(c) / (x + rat(pole.shift)) ** j
                for pole in frf.poles
                for j, c in enumerate(pole.residues, start=1)
            )
            assert sympy.cancel(sympy.apart(poly(num) / q, x) - ours) == 0, (num, den)
        assert time.perf_counter() - start < 30.0

    def test_cofactor_needs_no_power_and_no_long_division(self, monkeypatch):
        # Each pole's cofactor is Q divided by (x - root) by synthetic
        # division: the one long division left is P's by Q, for the
        # quotient.
        divisions = []
        divmod_ = Polynomial.__divmod__

        def counted(self, other):
            divisions.append(other)
            return divmod_(self, other)

        def refused(self, n):
            raise AssertionError("partial_fractions raised a Polynomial to a power")

        monkeypatch.setattr(Polynomial, "__divmod__", counted)
        monkeypatch.setattr(Polynomial, "__pow__", refused)
        den = FactoredDenominator(Fraction(-2, 3), ((Fraction(1, 3), 10), (Fraction(5, 2), 4),
                                                    (Fraction(0), 2)))
        num = Polynomial([1, -2, 3] * 6)
        frf = partial_fractions(num, den)
        assert len(divisions) == 1 and divisions[0].degree == den.degree
        assert frf.quotient.degree == num.degree - den.degree
        assert [len(pole.residues) for pole in frf.poles] == [10, 4, 2]

    def test_numerator_below_the_denominator_is_neither_divided_nor_shifted(self, monkeypatch):
        # With deg P < deg Q the quotient is zero, so P is not divided by
        # Q, and Q is not expanded to rationals; its Taylor head at each
        # pole comes from synthetic division, so P is not shifted either.
        # The one shift per pole is the cofactor's.
        shifted, divided, expanded = [], [], []
        shift, divide = Polynomial.shift, Polynomial.__divmod__
        expand = FactoredDenominator.expand

        def counted_shift(self, c):
            shifted.append((self, c))
            return shift(self, c)

        def counted_divmod(self, other):
            divided.append(self)
            return divide(self, other)

        def counted_expand(self):
            expanded.append(self)
            return expand(self)

        monkeypatch.setattr(Polynomial, "shift", counted_shift)
        monkeypatch.setattr(Polynomial, "__divmod__", counted_divmod)
        monkeypatch.setattr(FactoredDenominator, "expand", counted_expand)
        den = FactoredDenominator(Fraction(-2, 3), ((Fraction(1, 3), 10), (Fraction(5, 2), 4),
                                                    (Fraction(0), 2)))
        num = Polynomial([1, -2, 3] * 5)
        frf = partial_fractions(num, den)
        assert divided == [] and expanded == []
        assert not frf.quotient
        assert [(p.degree, c) for p, c in shifted] == [
            (den.degree - mult, -s) for s, mult in den.factors
        ]
        assert num not in [p for p, _ in shifted]
        # With deg P >= deg Q, Q is expanded once, for the quotient.
        partial_fractions(num * Polynomial((0, 1)) ** 4, den)
        assert expanded == [den]
        self._check_recomposition(num, den)

    def test_deflate_divides_out_a_root_and_refuses_a_non_root(self):
        # Each pole's cofactor is Q's integer form divided by (s x + p) with
        # the root search's own step.  (x + 1)(x + 2) / (x + 1) = x + 2, and
        # (3x + 1)(x + 2) / (3x + 1) = x + 2; x = 1 and x = 1/3 leave a
        # remainder, and x = 2/3 fails at an inexact step.
        assert _divide_out([2, 3, 1], -1, 1) == [2, 1]
        assert _divide_out([2, 7, 3], -1, 3) == [2, 1]
        assert _divide_out([2, 3, 1], 1, 1) is None
        assert _divide_out([2, 7, 3], 1, 3) is None
        assert _divide_out([2, 7, 3], 2, 3) is None

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
