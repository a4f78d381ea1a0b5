"""Closed-form integration: frozen values, identities, and error paths.

Numeric reference values were frozen from the quadrature oracle (and,
for dilogarithm constants, a high-precision series); symbolic
expectations are asserted as exact ClosedForm equality.
"""

import math
import random
from fractions import Fraction

import pytest

from logint import (
    ClosedForm,
    DegenerateInterval,
    Dilog,
    DomainError,
    FactoredDenominator,
    IntegralSpec,
    LimitExceeded,
    Log,
    LogProd,
    NonRationalPole,
    PI_SQUARED_ATOM,
    PoleCollision,
    PoleInInterval,
    Polynomial,
    UNIT,
    UnsupportedLogPower,
    UnsupportedPole,
    integrate_monomial_log,
    integrate_multiple_pole,
    integrate_poly_log,
    integrate_rational_log,
    integrate_simple_pole,
    integrate_two_simple_poles,
    partial_fractions,
    quad_log,
    symmetric_two_pole_dilog,
    symmetric_two_pole_elementary,
    unit_pole_log_integral,
    unit_pole_log_parts,
)
from logint.integrate import MAX_LOG_POWER, MAX_POLY_LOG_TERMS, _multiple_pole_terms
from logint.poly import MAX_DEGREE
from specgen import (
    BOUND_GRID,
    CONSTANTS,
    POLE_GRID,
    linear_product,
    oracle_integrand,
    random_bounds,
    random_polynomial,
    random_spec,
)

F = Fraction
PI2_12 = 0.8224670334241132  # pi^2 / 12


def _no_decomposition(*args):
    raise AssertionError("a rejected input was decomposed")


class TestMonomialLog:
    def test_log_over_unit_interval(self):
        assert integrate_monomial_log(0, 1, 1) == ClosedForm({UNIT: F(-1)})

    def test_x_log_squared(self):
        # int_0^1 x ln^2 x dx = 2!/2^3
        assert integrate_monomial_log(1, 2, 1) == ClosedForm({UNIT: F(1, 4)})

    def test_plain_length(self):
        assert integrate_monomial_log(0, 0, 5) == ClosedForm({UNIT: F(5)})

    def test_against_oracle(self):
        rng = random.Random(11)
        for _ in range(10):
            j, k = rng.randint(0, 4), rng.randint(0, 3)
            b = F(rng.randint(1, 12), rng.randint(1, 3))
            got = integrate_monomial_log(j, k, b).evalf()
            ref = quad_log((Polynomial((0, 1)) ** j, Polynomial((1,))), 0, b, m=k)
            assert ref.converged
            assert abs(got - ref.value) <= 1e-10 * (1 + abs(ref.value))

    def test_validation(self):
        with pytest.raises(DomainError):
            integrate_monomial_log(-1, 1, 1)
        with pytest.raises(DomainError):
            integrate_monomial_log(0, -1, 1)
        with pytest.raises(DomainError):
            integrate_monomial_log(0, 1, 0)
        with pytest.raises(TypeError):
            integrate_monomial_log(0, 1, 1.0)

    @pytest.mark.parametrize("k", [MAX_LOG_POWER + 1, 10**20])
    def test_log_power_above_the_limit_is_refused_before_any_step(self, monkeypatch, k):
        monkeypatch.setattr("logint.integrate._monomial_log_terms", _no_decomposition)
        with pytest.raises(LimitExceeded, match=f"log power must be at most {MAX_LOG_POWER}$"):
            integrate_monomial_log(0, k, 2)

    @pytest.mark.parametrize("j", [MAX_DEGREE + 1, 10**20])
    def test_degree_above_the_limit_is_refused_before_any_step(self, monkeypatch, j):
        # b^(j+1) alone would take memory linear in j.
        monkeypatch.setattr("logint.integrate._monomial_log_terms", _no_decomposition)
        with pytest.raises(LimitExceeded, match=f"^monomial degree must be at most {MAX_DEGREE}$"):
            integrate_monomial_log(j, 1, F(1, 2))

    def test_degree_at_the_limit(self):
        # int_0^1 x^j ln x dx = -1/(j+1)^2
        got = integrate_monomial_log(MAX_DEGREE, 1, 1)
        assert got == ClosedForm.of(UNIT, F(-1, (MAX_DEGREE + 1) ** 2))

    def test_log_power_at_the_limit(self):
        # int_0^1 (ln x)^m dx = (-1)^m m!
        got = integrate_monomial_log(0, MAX_LOG_POWER, 1)
        assert got == ClosedForm.of(UNIT, math.factorial(MAX_LOG_POWER))


class TestPolyLog:
    def test_matches_monomial(self):
        assert integrate_poly_log(Polynomial((1,)), 1, 1) == ClosedForm(
            {UNIT: F(-1)}
        )

    def test_x_against_antiderivative(self):
        # int_0^2 x ln x dx = 2 ln 2 - 1  (x^2/2 ln x - x^2/4)
        got = integrate_poly_log(Polynomial((0, 1)), 2, 1)
        assert got == ClosedForm({Log(F(2)): F(2), UNIT: F(-1)})
        assert got.evalf() == pytest.approx(0.3862943611198906, abs=1e-14)

    def test_square_log_of_linear(self):
        # int_0^1 (1 + x) ln^2 x dx = 2 + 1/4
        got = integrate_poly_log(Polynomial((1, 1)), 1, 2)
        assert got == ClosedForm({UNIT: F(9, 4)})

    def test_zero_polynomial(self):
        assert integrate_poly_log(Polynomial(), 3, 1) == ClosedForm()

    @pytest.mark.parametrize("m", [MAX_LOG_POWER + 1, 10**20])
    def test_log_power_above_the_limit_is_refused_before_any_step(self, monkeypatch, m):
        monkeypatch.setattr("logint.integrate._poly_log_terms", _no_decomposition)
        with pytest.raises(LimitExceeded, match=f"log power must be at most {MAX_LOG_POWER}$"):
            integrate_poly_log(Polynomial((1, 1)), 2, m)

    def test_degree_above_the_limit_is_refused_before_any_step(self, monkeypatch):
        monkeypatch.setattr("logint.integrate._poly_log_terms", _no_decomposition)
        sparse = Polynomial([0] * 2 * MAX_DEGREE + [1])
        with pytest.raises(LimitExceeded, match=f"^numerator degree must be at most {MAX_DEGREE}$"):
            integrate_poly_log(sparse, F(1, 2), 1)

    def test_numerator_terms_times_log_power_above_the_limit_is_refused_before_any_step(
        self, monkeypatch
    ):
        # Two monomials at m = 1,000 are 2,002 terms; three are 3,003.
        monkeypatch.setattr("logint.integrate._poly_log_terms", _no_decomposition)
        with pytest.raises(
            LimitExceeded,
            match=rf"numerator terms times \(log power \+ 1\) must be at most {MAX_POLY_LOG_TERMS}$",
        ):
            integrate_poly_log(Polynomial([1] * 3), F(1, 2), MAX_LOG_POWER)
        # A dense numerator of degree 300 at m = 300 is 90,601.
        with pytest.raises(LimitExceeded):
            integrate_poly_log(Polynomial([1] * 301), F(1, 2), 300)

    def test_numerator_terms_times_log_power_at_the_limit(self):
        # A dense numerator of degree MAX_DEGREE at m = 1: int_0^1 x^j ln x
        # dx = -1/(j+1)^2.
        assert MAX_POLY_LOG_TERMS == 2 * (MAX_DEGREE + 1)
        got = integrate_poly_log(Polynomial([1] * (MAX_DEGREE + 1)), 1, 1)
        assert got == ClosedForm.of(UNIT, -sum(F(1, (j + 1) ** 2) for j in range(MAX_DEGREE + 1)))

    def test_linearity_random(self):
        rng = random.Random(12)
        for _ in range(25):
            coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
            b = F(rng.randint(1, 8), rng.randint(1, 2))
            m = rng.randint(0, 3)
            whole = integrate_poly_log(Polynomial(coeffs), b, m)
            pieces = ClosedForm()
            for j, c in enumerate(coeffs):
                if c:
                    pieces = pieces + c * integrate_monomial_log(j, m, b)
            assert whole == pieces


class TestSimplePole:
    def test_unit_case(self):
        # int_0^1 ln x/(x+1) dx = -pi^2/12
        got = integrate_simple_pole(1, 1)
        assert got == ClosedForm({PI_SQUARED_ATOM: F(-1, 12)})
        assert got.evalf() == pytest.approx(-PI2_12, abs=1e-14)

    @pytest.mark.parametrize("b", [F(1, 2), F(2), F(10)])
    def test_matched_pole_golden(self, b):
        # int_0^b ln x/(x+b) dx = ln 2 ln b - pi^2/12
        got = integrate_simple_pole(b, b)
        expected = ClosedForm({LogProd(F(2), b): F(1), PI_SQUARED_ATOM: F(-1, 12)})
        assert got == expected
        assert got.evalf() == pytest.approx(
            math.log(2) * math.log(b) - PI2_12, abs=1e-13
        )

    def test_pure_dilog_case(self):
        got = integrate_simple_pole(1, 2)
        assert got == ClosedForm({Dilog(F(-1, 2)): F(1)})
        assert got.evalf() == pytest.approx(-0.4484142069236462, abs=1e-14)

    def test_against_oracle(self):
        rng = random.Random(13)
        for _ in range(8):
            b = F(rng.randint(1, 10), rng.randint(1, 2))
            r = F(rng.randint(1, 10), rng.randint(1, 2))
            got = integrate_simple_pole(b, r).evalf()
            ref = quad_log((Polynomial((1,)), Polynomial((r, 1))), 0, b)
            assert ref.converged
            assert abs(got - ref.value) <= 1e-10 * (1 + abs(ref.value))

    def test_validation(self):
        with pytest.raises(DomainError):
            integrate_simple_pole(0, 1)
        with pytest.raises(DomainError):
            integrate_simple_pole(1, 0)
        with pytest.raises(TypeError):
            integrate_simple_pole(0.5, 1)


class TestTwoSimplePoles:
    def test_symmetric_case_routes_agree(self):
        assert integrate_two_simple_poles(1, 2, 1, 2) == symmetric_two_pole_dilog(
            1, 2
        )

    def test_symmetric_numeric(self):
        got = integrate_two_simple_poles(1, 2, 1, 2).evalf()
        assert got == pytest.approx(0.04082048954150685, abs=1e-13)

    def test_zero_based_case(self):
        # int_0^1 ln x/((x+1)(x+2)) dx = -pi^2/12 - Li2(-1/2)
        got = integrate_two_simple_poles(0, 1, 1, 2)
        expected = ClosedForm({PI_SQUARED_ATOM: F(-1, 12), Dilog(F(-1, 2)): F(-1)})
        assert got == expected
        assert got.evalf() == pytest.approx(-0.374052826500467, abs=1e-13)

    @pytest.mark.parametrize("u,v", [(F(1), F(2)), (F(3), F(1, 2))])
    def test_large_upper_asymptote(self, u, v):
        # int_0^inf ln x/((x+u)(x+v)) dx = (ln^2 u - ln^2 v)/(2(u-v))
        limit = (math.log(u) ** 2 - math.log(v) ** 2) / (2 * float(u - v))
        got = integrate_two_simple_poles(0, 10**6, u, v).evalf()
        assert abs(got - limit) <= 1e-4

    def test_against_oracle(self):
        rng = random.Random(14)
        for _ in range(8):
            r1, r2 = rng.sample([F(k, 2) for k in range(1, 9)], 2)
            a = F(rng.randint(0, 4), 2)
            b = a + F(rng.randint(1, 8), 2)
            got = integrate_two_simple_poles(a, b, r1, r2).evalf()
            den = Polynomial((r1, 1)) * Polynomial((r2, 1))
            ref = quad_log((Polynomial((1,)), den), a, b)
            assert ref.converged
            assert abs(got - ref.value) <= 1e-10 * (1 + abs(ref.value))

    def test_validation(self):
        with pytest.raises(PoleCollision):
            integrate_two_simple_poles(1, 2, 3, 3)
        with pytest.raises(DegenerateInterval):
            integrate_two_simple_poles(2, 2, 1, 2)
        with pytest.raises(DomainError):
            integrate_two_simple_poles(2, 1, 1, 2)
        with pytest.raises(DomainError):
            integrate_two_simple_poles(-1, 1, 1, 2)


class TestSymmetricTwoPole:
    def test_frozen_small_cases(self):
        got = symmetric_two_pole_elementary(1, 2)
        assert got == ClosedForm({LogProd(F(2), F(9, 8)): F(1, 2)})
        assert got.evalf() == pytest.approx(0.04082048954150685, abs=1e-14)

        got = symmetric_two_pole_elementary(1, 3)
        assert got == ClosedForm({LogProd(F(3), F(4, 3)): F(1, 4)})
        assert got.evalf() == pytest.approx(0.07901276500625898, abs=1e-14)

    def test_dual_form_agreement_random(self):
        rng = random.Random(15)
        for _ in range(30):
            a = F(rng.randint(1, 40), rng.randint(1, 4))
            b = a + F(rng.randint(1, 40), rng.randint(1, 4))
            elem = symmetric_two_pole_elementary(a, b).evalf()
            via_dilog = symmetric_two_pole_dilog(a, b).evalf()
            assert abs(elem - via_dilog) <= 1e-12 * (1 + abs(elem))

    def test_against_oracle(self):
        for a, b in [(F(1), F(2)), (F(1, 2), F(5)), (F(3), F(7, 2))]:
            den = Polynomial((a, 1)) * Polynomial((b, 1))
            ref = quad_log((Polynomial((1,)), den), a, b)
            assert ref.converged
            got = symmetric_two_pole_elementary(a, b).evalf()
            assert abs(got - ref.value) <= 1e-11 * (1 + abs(ref.value))

    def test_validation(self):
        with pytest.raises(DegenerateInterval):
            symmetric_two_pole_elementary(2, 2)
        with pytest.raises(DomainError):
            symmetric_two_pole_elementary(0, 2)
        with pytest.raises(DomainError):
            symmetric_two_pole_elementary(3, 2)


class TestUnitPoleIntegral:
    def test_order_two(self):
        # h_2(b) = b/(1+b) ln b - ln(1+b)
        assert unit_pole_log_integral(2, 1) == ClosedForm({Log(F(2)): F(-1)})
        expected = ClosedForm({Log(F(3)): F(3, 4), Log(F(4)): F(-1)})
        assert unit_pole_log_integral(2, 3) == expected

    def test_recurrence_steps(self):
        got3 = unit_pole_log_integral(3, 1)
        assert got3 == ClosedForm({Log(F(2)): F(-1, 2), UNIT: F(-1, 4)})
        assert got3.evalf() == pytest.approx(-0.5965735902799727, abs=1e-14)

        got4 = unit_pole_log_integral(4, 1)
        assert got4 == ClosedForm({Log(F(2)): F(-1, 3), UNIT: F(-7, 24)})
        assert got4.evalf() == pytest.approx(-0.5227157268533151, abs=1e-14)

    def test_against_oracle(self):
        for n, b in [(3, F(1)), (5, F(2)), (8, F(1, 2)), (12, F(7, 2))]:
            got = unit_pole_log_integral(n, b).evalf()
            ref = quad_log(
                (Polynomial((1,)), Polynomial((1, 1)) ** n), 0, b
            )
            assert ref.converged
            assert abs(got - ref.value) <= 1e-10 * (1 + abs(ref.value))

    def test_validation(self):
        with pytest.raises(DomainError):
            unit_pole_log_integral(1, 1)
        with pytest.raises(DomainError):
            unit_pole_log_integral(3, 0)

    @pytest.mark.parametrize("n", [MAX_DEGREE + 1, 10**20])
    def test_order_above_the_limit_is_refused_before_any_step(self, monkeypatch, n):
        monkeypatch.setattr("logint.integrate._multiple_pole_terms", _no_decomposition)
        with pytest.raises(LimitExceeded, match=f"pole order must be at most {MAX_DEGREE}$"):
            unit_pole_log_integral(n, 1)


class TestMultiplePole:
    def test_order_two_unit(self):
        # int_0^1 ln x/(x+1)^2 dx = -ln 2
        got = integrate_multiple_pole(2, 1, 1)
        assert got == ClosedForm({Log(F(2)): F(-1)})
        assert got.evalf() == pytest.approx(-math.log(2), abs=1e-14)

    def test_order_two_collapses(self):
        # f_2(1, 2): the ln(1/2)/ln(2) pair cancels down to one atom
        got = integrate_multiple_pole(2, 1, 2)
        assert got == ClosedForm({Log(F(3, 2)): F(-1, 2)})
        assert got.evalf() == pytest.approx(-0.20273255405408222, abs=1e-14)

    def test_order_two_closed_formula(self):
        # alternative antiderivative route:
        #   f_2(b, r) = -ln(b+r)/r + ln(r)/r + b ln b/(r(b+r))
        # The atom sets differ (quotient logs stay unsplit), so compare
        # numerically.
        for b, r in [(F(3), F(2)), (F(1, 2), F(5)), (F(7), F(7))]:
            bf, rf = float(b), float(r)
            expected = (
                -math.log(bf + rf) / rf
                + math.log(rf) / rf
                + bf * math.log(bf) / (rf * (bf + rf))
            )
            got = integrate_multiple_pole(2, b, r).evalf()
            assert abs(got - expected) <= 1e-12 * (1 + abs(expected))

    def test_large_upper_asymptote(self):
        # int_0^inf ln x/(x+r)^2 dx = ln r / r
        got = integrate_multiple_pole(2, 10**6, 2).evalf()
        assert abs(got - math.log(2) / 2) <= 2e-5

    def test_against_oracle(self):
        rng = random.Random(16)
        for _ in range(8):
            n = rng.randint(2, 6)
            b = F(rng.randint(1, 10), rng.randint(1, 2))
            r = F(rng.randint(1, 8), rng.randint(1, 2))
            got = integrate_multiple_pole(n, b, r).evalf()
            ref = quad_log(
                (Polynomial((1,)), Polynomial((r, 1)) ** n), 0, b
            )
            assert ref.converged
            assert abs(got - ref.value) <= 1e-10 * (1 + abs(ref.value))

    def test_scaling_against_recurrence_exact(self):
        # x = r t gives, with y = r/(b+r),
        #   f_n(b, r) = ln r (1 - y^(n-1)) / ((n-1) r^(n-1)) + h_n(b/r) / r^(n-1),
        # and h_n(b/r) is rebuilt from the recurrence's polynomial parts.
        # The pairs take r < 1, b = r^2 (ln r and ln(b/r) merge) and b = r.
        pairs = [
            (F(3), F(2)),
            (F(1, 2), F(5)),
            (F(4), F(2)),
            (F(1, 9), F(1, 3)),
            (F(7), F(7)),
            (F(10**6, 7), F(3, 11)),
        ]
        for n in range(2, 16):
            parts = unit_pole_log_parts(n)
            for b, r in pairs:
                t = b / r
                h = ClosedForm(
                    (
                        (Log(t), parts.log_b(t)),
                        (Log(1 + t), parts.log_one_plus_b(t)),
                        (UNIT, parts.rational(t)),
                    )
                ) / (1 + t) ** (n - 1)
                scale = r ** (n - 1)
                y = r / (b + r)
                log_r = ClosedForm.of(Log(r), (1 - y ** (n - 1)) / ((n - 1) * scale))
                assert integrate_multiple_pole(n, b, r) == log_r + h / scale, (n, b, r)

    def test_validation(self):
        with pytest.raises(DomainError):
            integrate_multiple_pole(1, 1, 1)
        with pytest.raises(DomainError):
            integrate_multiple_pole(2, 1, 0)

    @staticmethod
    def _fraction_loop_terms(n, b, r):
        """The terms of f_n(b, r) by a loop of reduced Fractions, one per
        power of y = r/(b+r): the referee of the integer evaluation."""
        t = b / r
        y = r / (b + r)
        y_k = F(1)
        rest = F(0)
        for k in range(1, n - 1):
            y_k *= y
            rest -= (1 - y_k) / k
        s = 1 / ((n - 1) * r ** (n - 1))
        c = (1 - y_k * y) * s
        return [(Log(r), c), (Log(t), c), (Log(1 + t), -s), (UNIT, rest * s)]

    def test_matches_the_fraction_loop(self):
        # b from the quarter grid and r from the half-integer grid, then
        # extremes both ways, b = r and b = r^2.
        rng = random.Random(33)
        tiny, huge = F(3, 10**15), F(10**20, 7)
        fixed = [(huge, tiny), (tiny, huge), (huge, F(1, 2)), (tiny, F(5))]
        for r in (F(1, 2), F(3), F(2, 3), tiny, huge):
            fixed += [(r, r), (r * r, r)]
        for n in [*range(2, 61), 200]:
            pairs = fixed + [(rng.choice(BOUND_GRID), rng.choice(POLE_GRID)) for _ in range(6)]
            for b, r in pairs:
                want = self._fraction_loop_terms(n, b, r)
                assert list(_multiple_pole_terms(n, b, r)) == want, (n, b, r)
                assert integrate_multiple_pole(n, b, r) == ClosedForm(want), (n, b, r)

    @pytest.mark.parametrize("n", [MAX_DEGREE + 1, 10**20])
    def test_order_above_the_limit_is_refused_before_any_step(self, monkeypatch, n):
        monkeypatch.setattr("logint.integrate._multiple_pole_terms", _no_decomposition)
        with pytest.raises(LimitExceeded, match=f"pole order must be at most {MAX_DEGREE}$"):
            integrate_multiple_pole(n, 1, 1)

    def test_order_at_the_limit(self):
        n, b, r = MAX_DEGREE, F(7, 2), F(1, 3)
        want = ClosedForm(self._fraction_loop_terms(n, b, r))
        assert integrate_multiple_pole(n, b, r) == want


class TestLogIntegralParts:
    @staticmethod
    def _fraction_recurrence(n):
        """The recurrence of unit_pole_log_parts in reduced Fractions, one
        step at a time: its referee, sharing none of the (k-1)!-scaled
        integer arithmetic it checks."""
        bpoly = Polynomial((0, 1))
        one_plus = Polynomial((1, 1))
        x_part = bpoly
        y_part = -one_plus
        z_part = Polynomial()
        power = one_plus  # (1+b)^(k-1)
        for k in range(3, n + 1):
            step = Fraction(k - 2, k - 1) * one_plus
            power = power * one_plus
            x_part = step * x_part + Fraction(1, k - 1) * bpoly
            y_part = step * y_part
            z_part = step * z_part + Fraction(1, (k - 1) * (k - 2)) * (
                one_plus - power
            )
        return x_part, y_part, z_part

    def test_matches_fraction_recurrence(self):
        for n in [*range(2, 61), 120]:
            parts = unit_pole_log_parts(n)
            got = (parts.log_b, parts.log_one_plus_b, parts.rational)
            assert got == self._fraction_recurrence(n), n

    @pytest.mark.parametrize("n", [MAX_DEGREE + 1, 10**20])
    def test_order_above_the_limit_is_refused(self, n):
        # At 10^20 the recurrence would never return.
        with pytest.raises(LimitExceeded, match=f"pole order must be at most {MAX_DEGREE}$"):
            unit_pole_log_parts(n)

    def test_base_case(self):
        parts = unit_pole_log_parts(2)
        assert parts.log_b == Polynomial((0, 1))
        assert parts.log_one_plus_b == Polynomial((-1, -1))
        assert parts.rational == Polynomial()

    def test_first_step(self):
        parts = unit_pole_log_parts(3)
        assert parts.log_b == Polynomial((0, 1, F(1, 2)))
        assert parts.log_one_plus_b == Polynomial((F(-1, 2), -1, F(-1, 2)))
        assert parts.rational == Polynomial((0, F(-1, 2), F(-1, 2)))
        # q_3(1) = 4 h_3(1) = -2 ln 2 - 1
        assert parts.value_at(1.0) == pytest.approx(
            -2 * math.log(2) - 1, abs=1e-14
        )

    def test_part_degrees(self):
        for n in range(2, 61):
            parts = unit_pole_log_parts(n)
            assert parts.log_b.degree == n - 1
            assert parts.log_one_plus_b.degree == n - 1
            assert parts.rational.degree <= n - 1

    def test_identity_against_integral_numeric(self):
        for n in range(2, 13):
            for b in (F(1, 2), F(1), F(3)):
                parts = unit_pole_log_parts(n)
                scaled = float((1 + b) ** (n - 1))
                h = unit_pole_log_integral(n, b).evalf()
                assert abs(h * scaled - parts.value_at(float(b))) <= 1e-11 * (
                    1 + abs(h * scaled)
                )

    def test_identity_exact(self):
        # h_n(b) reproduced exactly from the three polynomial parts: the
        # recurrence of unit_pole_log_parts against the closed form of
        # unit_pole_log_integral.
        for n in range(2, 31):
            parts = unit_pole_log_parts(n)
            for b in (F(1, 1000), F(1, 4), F(1), F(7, 2), F(10**6, 7)):
                scale = 1 / ((1 + b) ** (n - 1))
                assembled = (
                    ClosedForm({Log(1 + b): parts.log_one_plus_b(b)})
                    + ClosedForm.of(UNIT, parts.rational(b))
                    + (
                        ClosedForm({Log(b): parts.log_b(b)})
                        if b != 1
                        else ClosedForm()
                    )
                ) * scale
                assert assembled == unit_pole_log_integral(n, b)


class TestDriver:
    def test_two_pole_spec(self):
        spec = IntegralSpec(
            numerator=Polynomial((1,)),
            denominator=Polynomial((1, 1)) * Polynomial((2, 1)),
            lower=F(1),
            upper=F(2),
        )
        got = integrate_rational_log(spec)
        assert got == integrate_two_simple_poles(1, 2, 1, 2)
        elem = symmetric_two_pole_elementary(1, 2).evalf()
        assert abs(got.evalf() - elem) <= 1e-13

    def test_double_pole_spec(self):
        spec = IntegralSpec(
            numerator=Polynomial((1,)),
            denominator=Polynomial((1, 2, 1)),
            lower=F(0),
            upper=F(1),
        )
        assert integrate_rational_log(spec) == ClosedForm({Log(F(2)): F(-1)})

    def test_quotient_plus_pole(self):
        # (x^2+1)/(x+1) = (x - 1) + 2/(x+1):
        # int_0^1 = (-1/4 + 1) + 2 (-pi^2/12) = 3/4 - pi^2/6
        spec = IntegralSpec(
            numerator=Polynomial((1, 0, 1)),
            denominator=Polynomial((1, 1)),
            lower=F(0),
            upper=F(1),
        )
        got = integrate_rational_log(spec)
        assert got == ClosedForm({UNIT: F(3, 4), PI_SQUARED_ATOM: F(-1, 6)})
        assert got.evalf() == pytest.approx(-0.8949340668482264, abs=1e-13)

    def test_factored_denominator_input(self):
        den = FactoredDenominator(
            constant=F(3), factors=((F(1), 1), (F(2), 2))
        )
        spec = IntegralSpec(
            numerator=Polynomial((2, 1)),
            denominator=den,
            lower=F(1, 2),
            upper=F(4),
        )
        got = integrate_rational_log(spec)
        ref = quad_log((Polynomial((2, 1)), den), F(1, 2), 4)
        assert ref.converged
        assert abs(got.evalf() - ref.value) <= 1e-10 * (1 + abs(ref.value))

    def test_higher_log_power_needs_constant_denominator(self):
        spec = IntegralSpec(
            numerator=Polynomial((0, 0, 1)),
            denominator=Polynomial((2,)),
            lower=F(0),
            upper=F(1),
            log_power=3,
        )
        # int_0^1 x^2 ln^3 x dx / 2 = (1/2)(-3!/3^4) = -1/27
        assert integrate_rational_log(spec) == ClosedForm({UNIT: F(-1, 27)})

        with pytest.raises(UnsupportedLogPower):
            integrate_rational_log(
                IntegralSpec(
                    numerator=Polynomial((1,)),
                    denominator=Polynomial((1, 1)),
                    lower=F(0),
                    upper=F(1),
                    log_power=2,
                )
            )

    def test_zero_numerator(self):
        spec = IntegralSpec(
            numerator=Polynomial(),
            denominator=Polynomial((1, 1)),
            lower=F(0),
            upper=F(1),
        )
        assert integrate_rational_log(spec) == ClosedForm()

    def test_pole_inside_interval(self):
        spec = IntegralSpec(
            numerator=Polynomial((1,)),
            denominator=Polynomial((F(-1, 2), 1)),  # pole at x = 1/2
            lower=F(0),
            upper=F(1),
        )
        with pytest.raises(PoleInInterval) as exc:
            integrate_rational_log(spec)
        assert "pole at x = 1/2 lies inside [0, 1]" in str(exc.value)

    def test_pole_at_zero_lower_bound(self):
        spec = IntegralSpec(
            numerator=Polynomial((1,)),
            denominator=Polynomial((0, 1)),  # pole at x = 0
            lower=F(0),
            upper=F(2),
        )
        with pytest.raises(PoleInInterval):
            integrate_rational_log(spec)

    def test_positive_pole_outside_interval(self):
        spec = IntegralSpec(
            numerator=Polynomial((1,)),
            denominator=Polynomial((-3, 1)),  # pole at x = 3
            lower=F(0),
            upper=F(1),
        )
        with pytest.raises(UnsupportedPole):
            integrate_rational_log(spec)

    def test_cancelling_numerator_does_not_hide_pole(self):
        # (x - 1)/((x - 1)(x + 2)): the fraction is not reduced first,
        # so the x = 1 pole still counts as divergent.
        spec = IntegralSpec(
            numerator=Polynomial((-1, 1)),
            denominator=Polynomial((-1, 1)) * Polynomial((2, 1)),
            lower=F(0),
            upper=F(2),
        )
        with pytest.raises(PoleInInterval):
            integrate_rational_log(spec)

    def test_irrational_pole_rejected(self):
        spec = IntegralSpec(
            numerator=Polynomial((1,)),
            denominator=Polynomial((1, 1, 1)),
            lower=F(0),
            upper=F(1),
        )
        with pytest.raises(NonRationalPole):
            integrate_rational_log(spec)

    def test_spec_validation(self):
        num, den = Polynomial((1,)), Polynomial((1, 1))
        with pytest.raises(DomainError):
            IntegralSpec(num, den, F(-1), F(1))
        with pytest.raises(DegenerateInterval):
            IntegralSpec(num, den, F(1), F(1))
        with pytest.raises(DomainError):
            IntegralSpec(num, den, F(2), F(1))
        with pytest.raises(DomainError):
            IntegralSpec(num, den, F(0), F(1), log_power=0)
        with pytest.raises(DomainError, match="log_power must be an integer >= 1"):
            IntegralSpec(num, den, F(0), F(1), log_power=True)
        with pytest.raises(TypeError):
            IntegralSpec(num, den, 0.0, F(1))

    @pytest.mark.parametrize("power", [MAX_LOG_POWER + 1, 10**8])
    def test_spec_refuses_a_log_power_above_the_limit(self, power):
        with pytest.raises(LimitExceeded, match=f"log_power must be at most {MAX_LOG_POWER}$"):
            IntegralSpec(Polynomial((1,)), Polynomial((1,)), F(1), F(2), log_power=power)

    def test_spec_refuses_numerator_terms_times_log_power_above_the_limit(self):
        # Checked when the spec is built, before Q is factored: x^2 - 2 has
        # no rational root, and m >= 2 with a pole is refused too, later.
        dense = Polynomial([1] * 301)
        for den in (Polynomial((1,)), Polynomial((-2, 0, 1))):
            with pytest.raises(
                LimitExceeded,
                match=rf"numerator terms times \(log power \+ 1\) must be at most {MAX_POLY_LOG_TERMS}$",
            ):
                IntegralSpec(dense, den, F(1, 2), F(1), log_power=300)
        # Sparse numerators count only their nonzero coefficients: x^1000
        # and x^1000 + x^999 at MAX_LOG_POWER, and every numerator of degree
        # up to MAX_DEGREE at m = 1, are accepted.
        for num, m in [
            (Polynomial([0] * MAX_DEGREE + [1]), MAX_LOG_POWER),
            (Polynomial([0] * (MAX_DEGREE - 1) + [1, 1]), MAX_LOG_POWER),
            (Polynomial([1] * (MAX_DEGREE + 1)), 1),
        ]:
            IntegralSpec(num, Polynomial((1,)), F(1, 2), F(1), log_power=m)
        with pytest.raises(LimitExceeded):
            IntegralSpec(Polynomial([1] * (MAX_DEGREE + 1)), Polynomial((1,)), F(1, 2), F(1), log_power=2)

    def test_spec_refuses_a_numerator_degree_above_the_limit(self):
        # A sparse x^2000 is one term at m = 1, inside the joint size bound.
        sparse = Polynomial([0] * 2 * MAX_DEGREE + [1])
        with pytest.raises(LimitExceeded, match=f"^numerator degree must be at most {MAX_DEGREE}$"):
            IntegralSpec(sparse, Polynomial((1,)), F(1, 2), F(1))
        IntegralSpec(Polynomial([0] * MAX_DEGREE + [1]), Polynomial((1,)), F(1, 2), F(1))

    def test_spec_refuses_an_expanded_denominator_degree_above_the_limit(self, monkeypatch):
        # Refused before the root search, which for x^2000 + 720720 runs
        # for seconds before it finds no rational root.
        monkeypatch.setattr("logint.ratfunc.factor_denominator", _no_decomposition)
        den = Polynomial([1] + [0] * (2 * MAX_DEGREE - 1) + [1])
        with pytest.raises(LimitExceeded, match=f"^denominator degree must be at most {MAX_DEGREE}$"):
            IntegralSpec(Polynomial((1,)), den, F(1, 2), F(1))
        IntegralSpec(Polynomial((1,)), Polynomial([1] + [0] * (MAX_DEGREE - 1) + [1]), F(1, 2), F(1))

    @pytest.mark.parametrize("num, den, field", [
        ([1], Polynomial((1, 1)), "numerator must be a Polynomial"),
        (Polynomial((1,)), [1, 1], "denominator must be a Polynomial or FactoredDenominator"),
        (Polynomial((1,)), "x+1", "denominator must be a Polynomial or FactoredDenominator"),
        (Polynomial((1,)), None, "denominator must be a Polynomial or FactoredDenominator"),
    ], ids=["list-numerator", "list-denominator", "str-denominator", "none-denominator"])
    def test_spec_names_an_integrand_of_the_wrong_type(self, num, den, field):
        with pytest.raises(TypeError, match=field):
            IntegralSpec(num, den, F(0), F(1))

    @pytest.mark.parametrize("factors, power, error", [
        (None, 2, NonRationalPole),  # x^2 - 2: factoring fails first
        (((1, 1), (3, 1)), 2, UnsupportedLogPower),
        (((-1, 1), (3, 1)), 2, UnsupportedLogPower),  # before the pole
        (((-1, 1),), 1, PoleInInterval),
        (((-3, 1),), 1, UnsupportedPole),
        (((-3, 1), (-1, 1)), 1, PoleInInterval),  # the lower pole decides
    ], ids=["irrational", "log-power", "log-power-before-pole", "pole-inside",
            "positive-pole", "two-offending-poles"])
    def test_rejection_order(self, monkeypatch, factors, power, error):
        # On [0, 2] integrate_rational_log factors Q first, then checks
        # the log power, then each pole in ascending order, and never
        # decomposes a rejected input; an expanded and a factored Q agree.
        monkeypatch.setattr("logint.integrate.partial_fractions", _no_decomposition)
        if factors is None:
            dens = [Polynomial((-2, 0, 1))]
        else:
            fd = FactoredDenominator(1, factors)
            dens = [linear_product(fd), fd]
        for den in dens:
            spec = IntegralSpec(Polynomial((1,)), den, F(0), F(2), log_power=power)
            with pytest.raises(error):
                integrate_rational_log(spec)

    def test_rejected_high_multiplicity_skips_the_decomposition(self, monkeypatch):
        # (x - 1)^400 on [0, 2] is decided from its one factor.
        monkeypatch.setattr("logint.integrate.partial_fractions", _no_decomposition)
        den = FactoredDenominator(1, ((-1, 400),))
        with pytest.raises(PoleInInterval, match="pole at x = 1 lies inside"):
            integrate_rational_log(IntegralSpec(Polynomial((1,)), den, F(0), F(2)))

    def test_verdict_is_independent_of_the_form_of_q(self):
        # One Q, factored and multiplied out, gives the same closed form or
        # the same error; shifts on both sides of 0, written in random order.
        rng = random.Random(28)
        shifts = [F(k, 2) for k in range(-10, 11)]
        for _ in range(300):
            factors = tuple(
                (s, rng.randint(1, 3)) for s in rng.sample(shifts, rng.randint(1, 3))
            )
            fd = FactoredDenominator(rng.choice(CONSTANTS), factors)
            lower, upper = random_bounds(rng)
            num, power = random_polynomial(rng), rng.randint(1, 2)
            verdicts = []
            for den in (fd, linear_product(fd)):
                spec = IntegralSpec(num, den, lower, upper, log_power=power)
                try:
                    verdicts.append(integrate_rational_log(spec))
                except DomainError as err:
                    verdicts.append((type(err), str(err)))
            assert verdicts[0] == verdicts[1], (factors, lower, upper, power)

    def test_additivity_exact(self):
        rng = random.Random(17)
        for _ in range(20):
            spec = random_spec(rng)
            if spec.lower == 0:
                continue
            mid = spec.lower
            whole = integrate_rational_log(
                IntegralSpec(
                    spec.numerator, spec.denominator, F(0), spec.upper
                )
            )
            left = integrate_rational_log(
                IntegralSpec(spec.numerator, spec.denominator, F(0), mid)
            )
            right = integrate_rational_log(spec)
            assert whole == left + right

    def test_derivative_matches_integrand(self):
        # d/db int_lower^b R ln = R(b) ln b, probed by a central
        # difference.  Draws where the quotient is not yet in its
        # h^2 regime at eps (steep poles) are skipped: convergence is
        # judged by comparing the eps and 2*eps quotients.
        rng = random.Random(18)
        eps = F(1, 100_000)
        checked = 0
        while checked < 12:
            spec = random_spec(rng)
            b = spec.upper
            num, den = oracle_integrand(spec)
            integrand = num(float(b)) / den(float(b)) * math.log(float(b))

            def value_at(upper: Fraction) -> float:
                shifted = IntegralSpec(
                    spec.numerator, spec.denominator, spec.lower, upper
                )
                return integrate_rational_log(shifted).evalf()

            fd = (value_at(b + eps) - value_at(b - eps)) / (2 * float(eps))
            coarse = (value_at(b + 2 * eps) - value_at(b - 2 * eps)) / (
                4 * float(eps)
            )
            if abs(fd - coarse) > 1e-7 * (1 + abs(integrand)):
                continue
            assert abs(fd - integrand) <= 1e-6 * (1 + abs(integrand))
            checked += 1

    def test_oracle_agreement_batch(self):
        rng = random.Random(19)
        for _ in range(30):
            spec = random_spec(rng)
            got = integrate_rational_log(spec).evalf()
            ref = quad_log((spec.numerator, spec.denominator), spec.lower, spec.upper)
            assert ref.converged
            assert abs(got - ref.value) <= 1e-9 * (1 + abs(ref.value))

    @pytest.mark.xfail(
        reason="ROADMAP item 2: evalf subtracts F(upper) - F(lower) in floats "
        "and loses every digit when they cancel",
    )
    def test_evalf_keeps_relative_accuracy_on_a_narrow_interval(self):
        spec = IntegralSpec(
            numerator=Polynomial((1,)),
            denominator=Polynomial((3, 1)),
            lower=F(1),
            upper=1 + F(1, 10**8),
        )
        # mpmath's tanh-sinh quad at 40 digits.
        ref = 1.2499999937500000e-17
        got = integrate_rational_log(spec).evalf()
        assert abs(got - ref) <= 1e-6 * ref


def _assembled_from_pieces(spec):
    """The referee of the driver's assembly: one closed form per piece at
    each limit, from the public piece functions, summed by
    ClosedForm.combine over partial_fractions' residues."""
    decomp = partial_fractions(spec.numerator, spec.denominator)
    parts = []
    for t, sign in ((spec.upper, 1), (spec.lower, -1)):
        if t == 0:
            continue
        parts.append((sign, integrate_poly_log(decomp.quotient, t, spec.log_power)))
        for pole in decomp.poles:
            for j, c in enumerate(pole.residues, start=1):
                if not c:
                    continue
                if j == 1:
                    piece = integrate_simple_pole(t, pole.shift)
                else:
                    piece = integrate_multiple_pole(j, t, pole.shift)
                parts.append((sign * c, piece))
    return ClosedForm.combine(parts)


def _deep_spec(rng):
    # 1-3 poles of multiplicity up to 10; a numerator up to three
    # degrees above Q's, so some specs have a quotient; lower > 0 in
    # about nine of ten.
    factors = tuple((s, rng.randint(1, 10)) for s in rng.sample(POLE_GRID, rng.randint(1, 3)))
    den = FactoredDenominator(rng.choice(CONSTANTS), factors)
    degree = sum(m for _, m in factors)
    num = random_polynomial(rng, max_degree=rng.randint(0, degree + 3))
    lower = F(0) if rng.random() < 0.1 else rng.choice(BOUND_GRID[:-1])
    upper = rng.choice([u for u in BOUND_GRID if u > lower])
    return IntegralSpec(num, den, lower, upper)


class TestAssembly:
    def _check(self, spec):
        got = integrate_rational_log(spec)
        want = _assembled_from_pieces(spec)
        assert got == want
        assert str(got) == str(want)
        assert got.to_json() == want.to_json()

    def test_specgen_corpus_matches_the_piecewise_assembly(self):
        rng = random.Random(501)
        for _ in range(200):
            self._check(random_spec(rng))

    def test_deep_poles_match_the_piecewise_assembly(self):
        rng = random.Random(31)
        specs = [_deep_spec(rng) for _ in range(200)]
        assert sum(spec.lower > 0 for spec in specs) > 150
        with_quotient = 0
        for spec in specs:
            self._check(spec)
            with_quotient += bool(partial_fractions(spec.numerator, spec.denominator).quotient)
        assert with_quotient >= 10

    def test_polynomial_integrand_with_a_higher_log_power(self):
        spec = IntegralSpec(Polynomial((3, 0, -1, 2)), Polynomial((F(1, 2),)), F(1, 3), F(5), log_power=3)
        self._check(spec)

    def test_one_closed_form_per_integral(self, monkeypatch):
        # Three poles, a quotient and lower > 0: seven pieces at each
        # limit, and one form for all fourteen.
        den = FactoredDenominator(2, ((F(1, 2), 1), (F(1), 2), (F(3), 3)))
        num = Polynomial((1, -2, 3, 0, 5, -1, 4, 2))
        spec = IntegralSpec(num, den, F(1, 4), F(5))
        assert partial_fractions(num, den).quotient
        want = _assembled_from_pieces(spec)
        calls = []
        init = ClosedForm.__init__

        def counted(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ClosedForm, "__init__", counted)
        got = integrate_rational_log(spec)
        assert len(calls) == 1
        assert got == want
