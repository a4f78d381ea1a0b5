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
    quad_log,
    symmetric_two_pole_dilog,
    symmetric_two_pole_elementary,
    unit_pole_log_integral,
    unit_pole_log_parts,
)
from specgen import oracle_integrand, random_spec

F = Fraction
PI2_12 = 0.8224670334241132  # pi^2 / 12


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
            ref = quad_log((Polynomial.monomial(j), Polynomial.constant(1)), 0, b, m=k)
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


class TestPolyLog:
    def test_matches_monomial(self):
        assert integrate_poly_log(Polynomial((1,)), 1, 1) == ClosedForm(
            {UNIT: F(-1)}
        )

    def test_x_against_antiderivative(self):
        # int_0^2 x ln x dx = 2 ln 2 - 1  (x^2/2 ln x - x^2/4)
        got = integrate_poly_log(Polynomial.x(), 2, 1)
        assert got == ClosedForm({Log(F(2)): F(2), UNIT: F(-1)})
        assert got.evalf() == pytest.approx(0.3862943611198906, abs=1e-14)

    def test_square_log_of_linear(self):
        # int_0^1 (1 + x) ln^2 x dx = 2 + 1/4
        got = integrate_poly_log(Polynomial((1, 1)), 1, 2)
        assert got == ClosedForm({UNIT: F(9, 4)})

    def test_zero_polynomial(self):
        assert integrate_poly_log(Polynomial(), 3, 1) == ClosedForm.zero()

    def test_linearity_random(self):
        rng = random.Random(12)
        for _ in range(25):
            coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
            b = F(rng.randint(1, 8), rng.randint(1, 2))
            m = rng.randint(0, 3)
            whole = integrate_poly_log(Polynomial(coeffs), b, m)
            pieces = ClosedForm.zero()
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
            ref = quad_log((Polynomial.constant(1), Polynomial((r, 1))), 0, b)
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
            ref = quad_log((Polynomial.constant(1), den), a, b)
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
            ref = quad_log((Polynomial.constant(1), den), a, b)
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
                (Polynomial.constant(1), Polynomial((1, 1)) ** n), 0, b
            )
            assert ref.converged
            assert abs(got - ref.value) <= 1e-10 * (1 + abs(ref.value))

    def test_validation(self):
        with pytest.raises(DomainError):
            unit_pole_log_integral(1, 1)
        with pytest.raises(DomainError):
            unit_pole_log_integral(3, 0)


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
                (Polynomial.constant(1), Polynomial((r, 1)) ** n), 0, b
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


class TestLogIntegralParts:
    def test_base_case(self):
        parts = unit_pole_log_parts(2)
        assert parts.log_b == Polynomial.x()
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
                    + ClosedForm.constant(parts.rational(b))
                    + (
                        ClosedForm({Log(b): parts.log_b(b)})
                        if b != 1
                        else ClosedForm.zero()
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
        ref = quad_log((Polynomial((2, 1)), den.expand()), F(1, 2), 4)
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
        assert integrate_rational_log(spec) == ClosedForm.zero()

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

    @pytest.mark.parametrize("num, den, field", [
        ([1], Polynomial((1, 1)), "numerator must be a Polynomial"),
        (Polynomial((1,)), [1, 1], "denominator must be a Polynomial or FactoredDenominator"),
        (Polynomial((1,)), "x+1", "denominator must be a Polynomial or FactoredDenominator"),
        (Polynomial((1,)), None, "denominator must be a Polynomial or FactoredDenominator"),
    ], ids=["list-numerator", "list-denominator", "str-denominator", "none-denominator"])
    def test_spec_names_an_integrand_of_the_wrong_type(self, num, den, field):
        with pytest.raises(TypeError, match=field):
            IntegralSpec(num, den, F(0), F(1))

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
            num, den = oracle_integrand(spec)
            ref = quad_log((num, den), spec.lower, spec.upper)
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
