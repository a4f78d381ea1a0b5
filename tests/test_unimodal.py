"""Coefficient families t_n / s_n and the unimodality certificate."""

import math
import random
from fractions import Fraction

import pytest

from logint import (
    DomainError,
    LimitExceeded,
    Polynomial,
    check_nondecreasing,
    check_unimodal,
    coeff_report,
    family_poly,
    shifted_family_poly,
    unit_pole_log_parts,
)
from logint.unimodal import MAX_FAMILY_INDEX

F = Fraction


class TestFamilies:
    def test_base_small_members(self):
        assert family_poly(2) == Polynomial()
        assert family_poly(3) == Polynomial((1,))
        assert family_poly(4) == Polynomial((4, 3))
        assert family_poly(5) == Polynomial((18, 27, 11))

    def test_shifted_small_members(self):
        assert shifted_family_poly(3) == Polynomial((1,))
        assert shifted_family_poly(4) == Polynomial((1, 3))
        assert shifted_family_poly(5) == Polynomial((2, 5, 11))

    def test_shift_consistency(self):
        # s_n is t_n with b -> b - 1, computed by an independent
        # recurrence; they must agree exactly.
        for n in range(3, 51):
            assert shifted_family_poly(n) == family_poly(n).shift(-1)

    def test_structure_through_n50(self):
        for n in range(3, 51):
            t = family_poly(n)
            assert t.degree == n - 3
            assert all(c.denominator == 1 and c > 0 for c in t.coeffs)
            ok, peak = check_unimodal(t)
            assert ok
            assert 0 <= peak <= n - 3

    def test_shifted_constant_term(self):
        for n in range(3, 31):
            s = shifted_family_poly(n)
            assert s.coeff(0) == math.factorial(n - 3)
            ok, _ = check_nondecreasing(s)
            assert ok

    def test_difference_identity(self):
        # c_{k+1,n} - c_{k,n} = (n-2)(c_{k,n-1} - c_{k-1,n-1}), with the
        # c_{-1} = 0 convention, on interior indices.
        for n in range(4, 31):
            cur = shifted_family_poly(n).coeffs
            prev = shifted_family_poly(n - 1).coeffs
            for k in range(0, n - 3):
                lhs = cur[k + 1] - cur[k]
                prev_km1 = prev[k - 1] if k >= 1 else F(0)
                rhs = (n - 2) * (prev[k] - prev_km1)
                assert lhs == rhs, (n, k)

    def test_cross_module_rational_part(self):
        # t_n(b) recovered from the integral machinery:
        #   -(n-1)! Z_n(b) = t_n(b) * b(1+b), an exact division.
        divisor = Polynomial((0, 1, 1))
        for n in [*range(2, 61), 120]:
            z = unit_pole_log_parts(n).rational
            numerator = -math.factorial(n - 1) * z
            quotient, remainder = divmod(numerator, divisor)
            assert remainder == Polynomial()
            assert quotient == family_poly(n)

    def test_harmonic_closed_form(self):
        # An exact referee that shares no recurrence: the coefficient of
        # b^j in s_n is (n-2)! (H_{n-2} - H_{n-3-j}), and t_n(b) = s_n(b+1),
        # expanded here by the binomial theorem, not by Polynomial.shift.
        for n in [*range(3, 61), 120]:
            harmonic = [F(0)]
            for i in range(1, n - 1):
                harmonic.append(harmonic[-1] + F(1, i))
            s = [math.factorial(n - 2) * (harmonic[n - 2] - harmonic[n - 3 - j])
                 for j in range(n - 2)]
            t = [sum(math.comb(j, i) * s[j] for j in range(i, n - 2)) for i in range(n - 2)]
            assert shifted_family_poly(n) == Polynomial(s), n
            assert family_poly(n) == Polynomial(t), n

    def test_validation(self):
        with pytest.raises(DomainError):
            family_poly(1)
        with pytest.raises(DomainError):
            shifted_family_poly(2)

    @pytest.mark.parametrize("family", [family_poly, shifted_family_poly])
    @pytest.mark.parametrize("n", [MAX_FAMILY_INDEX + 1, 10**20])
    def test_index_above_the_limit_is_refused_before_any_step(self, monkeypatch, family, n):
        # Both recurrences cost more than n^2 big-integer steps, so an index
        # past the limit is refused before the first polynomial is built.
        def no_step(*args):
            raise AssertionError("a refused index was computed")

        monkeypatch.setattr("logint.unimodal.Polynomial", no_step)
        with pytest.raises(DomainError, match=f"index must be at most {MAX_FAMILY_INDEX}$"):
            family(n)

    @pytest.mark.parametrize("family", [family_poly, shifted_family_poly])
    def test_index_above_the_limit_is_a_limit_error(self, family):
        with pytest.raises(LimitExceeded):
            family(MAX_FAMILY_INDEX + 1)


class TestShapeChecks:
    def test_nondecreasing_examples(self):
        assert check_nondecreasing(shifted_family_poly(5)) == (True, None)
        assert check_nondecreasing(Polynomial((1, 3, 2))) == (False, 2)
        assert check_nondecreasing(Polynomial((7,))) == (True, None)
        assert check_nondecreasing(Polynomial()) == (True, None)

    def test_unimodal_examples(self):
        assert check_unimodal(Polynomial((1, 3, 1))) == (True, 1)
        assert check_unimodal(Polynomial((2, 1, 2))) == (False, None)
        assert check_unimodal(Polynomial((5,))) == (True, 0)
        assert check_unimodal(Polynomial((1, 2, 2, 3))) == (True, 3)
        assert check_unimodal(Polynomial((3, 5, 5, 3))) == (True, 1)

    def test_peak_is_smallest_valid(self):
        # peak P means: rises strictly before P are allowed, no strict
        # rise at or after P, no strict fall before P.
        rng = random.Random(555)
        for _ in range(200):
            p = Polynomial([rng.randint(0, 6) for _ in range(rng.randint(1, 10))])
            ok, peak = check_unimodal(p)
            cs = list(p.coeffs)
            if not cs:
                assert ok and peak is None
                continue
            valid = [
                p
                for p in range(len(cs))
                if all(cs[k] <= cs[k + 1] for k in range(p))
                and all(cs[k] >= cs[k + 1] for k in range(p, len(cs) - 1))
            ]
            if ok:
                assert valid and peak == valid[0]
            else:
                assert not valid

    def test_nondecreasing_shift_gives_unimodal(self):
        # Positive nondecreasing coefficients stay unimodal after the
        # substitution b -> b + 1.
        rng = random.Random(556)
        for _ in range(500):
            coeffs = []
            c = F(rng.randint(1, 9))
            for _ in range(rng.randint(1, 16)):
                coeffs.append(c)
                c += rng.randint(0, 9)
            p = Polynomial(coeffs)
            assert check_nondecreasing(p)[0]
            ok, _ = check_unimodal(p.shift(1))
            assert ok, coeffs


class TestReport:
    def test_shifted_report_json(self):
        doc = coeff_report(5).to_json_dict()
        assert doc == {
            "n": 5,
            "family": "shifted",
            "coeffs": ["2", "5", "11"],
            "degree": 2,
            "all_nonneg_integers": True,
            "nondecreasing": True,
            "first_decrease": None,
            "unimodal": True,
            "peak": 2,
        }

    def test_base_report(self):
        rep = coeff_report(4, family="base")
        assert rep.coeffs == (F(4), F(3))
        assert rep.nondecreasing is False
        assert rep.first_decrease == 1
        assert rep.unimodal is True
        assert rep.peak == 0

    def test_coefficients_are_ints(self):
        for n in range(3, 43):
            for family, poly in (
                ("base", family_poly(n)),
                ("shifted", shifted_family_poly(n)),
            ):
                rep = coeff_report(n, family)
                assert all(type(c) is int for c in rep.coeffs), (n, family)
                assert rep.coeffs == poly.coeffs, (n, family)

    def test_non_integral_coefficient_stays_a_fraction(self, monkeypatch):
        import logint.unimodal

        monkeypatch.setattr(
            logint.unimodal,
            "shifted_family_poly",
            lambda n: Polynomial((1, F(1, 2))),
        )
        rep = coeff_report(5)
        assert rep.coeffs == (1, F(1, 2))
        assert [type(c) for c in rep.coeffs] == [int, Fraction]
        assert rep.all_nonneg_integers is False
        assert rep.to_json_dict()["coeffs"] == ["1", "1/2"]

    def test_zero_member(self):
        rep = coeff_report(2, family="base")
        assert rep.coeffs == ()
        assert rep.degree == -1
        assert rep.unimodal is True

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            coeff_report(5, family="sideways")
