"""Dilogarithm kernel: frozen values, error accounting, identities.

The reference values below were computed with mpmath at 50 digits and
frozen; the grid comparisons recompute the reference on the fly so the
kernel is checked against an implementation that shares none of its
code (mpmath uses its own transformations, not this series, Landen and
inversion set).
"""

import importlib
import math
from fractions import Fraction

import mpmath
import pytest

from logint import DomainError, dilog, euler_identity_residual
from logint.dilog import PI_SQUARED

mpmath.mp.dps = 30


def mp_dilog(x: float) -> float:
    return float(mpmath.polylog(2, mpmath.mpf(x)))


FROZEN = {
    -0.5: -0.4484142069236462,
    # series at -1/3, also the inner value of the -3 inversion
    -1.0 / 3.0: -0.30903312648780845,
    -3.0: -1.939375420766709,
    0.5: 0.5822405264650125,  # pi^2/12 - ln(2)^2/2
}


class TestPointValues:
    def test_zero_is_exact(self):
        res = dilog(0)
        assert res.value == 0.0
        assert res.est_error == 0.0

    def test_minus_one_is_exact(self):
        res = dilog(-1)
        assert res.value == -PI_SQUARED / 12.0
        assert res.value == pytest.approx(-0.8224670334241132, abs=1e-16)
        assert res.est_error <= 1e-15

    @pytest.mark.parametrize("x,expected", sorted(FROZEN.items()))
    def test_frozen_values(self, x, expected):
        assert dilog(x).value == pytest.approx(expected, abs=1e-14)

    def test_accepts_exact_types(self):
        assert dilog(Fraction(-1, 2)).value == dilog(-0.5).value
        assert dilog(-1).value == dilog(-1.0).value

    def test_domain(self):
        with pytest.raises(DomainError):
            dilog(0.5000001)
        with pytest.raises(DomainError):
            dilog(float("nan"))
        dilog(0.5)  # boundary is allowed

    def test_exact_argument_just_above_one_half(self):
        # float() rounds this to 0.5, so the bound is checked exactly.
        x = Fraction(5 * 10**18 + 1, 10**19)
        with pytest.raises(DomainError, match=f"got {x}$"):
            dilog(x)
        dilog(Fraction(1, 2))

    def test_exact_argument_beyond_float_range(self):
        with pytest.raises(DomainError, match="beyond floating-point range"):
            dilog(Fraction(-(10**400)))


class TestErrorEstimate:
    NEAR_MINUS_ONE = [1e-4, 1e-6, 1e-9, 1e-12]
    GRID = (
        [-(10.0**e) for e in range(-6, 7)]
        + [-0.999, -0.9, -0.75, -0.5, -0.25, -1.001, -1.5, -2.0, -8.0]
        + [-1.0 + d for d in NEAR_MINUS_ONE]
        + [-1.0 - d for d in NEAR_MINUS_ONE]
        + [-1.0, 0.1, 0.25, 0.4, 0.5]
    )

    @pytest.mark.parametrize("x", GRID)
    def test_estimate_bound(self, x):
        res = dilog(x)
        assert res.est_error >= 0.0
        assert res.est_error <= 1e-14 * max(1.0, abs(res.value))

    @pytest.mark.parametrize("x", GRID)
    def test_estimate_is_honest(self, x):
        res = dilog(x)
        slack = 2.3e-16 * max(1.0, abs(res.value))  # reference rounding
        assert abs(res.value - mp_dilog(x)) <= res.est_error + slack


class TestRoutes:
    def test_series_argument_stays_within_half(self, monkeypatch):
        # Every route ends in the power series at a ratio of at most 1/2:
        # 2,000 points from -1e6 up to 1/2, 400 of them within 0.1 of -1.
        module = importlib.import_module("logint.dilog")
        series = module._series
        seen = []

        def recording(x):
            seen.append(x)
            return series(x)

        monkeypatch.setattr(module, "_series", recording)
        xs = [-(10.0 ** (6.0 - 12.0 * i / 1199.0)) for i in range(1200)]
        xs += [-1.0 + s * 10.0 ** (-1.0 - 11.0 * i / 199.0) for s in (1, -1) for i in range(200)]
        xs += [-2.0 + 2.5 * i / 399.0 for i in range(400)]
        for x in xs:
            seen.clear()
            dilog(x)
            assert seen and all(-0.5 <= y <= 0.5 for y in seen), (x, seen)

    def test_landen_and_inversion_regions_are_honest(self):
        # 2,001 points across [-2, -1/2]: Landen's identity on [-1, -1/2),
        # inversion then Landen on (-2, -1).
        for i in range(2001):
            x = -2.0 + 1.5 * i / 2000.0
            res = dilog(x)
            slack = 2.3e-16 * max(1.0, abs(res.value))  # reference rounding
            assert abs(res.value - mp_dilog(x)) <= res.est_error + slack, x

    @pytest.mark.parametrize("x", [5e-324, -5e-324, 1e-310, -1e-310])
    def test_subnormal_argument(self, x):
        # The series has no term cap: it must stop here although its
        # relative cutoff, 1e-17 |x|, underflows to 0.
        res = dilog(x)
        assert res.value == x
        assert res.est_error <= 1e-14 * abs(x)


class TestGridAgreement:
    def test_series_region_against_reference(self):
        # 101 points across [-1, -1/2], the Landen route, pinned against
        # independent code.
        for i in range(101):
            x = -1.0 + 0.5 * i / 100.0
            assert abs(dilog(x).value - mp_dilog(x)) <= 1e-13

    def test_inversion_region_against_reference(self):
        for i in range(60):
            x = -(1.0 + i) - 0.37 * i  # spreads out to about -83
            assert abs(dilog(x).value - mp_dilog(x)) <= 1e-13 * max(
                1.0, abs(dilog(x).value)
            )

    def test_monotone_increasing_on_grid(self):
        # Li2 decays as the argument heads to -infinity; equivalently it
        # is increasing in x.  1000 points from -1e6 up to 1/2.
        xs = [-(10.0 ** (6.0 - 12.0 * i / 899.0)) for i in range(900)]
        xs += [-1e-6 + (0.5 + 1e-6) * i / 100.0 for i in range(1, 101)]
        values = [dilog(x).value for x in xs]
        for prev, cur in zip(values, values[1:]):
            assert prev < cur

    def test_quadratic_behavior_near_zero(self):
        for i in range(-40, 41):
            x = 0.1 * i / 40.0
            if x == 0.0:
                continue
            assert abs(dilog(x).value - x - x * x / 4.0) <= abs(x) ** 3


class TestEulerIdentity:
    def test_trivial_point(self):
        assert euler_identity_residual(1) == 0.0

    @pytest.mark.parametrize("z", [2, 1000])
    def test_frozen_points(self, z):
        assert abs(euler_identity_residual(z)) <= 1e-12

    def test_log_grid(self):
        for i in range(80):
            z = 10.0 ** (-6.0 + 12.0 * i / 79.0)
            assert abs(euler_identity_residual(z)) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            euler_identity_residual(0)
        with pytest.raises(DomainError):
            euler_identity_residual(-2.5)
