"""Quadrature oracle: endpoint singularity handling, errors, bounded work."""

import ast
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from logint import (
    DomainError,
    Polynomial,
    SingularInterior,
    ZeroDenominator,
    quad_log,
)

F = Fraction
ONE = Polynomial.constant(1)


def rational(num, den):
    return (num, den)


class TestFrozenIntegrals:
    def test_log_over_one_plus_x(self):
        res = quad_log(rational(ONE, Polynomial((1, 1))), 0, 1)
        assert res.converged
        assert res.value == pytest.approx(-0.8224670334241132, abs=1e-11)

    def test_log_over_one_plus_x_squared(self):
        res = quad_log(rational(ONE, Polynomial((1, 2, 1))), 0, 1)
        assert res.converged
        assert res.value == pytest.approx(-math.log(2), abs=1e-11)

    def test_cubed_log(self):
        res = quad_log((ONE, ONE), 0, 1, m=3)
        assert res.converged
        assert res.value == pytest.approx(-6.0, abs=1e-11)

    def test_result_invariants(self):
        res = quad_log(rational(ONE, Polynomial((1, 1))), 0, 1)
        assert res.abs_error_estimate >= 0.0
        assert res.evaluations > 0
        assert res.abs_error_estimate <= max(1e-11, 1e-12 * abs(res.value))


class TestPolynomialExactness:
    def test_random_polynomials_m0(self):
        rng = random.Random(21)
        for _ in range(25):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
            p = Polynomial(coeffs)
            a = F(rng.randint(0, 10), 2)
            b = a + F(rng.randint(1, 12), 2)
            exact = sum(
                (c * (b ** (j + 1) - a ** (j + 1))) / (j + 1)
                for j, c in enumerate(coeffs)
            )
            res = quad_log((p, ONE), a, b, m=0)
            assert res.converged
            assert abs(res.value - float(exact)) <= 1e-13 * (1 + abs(float(exact)))


class TestConsistency:
    CASES = [
        (rational(ONE, Polynomial((1, 1))), 0, 4, 1),
        (rational(Polynomial((0, 1)), Polynomial((3, 1)) ** 2), 0, 2, 1),
        (rational(ONE, Polynomial((F(1, 2), 1))), F(1, 2), 6, 1),
        (rational(Polynomial((1, -2, 3)), ONE), 0, 3, 2),
    ]

    @pytest.mark.parametrize("f,a,b,m", CASES)
    def test_split_self_consistency(self, f, a, b, m):
        whole = quad_log(f, a, b, m=m)
        mid = (float(a) + float(b)) / 2
        left = quad_log(f, a, mid, m=m)
        right = quad_log(f, mid, b, m=m)
        assert whole.converged and left.converged and right.converged
        combined = (
            whole.abs_error_estimate
            + left.abs_error_estimate
            + right.abs_error_estimate
        )
        slack = 1e-15 * (1 + abs(whole.value))
        assert abs(whole.value - (left.value + right.value)) <= combined + slack

    def test_halving_tolerance_never_raises_estimate(self):
        f = rational(ONE, Polynomial((F(1, 2), 1)))
        tols = [1e-5 / 2**k for k in range(10)]
        errs = [quad_log(f, 0, 4, tol=t).abs_error_estimate for t in tols]
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse


class TestFailureModes:
    def test_pole_inside_interval_exact(self):
        # A rational pole, x = 3/2, found from the coefficients like any other.
        with pytest.raises(SingularInterior):
            quad_log(rational(ONE, Polynomial((F(-3, 2), 1))), 1, 2)

    def test_pole_inside_interval_detected_numerically(self):
        # x^2 - 2 has no rational roots; the pole at sqrt(2) must still
        # be caught from the raw coefficients.
        with pytest.raises(SingularInterior):
            quad_log(rational(ONE, Polynomial((-2, 0, 1))), 1, 2)

    def test_pole_at_endpoint(self):
        with pytest.raises(SingularInterior):
            quad_log(rational(ONE, Polynomial((-2, 1))), 1, 2)

    def test_repeated_pole_split_off_the_real_axis(self):
        # np.roots returns the 4-fold root of (x - 3/2)^4 as two complex
        # pairs, so the float root scan misses it and quadrature lands on
        # x = 3/2 itself.  That node is a pole inside the interval.
        den = Polynomial((F(-3, 2), 1)) ** 4
        with pytest.raises(SingularInterior, match=r"x = 1\.5 inside \[1, 3\]"):
            quad_log(rational(ONE, den), 1, 3)

    def test_pole_outside_is_fine(self):
        res = quad_log(rational(ONE, Polynomial((-4, 1))), 1, 2)
        assert res.converged

    # The pole margin is relative to each endpoint, so an infinite upper
    # limit does not swallow every pole below the interval.
    def test_double_pole_below_an_infinite_interval(self):
        # int_0^inf ln x / (x+1)^2 dx = 0
        res = quad_log(rational(ONE, Polynomial((1, 2, 1))), 0, math.inf)
        assert res.converged
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_two_poles_below_an_infinite_interval(self):
        # int_0^inf ln x / ((x+1)(x+2)) dx = ln(2)^2 / 2
        res = quad_log(rational(ONE, Polynomial((2, 3, 1))), 0, math.inf)
        assert res.converged
        assert res.value == pytest.approx(math.log(2) ** 2 / 2, abs=1e-10)

    def test_pole_at_the_lower_endpoint_of_an_infinite_interval(self):
        with pytest.raises(SingularInterior):
            quad_log(rational(ONE, Polynomial((-1, 1))), 1, math.inf)

    # Exact values beyond float range are a domain error, not an
    # OverflowError from the float conversion.
    @pytest.mark.parametrize(
        "num, den",
        [(ONE, Polynomial((1, 10**400))), (Polynomial((10**400,)), Polynomial((1, 1)))],
        ids=["denominator", "numerator"],
    )
    def test_coefficient_beyond_float_range(self, num, den):
        with pytest.raises(DomainError, match="beyond floating-point range"):
            quad_log(rational(num, den), 1, 2)

    def test_bound_beyond_float_range(self):
        with pytest.raises(DomainError, match="beyond floating-point range"):
            quad_log(rational(ONE, Polynomial((1, 1))), 1, F(10**400))

    def test_non_converged_run_does_bounded_work(self):
        # QUADPACK's QAGS starts with one 21-point Gauss-Kronrod rule and
        # each bisection adds two more, so with limit=200 subintervals a
        # piece stops after at most 21 + 42 * 199 evaluations.  [0, 10^6]
        # is two pieces: the mapped [0, 1] and [1, 10^6].
        res = quad_log(rational(ONE, Polynomial((1, 2, 1))), 0, 10**6)
        assert not res.converged
        assert 0 < res.evaluations <= 2 * (21 + 42 * 199)

    @pytest.mark.xfail(
        reason="ROADMAP item 11: np.roots splits the double root 4/3 off the "
        "real axis, and no quadrature node lands on it",
    )
    def test_double_pole_missed_by_the_root_scan(self):
        den = Polynomial((F(-4, 3), 1)) ** 2
        with pytest.raises(SingularInterior):
            quad_log(rational(ONE, den), F(7, 10), F(47, 15))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            quad_log(rational(ONE, Polynomial()), 0, 1)

    def test_validation(self):
        f = rational(ONE, Polynomial((1, 1)))
        with pytest.raises(DomainError):
            quad_log(f, -1, 1)
        with pytest.raises(DomainError):
            quad_log(f, 1, 1)
        with pytest.raises(DomainError):
            quad_log(f, 0, 1, m=-1)
        with pytest.raises(DomainError):
            quad_log(f, 0, 1, m=61)
        with pytest.raises(DomainError):
            quad_log(f, 0, 1, tol=0.0)


def test_symbolic_side_does_not_load_the_oracle_dependencies():
    # numpy and scipy are the oracle's alone; importing the package and
    # integrating symbolically must not load them.
    code = (
        "import sys, logint, logint.cli\n"
        "logint.integrate_simple_pole(1, 1)\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_oracle_imports_no_symbolic_module():
    # The oracle referees partial fractions and closed forms, so of the
    # package it imports only the error types and the polynomial class
    # that its (P, Q) input is made of.
    path = Path(__file__).resolve().parent.parent / "src" / "logint" / "quadrature.py"
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"logint.{module}".rstrip(".")
            if module == "logint":  # from . import x, from logint import x
                modules.update(f"logint.{alias.name}" for alias in node.names)
            else:
                modules.add(module)
    ours = {m for m in modules if m.split(".")[0] == "logint"}
    assert ours <= {"logint.errors", "logint.poly"}, sorted(ours)
