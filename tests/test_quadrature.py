"""Quadrature oracle: endpoint singularity handling, errors, bounded work."""

import ast
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from logint import (
    DomainError,
    FactoredDenominator,
    NoConvergence,
    Polynomial,
    SingularInterior,
    ZeroDenominator,
    quad_log,
)
from logint.quadpack import _XGK21, EPMACH, _ieee_div, qagi, qags
from logint.quadrature import _pole_in
from specgen import linear_product, random_spec

F = Fraction
ONE = Polynomial((1,))


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

    def test_range_below_the_first_tail_cut(self):
        # For b < e^-40 the mapped range [-ln b, inf) starts past the
        # first tail cut, u = 40; integrating up to it ran backwards and
        # reported a converged value of the wrong sign.
        b = 1e-20
        res = quad_log(rational(ONE, Polynomial((1, 1))), 0, b)
        exact = mpmath.quad(lambda x: mpmath.log(x) / (1 + x), [0, b])
        assert res.converged
        assert res.value == pytest.approx(float(exact), rel=1e-9, abs=0)

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
        # A float root finder returns the 4-fold root of (x - 3/2)^4 as
        # two complex pairs, off the real axis; the exact test finds it
        # from the coefficients, before any node lands on x = 3/2.
        den = Polynomial((F(-3, 2), 1)) ** 4
        with pytest.raises(SingularInterior, match=r"x = 1\.5 inside \[1, 3\]"):
            quad_log(rational(ONE, den), 1, 3)

    @pytest.mark.parametrize("den, a, b, message", [
        # -1e-13 and 1 + 1e-13 lie outside [0, 1], within the oracle's
        # 1e-12 margin around it.
        (Polynomial((F(1, 10**13), 1)), 0, 1,
         "x = -1e-13 within rounding distance of [0, 1]"),
        (FactoredDenominator(F(-2, 3), ((-1 - F(1, 10**13), 2), (F(1), 1))), 0, 1,
         "x = 1.0000000000000999 within rounding distance of [0, 1]"),
        # On an end or within the interval, a pole is inside it.
        (Polynomial((-1, 1)), 1, 2, "x = 1 inside [1, 2]"),
        (FactoredDenominator(F(-2, 3), ((F(-1, 2), 2), (F(1), 1))), 0, 1,
         "x = 0.5 inside [0, 1]"),
    ], ids=["margin-below", "margin-above", "on-an-end", "within"])
    def test_pole_message_says_where_the_pole_lies(self, den, a, b, message):
        with pytest.raises(SingularInterior) as exc:
            quad_log((ONE, den), a, b)
        assert str(exc.value) == f"integrand has a pole at {message}"

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

    @pytest.mark.parametrize("a", [1, 0])
    def test_pole_beyond_float_range_is_named_inf(self, a):
        # The pole 10^600 rounds to inf, and so does every bisection end
        # above float range: the search stops where both ends are inf.
        den = Polynomial((-(10**300), F(1, 10**300)))
        with pytest.raises(SingularInterior, match=r"pole at x = inf inside"):
            quad_log(rational(ONE, den), a, math.inf)

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

    @pytest.mark.parametrize(
        "den",
        [FactoredDenominator(2**1100, ((F(1), 1),)), Polynomial((2**1100, 2**1100))],
        ids=["factored", "expanded"],
    )
    def test_coefficients_beyond_float_range_are_scaled(self, den):
        # 2^1100 / (2^1100 (x + 1)) is 1/(x + 1).  P and Q are each scaled
        # by a power of two, so every node's ratio keeps its bits.
        got = quad_log(rational(Polynomial((2**1100,)), den), 1, 2)
        assert got == quad_log(rational(ONE, FactoredDenominator(1, ((F(1), 1),))), 1, 2)

    def test_denominator_with_coefficients_past_2_to_the_1024(self):
        # Q's coefficients reach about 2^1287.  1/Q is about 2^-953 at
        # x = 1/2 and falls below the least float before x = 1.
        den = FactoredDenominator(1, ((F(1), 500), (F(2), 500)))
        res = quad_log(rational(ONE, den), F(1, 2), 1)
        with mpmath.workdps(30):
            want = mpmath.quad(
                lambda x: mpmath.log(x) / ((x + 1) ** 500 * (x + 2) ** 500),
                [0.5, 0.6, 0.7, 1],
            )
        assert res.converged
        assert abs(res.value - want) <= res.abs_error_estimate

    def test_integrand_past_float_range_inside_is_not_converged(self):
        # 10^400 (x - 1)/(x + 1) is 0 at x = 1, so it is integrated, but
        # every node's ratio is past float range: it reads inf, and no
        # OverflowError escapes.
        big = 10**400
        res = quad_log(rational(Polynomial((-big, big)), Polynomial((1, 1))), 1, 2)
        assert res.value == math.inf
        assert not res.converged

    def test_infinite_value_is_not_converged(self):
        # The sum overflows; inf <= max(tol, 1e-12 * inf) must not pass.
        res = quad_log(rational(Polynomial((10**308,)), ONE), 1, 10)
        assert res.value == math.inf
        assert not res.converged

    def test_non_converged_run_does_bounded_work(self):
        # QUADPACK's QAGS starts with one 21-point Gauss-Kronrod rule and
        # each bisection adds two more, so with limit=200 subintervals a
        # piece stops after at most 21 + 42 * 199 evaluations.  [0, 10^6]
        # is two pieces: the mapped [0, 1] and [1, 10^6].
        res = quad_log(rational(ONE, Polynomial((1, 2, 1))), 0, 10**6)
        assert not res.converged
        assert 0 < res.evaluations <= 2 * (21 + 42 * 199)

    def test_double_pole_missed_by_the_root_scan(self):
        # A float root finder splits the double root 4/3 off the real
        # axis, and no quadrature node lands on it.
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


def _named_pole(pole: float, a: float, b: float) -> str:
    """How the oracle's SingularInterior names a pole at the float pole:
    inside [a, b], or within rounding distance of it, in the margin."""
    where = "inside" if a <= pole <= b else "within rounding distance of"
    return f"pole at x = {pole:.17g} {where} [{a:g}, {b:g}]"


def _check_pole_decision(den, a, b, roots):
    """quad_log on [a, b] against the exact real roots of den: it raises
    SingularInterior, naming the float nearest the least root, exactly
    when a root lies within its margin-extended interval [lo, hi]."""
    lo = a - 1e-12 * (1.0 + a)
    hi = b + 1e-12 * (1.0 + b)
    inside = sorted(r for r in roots if F(lo) <= r and (hi == math.inf or r <= F(hi)))
    if inside:
        with pytest.raises(SingularInterior) as exc:
            quad_log((ONE, den), a, b, m=0, tol=1e-6)
        assert _named_pole(float(inside[0]), a, b) in str(exc.value)
        return
    assert _pole_in(den.coeffs, lo, hi) is None
    try:
        quad_log((ONE, den), a, b, m=0, tol=1e-6)
    except SingularInterior as exc:
        # Only the float guard may raise here: Q evaluated to 0.0 at a
        # node in [a, b], beside a pole just outside the interval.
        node = float(re.search(r"x = (\S+) inside", str(exc)).group(1))
        assert a <= node <= b and den(node) == 0.0, str(exc)


class TestExactPoleDecision:
    def test_against_known_roots(self):
        # Q = c * prod (x - r_i)^(m_i) * irreducible quadratics, with the
        # interval's ends on a root, a margin's width inside or outside
        # it, or exactly where the margin ends.
        rng = random.Random(17)
        modes = ["on", "inside", "outside", "margin"]
        gap = {"on": 0.0, "inside": 0.5e-12, "outside": 2e-12}
        start = time.perf_counter()
        for _ in range(240):
            roots = {F(rng.randint(-4, 60), rng.randint(1, 9)) for _ in range(rng.randint(1, 3))}
            den = Polynomial((rng.choice([1, -3, F(2, 7)]),))
            for r in roots:
                den = den * Polynomial((-r, 1)) ** rng.randint(1, 6)
            for _ in range(rng.randint(0, 2)):
                p = rng.randint(-6, 6)
                den = den * Polynomial((rng.randint(p * p // 4 + 1, 40), p, 1))
            r = rng.choice(sorted(roots))
            x = max(float(r), 0.0)
            if rng.random() < 0.5:  # the root at or beside the upper end
                mode = rng.choice(modes)
                if mode == "margin":  # b + 1e-12 * (1 + b) lands on r
                    b = (x - 1e-12) / (1.0 + 1e-12)
                else:
                    b = x - gap[mode] * (1.0 + x)
                a = max(0.0, b - rng.uniform(0.05, 5.0))
                if not b > a:
                    continue
            else:  # at or beside the lower end
                mode = rng.choice(modes)
                if mode == "margin":  # a - 1e-12 * (1 + a) lands on r
                    a = (x + 1e-12) / (1.0 - 1e-12)
                else:
                    a = x + gap[mode] * (1.0 + x)
                b = rng.choice([math.inf, a + rng.uniform(0.05, 5.0)])
            _check_pole_decision(den, a, b, roots)
        assert time.perf_counter() - start < 60.0

    def test_against_sympy_count_roots(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(23)
        start = time.perf_counter()
        for _ in range(150):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 5))] + [rng.randint(1, 5)]
            den = Polynomial(coeffs) * Polynomial((rng.randint(-3, 6), rng.randint(1, 2))) ** rng.randint(1, 3)
            q = sympy.Poly(list(reversed(den.coeffs)), x)
            a = float(F(rng.randint(0, 40), rng.randint(1, 8)))
            b = rng.choice([math.inf, a + float(F(rng.randint(1, 40), rng.randint(1, 8)))])
            lo = a - 1e-12 * (1.0 + a)
            hi = b + 1e-12 * (1.0 + b)
            lo_q = sympy.Rational(F(lo))
            hi_q = sympy.oo if hi == math.inf else sympy.Rational(F(hi))
            count = q.count_roots(lo_q, hi_q)
            assert (_pole_in(den.coeffs, lo, hi) is not None) == (count > 0), (den, a, b)
            inside = sorted(r for r in sympy.real_roots(q) if lo_q <= r <= hi_q)
            assert len(set(inside)) == count
            if inside:
                with pytest.raises(SingularInterior) as exc:
                    quad_log((ONE, den), a, b)
                nearest = float(sympy.N(inside[0], 40))
                assert _named_pole(nearest, a, b) in str(exc.value)
        assert time.perf_counter() - start < 60.0

    @pytest.mark.parametrize(
        "den, lo, hi, pole",
        [
            # A repeated root on either end.
            (Polynomial((-F(3, 2), 1)) ** 4, 1.0, 1.5, 1.5),
            (Polynomial((-F(3, 2), 1)) ** 4, 1.5, 2.0, 1.5),
            # A repeated root on the first bisection midpoint of [1, 3].
            (Polynomial((-F(3, 2), 1)) ** 3 * Polynomial((-F(5, 4), 1)) ** 2, 1.0, 3.0, 1.25),
            # A factor x^2, beside a root just below 0 and alone.
            (Polynomial((0, 0, 1)) * Polynomial((F(1, 10**13), 1)), -1e-12, 1.0, -1e-13),
            (Polynomial((0, 0, 1)), -1e-12, math.inf, 0.0),
            # A constant, which has no derivative, and no root for the
            # Cauchy bound to bound.
            (Polynomial((5,)), -1e-12, math.inf, None),
        ],
    )
    def test_edge_cases(self, den, lo, hi, pole):
        assert _pole_in(den.coeffs, lo, hi) == pole

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("hi", [2.0, math.inf])
    def test_least_of_two_roots_within_an_ulp(self, k, hi):
        # r rounds down to u = 1 + 2^-52; the root m above it is the
        # midpoint of u and 1 + 2^-51, and rounds up (to even).  The
        # root 5 adds to the count of roots above u.
        u = 1 + 2.0**-52
        m = F(u) + F(1, 2**53)
        r = F(u) + F(1, 2**54)
        upper = Polynomial((-m, 1)) ** k * Polynomial((-5, 1))
        assert float(m) > u and float(r) == u
        assert _pole_in((upper * Polynomial((-r, 1))).coeffs, 1.0, hi) == u
        assert _pole_in(upper.coeffs, 1.0, hi) == float(m)

    @pytest.mark.parametrize("lo, hi", [(1 - 2e-12, 2.0), (-1e-12, math.inf)])
    def test_high_degree_root_is_named(self, lo, hi):
        # x^200 - 2: the float nearest 2^(1/200), as mpmath gives it.
        den = Polynomial((-2,) + (0,) * 199 + (1,))
        start = time.perf_counter()
        assert _pole_in(den.coeffs, lo, hi) == 1.0034717485095028
        assert time.perf_counter() - start < 10.0


def test_symbolic_side_does_not_load_the_oracle_dependencies():
    # numpy and scipy are no runtime dependency; importing the package
    # and integrating symbolically must not load them.
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


def test_source_imports_only_the_standard_library():
    # logint has no runtime dependency: every absolute import in src, at
    # any depth, names a standard-library module.
    src = Path(__file__).resolve().parent.parent / "src" / "logint"
    imported = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, a.name.split(".")[0]) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert imported
    assert sorted(i for i in imported if i[1] not in sys.stdlib_module_names) == []


def test_source_has_one_owner_per_denominator_form():
    # ratfunc.factored is the one place that factors an expanded Q, and
    # the oracle multiplies out a factored Q itself: neither quadrature
    # nor the CLI, which hands Q to the oracle as parsed, uses `expand`
    # or the integer product under it, `integer_form`.
    src = Path(__file__).resolve().parent.parent / "src" / "logint"
    factoring, expanding = set(), set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                if getattr(f, "id", getattr(f, "attr", None)) == "factor_denominator":
                    factoring.add(path.name)
            if isinstance(node, ast.Attribute) and node.attr in ("expand", "integer_form"):
                expanding.add(path.name)
    assert factoring == {"ratfunc.py"}
    assert expanding.isdisjoint({"quadrature.py", "cli.py"}), sorted(expanding)


def _object_new_calls(tree: ast.AST) -> list[int]:
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"
    ]


def test_source_builds_every_object_through_its_constructor():
    # object.__new__ makes an instance without running __init__ or
    # __post_init__, the checks of an Atom or a ClosedForm, so no module
    # calls it.
    assert _object_new_calls(ast.parse("a = object.__new__(Atom)")) == [1]
    src = Path(__file__).resolve().parent.parent / "src" / "logint"
    found = {
        path.name: lines
        for path in sorted(src.glob("*.py"))
        if (lines := _object_new_calls(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def test_oracle_runs_without_scipy():
    # QUADPACK runs in-tree and the pole test is exact, so neither a
    # finite range, nor [a, inf), nor a pole inside loads numpy or scipy.
    code = (
        "import math, sys, logint\n"
        "P = logint.Polynomial\n"
        "logint.quad_log((P((1,)), P((1, 1))), 0, 2)\n"
        "logint.quad_log((P((1,)), P((1, 0, 1))), 1, math.inf)\n"
        "try:\n"
        "    logint.quad_log((P((1,)), P((-2, 0, 1))), 1, 2)\n"
        "except logint.SingularInterior:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no SingularInterior')\n"
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


def _logint_imports(name):
    path = Path(__file__).resolve().parent.parent / "src" / "logint" / name
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
    return {m for m in modules if m.split(".")[0] == "logint"}


def test_oracle_imports_no_symbolic_module():
    # The oracle referees partial fractions and closed forms, so of the
    # package it imports only the error types, the polynomial class that
    # its (P, Q) input is made of, and QUADPACK, which imports nothing of
    # the package.
    ours = _logint_imports("quadrature.py")
    assert ours <= {"logint.errors", "logint.poly", "logint.quadpack"}, sorted(ours)
    assert _logint_imports("quadpack.py") == set()


def _transcript_integrands():
    """(P, Q, lower, upper, m) of every integrate job in the CLI
    transcript whose denominator is written factored."""
    from test_cli_transcript import CASES, MIXED_BATCH

    from logint.cli import _parse_bound_loose
    from logint.parsing import ParseError, parse_denominator, parse_polynomial

    flags = ("--num", "--den", "--lower", "--upper", "--power")
    jobs = [{k: v for k, v in zip(argv, argv[1:]) if k in flags}
            for _, argv, _, _ in CASES if argv[:1] == ["integrate"]]
    jobs += [{f"--{k}": v for k, v in json.loads(line).items()}
             for line in MIXED_BATCH.splitlines() if line.startswith("{")]
    out = []
    for job in jobs:
        try:
            num = parse_polynomial(job["--num"])
            den = parse_denominator(job["--den"])
            bounds = [_parse_bound_loose(job[k]) for k in ("--lower", "--upper")]
            power = int(job.get("--power", 1))
        except (KeyError, ParseError, ValueError):
            continue
        if isinstance(den, FactoredDenominator):
            out.append((num, den, *bounds, power))
    return out


def test_oracle_multiplies_out_a_factored_denominator(monkeypatch):
    # quad_log((P, factored Q)) is quad_log((P, Q as a product)), to the
    # bit, and never calls the route's expansion.
    cases = _transcript_integrands()
    assert len(cases) >= 5
    rng = random.Random(2024)
    for _ in range(50):
        spec = random_spec(rng)
        cases.append((spec.numerator, spec.denominator, spec.lower, spec.upper, 1))
    # Shifts p/s with s up to 4, multiplicities up to 10 and a constant
    # that is not an integer, so that the scale prod s^m is exercised.
    shifts = sorted({F(p, s) for p in range(-8, 21) for s in range(1, 5)})
    for _ in range(30):
        den = FactoredDenominator(
            constant=rng.choice([F(-2, 3), F(7, 4), F(1)]),
            factors=tuple((s, rng.randint(1, 10)) for s in rng.sample(shifts, rng.randint(1, 3))),
        )
        num = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [1])
        a = F(rng.randint(0, 8), rng.randint(1, 4))
        cases.append((num, den, a, a + F(rng.randint(1, 12), rng.randint(1, 4)), rng.randint(0, 2)))

    def refused(self):
        raise AssertionError("the oracle used the route's product of Q's factors")

    monkeypatch.setattr(FactoredDenominator, "expand", refused)
    monkeypatch.setattr(FactoredDenominator, "integer_form", refused)

    def outcome(integrand, a, b, m):
        try:
            return repr(quad_log(integrand, a, b, m=m))
        except (DomainError, NoConvergence) as exc:
            return f"{type(exc).__name__}: {exc}"

    for num, den, a, b, m in cases:
        factored = outcome((num, den), a, b, m)
        assert factored == outcome((num, linear_product(den)), a, b, m), (num, den, a, b)


@pytest.mark.parametrize("num, den, part", [
    ([1], Polynomial((1, 1)), "numerator must be a Polynomial"),
    (None, Polynomial((1, 1)), "numerator must be a Polynomial"),
    (ONE, [1, 1], "denominator must be a Polynomial or FactoredDenominator"),
    (ONE, "(x+1)", "denominator must be a Polynomial or FactoredDenominator"),
    (ONE, None, "denominator must be a Polynomial or FactoredDenominator"),
    (ONE, 2, "denominator must be a Polynomial or FactoredDenominator"),
    (ONE, F(2), "denominator must be a Polynomial or FactoredDenominator"),
], ids=["list-num", "none-num", "list-den", "str-den", "none-den", "int-den",
        "fraction-den"])
def test_oracle_names_an_integrand_of_the_wrong_type(num, den, part):
    with pytest.raises(TypeError, match=part):
        quad_log((num, den), 0, 1)


def test_oracle_shares_no_polynomial_arithmetic(monkeypatch):
    # The oracle reads Q's coefficients and does its own integer
    # arithmetic on them, so it runs with Polynomial's arithmetic broken.
    # A factored Q is multiplied out in integers, not by Polynomial
    # products.
    double = (ONE, Polynomial((-F(4, 3), 1)) ** 2)
    double_factored = (ONE, FactoredDenominator(1, ((-F(4, 3), 2),)))
    rootless = (Polynomial((1, 2)), Polynomial((3, -1, 1)))
    factored = (Polynomial((1, 2)), FactoredDenominator(F(-2, 3), ((F(1, 3), 4), (F(5, 2), 1))))

    def broken(*args, **kwargs):
        raise AssertionError("the oracle used Polynomial arithmetic")

    for name in ("__divmod__", "__mul__", "__pow__", "derivative", "shift"):
        monkeypatch.setattr(Polynomial, name, broken)
    for integrand in (double, double_factored):
        with pytest.raises(SingularInterior, match=r"x = 1\.3333333333333333 inside"):
            quad_log(integrand, 0.7, F(47, 15))
    assert quad_log(rootless, 0, 2).converged
    assert quad_log(factored, 0, 2).converged


# scipy's message for each ier QUADPACK can return with a value.
_SCIPY_IER = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff error": 2,
    "Extremely bad integrand behavior": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}


def _scipy_quad(quad, f, a, b, epsabs, epsrel, limit):
    """(value, abserr, neval, ier) from scipy.integrate.quad."""
    out = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    if len(out) == 3:
        return out[0], out[1], out[2]["neval"], 0
    [ier] = [v for k, v in _SCIPY_IER.items() if out[3].startswith(k)]
    return out[0], out[1], out[2]["neval"], ier


def _referee_cases(rng):
    """(f, a, b, epsabs, epsrel, limit): fixed cases that reach each ier,
    then seeded random ones over finite and infinite ranges."""
    def pole(c):
        return lambda x: 1.0 / (x - c) if x != c else 0.0

    def power(c, p):
        return lambda x: abs(x - c) ** p if x != c else 0.0

    def damped(f):
        return lambda x: f(x) / (1.0 + x * x)

    def spike(c, v):
        return lambda x: v if x == c else 1.0

    yield math.sin, 0.0, 10.0, 1e-14, 1e-13, 1  # ier 1: the limit
    yield pole(0.5), 0.0, 1.0, 0.0, 1e-13, 200  # 2: roundoff
    yield power(0.25, -1.0), 0.0, 1.0, 0.0, 1e-13, 200  # 3: bad point
    yield power(0.3, -0.99), 0.0, 1.0, 0.0, 1e-13, 200  # 4: extrapolation
    yield pole(0.3), 0.0, 1.0, 0.0, 1e-13, 200  # 5: divergent
    # Non-finite values where dqk21 has a zero Gauss weight: at a
    # Kronrod-only node and at the centre.
    kronrod_only = 0.5 - 0.5 * _XGK21[0]
    yield spike(kronrod_only, math.inf), 0.0, 1.0, 0.0, 1e-13, 200
    yield spike(0.5, math.inf), 0.0, 1.0, 0.0, 1e-13, 200
    yield spike(kronrod_only, math.nan), 0.0, 1.0, 0.0, 1e-13, 200
    yield math.sin, 3.0, 1.0, 0.0, 1e-13, 200  # a reversed range
    for _ in range(400):
        c = rng.uniform(-0.5, 1.5)
        w = rng.uniform(1.0, 200.0)
        f = rng.choice([
            pole(c),
            power(c, rng.uniform(-1.3, 0.8)),
            lambda x, w=w: math.sin(w * x),
            lambda x, c=c: 1.0 if x > c else -0.5,
            lambda x, w=w: math.exp(-x * x) * math.cos(w * x / 50.0),
        ])
        epsabs = rng.choice([0.0, 1e-14, 1e-10, 1e-6])
        epsrel = rng.choice([1e-13, 1e-8, 1e-3] if epsabs == 0.0 else [0.0, 1e-12, 1e-8])
        limit = rng.randint(1, 200)
        a = rng.uniform(-2.0, 1.0)
        if rng.random() < 0.5:
            yield f, a, a + rng.uniform(0.01, 5.0), epsabs, epsrel, limit
        else:
            yield damped(f), a, math.inf, epsabs, epsrel, limit


def _port_quad(f, a, b, epsabs, epsrel, limit):
    """qags or qagi on a scalar f, which the port calls with node lists."""
    def listed(xs):
        return [f(x) for x in xs]

    if b == math.inf:
        return qagi(listed, a, epsabs=epsabs, epsrel=epsrel, limit=limit)
    return qags(listed, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)


def test_quadpack_matches_scipy_bit_for_bit():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    seen = {"ier": set(), "limit": set(), "infinite": set()}
    mismatches = []
    for f, a, b, epsabs, epsrel, limit in _referee_cases(random.Random(5)):
        want = _scipy_quad(scipy_integrate.quad, f, a, b, epsabs, epsrel, limit)
        got = _port_quad(f, a, b, epsabs, epsrel, limit)
        # By repr, since nan never equals nan.
        if list(map(repr, got)) != list(map(repr, want)):
            mismatches.append((a, b, epsabs, epsrel, limit, tuple(got), want))
        seen["ier"].add(got.ier)
        seen["limit"].add(limit)
        seen["infinite"].add(b == math.inf)
    assert mismatches == []
    assert seen["ier"] == {0, 1, 2, 3, 4, 5}
    assert {1, 200} <= seen["limit"]
    assert seen["infinite"] == {False, True}


def test_quadpack_evaluates_scipys_nodes_in_scipys_order():
    # Each rule hands f its nodes in one list; joined, the lists are the
    # calls scipy's QUADPACK makes to f, value for value and in order.
    scipy_integrate = pytest.importorskip("scipy.integrate")
    for f, a, b, epsabs, epsrel, limit in _referee_cases(random.Random(5)):
        theirs = []
        ours = []

        def scalar(x, f=f, calls=theirs):
            calls.append(x)
            return f(x)

        def recorded(x, f=f, calls=ours):
            calls.append(x)
            return f(x)

        _scipy_quad(scipy_integrate.quad, scalar, a, b, epsabs, epsrel, limit)
        _port_quad(recorded, a, b, epsabs, epsrel, limit)
        if b < a:
            # scipy hands QUADPACK a reversed range flipped and negates
            # the result, so each node pair comes mirrored; the port, as
            # the Fortran does, takes [a, b] as given.
            ours.sort()
            theirs.sort()
        assert ours == theirs, (a, b, epsabs, epsrel, limit)


@pytest.mark.parametrize(
    "quad",
    [lambda f, **kw: qags(f, 0.0, 1.0, **kw), lambda f, **kw: qagi(f, 0.0, **kw)],
    ids=["qags", "qagi"],
)
@pytest.mark.parametrize(
    "epsabs, epsrel, limit",
    [(1e-10, 1e-10, 0), (0.0, 0.0, 50), (-1.0, 49 * EPMACH, 50)],
    ids=["no-subinterval", "no-tolerance", "relative-tolerance-too-small"],
)
def test_quadpack_refuses_invalid_input_with_ier_6(quad, epsabs, epsrel, limit):
    # QUADPACK's ier = 6, before any evaluation.  scipy checks these
    # arguments in Python and raises before QUADPACK runs, so it cannot
    # referee this return.
    def never(xs):
        raise AssertionError("the integrand was evaluated")

    assert quad(never, epsabs=epsabs, epsrel=epsrel, limit=limit) == (0.0, 0.0, 0, 6)


def test_quadpack_accepts_the_least_relative_tolerance():
    res = qags(lambda xs: [1.0 / (1.0 + x * x) for x in xs], 0.0, 1.0,
               epsabs=0.0, epsrel=50 * EPMACH, limit=50)
    assert res.ier != 6 and res.neval > 0


@pytest.mark.parametrize(
    "x, y",
    [(1.0, 0.0), (-1.0, 0.0), (1.0, -0.0), (-2.5, -0.0), (math.inf, 0.0),
     (0.0, 0.0), (-0.0, -0.0), (math.nan, 0.0), (3.0, -2.0)],
)
def test_ieee_div_is_the_ieee_quotient(x, y):
    # numpy divides float64s as IEEE 754 does, returning inf or nan at a
    # zero divisor where Python raises ZeroDivisionError.
    np = pytest.importorskip("numpy")
    with np.errstate(divide="ignore", invalid="ignore"):
        want = float(np.float64(x) / np.float64(y))
    assert repr(_ieee_div(x, y)) == repr(want)
