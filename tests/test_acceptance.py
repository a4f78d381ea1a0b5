"""Acceptance gate: the eight headline guarantees, one test each.

Each test prints a single [PASS]/[FAIL] line (visible under ``pytest -s``)
and enforces both the numeric claim and a wall-clock budget.  Reference
numbers come from the independent quadrature oracle or from classical
constants; nothing here trusts the symbolic engine to grade itself.
"""

import math
import random
import time
from fractions import Fraction

import mpmath

from logint import (
    ClosedForm,
    Dilog,
    FactoredRationalFunction,
    IntegralSpec,
    Log,
    LogProd,
    PI_SQUARED_ATOM,
    Polynomial,
    UNIT,
    dilog,
    euler_identity_residual,
    family_poly,
    check_nondecreasing,
    check_unimodal,
    integrate_multiple_pole,
    integrate_rational_log,
    integrate_simple_pole,
    partial_fractions,
    quad_log,
    shifted_family_poly,
    symmetric_two_pole_dilog,
    symmetric_two_pole_elementary,
    unit_pole_log_integral,
    unit_pole_log_parts,
)
from specgen import (
    oracle_integrand,
    random_factored_denominator,
    random_polynomial,
    random_spec,
)

F = Fraction

mpmath.mp.dps = 30


def _finish(criterion: int, label: str, failures: list, started: float, budget: float):
    elapsed = time.perf_counter() - started
    if elapsed >= budget:
        failures.append(f"took {elapsed:.2f}s, budget {budget:g}s")
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {criterion}: {label} ({elapsed:.2f}s)")
    assert not failures, failures


def test_criterion_1_golden_values():
    started = time.perf_counter()
    failures = []

    def run(num, den, lo, hi):
        return integrate_rational_log(
            IntegralSpec(numerator=num, denominator=den, lower=lo, upper=hi)
        )

    got = run(Polynomial((1,)), Polynomial((1, 1)), F(0), F(1))
    if got != ClosedForm({PI_SQUARED_ATOM: F(-1, 12)}):
        failures.append(f"ln/(1+x) form: {got}")
    if abs(got.evalf() + math.pi**2 / 12) > 1e-12:
        failures.append(f"ln/(1+x) value: {got.evalf()}")

    got = run(Polynomial((1,)), Polynomial((1, 2, 1)), F(0), F(1))
    if got != ClosedForm({Log(F(2)): F(-1)}):
        failures.append(f"ln/(1+x)^2 form: {got}")
    if abs(got.evalf() + math.log(2)) > 1e-12:
        failures.append(f"ln/(1+x)^2 value: {got.evalf()}")

    for b in (F(1, 2), F(2), F(10)):
        got = run(Polynomial((1,)), Polynomial((b, 1)), F(0), b)
        expected = ClosedForm({LogProd(F(2), b): F(1), PI_SQUARED_ATOM: F(-1, 12)})
        if got != expected:
            failures.append(f"matched-pole form at b={b}: {got}")
        ref = math.log(2) * math.log(b) - math.pi**2 / 12
        if abs(got.evalf() - ref) > 1e-12:
            failures.append(f"matched-pole value at b={b}: {got.evalf()} vs {ref}")

    _finish(1, "golden closed forms, symbolic and numeric", failures, started, 1.0)


def test_criterion_2_asymptotic_recovery():
    started = time.perf_counter()
    failures = []
    b = 10**6
    allowance = 2.0 * math.log(b) / b
    for r in (F(1, 2), F(1), F(3)):
        got = integrate_multiple_pole(2, b, r).evalf()
        limit = math.log(r) / float(r)
        if abs(got - limit) > allowance:
            failures.append(f"r={r}: |{got} - {limit}| > {allowance:.3g}")
    _finish(2, "double-pole integral approaches ln(r)/r", failures, started, 1.0)


def test_criterion_3_euler_identity_grid():
    started = time.perf_counter()
    failures = []
    worst = 0.0
    for i in range(200):
        z = 10.0 ** (-6.0 + 12.0 * i / 199.0)
        res = abs(euler_identity_residual(z))
        worst = max(worst, res)
        if res > 1e-12:
            failures.append(f"z={z:.6g}: residual {res:.3g}")
    _finish(
        3,
        f"dilog inversion identity on 200-point grid (worst {worst:.2g})",
        failures,
        started,
        1.0,
    )


def test_criterion_4_dual_form_equivalence():
    started = time.perf_counter()
    failures = []
    rng = random.Random(20260814)
    grid = [F(k, 4) for k in range(1, 81)]  # (0, 20]
    for _ in range(50):
        a, b = sorted(rng.sample(grid, 2))
        elem = symmetric_two_pole_elementary(a, b).evalf()
        via_dilog = symmetric_two_pole_dilog(a, b).evalf()
        if abs(elem - via_dilog) > 1e-12 * (1 + abs(elem)):
            failures.append(f"(a,b)=({a},{b}): forms differ {elem} vs {via_dilog}")
        den = Polynomial((a, 1)) * Polynomial((b, 1))
        ref = quad_log((Polynomial.constant(1), den), a, b)
        if not ref.converged:
            failures.append(f"(a,b)=({a},{b}): oracle did not converge")
            continue
        for name, value in (("elementary", elem), ("dilog", via_dilog)):
            if abs(value - ref.value) > 1e-10:
                failures.append(f"(a,b)=({a},{b}): {name} vs oracle {ref.value}")
    _finish(4, "dilog and elementary forms agree, both match oracle", failures, started, 30.0)


def test_criterion_5_oracle_agreement_at_scale():
    started = time.perf_counter()
    failures = []
    rng = random.Random(501)
    for i in range(200):
        spec = random_spec(rng)
        got = integrate_rational_log(spec).evalf()
        ref = quad_log((spec.numerator, spec.denominator), spec.lower, spec.upper)
        if not ref.converged:
            failures.append(f"case {i}: oracle did not converge")
            continue
        if abs(got - ref.value) > 1e-9 * (1 + abs(ref.value)):
            failures.append(
                f"case {i}: {spec} symbolic {got} vs oracle {ref.value}"
            )
    _finish(5, "200 randomized integrals match the oracle", failures, started, 120.0)


def test_criterion_6_recurrence_closed_forms():
    started = time.perf_counter()
    failures = []
    one_plus = Polynomial((1, 1))
    for n in range(2, 31):
        parts = unit_pole_log_parts(n)
        x_closed = F(1, n - 1) * (one_plus ** (n - 1) - 1)
        y_closed = F(-1, n - 1) * one_plus ** (n - 1)
        if parts.log_b != x_closed:
            failures.append(f"n={n}: X recurrence != closed form")
        if parts.log_one_plus_b != y_closed:
            failures.append(f"n={n}: Y recurrence != closed form")
    for n in range(2, 21):
        parts = unit_pole_log_parts(n)
        for b in (F(1, 4), F(1), F(7, 2)):
            scale = float((1 + b) ** (n - 1))
            h = unit_pole_log_integral(n, b).evalf()
            q_over_scale = parts.value_at(float(b)) / scale
            if abs(h - q_over_scale) > 1e-10:
                failures.append(f"n={n}, b={b}: identity residual {h - q_over_scale:.3g}")
    _finish(6, "X/Y closed forms exact; q-identity to 1e-10", failures, started, 5.0)


def test_criterion_7_unimodal_family():
    started = time.perf_counter()
    failures = []
    for n in range(3, 51):
        t = family_poly(n)
        if t.degree != n - 3:
            failures.append(f"n={n}: degree {t.degree}")
        if not all(c.denominator == 1 and c > 0 for c in t.coeffs):
            failures.append(f"n={n}: coefficients not positive integers")
        if not check_unimodal(t)[0]:
            failures.append(f"n={n}: not unimodal")
        s = shifted_family_poly(n)
        if not check_nondecreasing(s)[0]:
            failures.append(f"n={n}: shifted coefficients decrease")
        if s.coeff(0) != math.factorial(n - 3):
            failures.append(f"n={n}: constant term {s.coeff(0)}")
    for n in range(4, 31):
        cur = shifted_family_poly(n).coeffs
        prev = shifted_family_poly(n - 1).coeffs
        for k in range(0, n - 3):
            lhs = cur[k + 1] - cur[k]
            rhs = (n - 2) * (prev[k] - (prev[k - 1] if k >= 1 else F(0)))
            if lhs != rhs:
                failures.append(f"n={n}, k={k}: difference identity")
    _finish(7, "t/s families: shape, positivity, difference identity", failures, started, 5.0)


RECOMPOSITION_CASES = 120


def _recomposition_failures() -> list:
    """Criterion 8's recomposition suite: each random P/Q whose partial
    fractions do not recompose to P2/Q2 with P/Q == P2/Q2 and Q2 = Q/c,
    c being Q's constant."""
    failures = []
    rng = random.Random(801)
    for i in range(RECOMPOSITION_CASES):
        num = random_polynomial(rng)
        den = random_factored_denominator(rng)
        frf = partial_fractions(num, den)
        p2, q2 = frf.recompose()
        q = Polynomial((den.constant,))  # Q without the route's expand
        for shift, mult in den.factors:
            q = q * Polynomial((shift, 1)) ** mult
        # num * q2 == p2 * q alone holds for q2 = p2 = 0.
        if num * q2 != p2 * q or q2 * den.constant != q:
            failures.append(f"recomposition {i}: {num}/{den}")
    return failures


def test_criterion_8_recomposition_rejects_an_empty_recompose(monkeypatch):
    monkeypatch.setattr(
        FactoredRationalFunction,
        "recompose",
        lambda self: (Polynomial(), Polynomial()),
    )
    assert len(_recomposition_failures()) == RECOMPOSITION_CASES


def test_criterion_8_property_suites():
    started = time.perf_counter()
    failures = []
    cases = 0

    # -- partial-fraction recomposition (exact) --------------------------
    failures += _recomposition_failures()
    cases += RECOMPOSITION_CASES

    # -- additivity over a split point (exact forms) ----------------------
    rng = random.Random(802)
    done = 0
    while done < 80:
        spec = random_spec(rng)
        if spec.lower == 0:
            continue
        whole = integrate_rational_log(
            IntegralSpec(spec.numerator, spec.denominator, F(0), spec.upper)
        )
        head = integrate_rational_log(
            IntegralSpec(spec.numerator, spec.denominator, F(0), spec.lower)
        )
        if whole != head + integrate_rational_log(spec):
            failures.append(f"additivity: {spec}")
        done += 1
        cases += 1

    # -- derivative of the area function is the integrand ----------------
    rng = random.Random(803)
    eps = F(1, 100_000)
    done = 0
    attempts = 0
    while done < 50 and attempts < 600:
        attempts += 1
        spec = random_spec(rng)
        b = spec.upper
        num, den = oracle_integrand(spec)
        integrand = num(float(b)) / den(float(b)) * math.log(float(b))

        def area(upper):
            return integrate_rational_log(
                IntegralSpec(spec.numerator, spec.denominator, spec.lower, upper)
            ).evalf()

        fd = (area(b + eps) - area(b - eps)) / (2 * float(eps))
        coarse = (area(b + 2 * eps) - area(b - 2 * eps)) / (4 * float(eps))
        if abs(fd - coarse) > 1e-7 * (1 + abs(integrand)):
            continue  # quotient not yet converged at this step size
        if abs(fd - integrand) > 1e-6 * (1 + abs(integrand)):
            failures.append(f"derivative: {spec} fd={fd} vs {integrand}")
        done += 1
        cases += 1
    if done < 50:
        failures.append(f"derivative check reached only {done}/50 usable cases")

    # -- canonicalization is idempotent and value-preserving --------------
    rng = random.Random(804)
    q_pool = [F(k, d) for k in range(1, 9) for d in (1, 2, 3, 4)]
    for i in range(150):
        terms = {}
        for _ in range(rng.randint(0, 7)):
            kind = rng.randrange(6)
            if kind == 0:
                atom = UNIT
            elif kind == 1:
                atom = PI_SQUARED_ATOM
            elif kind == 2:
                atom = Log(rng.choice(q_pool))
            elif kind == 3:
                atom = Log(rng.choice(q_pool), rng.randint(1, 4))
            elif kind == 4:
                atom = LogProd(rng.choice(q_pool), rng.choice(q_pool))
            else:
                atom = Dilog(-rng.choice(q_pool))
            terms[atom] = terms.get(atom, F(0)) + F(
                rng.randint(-6, 6), rng.randint(1, 4)
            )
        cf = ClosedForm(terms)
        if cf.canonical() != cf:
            failures.append(f"idempotence case {i}")
        raw = math.fsum(float(c) * atom.value() for atom, c in terms.items())
        if not math.isclose(cf.evalf(), raw, rel_tol=1e-12, abs_tol=1e-12):
            failures.append(f"canonical changed value, case {i}")
        cases += 1

    # -- dilog branch agreement against independent reference -------------
    xs = [-3.0 + 2.0 * i / 60.0 for i in range(60)]  # inversion branch
    xs += [-1.0 + 0.5 * i / 59.0 for i in range(60)]  # series branch
    for x in xs:
        ref = float(mpmath.polylog(2, mpmath.mpf(x)))
        got = dilog(x).value
        if abs(got - ref) > 1e-13:
            failures.append(f"dilog at {x}: {got} vs {ref}")
        cases += 1

    if cases < 500:
        failures.append(f"only {cases} generated cases, need >= 500")
    _finish(8, f"property suites over {cases} generated cases", failures, started, 120.0)
