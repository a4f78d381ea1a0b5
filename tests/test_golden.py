"""Golden digests of exact closed forms.

Each digest is a sha256 over the exact JSON of a fixed set of forms, one
per line.  A refactor of the symbolic side must leave every coefficient
and atom argument bit-identical, so these digests must not change; a
deliberate change to the output format has to record them again.
"""

import hashlib
import itertools
import random
from fractions import Fraction

from logint import (
    IntegralSpec,
    Polynomial,
    integrate_rational_log,
    integrate_two_simple_poles,
)
from specgen import random_spec

F = Fraction

RATIONAL_LOG_DIGEST = "9d19e33d703703dcd1ca0c671518c9fd0aeb91833280afd3a1109c84e2cb0fc4"
TWO_POLE_DIGEST = "e663ff17ce55f1262b3b57ca00a0746cfb2b5e586b1b34ec8cc79a36db4a23d7"
LOG_POWER_DIGEST = "66762418cfc3081be2be98224a6dd7bc5100e8a701806c4cbda50aaf8a02c9b5"

TWO_POLE_LOWER = [F(0), F(1, 2), F(1), F(3)]
TWO_POLE_UPPER = [F(4), F(10), F(10**6)]
TWO_POLE_PAIRS = [(F(1), F(2)), (F(1, 3), F(5)), (F(2), F(1))]

# Polynomial integrands against (ln x)^m, m = 1..6: the forms carry
# (ln q)^k atoms for several q and k at once, so this set pins their order
# and rendering, which random_spec (always m = 1) does not reach.
LOG_POWER_BOUNDS = [F(0), F(1, 3), F(1, 2), F(2), F(3), F(7, 2)]
LOG_POWER_NUMERATORS = [Polynomial((1,)), Polynomial((2, -3, 1)), Polynomial((0, 0, 0, 5))]
LOG_POWER_DENOMINATORS = [Polynomial((1,)), Polynomial((3,))]


def _digest(forms) -> str:
    h = hashlib.sha256()
    for form in forms:
        h.update(form.to_json().encode())
        h.update(b"\n")
    return h.hexdigest()


def rational_log_digest() -> str:
    rng = random.Random(501)
    return _digest(integrate_rational_log(random_spec(rng)) for _ in range(200))


def two_pole_digest() -> str:
    return _digest(
        integrate_two_simple_poles(a, b, r1, r2)
        for a in TWO_POLE_LOWER
        for b in TWO_POLE_UPPER
        for r1, r2 in TWO_POLE_PAIRS
    )


def log_power_digest() -> str:
    """Over the JSON and the rendered text of each form."""
    h = hashlib.sha256()
    for m in range(1, 7):
        for a, b in itertools.combinations(LOG_POWER_BOUNDS, 2):
            for num in LOG_POWER_NUMERATORS:
                for den in LOG_POWER_DENOMINATORS:
                    form = integrate_rational_log(IntegralSpec(num, den, a, b, m))
                    h.update(f"{form.to_json()}\n{form}\n".encode())
    return h.hexdigest()


def test_rational_log_forms_unchanged():
    assert rational_log_digest() == RATIONAL_LOG_DIGEST


def test_two_simple_pole_forms_unchanged():
    assert two_pole_digest() == TWO_POLE_DIGEST


def test_polynomial_log_power_forms_unchanged():
    assert log_power_digest() == LOG_POWER_DIGEST
