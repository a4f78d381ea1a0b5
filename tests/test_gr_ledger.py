"""The G&R 4.231 ledger: how much of the paper's table logint reproduces.

One row per Gradshteyn and Ryzhik entry, at rational parameter values:
the CLI input, the value as an mpmath expression, and the ROADMAP item
that brings the row into the symbolic domain.  A row in scope must pass
``integrate --verify`` and agree with mpmath to 1e-12.  A row out of
scope is a strict xfail, so a row that starts passing fails the suite
until the change that unlocks it removes the marker.

Every expression was checked against mpmath's own quadrature of the
integrand at 30 digits (agreement within 1e-30) before its row was added.
"""

import json

import mpmath
import pytest

from logint.cli import main

# (integrand, interval, CLI input, value, the ROADMAP item that unlocks it)
LEDGER = [
    ("ln x/(1+x)", "[0,1]", dict(den="x+1", upper="1"),
     lambda: -mpmath.pi**2 / 12, None),
    ("ln x/(1+x)^2", "[0,1]", dict(den="(x+1)^2", upper="1"),
     lambda: -mpmath.log(2), None),
    ("ln x/(1-x)", "[0,1]", dict(den="1-x", upper="1"),
     lambda: -mpmath.pi**2 / 6, "item 5"),
    ("ln x/(1-x^2)", "[0,1]", dict(den="1-x^2", upper="1"),
     lambda: -mpmath.pi**2 / 8, "item 5"),
    ("ln x/(x+3)^2", "[0,inf)", dict(den="(x+3)^2", upper="inf"),
     lambda: mpmath.log(3) / 3, "item 6"),
    ("ln x/((x+3)(x+5))", "[0,inf)", dict(den="(x+3)*(x+5)", upper="inf"),
     lambda: (mpmath.log(3) ** 2 - mpmath.log(5) ** 2) / -4, "item 6"),
    ("ln x/(1+x)^2", "[1,inf)", dict(den="(x+1)^2", lower="1", upper="inf"),
     lambda: mpmath.log(2), "item 6"),
    ("ln x/(1+x)^3", "[0,inf)", dict(den="(x+1)^3", upper="inf"),
     lambda: mpmath.mpf(-1) / 2, "item 6"),
    ("ln^2 x/(1+x)", "[0,1]", dict(den="x+1", upper="1", power="2"),
     lambda: 3 * mpmath.zeta(3) / 2, "item 7"),
    ("ln^2 x/(1-x)", "[0,1]", dict(den="1-x", upper="1", power="2"),
     lambda: 2 * mpmath.zeta(3), "items 5, 7"),
    ("ln x/(1+x^2)", "[0,1]", dict(den="x^2+1", upper="1"),
     lambda: -mpmath.catalan, "item 8"),
    ("x ln x/(1+x^2)", "[0,1]", dict(num="x", den="x^2+1", upper="1"),
     lambda: -mpmath.pi**2 / 48, "item 8"),
    ("ln x/(x^2+9)", "[0,3]", dict(den="x^2+9", upper="3"),
     lambda: mpmath.pi * mpmath.log(3) / 12 - mpmath.catalan / 3, "item 8"),
    ("ln x/(x^2+9)", "[0,inf)", dict(den="x^2+9", upper="inf"),
     lambda: mpmath.pi * mpmath.log(3) / 6, "items 6, 8"),
]


def _param(integrand, interval, cli, value, unlocked_by):
    marks = ()
    if unlocked_by is not None:
        marks = pytest.mark.xfail(strict=True, reason=unlocked_by)
    return pytest.param(cli, value, id=f"{integrand} on {interval}", marks=marks)


@pytest.mark.parametrize("cli, value", [_param(*row) for row in LEDGER])
def test_gr_4_231_entry(capsys, cli, value):
    argv = [
        "integrate", "--verify", "--json",
        "--num", cli.get("num", "1"), "--den", cli["den"],
        "--lower", cli.get("lower", "0"), "--upper", cli["upper"],
        "--power", cli.get("power", "1"),
    ]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    with mpmath.workdps(30):
        expected = float(value())
    assert abs(doc["value"] - expected) <= 1e-12
