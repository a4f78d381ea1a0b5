"""End-to-end CLI behavior: output shapes, exit codes, environment."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from logint import (
    ClosedForm,
    FactoredDenominator,
    IntegralSpec,
    Polynomial,
    integrate_rational_log,
)
from logint.cli import _VALUE_FLAGS, build_parser, main
from logint.quadrature import QuadResult

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
GOLDEN_ARGV = ["integrate", "--num", "1", "--den", "(x+1)", "--lower", "0", "--upper", "1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that refuses the non-JSON tokens NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def double_the_expansion(monkeypatch):
    """Make FactoredDenominator.expand, which the closed form's route uses,
    return 2 Q: a route fault that halves every closed form."""
    expand = FactoredDenominator.expand
    monkeypatch.setattr(FactoredDenominator, "expand", lambda self: 2 * expand(self))


class TestIntegrate:
    def test_golden_with_verify(self, capsys):
        code, out, err = run_cli(
            capsys,
            "integrate", "--num", "1", "--den", "(x+1)",
            "--lower", "0", "--upper", "1", "--verify",
        )
        assert code == 0
        assert "closed-form: -(1/12)*pi^2" in out
        assert "value: -0.822467033424113" in out
        assert "verified: ok" in out
        assert err == ""

    def test_json_round_trips_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "integrate", "--num", "x^2 + 1", "--den", "x + 1",
            "--lower", "0", "--upper", "1", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        form = integrate_rational_log(
            IntegralSpec(
                numerator=Polynomial((1, 0, 1)),
                denominator=Polynomial((1, 1)),
                lower=Fraction(0),
                upper=Fraction(1),
            )
        )
        assert ClosedForm.from_json_dict({"terms": doc["terms"]}) == form
        assert doc["value"] == form.evalf()

    def test_pole_in_interval_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "integrate", "--num", "1", "--den", "(x-1)",
            "--lower", "0", "--upper", "2",
        )
        assert code == 2
        assert "pole at x = 1 lies inside [0, 2]" in err
        assert out == ""

    def test_parse_error_is_annotated(self, capsys):
        code, _, err = run_cli(
            capsys,
            "integrate", "--num", "x^2 + 3x + Q", "--den", "(x+1)",
            "--lower", "0", "--upper", "1",
        )
        assert code == 1
        lines = err.splitlines()
        assert lines[0] == "x^2 + 3x + Q"
        assert lines[1].startswith(" " * 11 + "^")

    def test_negative_leading_values_parse(self, capsys):
        # "--num -x + 1" must not be mistaken for a flag.
        code, out, _ = run_cli(
            capsys,
            "integrate", "--num", "-x + 1", "--den", "(x+1)",
            "--lower", "0", "--upper", "1",
        )
        assert code == 0
        assert "value:" in out

    def test_mismatch_exits_3(self, capsys, monkeypatch):
        # Force the oracle to disagree: the wiring, not the math, is
        # under test here.
        def fake_quad(*args, **kwargs):
            return QuadResult(
                value=1.0, abs_error_estimate=0.0, evaluations=1, converged=True
            )

        monkeypatch.setattr("logint.cli.quad_log", fake_quad)
        code, out, _ = run_cli(
            capsys,
            "integrate", "--num", "1", "--den", "(x+1)",
            "--lower", "0", "--upper", "1", "--verify",
        )
        assert code == 3
        assert "verified: MISMATCH" in out

    def test_unsupported_power_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "integrate", "--num", "1", "--den", "(x+1)",
            "--lower", "0", "--upper", "1", "--power", "2",
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("factored, expanded", [
        ("(x + 1/2)^3(x+2)", "x^4 + 7/2x^3 + 15/4x^2 + 13/8x + 1/4"),
        ("-3/4*(x + 5/2)^2(x+3)", "-3/4x^3 - 6x^2 - 255/16x - 225/16"),
    ])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_factored_and_expanded_denominators_print_the_same(
        self, capsys, factored, expanded, json_flag
    ):
        # The factored --den is multiplied out for the oracle as a product
        # of Polynomials; the expanded one is parsed as it is written.
        outputs = [
            run_cli(
                capsys,
                "integrate", "--num", "x^2 - 3", "--den", den,
                "--lower", "1/3", "--upper", "5", "--verify", *json_flag,
            )
            for den in (factored, expanded)
        ]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]

    def test_oracle_does_not_share_the_expansion_of_the_route(self, capsys, monkeypatch):
        double_the_expansion(monkeypatch)
        code, out, _ = run_cli(
            capsys,
            "integrate", "--num", "1", "--den", "(x+1)(x+2)",
            "--lower", "0", "--upper", "1", "--verify",
        )
        assert "closed-form: -(1/24)*pi^2 - (1/2)*Li2(-1/2)" in out
        assert "verified: MISMATCH" in out
        assert code == 3

    def test_rational_root_leaves_its_cofactor_with_the_constant(self, capsys):
        # 6x^3 + 3x^2 - 12x - 6 = (x + 1/2) * (6x^2 - 12): the factor
        # reported keeps the leading coefficient of the input.
        code, out, err = run_cli(
            capsys,
            "integrate", "--num", "1", "--den", "6x^3+3x^2-12x-6",
            "--lower", "1", "--upper", "2",
        )
        assert (code, out) == (2, "")
        assert err == "error: denominator factor 6*x^2 - 12 has no rational root\n"

    @pytest.mark.xfail(
        raises=subprocess.TimeoutExpired,
        reason="ROADMAP item 3: the rational-root search trial-divides up to "
        "the square root of a constant with a large prime factor",
    )
    def test_constant_with_a_large_prime_factor_exits_2_in_time(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "logint", "integrate", "--num", "1",
                "--den", "x^2+x+1000000000000000003", "--lower", "1", "--upper", "2",
            ],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
        assert proc.returncode == 2
        assert "has no rational root" in proc.stderr

    # Exact results whose float value is out of range: a domain error,
    # not an OverflowError traceback.
    def test_coefficient_beyond_float_range_exits_2(self, capsys):
        # int_0^2 (ln x)^400 dx has coefficients near 400!
        code, out, err = run_cli(
            capsys,
            "integrate", "--num", "1", "--den", "1",
            "--lower", "0", "--upper", "2", "--power", "400",
        )
        assert (code, out) == (2, "")
        assert err == "error: the value of the closed form is beyond floating-point range\n"

    def test_verify_with_coefficients_beyond_float_range(self, capsys):
        # 10^400 / (10^400 x + 10^400) is 1/(x + 1).  The oracle scales
        # each polynomial's coefficients into float range.
        big = "1" + "0" * 400
        code, out, err = run_cli(
            capsys,
            "integrate", "--num", big, "--den", f"{big}x+{big}",
            "--lower", "1", "--upper", "2", "--verify",
        )
        assert (code, err) == (0, "")
        assert "verified: ok" in out

    def test_dilog_argument_beyond_float_range_exits_2(self, capsys):
        # The closed form holds Li2(-10^400).
        code, out, err = run_cli(
            capsys,
            "integrate", "--num", "1", "--den", "x+1", "--lower", "0", "--upper", "1e400",
        )
        assert (code, out) == (2, "")
        assert err == "error: dilog argument is beyond floating-point range\n"

    @pytest.mark.parametrize("flags, message", [
        (["--num", "1", "--den", "1", "--power", "100000000"], "log_power must be at most 1000"),
        (["--num", "x^100000000", "--den", "1"], "x exponent must be at most 1000"),
        (["--num", "1", "--den", "(x+1)^100000000"], "factor power must be at most 1000"),
        (["--num", "1", "--den", "(x+1)^600(x+2)^401"], "denominator degree must be at most 1000"),
    ], ids=["log-power", "exponent", "factor-power", "degree"])
    def test_size_above_the_limit_exits_2_at_once(self, capsys, flags, message):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "integrate", *flags, "--lower", "1", "--upper", "2")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


    @pytest.mark.parametrize("flag,text", [("--num", "{}"), ("--den", "(x+{})")])
    def test_integer_literal_past_the_digit_limit_exits_1(
        self, capsys, default_int_digit_limit, flag, text
    ):
        literal = "1" + "0" * 5000
        argv = {"--num": "1", "--den": "x+1", "--lower": "0", "--upper": "1"}
        argv[flag] = text.format(literal)
        code, out, err = run_cli(capsys, "integrate", *(a for kv in argv.items() for a in kv))
        assert (code, out) == (1, "")
        assert err == f"{argv[flag]}\n{' ' * text.index('{')}^ integer literal too long\n"


class TestNumericOnly:
    def test_irrational_poles_outside_interval(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "integrate", "--numeric-only", "--num", "1", "--den", "x^2 - 2",
            "--lower", "0", "--upper", "1",
        )
        assert code == 0
        assert "value:" in out

    def test_decimal_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "integrate", "--numeric-only", "--json",
            "--num", "1", "--den", "x^2 + 2",
            "--lower", "0.5", "--upper", "1.25",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["abs_error_estimate"] >= 0.0

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_non_converged_oracle_reports_on_stderr(self, capsys, monkeypatch, json_flag):
        def fake_quad(*args, **kwargs):
            return QuadResult(
                value=1.0, abs_error_estimate=0.25, evaluations=840, converged=False
            )

        monkeypatch.setattr("logint.cli.quad_log", fake_quad)
        code, out, err = run_cli(
            capsys,
            "integrate", "--numeric-only", *json_flag, "--num", "1", "--den", "x+1",
            "--lower", "0", "--upper", "1",
        )
        assert code == 2
        if json_flag:
            assert json.loads(out)["converged"] is False
        else:
            assert out == "value: 1\nerror-estimate: 0.25\nevaluations: 840\n"
        assert err == "error: oracle did not converge (error estimate 0.25)\n"

    def test_infinite_value_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "integrate", "--numeric-only", "--num", str(10**308), "--den", "1",
            "--lower", "1", "--upper", "10",
        )
        assert code == 2
        assert out.startswith("value: inf\n")
        assert err == "error: oracle did not converge (error estimate inf)\n"

    def test_infinite_value_prints_valid_json(self, capsys):
        code, out, err = run_cli(
            capsys,
            "integrate", "--numeric-only", "--json", "--num", str(10**308), "--den", "1",
            "--lower", "1", "--upper", "10",
        )
        assert code == 2
        doc = strict_json(out)
        assert doc["value"] is None and doc["abs_error_estimate"] is None
        assert doc["converged"] is False
        assert err == "error: oracle did not converge (error estimate inf)\n"

    def test_irrational_pole_inside_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "integrate", "--numeric-only", "--num", "1", "--den", "x^2 - 2",
            "--lower", "1", "--upper", "2",
        )
        assert code == 2
        assert "pole" in err

    def test_repeated_pole_inside_exits_2_without_traceback(self, tmp_path):
        # A float root finder splits the 4-fold root off the real axis;
        # the pole must still end as a typed error, not a traceback.
        proc = subprocess.run(
            [
                sys.executable, "-m", "logint.cli", "integrate", "--numeric-only",
                "--num", "1", "--den", "(x-3/2)^4", "--lower", "1", "--upper", "3",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "error: integrand has a pole at x = 1.5 inside [1, 3]" in proc.stderr

    def test_double_pole_inside_exits_2(self, capsys):
        # A float root finder returns the double root 4/3 as 4/3 +- 1.8e-8 i,
        # and the oracle then integrated across the pole and printed a value.
        code, out, err = run_cli(
            capsys,
            "integrate", "--numeric-only", "--num", "1", "--den", "(x-4/3)^2",
            "--lower", "0.7", "--upper", "47/15",
        )
        assert code == 2
        assert out == ""
        assert err == "error: integrand has a pole at x = 1.3333333333333333 inside [0.7, 3.13333]\n"

    def test_overflowing_bound_is_a_parse_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "integrate", "--numeric-only", "--num", "1", "--den", "x^2+1",
            "--lower", "1", "--upper", "1e400",
        )
        assert code == 1
        assert out == ""
        assert "1e400" in err and "Traceback" not in err

    def test_integer_past_the_digit_limit_is_out_of_range(self, capsys):
        # Fraction refuses the literal and float() would read it as inf;
        # it is out of range like 1e400.
        upper = "1" + "0" * 5000
        code, out, err = run_cli(
            capsys,
            "integrate", "--numeric-only", "--num", "1", "--den", "x+1",
            "--lower", "0", "--upper", upper,
        )
        assert (code, out) == (1, "")
        assert err == f"{upper}\n^ number out of floating-point range\n"

    def test_infinite_upper_bound(self, capsys):
        # int_1^inf ln x / (1 + x^2) dx is Catalan's constant.
        code, out, _ = run_cli(
            capsys,
            "integrate", "--numeric-only", "--json", "--num", "1",
            "--den", "x^2+1", "--lower", "1", "--upper", "inf",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["value"] == pytest.approx(0.915965594177219, abs=1e-12)

    def test_pole_below_an_infinite_interval(self, capsys):
        # int_0^inf ln x / (x+1)^2 dx = 0; the pole at -1 is outside.
        code, out, err = run_cli(
            capsys,
            "integrate", "--numeric-only", "--json", "--num", "1",
            "--den", "(x+1)^2", "--lower", "0", "--upper", "inf",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize(
        "num, den",
        [("1", "1" + "0" * 400 + "x+1"), ("1" + "0" * 400, "x+1")],
        ids=["denominator", "numerator"],
    )
    def test_coefficient_beyond_float_range_exits_2(self, capsys, num, den):
        code, out, err = run_cli(
            capsys,
            "integrate", "--numeric-only", "--num", num, "--den", den,
            "--lower", "1", "--upper", "2",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "floating-point range" in err


class TestDilog:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "dilog", "--x", "-1/2")
        assert code == 0
        assert "Li2(-1/2) = -0.448414206923646" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "dilog", "--x", "-3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == "-3"
        assert doc["value"] == pytest.approx(-1.939375420766709, abs=1e-13)
        assert doc["est_error"] <= 1e-13

    def test_out_of_domain_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "dilog", "--x", "3/4")
        assert code == 2
        assert "error:" in err

    def test_argument_just_above_one_half_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "dilog", "--x", "0.5000000000000000001")
        assert (code, out) == (2, "")
        assert err == (
            "error: dilog argument must be <= 1/2, "
            "got 5000000000000000001/10000000000000000000\n"
        )

    def test_argument_beyond_float_range_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "dilog", "--x", "-1e400")
        assert (code, out) == (2, "")
        assert err == "error: dilog argument is beyond floating-point range\n"


class TestUnimodal:
    def test_json_matches_library(self, capsys):
        from logint import coeff_report

        code, out, _ = run_cli(capsys, "unimodal", "--n", "5", "--json")
        assert code == 0
        assert json.loads(out) == coeff_report(5).to_json_dict()

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "unimodal", "--n", "5")
        assert code == 0
        assert "coeffs: 2, 5, 11" in out
        assert "unimodal: yes (peak index 2)" in out

    def test_base_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "unimodal", "--n", "4", "--family", "base"
        )
        assert code == 0
        assert "coeffs: 4, 3" in out

    def test_bad_index_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "unimodal", "--n", "1")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("family", ["base", "shifted"])
    @pytest.mark.parametrize("n", ["1001", "100000000000000000000"])
    def test_index_above_the_limit_exits_2_at_once(self, capsys, n, family):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "unimodal", "--n", n, "--family", family)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.endswith("family index must be at most 1000\n")

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit on str(int)"
    )
    @pytest.mark.parametrize("family", ["base", "shifted"])
    @pytest.mark.parametrize("json_flag", [False, True])
    def test_coefficients_past_the_digit_limit_print(self, capsys, family, json_flag):
        # (n-2)! alone has 660 digits at n = 320, past a limit of 640.
        from logint import coeff_report

        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(
                capsys, "unimodal", "--n", "320", "--family", family,
                *(["--json"] if json_flag else []),
            )
            limit_after = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(saved)
        assert (code, err) == (0, "")
        assert limit_after == 640
        expected = coeff_report(320, family).to_json_dict()
        assert max(map(len, expected["coeffs"])) > 640
        if json_flag:
            assert json.loads(out) == expected
        else:
            assert f"\ncoeffs: {', '.join(expected['coeffs'])}\n" in out


class TestVerifyBatch:
    def test_mixed_batch(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.ndjson"
        jobs.write_text(
            "\n".join(
                [
                    json.dumps(
                        {"num": "1", "den": "(x+1)", "lower": "0", "upper": "1"}
                    ),
                    "this is not json",
                    json.dumps(
                        {"num": "1", "den": "(x-1)", "lower": "0", "upper": "2"}
                    ),
                ]
            )
        )
        code = main(["verify-batch", "--input", str(jobs)])
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["index"] for r in records] == [0, 1, 2]
        assert records[0]["ok"] is True
        assert records[0]["verified"] is True
        assert records[1]["ok"] is False and records[1]["kind"] == "parse"
        assert records[2]["ok"] is False and records[2]["kind"] == "domain"
        assert code == 2  # worst failure wins

    def test_log_power_above_the_limit_is_a_domain_record(self, capsys, monkeypatch):
        jobs = [
            {"num": "1", "den": "1", "lower": "1", "upper": "2", "power": 100000000},
            {"num": "1", "den": "(x+1)", "lower": "0", "upper": "1"},
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(json.dumps(j) + "\n" for j in jobs)))
        start = time.perf_counter()
        code = main(["verify-batch"])
        assert time.perf_counter() - start < 1.0
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert records[0] == {
            "index": 0, "ok": False, "kind": "domain",
            "error": "log_power must be at most 1000",
        }
        assert records[1]["ok"] is True
        assert code == 2

    def test_values_beyond_float_range_do_not_abort_the_batch(self, capsys, monkeypatch):
        jobs = [
            {"num": "1", "den": "x+1", "lower": "0", "upper": "1e400"},
            {"num": "1", "den": "1", "lower": "0", "upper": "2", "power": 400},
            {"num": "1", "den": "(x+1)", "lower": "0", "upper": "1"},
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(json.dumps(j) + "\n" for j in jobs)))
        code = main(["verify-batch"])
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [r["index"] for r in records] == [0, 1, 2]
        for bad in records[:2]:
            assert bad["ok"] is False and bad["kind"] == "domain"
            assert "beyond floating-point range" in bad["error"]
        assert records[2]["ok"] is True
        assert code == 2

    def test_non_finite_oracle_value_is_written_as_null(self, capsys, monkeypatch):
        def fake_quad(*args, **kwargs):
            return QuadResult(
                value=math.inf, abs_error_estimate=math.inf, evaluations=21, converged=False
            )

        monkeypatch.setattr("logint.cli.quad_log", fake_quad)
        job = {"num": "1", "den": "(x+1)", "lower": "0", "upper": "1"}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job) + "\n"))
        code = main(["verify-batch"])
        record = strict_json(capsys.readouterr().out)
        assert record["oracle"] is None and record["abs_diff"] is None
        assert record["ok"] is False and record["kind"] == "mismatch"
        assert code == 3

    def test_oracle_does_not_share_the_expansion_of_the_route(self, capsys, monkeypatch):
        double_the_expansion(monkeypatch)
        jobs = [
            {"num": "1", "den": "(x+1)(x+2)", "lower": "0", "upper": "1"},
            {"num": "1", "den": "x^2+3x+2", "lower": "0", "upper": "1"},
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(json.dumps(j) + "\n" for j in jobs)))
        code = main(["verify-batch"])
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [(r["ok"], r["kind"]) for r in records] == [(False, "mismatch")] * 2
        assert code == 3

    def test_malformed_jobs_do_not_abort_the_batch(self, capsys, tmp_path):
        good = json.dumps({"num": "1", "den": "(x+1)", "lower": "0", "upper": "1"})
        jobs = tmp_path / "jobs.ndjson"
        jobs.write_text(
            "\n".join(
                [
                    "[1,2]",
                    json.dumps({"num": "1", "den": "(x+1)", "power": None}),
                    good,
                ]
            )
        )
        code = main(["verify-batch", "--input", str(jobs)])
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["index"] for r in records] == [0, 1, 2]
        for bad in records[:2]:
            assert bad["ok"] is False and bad["kind"] == "parse"
        assert records[2]["ok"] is True
        assert code == 1

    def test_an_oracle_that_cannot_check_a_job_is_an_oracle_failure(self, capsys, monkeypatch):
        # The route accepts both jobs. The oracle has no tail bound for
        # ln^61 x, and its pole margin reaches the pole at -1e-13.
        jobs = [
            {"num": "1", "den": "1", "lower": "0", "upper": "1", "power": 61},
            {"num": "1", "den": "(x+1/10000000000000)", "lower": "0", "upper": "1"},
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(json.dumps(j) + "\n" for j in jobs)))
        code = main(["verify-batch"])
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [(r["ok"], r["kind"]) for r in records] == [(False, "oracle")] * 2
        assert code == 3

    def test_stdin_input(self, capsys, monkeypatch):
        line = json.dumps(
            {"num": "x", "den": "(x+1)(x+2)", "lower": "1/2", "upper": "3"}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n\n"))
        code = main(["verify-batch"])
        out = capsys.readouterr().out
        records = [json.loads(l) for l in out.splitlines()]
        assert code == 0
        assert len(records) == 1
        assert records[0]["ok"] is True

    def test_missing_file(self, capsys):
        code = main(["verify-batch", "--input", "/no/such/file.ndjson"])
        err = capsys.readouterr().err
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize("power", [1.7, True, 2.0])
    def test_power_is_read_as_the_flag_reads_it(self, capsys, monkeypatch, power):
        # int() would truncate these to an accepted power and report ok.
        line = json.dumps(
            {"num": "1", "den": "(x+1)", "lower": "0", "upper": "1", "power": power}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        code = main(["verify-batch"])
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert code == 1
        assert len(records) == 1
        assert records[0]["ok"] is False and records[0]["kind"] == "parse"

    def test_non_utf8_file(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.ndjson"
        jobs.write_bytes(b"\xff" + json.dumps({"num": "1", "den": "x+1"}).encode())
        code = main(["verify-batch", "--input", str(jobs)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {jobs}: ")
        assert "Traceback" not in captured.err


class TestFlagsAndEnvironment:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "--frobnicate", "1"])
        assert exc.value.code == 1

    def test_every_value_option_may_take_a_leading_minus(self):
        # _merge_flag_values folds only the flags in _VALUE_FLAGS into
        # --flag=value; any other option given "-1" would see a flag.
        parser = build_parser()
        (subparsers,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        takes_value = {
            flag
            for sub in subparsers.choices.values()
            for action in sub._actions
            if action.nargs != 0
            for flag in action.option_strings
        }
        assert takes_value <= _VALUE_FLAGS

    def test_missing_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_env_tolerance_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("LOGINT_TOL", "1e-6")
        code, _, err = run_cli(
            capsys,
            "integrate", "--num", "1", "--den", "(x+1)",
            "--lower", "0", "--upper", "1", "--verify",
        )
        assert code == 0
        assert "warning" not in err

    def test_invalid_env_tolerance_warns(self, capsys, monkeypatch):
        monkeypatch.setenv("LOGINT_TOL", "banana")
        code, _, err = run_cli(
            capsys,
            "integrate", "--num", "1", "--den", "(x+1)",
            "--lower", "0", "--upper", "1", "--verify",
        )
        assert code == 0
        assert "ignoring invalid LOGINT_TOL" in err

    def test_nan_env_tolerance_warns(self, capsys, monkeypatch):
        monkeypatch.setenv("LOGINT_TOL", "nan")
        code, out, err = run_cli(
            capsys,
            "integrate", "--num", "1", "--den", "(x+1)",
            "--lower", "0", "--upper", "1", "--verify",
        )
        assert code == 0
        assert "verified: ok" in out
        assert "ignoring invalid LOGINT_TOL" in err

    def test_nonpositive_tolerance_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "integrate", "--num", "1", "--den", "(x+1)",
            "--lower", "0", "--upper", "1", "--tol", "-1",
        )
        assert code == 1
        assert "tolerance must be positive" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exits_1(self, capsys, tol):
        code, out, err = run_cli(
            capsys,
            "integrate", "--num", "1", "--den", "(x+1)",
            "--lower", "0", "--upper", "1", "--verify", "--tol", tol,
        )
        assert code == 1
        assert out == ""
        assert "tolerance must be" in err


class TestConsoleScript:
    """Run the ``logint`` command as a program, the two ways it is launched.

    Both run this checkout's ``src`` in a fresh interpreter, so they need
    no install and cannot pick up a ``logint`` from elsewhere on PATH.
    """

    def _run(self, tmp_path, *python_args):
        return subprocess.run(
            [sys.executable, *python_args, *GOLDEN_ARGV],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )

    def test_installed_entry_point(self, tmp_path):
        # Load the [project.scripts] target as an installed launcher does,
        # and call it as the wrapper that pip writes would.
        tomllib = pytest.importorskip("tomllib")
        with (SRC_DIR.parent / "pyproject.toml").open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["logint"]
        launcher = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"fn = EntryPoint(name='logint', value={target!r},"
            " group='console_scripts').load()\n"
            "sys.argv[0] = 'logint'\n"
            "sys.exit(fn())\n"
        )
        proc = self._run(tmp_path, "-c", launcher)
        assert proc.returncode == 0
        assert "pi^2" in proc.stdout

    def test_python_dash_m_runs_cli(self, tmp_path):
        proc = self._run(tmp_path, "-m", "logint.cli")
        assert proc.returncode == 0
        assert "closed-form: -(1/12)*pi^2" in proc.stdout

    def test_python_dash_m_runs_package(self, tmp_path):
        proc = self._run(tmp_path, "-m", "logint")
        assert proc.returncode == 0
        assert "closed-form: -(1/12)*pi^2" in proc.stdout
