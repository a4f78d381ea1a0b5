"""Command-line front end.

Subcommands:

    integrate     closed form (and value) of int R(x) (ln x)^m dx,
                  optionally cross-checked against the numeric oracle
    dilog         Li2 at a rational or decimal argument <= 1/2
    unimodal      coefficient-shape report for the recurrence families
    verify-batch  run many integrate+verify jobs from NDJSON lines

Exit codes: 0 success, 1 parse error (with a caret pointing at the
offending column), 2 domain error (diverging integral, bad argument),
3 oracle verification failure.  The default verification tolerance is
1e-9, overridable with --tol or the LOGINT_TOL environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, TextIO

from .dilog import dilog
from .errors import DomainError, NoConvergence
from .integrate import IntegralSpec, integrate_rational_log
from .parsing import ParseError, parse_denominator, parse_polynomial, parse_rational
from .quadrature import quad_log
from .ratfunc import FactoredDenominator
from .unimodal import coeff_report

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

_ORACLE_TOL = 1e-11


class _Parser(argparse.ArgumentParser):
    """argparse, but bad command lines exit 1 like other parse errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _default_tol() -> float:
    raw = os.environ.get("LOGINT_TOL")
    if raw is None:
        return 1e-9
    try:
        value = float(raw)
        if not _valid_tol(value):
            raise ValueError
        return value
    except ValueError:
        print(
            f"warning: ignoring invalid LOGINT_TOL={raw!r}", file=sys.stderr
        )
        return 1e-9


def _valid_tol(tol: float) -> bool:
    return 0 < tol < math.inf  # False for NaN too


def _fmt(x: float) -> str:
    return f"{x:.15g}"


@dataclass
class _IntegrateOutcome:
    """One integrate job's result, shared by `integrate` and batches."""

    closed_form: str
    terms: list
    value: float
    oracle: Optional[float] = None
    abs_diff: Optional[float] = None
    verified: Optional[bool] = None

    def to_json_dict(self) -> dict:
        out = {
            "closed_form": self.closed_form,
            "terms": self.terms,
            "value": self.value,
        }
        if self.oracle is not None:
            out["oracle"] = self.oracle
            out["abs_diff"] = self.abs_diff
            out["verified"] = self.verified
        return out


def _run_integrate_job(
    num_text: str,
    den_text: str,
    lower_text: str,
    upper_text: str,
    power: int,
    verify: bool,
    tol: float,
) -> _IntegrateOutcome:
    """Parse, integrate, optionally verify.  Raises ParseError,
    DomainError (and subclasses) or NoConvergence."""
    numerator = parse_polynomial(num_text)
    denominator = parse_denominator(den_text)
    lower = parse_rational(lower_text)
    upper = parse_rational(upper_text)
    spec = IntegralSpec(
        numerator=numerator,
        denominator=denominator,
        lower=lower,
        upper=upper,
        log_power=power,
    )
    form = integrate_rational_log(spec)
    value = form.evalf()
    outcome = _IntegrateOutcome(
        closed_form=str(form),
        terms=form.to_json_dict()["terms"],
        value=value,
    )
    if verify:
        den_poly = (
            denominator.expand()
            if isinstance(denominator, FactoredDenominator)
            else denominator
        )
        oracle = quad_log(
            (numerator, den_poly),
            lower,
            upper,
            m=power,
            tol=min(_ORACLE_TOL, tol / 10.0),
        )
        diff = abs(value - oracle.value)
        outcome.oracle = oracle.value
        outcome.abs_diff = diff
        outcome.verified = oracle.converged and diff <= tol * (
            1.0 + abs(oracle.value)
        )
    return outcome


def _print_outcome(outcome: _IntegrateOutcome, as_json: bool, out: TextIO) -> None:
    if as_json:
        print(json.dumps(outcome.to_json_dict()), file=out)
        return
    print(f"closed-form: {outcome.closed_form}", file=out)
    print(f"value: {_fmt(outcome.value)}", file=out)
    if outcome.oracle is not None:
        print(f"oracle: {_fmt(outcome.oracle)}", file=out)
        print(f"abs-diff: {outcome.abs_diff:.3g}", file=out)
        print(f"verified: {'ok' if outcome.verified else 'MISMATCH'}", file=out)


def _parse_bound_loose(text: str) -> float:
    """Bounds on the numeric-only path may be decimals like 1.4142, or inf."""
    try:
        return float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError):
        pass
    except OverflowError:
        raise ParseError(text, 0, "number out of floating-point range")
    try:
        return float(text)
    except ValueError:
        raise ParseError(text, 0, "expected a number")


def _cmd_numeric_only(args: argparse.Namespace) -> int:
    try:
        numerator = parse_polynomial(args.num)
        denominator = parse_denominator(args.den)
        if isinstance(denominator, FactoredDenominator):
            denominator = denominator.expand()
        lower = _parse_bound_loose(args.lower)
        upper = _parse_bound_loose(args.upper)
        result = quad_log(
            (numerator, denominator), lower, upper,
            m=args.power, tol=min(_ORACLE_TOL, args.tol),
        )
    except ParseError as exc:
        print(exc.annotate(), file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.json:
        print(
            json.dumps(
                {
                    "value": result.value,
                    "abs_error_estimate": result.abs_error_estimate,
                    "evaluations": result.evaluations,
                    "converged": result.converged,
                }
            )
        )
    else:
        print(f"value: {_fmt(result.value)}")
        print(f"error-estimate: {result.abs_error_estimate:.3g}")
        print(f"evaluations: {result.evaluations}")
    return EXIT_OK if result.converged else EXIT_DOMAIN


def _cmd_integrate(args: argparse.Namespace) -> int:
    if args.numeric_only:
        return _cmd_numeric_only(args)
    try:
        outcome = _run_integrate_job(
            args.num, args.den, args.lower, args.upper,
            args.power, args.verify, args.tol,
        )
    except ParseError as exc:
        print(exc.annotate(), file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NoConvergence as exc:
        print(f"error: oracle failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    _print_outcome(outcome, args.json, sys.stdout)
    if args.verify and not outcome.verified:
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_dilog(args: argparse.Namespace) -> int:
    try:
        x = parse_rational(args.x)
        result = dilog(x)
    except ParseError as exc:
        print(exc.annotate(), file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.json:
        print(
            json.dumps(
                {
                    "x": str(x),
                    "value": result.value,
                    "est_error": result.est_error,
                }
            )
        )
    else:
        print(f"Li2({x}) = {_fmt(result.value)}")
        print(f"est-error: {result.est_error:.3g}")
    return EXIT_OK


def _cmd_unimodal(args: argparse.Namespace) -> int:
    try:
        report = coeff_report(args.n, args.family)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.json:
        print(json.dumps(report.to_json_dict()))
        return EXIT_OK
    print(f"family: {report.family}, n = {report.n}")
    print(f"coeffs: {', '.join(str(c) for c in report.coeffs) or '0'}")
    print(f"degree: {report.degree}")
    print(f"nonneg-integers: {'yes' if report.all_nonneg_integers else 'no'}")
    nd = "yes" if report.nondecreasing else f"no (first decrease at {report.first_decrease})"
    print(f"nondecreasing: {nd}")
    um = f"yes (peak index {report.peak})" if report.unimodal else "no"
    print(f"unimodal: {um}")
    return EXIT_OK


def _cmd_verify_batch(args: argparse.Namespace) -> int:
    if args.input == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
            return EXIT_PARSE

    worst = EXIT_OK
    index = 0
    for line in lines:
        if not line.strip():
            continue
        record: dict = {"index": index}
        try:
            job = json.loads(line)
            outcome = _run_integrate_job(
                str(job["num"]),
                str(job["den"]),
                str(job.get("lower", "0")),
                str(job.get("upper", "1")),
                int(job.get("power", 1)),
                verify=True,
                tol=args.tol,
            )
            record.update(outcome.to_json_dict())
            record["ok"] = bool(outcome.verified)
            if not outcome.verified:
                record["kind"] = "mismatch"
                worst = max(worst, EXIT_VERIFY)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, DomainError):
                record.update(ok=False, kind="domain", error=str(exc))
                worst = max(worst, EXIT_DOMAIN)
            else:
                record.update(ok=False, kind="parse", error=str(exc))
                worst = max(worst, EXIT_PARSE)
        except NoConvergence as exc:
            record.update(ok=False, kind="oracle", error=str(exc))
            worst = max(worst, EXIT_VERIFY)
        print(json.dumps(record))
        index += 1
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="logint",
        description="Closed forms for integrals of rational functions "
        "against powers of ln x, with numeric verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="integrate R(x) (ln x)^m over [lower, upper]")
    p_int.add_argument("--num", required=True, help="numerator, e.g. '3x^2 - x/2 + 1'")
    p_int.add_argument("--den", required=True, help="denominator, e.g. 'x^2 + 3x + 2' or '(x+1)(x+2)^2'")
    p_int.add_argument("--lower", required=True, help="lower limit (rational, >= 0)")
    p_int.add_argument("--upper", required=True, help="upper limit (rational)")
    p_int.add_argument("--power", type=int, default=1, help="power of ln x (default 1)")
    p_int.add_argument("--verify", action="store_true", help="cross-check against the numeric oracle")
    p_int.add_argument(
        "--numeric-only", action="store_true",
        help="skip the closed form; run only the numeric oracle "
        "(the one path that accepts irrational poles and decimal bounds)",
    )
    p_int.add_argument("--tol", type=float, default=None, help="verification tolerance")
    p_int.add_argument("--json", action="store_true", help="machine-readable output")
    p_int.set_defaults(func=_cmd_integrate)

    p_di = sub.add_parser("dilog", help="evaluate Li2(x) for x <= 1/2")
    p_di.add_argument("--x", required=True, help="argument (rational or decimal)")
    p_di.add_argument("--json", action="store_true")
    p_di.set_defaults(func=_cmd_dilog)

    p_un = sub.add_parser("unimodal", help="coefficient-shape report for a family member")
    p_un.add_argument("--n", type=int, required=True, help="family index")
    p_un.add_argument(
        "--family", choices=("base", "shifted"), default="shifted",
        help="which coefficient family (default: shifted)",
    )
    p_un.add_argument("--json", action="store_true")
    p_un.set_defaults(func=_cmd_unimodal)

    p_vb = sub.add_parser(
        "verify-batch",
        help="verify NDJSON jobs: one {num,den,lower,upper,power} object per line",
    )
    p_vb.add_argument("--input", default="-", help="input file, or - for stdin (default)")
    p_vb.add_argument("--tol", type=float, default=None)
    p_vb.set_defaults(func=_cmd_verify_batch)

    return parser


# Flags whose values may start with '-' (negative numbers, leading-minus
# polynomials); fold them into --flag=value so argparse cannot mistake
# the value for an option.
_VALUE_FLAGS = {
    "--num", "--den", "--lower", "--upper", "--x", "--tol",
    "--input", "--power", "--n", "--family",
}


def _merge_flag_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_merge_flag_values(argv))
    if getattr(args, "tol", None) is None and hasattr(args, "tol"):
        args.tol = _default_tol()
    if getattr(args, "tol", None) is not None and not _valid_tol(args.tol):
        print("error: tolerance must be positive and finite", file=sys.stderr)
        return EXIT_PARSE
    return args.func(args)


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
