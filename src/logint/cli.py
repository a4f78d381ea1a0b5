"""Command-line front end.

Subcommands:

    integrate     closed form (and value) of int R(x) (ln x)^m dx,
                  optionally cross-checked against the numeric oracle
    dilog         Li2 at a rational or decimal argument <= 1/2
    unimodal      coefficient-shape report for the recurrence families
    verify-batch  run many integrate+verify jobs from NDJSON lines

Exit codes: 0 success, 1 parse error (with a caret pointing at the
offending column), 2 domain error (diverging integral, bad argument, or
no oracle value under --numeric-only), 3 oracle verification failure
(mismatch, or no oracle value to compare with).  The default
verification tolerance is 1e-9, overridable with --tol or the
LOGINT_TOL environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional

from .dilog import dilog
from .errors import DomainError, NoConvergence
from .integrate import IntegralSpec, integrate_rational_log
from .parsing import ParseError, parse_denominator, parse_polynomial, parse_rational
from .quadrature import quad_log
from .unimodal import coeff_report

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

_DEFAULT_TOL = 1e-9
_ORACLE_TOL = 1e-11


class _Parser(argparse.ArgumentParser):
    """argparse, but bad command lines exit 1 like other parse errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _resolve_tol(flag: Optional[float]) -> Optional[float]:
    """The verification tolerance: --tol, else LOGINT_TOL, else 1e-9.

    An invalid --tol gives None, which main reports as an error; an
    invalid LOGINT_TOL warns and falls back to the default.
    """
    if flag is not None:
        return flag if 0 < flag < math.inf else None  # False for NaN too
    raw = os.environ.get("LOGINT_TOL", str(_DEFAULT_TOL))
    try:
        if 0 < float(raw) < math.inf:
            return float(raw)
    except ValueError:
        pass
    print(f"warning: ignoring invalid LOGINT_TOL={raw!r}", file=sys.stderr)
    return _DEFAULT_TOL


# The errors main reports through _classify.  A verify-batch line also
# turns a malformed job (KeyError, TypeError, or the ValueError of
# json.loads or int) into a record.
_REPORTED = (ParseError, DomainError, NoConvergence)
_BATCH_REPORTED = (*_REPORTED, KeyError, TypeError, ValueError)


def _classify(exc: Exception) -> tuple[int, str, str]:
    """Exit code, verify-batch record kind and stderr report of an error.

    Whatever is neither a DomainError nor a NoConvergence is a parse
    error: a ParseError, or a malformed batch line.
    """
    if isinstance(exc, DomainError):
        return EXIT_DOMAIN, "domain", f"error: {exc}"
    if isinstance(exc, NoConvergence):
        return EXIT_VERIFY, "oracle", f"error: oracle failed: {exc}"
    report = exc.annotate() if isinstance(exc, ParseError) else f"error: {exc}"
    return EXIT_PARSE, "parse", report


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _print_json(document: dict) -> None:
    """Print one JSON document on a line: every --json output and every
    verify-batch record goes through here.

    JSON has no token for inf or nan, so a non-finite float field is
    written as null.  Floats appear only as top-level fields; should one
    nested deeper be non-finite, ``allow_nan=False`` raises rather than
    print a document that is not JSON.
    """
    print(json.dumps({
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in document.items()
    }, allow_nan=False))


def _run_integrate_job(
    num_text: str,
    den_text: str,
    lower_text: str,
    upper_text: str,
    power: int,
    verify: bool,
    tol: float,
) -> dict:
    """Parse, integrate, optionally verify; the result as its JSON record.
    Raises ParseError, DomainError (and subclasses) or NoConvergence,
    which is also how an oracle that cannot check the integral fails."""
    numerator = parse_polynomial(num_text)
    denominator = parse_denominator(den_text)
    lower = parse_rational(lower_text)
    upper = parse_rational(upper_text)
    form = integrate_rational_log(IntegralSpec(
        numerator=numerator, denominator=denominator,
        lower=lower, upper=upper, log_power=power,
    ))
    value = form.evalf()
    result = {
        "closed_form": str(form),
        "terms": form.to_json_dict()["terms"],
        "value": value,
    }
    if verify:
        try:
            oracle = quad_log(
                (numerator, denominator), lower, upper,
                m=power, tol=min(_ORACLE_TOL, tol / 10.0),
            )
        except DomainError as exc:
            # The route has accepted the input, so an oracle that refuses
            # it has no value to compare with: the mirror of
            # _cmd_numeric_only, where the oracle is the answer.
            raise NoConvergence(str(exc)) from exc
        diff = abs(value - oracle.value)
        result["oracle"] = oracle.value
        result["abs_diff"] = diff
        result["verified"] = oracle.converged and diff <= tol * (
            1.0 + abs(oracle.value)
        )
    return result


def _parse_bound_loose(text: str) -> float:
    """Bounds on the numeric-only path may be decimals like 1.4142, or inf."""
    try:
        return float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError):
        pass
    except OverflowError:
        raise ParseError(text, 0, "number out of floating-point range")
    try:
        value = float(text)
    except ValueError:
        raise ParseError(text, 0, "expected a number")
    # Fraction also refuses an integer past the interpreter's digit limit,
    # which float() reads as inf.
    if math.isinf(value) and text.strip().lstrip("+-").lower() not in ("inf", "infinity"):
        raise ParseError(text, 0, "number out of floating-point range")
    return value


def _cmd_numeric_only(args: argparse.Namespace) -> int:
    numerator = parse_polynomial(args.num)
    denominator = parse_denominator(args.den)
    lower = _parse_bound_loose(args.lower)
    upper = _parse_bound_loose(args.upper)
    try:
        result = quad_log(
            (numerator, denominator), lower, upper,
            m=args.power, tol=min(_ORACLE_TOL, args.tol),
        )
    except NoConvergence as exc:
        # Here the oracle is the answer, not a check of one: when it fails
        # there is no value for this input, so it is a domain error.
        raise DomainError(str(exc)) from exc
    if args.json:
        _print_json({
            "value": result.value,
            "abs_error_estimate": result.abs_error_estimate,
            "evaluations": result.evaluations,
            "converged": result.converged,
        })
    else:
        print(f"value: {_fmt(result.value)}")
        print(f"error-estimate: {result.abs_error_estimate:.3g}")
        print(f"evaluations: {result.evaluations}")
    if not result.converged:
        print(
            "error: oracle did not converge "
            f"(error estimate {result.abs_error_estimate:.3g})",
            file=sys.stderr,
        )
        return EXIT_DOMAIN
    return EXIT_OK


def _cmd_integrate(args: argparse.Namespace) -> int:
    if args.numeric_only:
        return _cmd_numeric_only(args)
    result = _run_integrate_job(
        args.num, args.den, args.lower, args.upper,
        args.power, args.verify, args.tol,
    )
    if args.json:
        _print_json(result)
    else:
        print(f"closed-form: {result['closed_form']}")
        print(f"value: {_fmt(result['value'])}")
        if args.verify:
            print(f"oracle: {_fmt(result['oracle'])}")
            print(f"abs-diff: {result['abs_diff']:.3g}")
            print(f"verified: {'ok' if result['verified'] else 'MISMATCH'}")
    return EXIT_VERIFY if args.verify and not result["verified"] else EXIT_OK


def _cmd_dilog(args: argparse.Namespace) -> int:
    x = parse_rational(args.x)
    result = dilog(x)
    if args.json:
        _print_json({"x": str(x), "value": result.value, "est_error": result.est_error})
    else:
        print(f"Li2({x}) = {_fmt(result.value)}")
        print(f"est-error: {result.est_error:.3g}")
    return EXIT_OK


@contextlib.contextmanager
def _int_digits_unlimited():
    """Lift the interpreter's digit limit on str(int), where it has one,
    while a report prints coefficients it computed itself.  The parsers
    keep the limit, since it bounds the work of one input."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _cmd_unimodal(args: argparse.Namespace) -> int:
    report = coeff_report(args.n, args.family)
    with _int_digits_unlimited():
        if args.json:
            _print_json(report.to_json_dict())
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
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    worst = EXIT_OK
    index = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        record: dict = {"index": index}
        try:
            job = json.loads(line)
            result = _run_integrate_job(
                str(job["num"]),
                str(job["den"]),
                str(job.get("lower", "0")),
                str(job.get("upper", "1")),
                int(str(job.get("power", 1))),  # as --power reads it: 1.7, true fail
                verify=True,
                tol=args.tol,
            )
        except _BATCH_REPORTED as exc:
            code, kind, _ = _classify(exc)
            record.update(ok=False, kind=kind, error=str(exc))
        else:
            record.update(result, ok=bool(result["verified"]))
            code = EXIT_OK
            if not result["verified"]:
                record["kind"] = "mismatch"
                code = EXIT_VERIFY
        worst = max(worst, code)
        _print_json(record)
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
    if hasattr(args, "tol"):
        args.tol = _resolve_tol(args.tol)
        if args.tol is None:
            print("error: tolerance must be positive and finite", file=sys.stderr)
            return EXIT_PARSE
    try:
        return args.func(args)
    except _REPORTED as exc:
        code, _, report = _classify(exc)
        print(report, file=sys.stderr)
        return code


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
