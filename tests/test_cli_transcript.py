"""Golden transcript of the command line.

Each case runs ``main([...])`` in-process and must reproduce the recorded
stdout, stderr and exit code byte for byte.  The table covers every
subcommand in text and JSON, each exit code, each way an error is
reported, and each value flag given a value that starts with '-'.

The recorded outputs live in ``cli_transcript.json`` next to this file.
After an intended change to the CLI's output, re-record them with

    PYTHONPATH=src python3 tests/test_cli_transcript.py > tests/cli_transcript.json

and review the diff: every changed line is a change users will see.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from logint.cli import main

GOLDEN_PATH = Path(__file__).with_name("cli_transcript.json")

# A numerator this large makes quad_log's tail bound overflow on [0, 1],
# so the oracle fails the same way on every run.
HUGE = "1" + "0" * 300

UNIT = ["--num", "1", "--den", "(x+1)", "--lower", "0", "--upper", "1"]


def _job(**fields) -> str:
    return json.dumps(fields)


MIXED_BATCH = "\n".join(
    [
        _job(num="1", den="(x+1)", lower="0", upper="1"),
        "this is not json",
        _job(num="1", den="(x-1)", lower="0", upper="2"),
        "",
        _job(num="x", den="(x+1)(x+2)", lower="1/2", upper="3", power=1),
        "[1,2]",
        _job(den="(x+1)"),
        _job(num="x^2 + Q", den="(x+1)"),
        _job(num="1", den="x^2 - 2"),
        _job(num=HUGE, den="x+1", lower="0", upper="1"),
        _job(num="x^3", den="2", lower="1", upper="2", power="2"),
    ]
) + "\n"

# (name, argv, environment, stdin).  LOGINT_TOL is unset unless given;
# COLUMNS is pinned so that argparse wraps its usage lines the same way
# on every terminal.
CASES = [
    # integrate: text and JSON, with and without --verify
    ("integrate-text", ["integrate", *UNIT], {}, None),
    ("integrate-verify", ["integrate", *UNIT, "--verify"], {}, None),
    ("integrate-json", ["integrate", *UNIT, "--json"], {}, None),
    ("integrate-json-verify", ["integrate", *UNIT, "--json", "--verify"], {}, None),
    ("integrate-factored-verify",
     ["integrate", "--num", "x", "--den", "(x+1)(x+2)^2", "--lower", "1/2",
      "--upper", "3", "--verify"], {}, None),
    ("integrate-expanded-json-verify",
     ["integrate", "--num", "x^2 + 1", "--den", "x^2 + 3x + 2", "--lower", "0",
      "--upper", "2", "--verify", "--json"], {}, None),
    ("integrate-poly-power-2",
     ["integrate", "--num", "x^2 + 1", "--den", "2", "--lower", "1", "--upper", "2",
      "--power", "2", "--verify"], {}, None),
    ("integrate-leading-minus-num",
     ["integrate", "--num", "-x + 1", "--den", "(x+1)", "--lower", "0", "--upper", "1"],
     {}, None),
    # parse errors, reported with a caret
    ("integrate-bad-num",
     ["integrate", "--num", "x^2 + 3x + Q", "--den", "(x+1)", "--lower", "0",
      "--upper", "1"], {}, None),
    ("integrate-bad-lower",
     ["integrate", "--num", "1", "--den", "(x+1)", "--lower", "1/", "--upper", "1"],
     {}, None),
    ("integrate-bad-den-verify",
     ["integrate", "--num", "1", "--den", "(x+1", "--lower", "0", "--upper", "1",
      "--verify"], {}, None),
    # domain errors
    ("integrate-pole-in-interval",
     ["integrate", "--num", "1", "--den", "(x-1)", "--lower", "0", "--upper", "2"],
     {}, None),
    ("integrate-two-offending-poles",
     ["integrate", "--num", "1", "--den", "(x-3)(x-1)", "--lower", "0", "--upper", "2"],
     {}, None),
    ("integrate-power-2-with-poles", ["integrate", *UNIT, "--power", "2"], {}, None),
    ("integrate-non-rational-pole",
     ["integrate", "--num", "1", "--den", "x^2 - 2", "--lower", "0", "--upper", "1"],
     {}, None),
    ("integrate-negative-lower",
     ["integrate", "--num", "1", "--den", "(x+1)", "--lower", "-1", "--upper", "1"],
     {}, None),
    ("integrate-negative-power", ["integrate", *UNIT, "--power", "-1"], {}, None),
    # tolerance: flag, environment, default
    ("integrate-tol-nan", ["integrate", *UNIT, "--verify", "--tol", "nan"], {}, None),
    ("integrate-tol-negative", ["integrate", *UNIT, "--tol", "-1"], {}, None),
    ("integrate-env-tol-banana", ["integrate", *UNIT, "--verify"],
     {"LOGINT_TOL": "banana"}, None),
    ("integrate-env-tol", ["integrate", *UNIT, "--verify"], {"LOGINT_TOL": "1e-6"}, None),
    ("integrate-flag-beats-env", ["integrate", *UNIT, "--verify", "--tol", "1e-3"],
     {"LOGINT_TOL": "nan"}, None),
    # oracle failure
    ("integrate-verify-oracle-fails",
     ["integrate", "--num", HUGE, "--den", "x+1", "--lower", "0", "--upper", "1",
      "--verify"], {}, None),
    # an oracle that refuses an input the route accepts: it has no bound
    # for ln^61 x at the origin, and its pole margin reaches -1e-13
    ("integrate-verify-oracle-refuses-power",
     ["integrate", "--num", "1", "--den", "1", "--lower", "0", "--upper", "1",
      "--power", "61", "--verify"], {}, None),
    ("integrate-verify-oracle-pole-margin",
     ["integrate", "--num", "1", "--den", "(x+1/10000000000000)", "--lower", "0",
      "--upper", "1", "--verify"], {}, None),
    # --numeric-only
    ("numeric-text",
     ["integrate", "--numeric-only", "--num", "1", "--den", "x^2 - 2", "--lower", "0",
      "--upper", "1"], {}, None),
    ("numeric-json-decimal-bounds",
     ["integrate", "--numeric-only", "--json", "--num", "1", "--den", "x^2 + 2",
      "--lower", "0.5", "--upper", "1.25"], {}, None),
    ("numeric-factored-power-3",
     ["integrate", "--numeric-only", "--num", "x", "--den", "(x+1)(x+2)^2",
      "--lower", "1/2", "--upper", "3", "--power", "3"], {}, None),
    ("numeric-upper-inf",
     ["integrate", "--numeric-only", "--json", "--num", "1", "--den", "x^2+1",
      "--lower", "1", "--upper", "inf"], {}, None),
    ("numeric-pole-inside",
     ["integrate", "--numeric-only", "--num", "1", "--den", "x^2 - 2", "--lower", "1",
      "--upper", "2"], {}, None),
    ("numeric-overflowing-bound",
     ["integrate", "--numeric-only", "--num", "1", "--den", "x^2+1", "--lower", "1",
      "--upper", "1e400"], {}, None),
    ("numeric-bad-den",
     ["integrate", "--numeric-only", "--num", "1", "--den", "x^^2", "--lower", "0",
      "--upper", "1"], {}, None),
    ("numeric-bad-upper",
     ["integrate", "--numeric-only", "--num", "1", "--den", "x+1", "--lower", "0",
      "--upper", "one"], {}, None),
    ("numeric-negative-lower",
     ["integrate", "--numeric-only", "--num", "1", "--den", "x+1", "--lower", "-1",
      "--upper", "1"], {}, None),
    ("numeric-oracle-fails",
     ["integrate", "--numeric-only", "--power", "60", "--num", HUGE, "--den", "x+1",
      "--lower", "0", "--upper", "1"], {}, None),
    # dilog
    ("dilog-text", ["dilog", "--x", "-1/2"], {}, None),
    ("dilog-json", ["dilog", "--x", "-3", "--json"], {}, None),
    ("dilog-decimal", ["dilog", "--x", "0.25"], {}, None),
    ("dilog-out-of-domain", ["dilog", "--x", "3/4"], {}, None),
    ("dilog-bad-x", ["dilog", "--x", "q"], {}, None),
    # unimodal
    ("unimodal-text", ["unimodal", "--n", "5"], {}, None),
    ("unimodal-json", ["unimodal", "--n", "5", "--json"], {}, None),
    ("unimodal-base", ["unimodal", "--n", "4", "--family", "base"], {}, None),
    ("unimodal-bad-index", ["unimodal", "--n", "1"], {}, None),
    ("unimodal-negative-index", ["unimodal", "--n", "-1"], {}, None),
    ("unimodal-bad-family", ["unimodal", "--n", "4", "--family", "-base"], {}, None),
    # verify-batch
    ("batch-missing-file", ["verify-batch", "--input", "/no/such/file.ndjson"], {}, None),
    ("batch-dash-file", ["verify-batch", "--input", "-jobs.ndjson"], {}, None),
    ("batch-mixed-stdin", ["verify-batch"], {}, MIXED_BATCH),
    ("batch-tol-flag", ["verify-batch", "--tol", "1e-6"], {},
     _job(num="1", den="(x+1)", lower="0", upper="1") + "\n"),
    ("batch-tol-negative", ["verify-batch", "--tol", "-1"], {}, ""),
    ("batch-empty", ["verify-batch"], {}, "\n\n"),
    # the argument parser itself
    ("no-subcommand", [], {}, None),
    ("unknown-flag", ["integrate", *UNIT, "--frobnicate", "1"], {}, None),
    ("missing-required", ["integrate", "--num", "1"], {}, None),
    ("bad-power-type", ["integrate", *UNIT, "--power", "1.5"], {}, None),
]


@contextlib.contextmanager
def _environment(env: dict, stdin):
    saved_env = {key: os.environ.pop(key, None) for key in ("LOGINT_TOL", "COLUMNS")}
    saved_stdin = sys.stdin
    os.environ.update({"COLUMNS": "80", **env})
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        yield
    finally:
        sys.stdin = saved_stdin
        for key, value in saved_env.items():
            os.environ.pop(key, None)
            if value is not None:
                os.environ[key] = value


def run_case(argv, env, stdin) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with _environment(env, stdin), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> dict:
    with GOLDEN_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)


def test_table_matches_recording():
    assert [name for name, *_ in CASES] == list(_golden())


@pytest.mark.parametrize("name,argv,env,stdin", CASES, ids=[c[0] for c in CASES])
def test_transcript(name, argv, env, stdin):
    assert run_case(argv, env, stdin) == _golden()[name]


if __name__ == "__main__":
    recording = {name: run_case(argv, env, stdin) for name, argv, env, stdin in CASES}
    json.dump(recording, sys.stdout, indent=1, ensure_ascii=False)
    sys.stdout.write("\n")
