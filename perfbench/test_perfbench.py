"""Self-tests of the benchmark: tiny runs print every metric, the gate
rejects wrong outputs, and the per-op time limit holds.

    python3 -m pytest perfbench -q
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run

workloads = run.load_program()
import logint  # noqa: E402  (importable once load_program has set the path)
import tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(name, trace):
    result = run.measure(name, seed=3, seconds=0.0, trace=trace, samples=1, min_passes=1)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rows = run.report(name, result, SPEC, trace)
    return result, rows, buf.getvalue()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_end_to_end_metric(name):
    result, rows, text = _tiny(name, trace=False)
    assert result["correct"], result["problems"]
    for entry in SPEC["end_to_end"]:
        assert f"{entry['name']}" in text and entry["unit"] in text
        assert rows[entry["name"]]["unit"] == entry["unit"]
        assert rows[entry["name"]]["value"] > 0
    assert "error_rate" in text


@pytest.mark.parametrize("name", ["numeric", "families"])
def test_traced_run_accounts_for_its_wall_time(name):
    result, rows, _ = _tiny(name, trace=True)
    assert set(rows) == {e["name"] for e in SPEC["per_layer"]}
    m = result["metrics"]
    layers = (sum(m[f"{n}.self_ms"] for n in tracer.span_names())
              + m["trace.hooks_ms"] + m["trace.reference_ms"])
    assert layers + m["trace.untraced_ms"] == pytest.approx(m["trace.wall_ms"])
    assert m["trace.untraced_ms"] >= 0


def test_tracer_restores_every_binding():
    before = (logint.partial_fractions, logint.integrate.partial_fractions,
              logint.Polynomial.__mul__, logint.ClosedForm.__init__)
    t = tracer.Tracer()
    t.install()
    try:
        assert logint.integrate.partial_fractions is not before[1]
        assert logint.ratfunc.partial_fractions is logint.integrate.partial_fractions
        logint.partial_fractions(logint.Polynomial((1,)), logint.Polynomial((2, 3, 1)))
    finally:
        t.uninstall()
    after = (logint.partial_fractions, logint.integrate.partial_fractions,
             logint.Polynomial.__mul__, logint.ClosedForm.__init__)
    assert after == before
    calls, _ = t.self_times()["ratfunc.factor_denominator"]
    assert calls == 1


def _op(w, item):
    return workloads.Op(0, 0.0, 0.0, w.call(item))


def test_gate_rejects_a_closed_form_with_one_coefficient_changed():
    w = workloads.WORKLOADS["deep-poles"]
    den = logint.FactoredDenominator(constant=1, factors=((Fraction(1), 2), (Fraction(2), 1)))
    item = (logint.Polynomial((1, 1)), den, Fraction(0), Fraction(2))
    op = _op(w, item)
    assert w.judge(item, op) == (False, None)

    value, form = op.out
    terms = form["terms"]
    k = max(range(len(terms)), key=lambda i: abs(logint.atom_from_json_dict(terms[i]["atom"]).value()))
    changed = json.loads(json.dumps(form))
    changed["terms"][k]["coeff"] = str(Fraction(terms[k]["coeff"]) + 1)
    consistent = logint.ClosedForm.from_json_dict(changed).evalf()
    for out in ((value, changed), (consistent, changed)):
        failed, problem = w.judge(item, dataclasses.replace(op, out=out))
        assert failed and problem


def test_gate_rejects_an_oracle_result_with_its_value_shifted():
    w = workloads.WORKLOADS["numeric"]
    item = ("quad", logint.Polynomial((1,)), logint.Polynomial((1, 2, 1)), 0.0, 10.0, 1)
    op = _op(w, item)
    assert op.out.converged and w.judge(item, op) == (False, None)
    shifted = dataclasses.replace(op.out, value=op.out.value + 1e-6)
    failed, problem = w.judge(item, dataclasses.replace(op, out=shifted))
    assert failed and problem

    item = ("dilog", -0.999)
    op = _op(w, item)
    assert w.judge(item, op) == (False, None)
    shifted = dataclasses.replace(op.out, value=op.out.value * (1 + 1e-12))
    failed, problem = w.judge(item, dataclasses.replace(op, out=shifted))
    assert failed and problem


def test_not_converged_is_a_failed_op_not_a_wrong_output():
    w = workloads.WORKLOADS["numeric"]
    item = ("quad", logint.Polynomial((1,)), logint.Polynomial((1, 2, 1)), 0.0, 1e6, 1)
    op = _op(w, item)
    assert not op.out.converged
    assert w.judge(item, op) == (True, None)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_defect_inputs_fail_without_wrong_outputs(name):
    w = workloads.WORKLOADS[name]
    shows, problems = w.probe_defects()
    assert problems == []
    assert set(shows) <= {what for what, _ in w.defects}


def test_gate_rejects_family_coefficients_of_the_wrong_shape():
    w = workloads.WORKLOADS["families"]
    for kind, coeffs in (("base", (1, 3, 2, 4)), ("shifted", (1, 2, 1)), ("shifted", (1, Fraction(1, 2)))):
        op = _op(w, (kind, 6))
        bad = dataclasses.replace(op.out, coeffs=tuple(Fraction(c) for c in coeffs))
        failed, problem = w.judge((kind, 6), dataclasses.replace(op, out=bad))
        assert failed and problem
    op = _op(w, ("parts", 7))
    assert w.judge(("parts", 7), op) == (False, None)
    wrong = dataclasses.replace(op.out, rational=op.out.rational + logint.Polynomial((0, 1)))
    failed, problem = w.judge(("parts", 7), dataclasses.replace(op, out=wrong))
    assert failed and problem


def test_an_op_past_its_time_limit_fails_without_stalling(monkeypatch):
    monkeypatch.setattr(workloads, "OP_LIMIT_S", 0.3)
    w = workloads.WORKLOADS["batch"]
    good = workloads.Job(json.dumps({"num": "1", "den": "(x + 1)^2", "lower": "0", "upper": "1"}),
                         [1], [1, 2, 1], Fraction(0), Fraction(1))
    # Trial division up to sqrt(10^18 + 3): far longer than the limit.
    hang = workloads.Job(
        json.dumps({"num": "1", "den": "x^2 + x + 1000000000000000003", "lower": "0", "upper": "1"}),
        [1], [10**18 + 3, 1, 1], Fraction(0), Fraction(1))
    ops = w.run([good, hang, good]).ops
    assert [op.error for op in ops] == [None, "timeout", None]
    assert ops[1].latency < 2.0
    assert [w.judge(job, op) for job, op in zip([good, hang, good], ops)] == [
        (False, None), (True, None), (False, None)]


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
