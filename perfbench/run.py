"""Benchmark for logint: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the root of a checkout; the program is imported from ./src.
Every workload runs in this one process on one thread, as a closed loop
with a single client: each op starts when the previous one returned.

A workload is one pass of seeded inputs (see workloads.py).  Set-up is
the import, the input generation and one untimed warm-up pass; the
timed run repeats the pass until --seconds have passed.  ops_per_s is
ops per pass over the median pass time, and op_p50_ms / op_p95_ms are
percentiles of all timed ops.  Every time is scaled to the reference
machine speed measured between ops (workloads.REF_NOMINAL_S), so runs
made while co-tenants slow the machine down agree with the others.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics of BENCHMARK.json (setup_s, ops_per_s, op_p50_ms,
op_p95_ms, peak_rss_mb); error_rate is failed / attempted and is carried
by the "attempted" and "failed" fields.  With --trace 1 the timed run is
followed by one traced pass, and the JSON holds the per-layer metrics
instead; the spans are written to .perfbench_out/spans-<workload>.csv.

Every output is checked outside the timed region; the exit code is 1 if
any check fails and 2 if the benchmark cannot run.  The inputs avoid
the program's known defects, so that no op fails; the inputs that show
them are run once after the checks and reported, outside the counts.
"""

import os

# One thread for BLAS/OpenMP, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 1
# Set-ups in a fresh interpreter per run; setup_s is their median.
SETUP_SAMPLES = 3
# Timed passes per run at the least.
MIN_PASSES = 4
WORKLOAD_NAMES = ("batch", "deep-poles", "numeric", "families")


def load_program():
    """Import logint from this checkout's src, then the workloads."""
    src = ROOT / "src"
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import logint

    if not Path(logint.__file__).resolve().is_relative_to(src):
        raise ImportError(f"logint was imported from {logint.__file__}, not from {src}")
    import workloads

    return workloads


def setup(name: str, seed: int):
    """Import the program, generate the inputs and run the warm-up pass.

    Returns (workload, items, warm-up pass, seconds taken at the
    reference speed, as measured during the warm-up).
    """
    t0 = time.perf_counter()
    workloads = load_program()
    w = workloads.WORKLOADS[name]
    items = w.make_items(random.Random(f"{name}:{seed}"))
    warm = w.run(items)
    return w, items, warm, (time.perf_counter() - t0) / warm.slowdown


def setup_samples(name: str, seed: int, samples: int) -> list[float]:
    """Set-up times of `samples` fresh interpreters."""
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def src_lines() -> dict[str, int]:
    return {p.stem: len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((ROOT / "src" / "logint").glob("*.py"))}


def gate(w, items, warm, passes) -> tuple[list[bool], list[str]]:
    """Judge every warm-up op; every later op must repeat its warm-up
    output exactly.  Returns the failed flag of each warm-up op and the
    problems (wrong outputs) found."""
    problems: list[str] = []
    failed = []
    for item, op in zip(items, warm.ops):
        flag, problem = w.judge(item, op)
        failed.append(flag)
        if problem:
            problems.append(problem)
    for done in passes:
        for op in done.ops:
            if not w.same(warm.ops[op.index], op):
                problems.append(f"op {op.index} gave another output than in the warm-up")
    return failed, problems


def measure(name: str, seed: int, seconds: float, trace: bool,
            samples: int = SETUP_SAMPLES, min_passes: int = MIN_PASSES) -> dict:
    fresh = "logint" not in sys.modules  # this set-up imports the program
    w, items, warm, setup_main = setup(name, seed)
    # The other set-ups run first: they also bring the machine to the
    # sustained load the timed passes run under.
    setup_s = None
    if not trace:
        setup_s = statistics.median(
            ([setup_main] if fresh else []) + setup_samples(name, seed, samples - fresh))
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(w.run(items))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = w.run(items, tracer=tracer)
        finally:
            tracer.uninstall()

    t0 = time.perf_counter()
    failed_warm, problems = gate(w, items, warm, passes + ([traced] if trace else []))
    defects, wrong = w.probe_defects()
    problems += wrong
    gate_s = time.perf_counter() - t0

    timed = [op for done in passes for op in done.ops]
    failed = sum(failed_warm[op.index] or op.error is not None for op in timed)
    info = {"passes": len(passes), "pass_ops": len(items), "failed": failed,
            "attempted": len(timed), "setup_main_s": setup_main, "gate_s": gate_s,
            "wall_s": timed[-1].end - timed[0].start,
            "slowdown": statistics.median(done.slowdown for done in passes),
            "src_lines": src_lines(), "defects": defects}
    if w.has_digest:
        info["digest"] = w.digest(warm.ops)
        if seed == DEFAULT_SEED:
            recorded = json.loads((HERE / "digests.json").read_text())[name]
            if info["digest"] != recorded:
                problems.append(f"exact outputs changed: digest {info['digest']} != {recorded}")

    pass_s = statistics.median(done.busy / done.slowdown for done in passes)
    if trace:
        metrics = layer_metrics(tracer, traced, pass_s)
        tracer.write(ROOT / ".perfbench_out" / f"spans-{name}.csv")
    else:
        lat = [op.latency / done.slowdown for done in passes for op in done.ops]
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(items) / pass_s,
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p95_ms": statistics.quantiles(lat, n=20)[-1] * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
    return {"correct": not problems, "attempted": len(timed), "failed": failed,
            "metrics": metrics, "info": info, "problems": problems, "defects": w.defects}


def layer_metrics(tracer, traced, untraced_pass_s: float) -> dict:
    """Per-op layer metrics of the traced pass, at the reference speed."""
    import tracer as tracing

    n = len(traced.ops)
    ms = 1e3 / traced.slowdown / n  # seconds in the pass -> ms per op
    times = tracer.self_times()
    out = {}
    for name in tracing.span_names():
        calls, self_ns = times[name]
        out[f"{name}.calls"] = calls / n
        out[f"{name}.self_ms"] = self_ns / 1e9 * ms
    for key, value in tracer.counts.items():
        out[key] = value / n
    out.update(tracer.maxima)
    out["trace.hooks_ms"] = times[tracing.HOOKS][1] / 1e9 * ms
    out["trace.reference_ms"] = times[tracing.REFERENCE][1] / 1e9 * ms
    wall = traced.ops[-1].end - traced.ops[0].start
    spans_s = sum(self_ns for _, self_ns in times.values()) / 1e9
    out["trace.wall_ms"] = wall * ms
    out["trace.untraced_ms"] = (wall - spans_s) * ms
    out["trace.overhead_pct"] = (traced.busy / traced.slowdown / untraced_pass_s - 1.0) * 100.0
    return out


def report(name: str, result: dict, spec: dict, trace: bool) -> dict:
    """Print the metrics of one workload by name and unit; return them
    in BENCHMARK.json's order and form."""
    info = result["info"]
    print(f"{name}: {info['passes']} timed passes of {info['pass_ops']} ops in "
          f"{info['wall_s']:.2f} s, one client, closed loop; machine {info['slowdown']:.3f}x "
          f"slower than the reference (set-up {info['setup_main_s']:.2f} s, "
          f"checks {info['gate_s']:.2f} s)")
    rows = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        key = entry["name"]
        value = result["metrics"][key]
        rows[key] = {"value": value, "unit": entry["unit"]}
        print(f"  {key:<48} {value:.6g} {entry['unit']}")
    print(f"  {'error_rate':<48} {info['failed'] / info['attempted']:.6g} ratio "
          f"({info['failed']} of {info['attempted']} ops failed)")
    print(f"  src_lines {json.dumps(info['src_lines'])}")
    for what, _ in result["defects"]:
        state = "still shows" if what in info["defects"] else "no longer shows"
        print(f"  known defect, {state} (not in the counts): {what}")
    if "digest" in info:
        print(f"  digest {info['digest']}")
    for problem in result["problems"][:20]:
        print(f"  WRONG: {problem}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup(args.workload, args.seed)[3]}))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = {n: measure(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except (ImportError, OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: cannot run the benchmark: {exc}", file=sys.stderr)
        return 2

    rows = {n: report(n, r, spec, bool(args.trace)) for n, r in results.items()}
    if args.workload == "all":
        metrics = {f"{n}.{k}": v for n, r in rows.items() for k, v in r.items()}
    else:
        metrics = rows[args.workload]
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
