"""The four seeded workloads of the logint benchmark.

Each workload turns a seed into one pass of inputs.  The benchmark runs
the pass once untimed (the warm-up), then again and again for the timed
run, as a closed loop with one client: the next op starts when the
previous one returned.  Every repeat must give the warm-up's outputs
exactly.

Between ops, every REF_EVERY_S of op time, a pass also times a fixed
stdlib kernel (`reference_kernel`).  On a shared machine the speed of
this one process swings by up to 40% within seconds as co-tenants come
and go; the kernel slows down with the ops, so dividing an op's time by
its pass's kernel time over REF_NOMINAL_S gives the time the op would
take on a machine where the kernel takes REF_NOMINAL_S.  The program
cannot change the kernel: it uses only the interpreter and `fractions`.

    batch       specgen-shaped NDJSON jobs through `logint verify-batch`
    deep-poles  high-multiplicity poles through the symbolic API only
    numeric     the numeric oracle (quad_log) and dilog, called directly
    families    the unimodal coefficient families and unit_pole_log_parts

Inputs are rendered and drawn by this module alone, so a change to the
program cannot change what the benchmark feeds it.  The features that
drive the cost of an op (pole count and multiplicity, expanded or
factored denominator, numerator degree, dilog distance to -1, family
index) are fixed by op index, drawn from a `Deck`, or drawn from a
stream that is the same for every seed, so passes from different seeds
hold the same mix of work.

No op of a pass is meant to fail: a failed op would make the failure
count depend on how many passes fit in the run.  The inputs therefore
stay clear of the program's known defects, and each workload instead
carries a fixed list of inputs that show them (`Workload.defects`),
which the benchmark runs once, outside the timed and counted ops, and
reports as still showing or gone.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import io
import json
import math
import random
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable, Optional

import logint
import logint.cli

# Past this many seconds an op is abandoned and counted as failed, so a
# hang (trial division on a huge constant, a runaway power) cannot stall
# the run.
OP_LIMIT_S = 5.0

# Pole shifts on the half-integer grid [1/2, 5] and bounds on the
# quarter grid (0, 10], as in tests/specgen.py.
POLE_GRID = [Fraction(k, 2) for k in range(1, 11)]
BOUND_GRID = [Fraction(k, 4) for k in range(1, 41)]
CONSTANTS = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1), Fraction(-2)]

# Least distance between two poles of one denominator.  Closer poles make
# the partial-fraction coefficients large, and evalf's float sum then
# loses more than VERIFY_TOL to cancellation (ROADMAP item 3): at half a
# unit about one batch job in 4000 fails, and about a quarter of the
# deep-poles specs with poles that close.  At these gaps the worst evalf
# error seen in 2000 random specs of each shape was a fiftieth of the
# tolerance.
BATCH_POLE_GAP = 1  # multiplicity up to 4
DEEP_POLE_GAP = 2  # multiplicity up to 10

# Relative tolerance of the closed-form/oracle agreement; the CLI's
# default --tol.
VERIFY_TOL = 1e-9
# Absolute tolerance quad_log is called with; it reports converged only
# when its error estimate is within max(tol, 1e-12 |value|).
QUAD_TOL = 1e-11


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that ran past OP_LIMIT_S.

    A BaseException, so no ``except Exception`` in the program can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


def arm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)


def disarm() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0)


# How often a pass times the reference kernel, in seconds of op time,
# and the kernel time that the reported times are scaled to.
REF_EVERY_S = 0.02
REF_NOMINAL_S = 0.5e-3


def reference_kernel() -> Fraction:
    """Fixed exact-rational work, like the program's own arithmetic."""
    acc = Fraction(0)
    for k in range(1, 150):
        acc += Fraction(k, k + 1)
    return acc


@dataclass
class Op:
    """One executed op: its input index, timing, output or error."""

    index: int
    start: float
    end: float
    out: Any = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class Pass:
    """The ops of one pass, and the reference-kernel times taken between them."""

    ops: list = field(default_factory=list)
    ref: list = field(default_factory=list)
    _last: float = field(default_factory=time.perf_counter)

    def calibrate(self, tracer=None, force: bool = False) -> None:
        """Time the reference kernel if REF_EVERY_S have passed since it last ran."""
        if not force and time.perf_counter() - self._last < REF_EVERY_S:
            return
        span = tracer.open_reference() if tracer is not None else None
        # With the collector off, the kernel's time does not depend on
        # how many objects the program and the benchmark hold.
        gc.disable()
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        gc.enable()
        if span is not None:
            tracer.close(span)
        self.ref.append(t1 - t0)
        self._last = time.perf_counter()

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed this pass ran."""
        return statistics.median(self.ref) / REF_NOMINAL_S

    @property
    def busy(self) -> float:
        """Seconds spent in ops, at the machine's speed during the pass."""
        return sum(op.latency for op in self.ops)


# -- input rendering (independent of the program's own printers) ------------


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def poly_text(coeffs: list) -> str:
    """Ascending coefficients as the expanded input format, e.g. '3*x^2 - 1/2*x + 1'."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if c == 0:
            continue
        mag = abs(c)
        xpart = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        if not xpart:
            body = _frac_text(mag)
        elif mag == 1:
            body = xpart
        else:
            body = f"{_frac_text(mag)}*{xpart}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def factored_text(constant: Fraction, factors: list) -> str:
    """constant * prod (x + shift)^mult in the factored input format."""
    body = "".join(
        f"(x + {_frac_text(s)})" + (f"^{m}" if m > 1 else "") for s, m in factors
    )
    if constant == 1:
        return body
    sign = "-" if constant < 0 else ""
    return f"{sign}{_frac_text(abs(constant))}*{body}"


def expand(constant: Fraction, factors: list) -> list:
    """Ascending coefficients of constant * prod (x + shift)^mult."""
    out = [Fraction(constant)]
    for shift, mult in factors:
        for _ in range(mult):
            out = _mul(out, [shift, 1])
    return out


def _mul(a: list, b: list) -> list:
    """Product of two ascending coefficient lists."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * y
    return out


def random_coeffs(rng: random.Random, degree: int, lo: int = -9, hi: int = 9) -> list:
    """Integer coefficients of a polynomial of exactly this degree, ascending."""
    cs = [rng.randint(lo, hi) for _ in range(degree)]
    return cs + [rng.choice([c for c in range(lo, hi + 1) if c])]


# -- the workloads -------------------------------------------------------------


class Deck:
    """Seeded draws in shuffled rounds: within each round every value
    comes up once, so a pass holds each value about equally often."""

    def __init__(self, rng: random.Random, values):
        self.rng = rng
        self.values = list(values)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = self.values[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


class ShiftDeck:
    """Pole shifts for one, two or three poles: a shuffled set of
    POLE_GRID values at least `gap` apart, each set drawn from a Deck."""

    def __init__(self, rng: random.Random, gap):
        self.rng = rng
        self.decks = {n: Deck(rng, [c for c in combinations(POLE_GRID, n)
                                    if all(b - a >= gap for a, b in zip(c, c[1:]))])
                      for n in (1, 2, 3)}

    def draw(self, n: int) -> list:
        shifts = list(self.decks[n].draw())
        self.rng.shuffle(shifts)
        return shifts


class BoundsDeck:
    """Integration bounds on the quarter grid in (0, 10], a fifth of them
    from 0, as in tests/specgen.py, with the lower bounds stratified."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.zero = Deck(rng, [True] + [False] * 4)
        self.lower = Deck(rng, BOUND_GRID[:-1])

    def draw(self) -> tuple[Fraction, Fraction]:
        lower = Fraction(0) if self.zero.draw() else self.lower.draw()
        return lower, self.rng.choice([u for u in BOUND_GRID if u > lower])


class Workload:
    name = ""
    pass_ops = 0  # ops in one pass over the inputs
    has_digest = True
    # (what the defect is, an input that shows it): each input fails
    # while the defect is in the program.
    defects: list = []

    def make_items(self, rng: random.Random) -> list:
        """The `pass_ops` inputs of one pass."""
        raise NotImplementedError

    def call(self, item):
        """One op on the program; returns its output."""
        raise NotImplementedError

    def run(self, items: list, tracer=None) -> Pass:
        """One pass over items, in order."""
        done = Pass()
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.op = i
            out = error = None
            arm()
            start = time.perf_counter()
            try:
                out = self.call(item)
            except OpTimeout:
                error = "timeout"
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            disarm()
            done.ops.append(Op(i, start, end, out, error))
            done.calibrate(tracer)
        done.calibrate(tracer, force=not done.ref)
        return done

    def judge(self, item, op: Op) -> tuple[bool, Optional[str]]:
        """(failed, problem): failed counts toward error_rate; a problem
        is a wrong output and fails the correctness gate."""
        raise NotImplementedError

    def probe_defects(self) -> tuple[list, list]:
        """Run the defect inputs once.  Returns the descriptions of the
        defects that still show and the problems (wrong outputs) found."""
        shows, problems = [], []
        items = [item for _, item in self.defects]
        for (what, item), op in zip(self.defects, self.run(items).ops):
            failed, problem = self.judge(item, op)
            if failed:
                shows.append(what)
            if problem:
                problems.append(f"defect input {item}: {problem}")
        return shows, problems

    def exact(self, op: Op):
        """JSON-able exact output of an op, for the digest."""
        return None

    def digest(self, ops: list) -> str:
        """sha256 of the exact outputs of ops, as canonical JSON."""
        text = json.dumps([self.exact(op) for op in ops], sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def same(self, a: Op, b: Op) -> bool:
        """Whether two runs of the same input gave the same output."""
        return a.error == b.error and a.out == b.out


@dataclass(frozen=True)
class Job:
    """One verify-batch input line and the exact integrand it encodes."""

    line: str
    num: list
    den: list
    lower: Fraction
    upper: Fraction


class Batch(Workload):
    name = "batch"
    pass_ops = 200
    chunk = 50  # jobs per verify-batch call

    def make_items(self, rng):
        # The denominators, bounds and numerator degrees, which set most
        # of a job's cost (factor_denominator's divisor search above all),
        # come from one stream for every seed, so each pass holds the same
        # work at the same index; the seed draws the numerators'
        # coefficients.
        shape = random.Random("batch shape")
        mults = Deck(shape, range(1, 5))
        degrees = Deck(shape, range(5))
        shifts = ShiftDeck(shape, BATCH_POLE_GAP)
        constants = Deck(shape, CONSTANTS)
        bounds = BoundsDeck(shape)
        jobs = []
        for i in range(self.pass_ops):
            factors = [(s, mults.draw()) for s in shifts.draw(1 + i % 3)]
            jobs.append(make_job(random_coeffs(rng, degrees.draw()), constants.draw(), factors,
                                 *bounds.draw(), expanded=(i // 3) % 2 == 0))
        return jobs

    def run(self, items, tracer=None):
        done = Pass()
        for first in range(0, len(items), self.chunk):
            self._run_chunk(items[first:first + self.chunk], first, done, tracer)
        done.calibrate(tracer, force=not done.ref)
        return done

    def _run_chunk(self, jobs, first, done: Pass, tracer) -> None:
        """One verify-batch call over jobs; after a timeout the rest of
        the jobs are resubmitted in a fresh call."""
        ops = done.ops
        while len(ops) - first < len(jobs):
            todo = jobs[len(ops) - first:]
            base = len(ops)
            state = {"t": time.perf_counter(), "n": 0}

            def on_line(line: str, now: float) -> None:
                ops.append(Op(base + state["n"], state["t"], now, line))
                state["n"] += 1
                if tracer is not None:
                    tracer.op = base + state["n"]
                done.calibrate(tracer)
                arm()
                state["t"] = time.perf_counter()

            capture = _LineCapture(on_line)
            old_in, old_out = sys.stdin, sys.stdout
            sys.stdin = io.StringIO("".join(job.line + "\n" for job in todo))
            sys.stdout = capture
            if tracer is not None:
                tracer.op = base
            arm()
            state["t"] = time.perf_counter()
            try:
                code = logint.cli.main(["verify-batch", "--input", "-"])
            except OpTimeout:
                ops.append(Op(base + state["n"], state["t"], time.perf_counter(), None, "timeout"))
                code = None
            finally:
                disarm()
                sys.stdin, sys.stdout = old_in, old_out
            if code is not None and state["n"] < len(todo):
                # verify-batch returned without a record per line.
                ops.append(Op(base + state["n"], state["t"], time.perf_counter(), None,
                              f"verify-batch exited {code} after {state['n']} of {len(todo)} records"))

    def judge(self, item, op):
        """A record with ok false is a failed op; it is also wrong if the
        job was refused, or if its closed form misses the oracle."""
        if op.error is not None:
            return True, (None if op.error == "timeout" else op.error)
        try:
            record = json.loads(op.out)
        except json.JSONDecodeError:
            record = None
        if not isinstance(record, dict):
            return True, f"record is not one JSON object per line: {op.out[:80]!r}"
        if record.get("ok") is True:
            return False, None
        if record.get("kind") == "oracle":
            return True, None
        if record.get("kind") == "mismatch":
            _, problem = referee(record["terms"], record["value"], logint.Polynomial(item.num),
                                 logint.Polynomial(item.den), item.lower, item.upper)
            return True, problem and f"job {item.line}: {problem}"
        return True, f"job {item.line} gave record {op.out[:300]}"

    def exact(self, op):
        if op.out is None:
            return None
        record = json.loads(op.out)
        return [record.get("closed_form"), record.get("terms")]

    def same(self, a, b):
        if a.out is None or b.out is None:
            return a.error == b.error
        ra, rb = json.loads(a.out), json.loads(b.out)
        ra.pop("index", None)
        rb.pop("index", None)
        return ra == rb


def make_job(num: list, constant: Fraction, factors: list, lower: Fraction, upper: Fraction,
             expanded: bool) -> Job:
    """The verify-batch job of num / (constant * prod (x + shift)^mult)."""
    den = expand(constant, factors)
    job = {"num": poly_text(num), "den": poly_text(den) if expanded else factored_text(constant, factors),
           "lower": _frac_text(lower), "upper": _frac_text(upper), "power": 1}
    return Job(json.dumps(job), num, den, lower, upper)


Batch.defects = [
    ("verify-batch reports a mismatch on poles half a unit apart (evalf cancellation)",
     make_job([-8, -3, 9, -1, 4], Fraction(2), [(Fraction(9, 2), 4), (Fraction(4), 4)],
              Fraction(23, 4), Fraction(10), expanded=False)),
]


class _LineCapture(io.TextIOBase):
    """stdout stand-in that timestamps each complete line as it is written."""

    def __init__(self, on_line: Callable[[str, float], None]):
        self._on_line = on_line
        self._buf = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self._buf += s
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            self._on_line(line, time.perf_counter())
        return len(s)


class DeepPoles(Workload):
    name = "deep-poles"
    pass_ops = 200

    def make_items(self, rng):
        # As in Batch, the denominators and bounds come from one stream
        # for every seed; the seed draws the numerators' coefficients.
        shape = random.Random("deep-poles shape")
        shifts = ShiftDeck(shape, DEEP_POLE_GAP)
        constants = Deck(shape, CONSTANTS)
        bounds = BoundsDeck(shape)
        items = []
        for i in range(self.pass_ops):
            # The shape, which sets the cost, is fixed by the index: highest
            # multiplicity 1..10, one to three poles, numerator degree 0..8.
            top = 1 + i % 10
            n_poles = 1 + (i // 10) % 3
            mults = [top] + [1 + (3 * i + 7 * k) % top for k in range(1, n_poles)]
            factors = tuple(zip(shifts.draw(n_poles), mults))
            lower, upper = bounds.draw()
            items.append((
                logint.Polynomial(random_coeffs(rng, (4 * i + i // 10) % 9)),
                logint.FactoredDenominator(constant=constants.draw(), factors=factors),
                lower, upper,
            ))
        return items

    def call(self, item):
        num, den, lower, upper = item
        spec = logint.IntegralSpec(numerator=num, denominator=den, lower=lower, upper=upper)
        form = logint.integrate_rational_log(spec)
        return form.evalf(), form.to_json_dict()

    def judge(self, item, op):
        if op.error is not None:
            return True, (None if op.error == "timeout" else f"spec {item}: {op.error}")
        num, den, lower, upper = item
        value, form_json = op.out
        rebuilt = logint.ClosedForm.from_json_dict(form_json).evalf()
        if rebuilt != value:
            return True, f"spec {item}: evalf {value!r} but its JSON evaluates to {rebuilt!r}"
        failed, problem = referee(form_json["terms"], value, num, den.expand(), lower, upper)
        return failed, problem and f"spec {item}: {problem}"

    def exact(self, op):
        return None if op.out is None else op.out[1]


DeepPoles.defects = [
    ("evalf misses the exact value on poles half a unit apart at multiplicity 10 and 5",
     (logint.Polynomial((1,)),
      logint.FactoredDenominator(constant=1, factors=((Fraction(4), 10), (Fraction(9, 2), 5))),
      Fraction(1), Fraction(2))),
]


def referee(terms: list, value: float, num, den, lower, upper) -> tuple[bool, Optional[str]]:
    """Judge a closed form and its evalf against the oracle on the raw (P, Q).

    The closed form is wrong if, summed at 60 digits, it misses a
    converged oracle.  evalf alone missing it is a failed op: the float
    sum loses accuracy when large terms cancel.
    """
    oracle = logint.quad_log((num, den), lower, upper, m=1, tol=QUAD_TOL)
    if not oracle.converged:
        return True, None
    tol = VERIFY_TOL * (1.0 + abs(oracle.value))
    exact = closed_form_value(terms)
    if abs(exact - oracle.value) > tol + oracle.abs_error_estimate:
        return True, f"closed form is {exact!r} at 60 digits, oracle {oracle.value!r}"
    return abs(value - oracle.value) > tol, None


def closed_form_value(terms: list) -> float:
    """Value of a closed form's JSON terms, summed at 60 digits with mpmath."""
    import mpmath

    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for term in terms:
            c = Fraction(term["coeff"])
            atom = _atom_value(json.dumps(term["atom"], sort_keys=True))
            total += mpmath.mpf(c.numerator) / c.denominator * atom
        return float(total)


@functools.lru_cache(maxsize=4096)
def _atom_value(key: str):
    """An atom of the closed-form vocabulary (as JSON) at 60 digits."""
    import mpmath

    atom = json.loads(key)

    def q(field):
        f = Fraction(atom[field])
        return mpmath.mpf(f.numerator) / f.denominator

    with mpmath.workdps(60):
        kind = atom["kind"]
        if kind == "unit":
            return mpmath.mpf(1)
        if kind == "pi2":
            return mpmath.pi ** 2
        if kind == "log":
            return mpmath.log(q("arg"))
        if kind == "logpow":
            return mpmath.log(q("arg")) ** int(atom["power"])
        if kind == "logprod":
            return mpmath.log(q("first")) * mpmath.log(q("second"))
        if kind == "dilog":
            return mpmath.polylog(2, q("arg"))
    raise ValueError(f"unknown atom kind {kind!r}")


class Numeric(Workload):
    name = "numeric"
    pass_ops = 400
    has_digest = False

    def make_items(self, rng):
        # Stratified draws: one deck of 16 equal slices per kind of draw,
        # and a value near the middle of its slice.  The cost of a dilog
        # op grows like 10^u, so a draw anywhere in the top slice would
        # let the seed move a whole pass by tens of ms.
        slices = {k: Deck(rng, range(16)) for k in ("upper", "width", "above", "below", "far")}
        powers = Deck(rng, range(1, 4))

        def stratified(kind, lo, hi):
            return lo + (hi - lo) * (slices[kind].draw() + rng.uniform(0.4, 0.6)) / 16

        items = []
        for i in range(self.pass_ops):
            block = i // 5
            if i % 5 < 3:
                if block % 2 == 0:  # rational poles
                    shifts = rng.sample(POLE_GRID, 1 + block // 2 % 2)
                    den = expand(Fraction(1), [(s, rng.randint(1, 2)) for s in shifts])
                else:  # irrational or complex poles: x^2 + p x + q, p^2 - 4q not a square
                    den = _quadratic(rng)
                    if block // 2 % 2:
                        den = _mul(den, [rng.choice(POLE_GRID), Fraction(1)])
                num = random_coeffs(rng, rng.randint(0, 2), -5, 5)
                upper = 10.0 ** stratified("upper", -1.0, 6.0)
                # Never from 0: there quad_log misses its tolerance now and
                # then at any upper bound (see `defects`).
                lower = upper * 10.0 ** -stratified("width", 0.3, 3.0)
                items.append(("quad", logint.Polynomial(num), logint.Polynomial(den),
                              lower, upper, powers.draw()))
                continue
            side = (2 * block + i % 5 - 3) % 5  # 0..4 in turn: 64, 64, 32 per pass
            if side in (0, 2):
                x = -(1.0 - 10.0 ** -stratified("above", 0.3, 4.0))  # toward -1 from above
            elif side in (1, 3):
                x = -(1.0 + 10.0 ** -stratified("below", 0.3, 4.0))  # toward -1 from below
            else:
                x = -(10.0 ** stratified("far", 0.0, 6.0))  # out to -1e6
            items.append(("dilog", x))
        return items

    def call(self, item):
        if item[0] == "dilog":
            return logint.dilog(item[1])
        _, num, den, lower, upper, m = item
        return logint.quad_log((num, den), lower, upper, m=m, tol=QUAD_TOL)

    def judge(self, item, op):
        if op.error is not None:
            return True, None  # a raised NoConvergence or a timeout: failed, not wrong
        value, err = reference(item)
        out = op.out
        if item[0] == "dilog":
            if abs(out.value - value) > out.est_error + err:
                return True, (f"dilog({item[1]!r}) = {out.value!r} off the mpmath value "
                              f"{value!r} by more than its est_error {out.est_error:.3g}")
            return False, None
        if not out.converged:
            return True, None
        allowed = out.abs_error_estimate + QUAD_TOL + 1e-12 * abs(value) + err
        if abs(out.value - value) > allowed:
            return True, (f"quad_log{item[1:]!r} = {out.value!r} reports converged, but mpmath "
                          f"gives {value!r}; error estimate {out.abs_error_estimate:.3g}")
        return False, None


Numeric.defects = [
    ("quad_log does not converge on ln x/(1+x)^2 over [0, 1e6]",
     ("quad", logint.Polynomial((1,)), logint.Polynomial((1, 2, 1)), 0.0, 1e6, 1)),
]


def _quadratic(rng: random.Random) -> list:
    """x^2 + p x + q whose roots are irrational or complex."""
    while True:
        p, q = rng.randint(1, 9), rng.randint(1, 12)
        disc = p * p - 4 * q
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            return [Fraction(q), Fraction(p), Fraction(1)]


def reference(item) -> tuple[float, float]:
    """mpmath value of a numeric op, with a bound on the reference's error.

    dilog: mpmath.polylog at 30 digits.  quad: tanh-sinh on x = e^t,
    split at every 4 units of t, in mpmath's double-precision context
    (20 digits where that fails); none of scipy's QUADPACK or of
    quad_log's splitting is shared.
    """
    import mpmath

    if item[0] == "dilog":
        with mpmath.workdps(30):
            value = float(mpmath.polylog(2, item[1]))
        return value, 2.0 * math.ulp(value)
    _, num, den, lower, upper, m = item
    lo = math.log(lower) if lower > 0 else -60.0
    hi = math.log(upper)
    pts = [lo] + [float(t) for t in range(-56, 16, 4) if lo < t < hi] + [hi]

    def integrate(ctx, convert):
        nc = [convert(c) for c in reversed(num.coeffs)]
        dc = [convert(c) for c in reversed(den.coeffs)]

        def g(t):
            x = ctx.exp(t)
            return ctx.polyval(nc, x) / ctx.polyval(dc, x) * t ** m * x

        return ctx.quad(g, pts, error=True)

    try:
        value, err = integrate(mpmath.fp, float)
    except ZeroDivisionError:
        # fp's error estimate can divide by a zero difference; redo the
        # sum at 20 digits.
        with mpmath.workdps(20):
            value, err = integrate(mpmath.mp, lambda c: mpmath.mpf(c.numerator) / c.denominator)
    if lower == 0:
        # int_{-inf}^{-60}: |R| there is |R(0)|, and |t|^m e^t integrates
        # to at most 61^m e^-60.
        err += abs(num.coeffs[0] / den.coeffs[0]) * 61.0 ** m * math.exp(-60.0)
    return float(value), float(err) + 1e-15 * abs(value)


class Families(Workload):
    name = "families"
    # Each pass runs every n of each range the same number of times
    # (40 ops per kind); the seed sets the order.
    ranges = {"shifted": (3, 42), "base": (3, 42), "parts": (2, 21)}
    pass_ops = 120

    def make_items(self, rng):
        kinds = list(self.ranges)
        decks = {k: Deck(rng, range(lo, hi + 1)) for k, (lo, hi) in self.ranges.items()}
        return [(kinds[i % 3], decks[kinds[i % 3]].draw()) for i in range(self.pass_ops)]

    def call(self, item):
        kind, n = item
        if kind == "parts":
            return logint.unit_pole_log_parts(n)
        return logint.coeff_report(n, kind)

    def judge(self, item, op):
        kind, n = item
        if op.error is not None:
            return True, (None if op.error == "timeout" else f"{kind} n={n}: {op.error}")
        if kind == "parts":
            # The paper's link between the two recurrences:
            # -(n-1)! Z_n(b) = b (1+b) t_n(b).
            lhs = [-math.factorial(n - 1) * c for c in op.out.rational.coeffs]
            t = list(logint.family_poly(n).coeffs)
            rhs = _mul([0, 1, 1], t) if t else []
            while rhs and rhs[-1] == 0:
                rhs.pop()
            if lhs != rhs:
                return True, f"unit_pole_log_parts({n}) disagrees with family_poly({n})"
            return False, None
        cs = op.out.coeffs
        if not all(c.denominator == 1 and c >= 0 for c in cs):
            return True, f"{kind} n={n}: a coefficient is not a non-negative integer"
        if kind == "shifted" and any(cs[k] < cs[k - 1] for k in range(1, len(cs))):
            return True, f"s_{n} is not nondecreasing"
        if kind == "base":
            rises = [k for k in range(len(cs) - 1) if cs[k] < cs[k + 1]]
            falls = [k for k in range(len(cs) - 1) if cs[k] > cs[k + 1]]
            if rises and falls and max(rises) > min(falls):
                return True, f"t_{n} is not unimodal"
        return False, None

    def exact(self, op):
        if op.out is None:
            return None
        if isinstance(op.out, logint.LogIntegralParts):
            return [[str(c) for c in p.coeffs]
                    for p in (op.out.log_b, op.out.log_one_plus_b, op.out.rational)]
        return [str(c) for c in op.out.coeffs]


WORKLOADS = {w.name: w for w in (Batch(), DeepPoles(), Numeric(), Families())}
