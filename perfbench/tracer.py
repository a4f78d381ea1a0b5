"""Spans around the program's public functions, recorded from outside.

`Tracer.install` rebinds every traced function wherever the program
binds it (``logint.integrate.partial_fractions`` as well as
``logint.ratfunc.partial_fractions`` and ``logint.partial_fractions``)
and every traced method on its class; `uninstall` puts the originals
back.  Each call records a span (name, start, end, parent span, op id)
in flat arrays; self times are derived from the spans after the run.

Some spans also feed a counter computed from the call's arguments or
result (residues produced, recurrence steps, atoms before and after
canonicalization, ...).  That bookkeeping runs in a span of its own,
``trace.hooks``, and the benchmark's speed reference kernel in
``trace.reference``, so neither is charged to a layer: the self times
of all spans, plus the time outside every span, add up to the traced
wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

# (module, attribute) of each traced function or method, as reported.
FUNCTIONS = [
    ("cli", "main"),
    ("parsing", "parse_polynomial"),
    ("parsing", "parse_denominator"),
    ("parsing", "parse_rational"),
    ("ratfunc", "factor_denominator"),
    ("ratfunc", "partial_fractions"),
    ("integrate", "integrate_rational_log"),
    ("integrate", "integrate_multiple_pole"),
    ("integrate", "unit_pole_log_integral"),
    ("integrate", "integrate_simple_pole"),
    ("integrate", "integrate_poly_log"),
    ("integrate", "unit_pole_log_parts"),
    ("dilog", "dilog"),
    ("quadrature", "quad_log"),
    ("unimodal", "family_poly"),
    ("unimodal", "shifted_family_poly"),
    ("unimodal", "coeff_report"),
]
METHODS = [
    ("poly", "Polynomial", "shift"),
    ("poly", "Polynomial", "__mul__"),
    ("poly", "Polynomial", "__pow__"),
    ("poly", "Polynomial", "__divmod__"),
    ("closedform", "ClosedForm", "__init__"),
    ("closedform", "ClosedForm", "canonical"),
    ("closedform", "ClosedForm", "evalf"),
    ("closedform", "ClosedForm", "to_json_dict"),
]
HOOKS = "trace.hooks"
REFERENCE = "trace.reference"
# Counters fed by hooks: totals (reported per op) and maxima.
COUNTS = [
    "ratfunc.residues",
    "integrate.unit_pole_log_integral.steps",
    "closedform.ClosedForm.canonical.atoms_in",
    "closedform.ClosedForm.canonical.atoms_out",
    "quadrature.evaluations",
    "quadrature.not_converged",
]
MAXIMA = ["dilog.est_error_max", "unimodal.max_coeff_bits"]


def _span_name(module: str, *attrs: str) -> str:
    return ".".join((module,) + tuple("init" if a == "__init__" else a for a in attrs))


def span_names() -> list[str]:
    return ([_span_name(m, f) for m, f in FUNCTIONS]
            + [_span_name(m, c, f) for m, c, f in METHODS])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.ops = array("i")
        self.stack: list[int] = []
        self.op = -1  # id of the op in progress, set by the workload loop
        self.counts = dict.fromkeys(COUNTS, 0)
        self.maxima = dict.fromkeys(MAXIMA, 0)
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def open_reference(self) -> int:
        return self._open(self.names.index(REFERENCE))

    def _wrap(self, name: str, fn, hook=None):
        self.names.append(name)
        nid = len(self.names) - 1
        hook_id = self.names.index(HOOKS)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                idx = self._open(hook_id)
                try:
                    hook(self, args, result)
                finally:
                    self.close(idx)
            return result

        return traced

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method of the loaded program."""
        self.names = [HOOKS, REFERENCE]
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "logint" or k.startswith("logint."))]
        for module, attr in FUNCTIONS:
            name = _span_name(module, attr)
            original = getattr(sys.modules[f"logint.{module}"], attr)
            wrapped = self._wrap(name, original, _HOOK_FNS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for module, cls_name, attr in METHODS:
            name = _span_name(module, cls_name, attr)
            cls = getattr(sys.modules[f"logint.{module}"], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, _HOOK_FNS.get(name)))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, self time in ns) over all recorded spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            self_ns[nid] += dur[i] - child[i]
        return {name: (calls[k], self_ns[k]) for k, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """One line per span: op, span, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{self.ops[i]},{i},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.start[i]},{self.end[i]}\n")


# -- counters fed from calls ------------------------------------------------------


def _count_residues(tracer, args, result):
    tracer.counts["ratfunc.residues"] += sum(len(p.residues) for p in result.poles)


def _count_steps(tracer, args, result):
    n = args[0]
    tracer.counts["integrate.unit_pole_log_integral.steps"] += max(n - 2, 0)


def _count_atoms(tracer, args, result):
    tracer.counts["closedform.ClosedForm.canonical.atoms_in"] += len(args[0].terms())
    tracer.counts["closedform.ClosedForm.canonical.atoms_out"] += len(result.terms())


def _max_dilog_error(tracer, args, result):
    key = "dilog.est_error_max"
    tracer.maxima[key] = max(tracer.maxima[key], result.est_error)


def _count_quad(tracer, args, result):
    tracer.counts["quadrature.evaluations"] += result.evaluations
    tracer.counts["quadrature.not_converged"] += not result.converged


def _max_coeff_bits(tracer, args, result):
    key = "unimodal.max_coeff_bits"
    bits = max((c.numerator.bit_length() for c in result.coeffs), default=0)
    tracer.maxima[key] = max(tracer.maxima[key], bits)


_HOOK_FNS = {
    "ratfunc.partial_fractions": _count_residues,
    "integrate.unit_pole_log_integral": _count_steps,
    "closedform.ClosedForm.canonical": _count_atoms,
    "dilog.dilog": _max_dilog_error,
    "quadrature.quad_log": _count_quad,
    "unimodal.family_poly": _max_coeff_bits,
    "unimodal.shifted_family_poly": _max_coeff_bits,
}
