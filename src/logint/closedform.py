"""Symbolic closed forms: rational combinations of product atoms.

A ClosedForm is a finite sum  sum_i coeff_i * atom_i  with Fraction
coefficients.  Every atom is one product

    pi^(2*pi2) * prod_i (ln q_i)^k_i * Li2(d)

of a power of pi^2, powers k >= 1 of logs of rationals q > 0 (sorted by
q), and at most one dilogarithm at a rational d <= 1/2.  The products
that elementary logarithmic integrals of rational functions produce come
in six kinds, and an atom of any other shape is refused:

    kind      product                 built by           printed
    unit      the empty product       UNIT               1
    pi2       pi^2                    PI_SQUARED_ATOM    pi^2
    log       ln q                    Log(q)             ln(q)
    logpow    (ln q)^k, k >= 2        Log(q, k)          ln(q)^k
    logprod   ln q1 * ln q2, q1 <= q2 LogProd(q1, q2)    ln(q1)*ln(q2)
    dilog     Li2(d)                  Dilog(d)           Li2(d)

An atom may hold factors that reduce (ln 1, ln q with q < 1, ln q ln q,
Li2(0), Li2(-1)), but a ClosedForm is canonical by construction: it
applies one rule per factor when it is built and merges duplicates, so
two forms are equal exactly when their term tuples are.  All arithmetic
goes through ``combine``, which sums scalar multiples of forms.
Numeric evaluation goes through ``evalf``.  Serialization to/from JSON
is exact: coefficients and atom arguments travel as fraction strings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .dilog import PI_SQUARED, dilog
from .errors import DomainError
from .poly import Scalar, exact, integer_at_least, join_signed, positive

# One row per atom kind, in sort order: the JSON kind, the power of
# pi^2, one (argument, power) pair of JSON field names per log factor
# (power None: the factor is ln q; else (ln q)^k with k >= 2), and the
# JSON field of the dilog argument (None: no dilog).
_KINDS = (
    ("unit", 0, (), None),
    ("pi2", 1, (), None),
    ("log", 0, (("arg", None),), None),
    ("logpow", 0, (("arg", "power"),), None),
    ("logprod", 0, (("first", None), ("second", None)), None),
    ("dilog", 0, (), "arg"),
)


def _shape(pi2: int, logs: Iterable, dilog_arg: Optional[Fraction]) -> tuple:
    # Which log factors have a power above 1 tells ln q from (ln q)^k.
    return (pi2, tuple([k > 1 for _, k in logs]), dilog_arg is not None)


_KIND_OF_SHAPE = {
    (pi2, tuple([power is not None for _, power in fields]), arg is not None): i
    for i, (_, pi2, fields, arg) in enumerate(_KINDS)
}


@dataclass(frozen=True)
class Atom:
    """pi^(2*pi2) * prod (ln q)^k over ``logs`` * Li2(dilog)."""

    pi2: int = 0
    logs: tuple[tuple[Fraction, int], ...] = ()
    dilog: Optional[Fraction] = None
    _kind: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        logs = [
            (positive(q, "log argument"), integer_at_least(k, 1, "log power"))
            for q, k in self.logs
        ]
        d = self.dilog
        if d is not None:
            d = exact(d, "Li2 argument")
            if d > Fraction(1, 2):
                raise DomainError(f"Li2 argument must be <= 1/2, got {d}")
        pi2 = integer_at_least(self.pi2, 0, "power of pi^2")
        kind = _KIND_OF_SHAPE.get(_shape(pi2, logs, d))
        if kind is None:
            raise DomainError(f"no atom kind is the product {self!r}")
        _init(self, pi2, tuple(sorted(logs)), d, kind)

    def __hash__(self) -> int:
        return self._hash

    def value(self) -> float:
        try:
            v = PI_SQUARED ** self.pi2
            for q, k in self.logs:
                v *= _log_fraction(q) ** k
        except OverflowError:
            raise DomainError(f"{self} is beyond floating-point range") from None
        if self.dilog is not None:
            v *= dilog(self.dilog).value
        return v

    def to_json_dict(self) -> dict:
        kind, _, fields, dilog_field = _KINDS[self._kind]
        out: dict = {"kind": kind}
        for (q, k), (arg, power) in zip(self.logs, fields):
            out[arg] = str(q)
            if power is not None:
                out[power] = k
        if dilog_field is not None:
            out[dilog_field] = str(self.dilog)
        return out

    def __str__(self) -> str:
        factors = ["pi^2"] * self.pi2
        factors += [f"ln({q})" if k == 1 else f"ln({q})^{k}" for q, k in self.logs]
        if self.dilog is not None:
            factors.append(f"Li2({self.dilog})")
        return "*".join(factors) or "1"


def _init(atom: Atom, pi2: int, logs: tuple, d: Optional[Fraction], kind: int) -> Atom:
    set_field = object.__setattr__
    set_field(atom, "pi2", pi2)
    set_field(atom, "logs", logs)
    set_field(atom, "dilog", d)
    set_field(atom, "_kind", kind)
    set_field(atom, "_hash", hash((pi2, logs, d)))
    return atom


def _make(pi2: int, logs: tuple, d: Optional[Fraction]) -> Atom:
    # An atom from factors that are already valid and sorted: no checks.
    return _init(object.__new__(Atom), pi2, logs, d, _KIND_OF_SHAPE[_shape(pi2, logs, d)])


UNIT = Atom()
PI_SQUARED_ATOM = Atom(pi2=1)


def Log(q: Scalar, k: int = 1) -> Atom:
    """(ln q)^k for rational q > 0 and k >= 1."""
    return Atom(logs=((q, k),))


def LogProd(q1: Scalar, q2: Scalar) -> Atom:
    """ln q1 * ln q2 for rational q1, q2 > 0."""
    return Atom(logs=((q1, 1), (q2, 1)))


def Dilog(q: Scalar) -> Atom:
    """Li2(q) for rational q <= 1/2."""
    return Atom(dilog=q)


def _log_fraction(q: Fraction) -> float:
    # ln(p/q) via two integer logs keeps precision for extreme fractions
    # where float(q) would overflow or underflow.  Near q = 1 the two logs
    # cancel, so there it is log1p of (p - q)/q, an integer quotient that
    # Python rounds correctly.
    v = math.log(q.numerator) - math.log(q.denominator)
    if abs(v) < 2.0**-10:
        return math.log1p((q.numerator - q.denominator) / q.denominator)
    return v


def _reduce(atom: Atom, c: Fraction) -> Optional[tuple[Atom, Fraction]]:
    """The canonical term equal to c * atom, or None if it vanishes.

    One rule per factor:
      ln 1 = 0                    the term vanishes;
      ln q = -ln(1/q), q < 1      so (ln q)^k picks up (-1)^k;
      ln q * ln q = (ln q)^2      equal log arguments add their powers;
      Li2(0) = 0                  the term vanishes;
      Li2(-1) = -pi^2/12          the dilog becomes one more pi^2.
    An atom that is already canonical comes back as it is.
    """
    pi2, d = atom.pi2, atom.dilog
    if d is not None:
        if d == 0:
            return None
        if d == -1:
            pi2, d, c = pi2 + 1, None, -c / 12
    upright: list[tuple[Fraction, int]] = []
    for q, k in atom.logs:
        if not q > 1:
            if q == 1:
                return None
            q = 1 / q
            if k % 2:
                c = -c
        upright.append((q, k))
    merged: list[tuple[Fraction, int]] = []
    for q, k in sorted(upright):
        if merged and merged[-1][0] == q:
            k += merged.pop()[1]
        merged.append((q, k))
    logs = tuple(merged)
    if pi2 == atom.pi2 and logs == atom.logs:
        return atom, c
    return _make(pi2, logs, d), c


def _read_object(value, what: str) -> Mapping:
    # A malformed document is a ValueError, like a malformed field.
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def _read_fraction(d: Mapping, key: str) -> Fraction:
    # Only the fraction strings the writer emits: a JSON number would
    # arrive as a float, which is not exact.
    text = d.get(key)
    if not isinstance(text, str):
        raise ValueError(f"{key!r} must be a fraction string, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{key!r} has a zero denominator: {text!r}") from None


def _read_power(d: Mapping, key: str) -> int:
    power = d.get(key)
    if not isinstance(power, int) or isinstance(power, bool):
        raise ValueError(f"{key!r} must be an integer, got {power!r}")
    return power


def atom_from_json_dict(d: Mapping) -> Atom:
    """The atom whose ``to_json_dict`` is ``d``."""
    d = _read_object(d, "an atom")
    for kind, (name, pi2, fields, dilog_field) in enumerate(_KINDS):
        if name == d.get("kind"):
            break
    else:
        raise ValueError(f"unknown atom kind {d.get('kind')!r}")
    logs = tuple(
        (_read_fraction(d, arg), 1 if power is None else _read_power(d, power))
        for arg, power in fields
    )
    arg = None if dilog_field is None else _read_fraction(d, dilog_field)
    atom = Atom(pi2, logs, arg)
    if atom._kind != kind:
        raise ValueError(f"{d} is not an atom of kind {name!r}")
    return atom


def _canonical_terms(acc: Mapping[Atom, Fraction]) -> tuple[tuple[Atom, Fraction], ...]:
    # The stored form of a sum of reduced atoms: its nonzero terms, sorted
    # once here by atom kind, then logs, then dilog.
    nonzero = [(a, c) for a, c in acc.items() if c]
    return tuple(sorted(nonzero, key=lambda t: (t[0]._kind, t[0].logs, t[0].dilog)))


class ClosedForm:
    """Finite rational combination of atoms, canonical by construction."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Union[Mapping[Atom, Scalar], Iterable[tuple[Atom, Scalar]]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Atom, Fraction] = {}
        for atom, coeff in items:
            if not isinstance(atom, Atom):
                raise TypeError(f"expected an Atom, got {type(atom).__name__}")
            c = exact(coeff, "coefficient")
            if c and (term := _reduce(atom, c)):
                atom, c = term
                acc[atom] = acc.get(atom, 0) + c
        self._terms = _canonical_terms(acc)

    # -- constructors ---------------------------------------------------

    @classmethod
    def of(cls, atom: Atom, coeff: Scalar = 1) -> "ClosedForm":
        return cls(((atom, coeff),))

    @classmethod
    def combine(cls, parts: Iterable[tuple[Scalar, "ClosedForm"]]) -> "ClosedForm":
        """sum_i c_i * form_i, accumulated in one dict and built once; the
        atoms are already reduced, so only zero coefficients have to go."""
        acc: dict[Atom, Fraction] = {}
        for scalar, form in parts:
            for atom, c in form._terms:
                acc[atom] = acc.get(atom, 0) + scalar * c
        out = object.__new__(cls)
        out._terms = _canonical_terms(acc)
        return out

    # -- inspection -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> tuple[tuple[Atom, Fraction], ...]:
        """The nonzero terms in canonical order: atom kind, then logs,
        then dilog."""
        return self._terms

    # -- linear algebra ---------------------------------------------------

    def __add__(self, other: "ClosedForm") -> "ClosedForm":
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return ClosedForm.combine(((1, self), (1, other)))

    def __sub__(self, other: "ClosedForm") -> "ClosedForm":
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return ClosedForm.combine(((1, self), (-1, other)))

    def __neg__(self) -> "ClosedForm":
        return ClosedForm.combine(((-1, self),))

    def __mul__(self, scalar: Scalar) -> "ClosedForm":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return ClosedForm.combine(((scalar, self),))

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "ClosedForm":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (Fraction(1) / Fraction(scalar))

    # -- canonicalization -------------------------------------------------

    def canonical(self) -> "ClosedForm":
        """The canonical form: every ClosedForm already is one."""
        return self

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    # -- evaluation -----------------------------------------------------------

    def evalf(self) -> float:
        """Numeric value; exactly-rounded sum of the term values.  A
        coefficient, term or sum beyond float range is a DomainError."""
        try:
            terms = [float(c) * atom.value() for atom, c in self._terms]
            if all(map(math.isfinite, terms)):
                value = math.fsum(terms)
                if math.isfinite(value):
                    return value
        except OverflowError:  # float(c), or the partial sums in fsum
            pass
        raise DomainError("the value of the closed form is beyond floating-point range")

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"atom": atom.to_json_dict(), "coeff": str(c)}
                for atom, c in self._terms
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ClosedForm":
        entries = _read_object(data, "a closed form").get("terms")
        if not isinstance(entries, list):
            raise ValueError(f"'terms' must be a list, got {entries!r}")
        terms = []
        for entry in entries:
            entry = _read_object(entry, "a term")
            atom = atom_from_json_dict(entry.get("atom"))
            terms.append((atom, _read_fraction(entry, "coeff")))
        return cls(terms)

    @classmethod
    def from_json(cls, text: str) -> "ClosedForm":
        return cls.from_json_dict(json.loads(text))

    # -- rendering ---------------------------------------------------------------

    def __str__(self) -> str:
        return join_signed((c, _render_term(atom, abs(c))) for atom, c in self._terms)

    def __repr__(self) -> str:
        return f"ClosedForm<{self}>"


def _render_term(atom: Atom, c: Fraction) -> str:
    cs = str(c) if c.denominator == 1 else f"({c})"
    if atom == UNIT:
        return cs if c.denominator == 1 else str(c)
    if c == 1:
        return str(atom)
    return f"{cs}*{atom}"
