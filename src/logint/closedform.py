"""Symbolic closed forms: rational combinations of a small atom set.

A ClosedForm is a finite sum  sum_i coeff_i * atom_i  with Fraction
coefficients.  The atoms are exactly the quantities that elementary
logarithmic integrals of rational functions can produce:

    Unit            the constant 1
    PiSquared       pi^2
    Log(q)          ln q,  rational q > 0
    LogPow(q, k)    (ln q)^k,  k >= 1
    LogProd(q1,q2)  ln q1 * ln q2, stored with q1 <= q2
    Dilog(q)        Li2(q),  rational q <= 1/2

Atoms are permissive (Log(1), Dilog(0) and Dilog(-1) are legal atoms),
but a ClosedForm is canonical by construction: it rewrites every such
reducible atom away and merges duplicates when it is built, so two forms
are equal exactly when their term dicts are.
Numeric evaluation goes through ``evalf``.  Serialization to/from JSON
is exact: coefficients and atom arguments travel as fraction strings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .dilog import dilog
from .errors import DomainError
from .poly import Scalar, exact


class Atom:
    """Base for the closed-form vocabulary; subclasses are frozen."""

    _rank: int = -1

    def value(self) -> float:
        raise NotImplementedError

    def sort_key(self) -> tuple:
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Unit(Atom):
    _rank = 0

    def value(self) -> float:
        return 1.0

    def sort_key(self) -> tuple:
        return (self._rank,)

    def to_json_dict(self) -> dict:
        return {"kind": "unit"}

    def __str__(self) -> str:
        return "1"


@dataclass(frozen=True)
class PiSquared(Atom):
    _rank = 1

    def value(self) -> float:
        return math.pi * math.pi

    def sort_key(self) -> tuple:
        return (self._rank,)

    def to_json_dict(self) -> dict:
        return {"kind": "pi2"}

    def __str__(self) -> str:
        return "pi^2"


@dataclass(frozen=True)
class Log(Atom):
    arg: Fraction
    _rank = 2

    def __post_init__(self) -> None:
        arg = exact(self.arg, "Log argument")
        if arg <= 0:
            raise DomainError(f"Log argument must be positive, got {arg}")
        object.__setattr__(self, "arg", arg)

    def value(self) -> float:
        return _log_fraction(self.arg)

    def sort_key(self) -> tuple:
        return (self._rank, self.arg)

    def to_json_dict(self) -> dict:
        return {"kind": "log", "arg": str(self.arg)}

    def __str__(self) -> str:
        return f"ln({self.arg})"


@dataclass(frozen=True)
class LogPow(Atom):
    arg: Fraction
    power: int
    _rank = 3

    def __post_init__(self) -> None:
        arg = exact(self.arg, "LogPow argument")
        if arg <= 0:
            raise DomainError(f"LogPow argument must be positive, got {arg}")
        if not isinstance(self.power, int) or self.power < 1:
            raise DomainError("LogPow power must be an integer >= 1")
        object.__setattr__(self, "arg", arg)

    def value(self) -> float:
        try:
            return _log_fraction(self.arg) ** self.power
        except OverflowError:
            raise DomainError(f"{self} is beyond floating-point range") from None

    def sort_key(self) -> tuple:
        return (self._rank, self.arg, self.power)

    def to_json_dict(self) -> dict:
        return {"kind": "logpow", "arg": str(self.arg), "power": self.power}

    def __str__(self) -> str:
        return f"ln({self.arg})^{self.power}"


@dataclass(frozen=True)
class LogProd(Atom):
    first: Fraction
    second: Fraction
    _rank = 4

    def __post_init__(self) -> None:
        a = exact(self.first, "LogProd argument")
        b = exact(self.second, "LogProd argument")
        if a <= 0 or b <= 0:
            raise DomainError("LogProd arguments must be positive")
        if b < a:
            a, b = b, a
        object.__setattr__(self, "first", a)
        object.__setattr__(self, "second", b)

    def value(self) -> float:
        return _log_fraction(self.first) * _log_fraction(self.second)

    def sort_key(self) -> tuple:
        return (self._rank, self.first, self.second)

    def to_json_dict(self) -> dict:
        return {"kind": "logprod", "first": str(self.first), "second": str(self.second)}

    def __str__(self) -> str:
        return f"ln({self.first})*ln({self.second})"


@dataclass(frozen=True)
class Dilog(Atom):
    arg: Fraction
    _rank = 5

    def __post_init__(self) -> None:
        arg = exact(self.arg, "Dilog argument")
        if arg > Fraction(1, 2):
            raise DomainError(f"Dilog argument must be <= 1/2, got {arg}")
        object.__setattr__(self, "arg", arg)

    def value(self) -> float:
        return dilog(self.arg).value

    def sort_key(self) -> tuple:
        return (self._rank, self.arg)

    def to_json_dict(self) -> dict:
        return {"kind": "dilog", "arg": str(self.arg)}

    def __str__(self) -> str:
        return f"Li2({self.arg})"


UNIT = Unit()
PI_SQUARED_ATOM = PiSquared()


def _log_fraction(q: Fraction) -> float:
    # ln(p/q) via two integer logs keeps precision for extreme fractions
    # where float(q) would overflow or underflow.
    return math.log(q.numerator) - math.log(q.denominator)


_KINDS = {
    "unit": lambda d: UNIT,
    "pi2": lambda d: PI_SQUARED_ATOM,
    "log": lambda d: Log(Fraction(d["arg"])),
    "logpow": lambda d: LogPow(Fraction(d["arg"]), int(d["power"])),
    "logprod": lambda d: LogProd(Fraction(d["first"]), Fraction(d["second"])),
    "dilog": lambda d: Dilog(Fraction(d["arg"])),
}


def _upright(q: Fraction) -> tuple[Fraction, int]:
    # ln q = sign * ln(q'), with q' >= 1
    return (1 / q, -1) if q < 1 else (q, 1)


def _reduce(atom: Atom, c: Fraction) -> Optional[tuple[Atom, Fraction]]:
    """The canonical term equal to c * atom, or None if it vanishes.

    Rules: drop ln(1) in any position, pull log arguments above 1 via
    ln q = -ln(1/q), LogPow(q,1) -> Log(q), LogProd(q,q) -> LogPow(q,2),
    Dilog(0) -> 0, and Dilog(-1) -> -pi^2/12.  An atom that is already
    canonical comes back as it is.
    """
    if isinstance(atom, Log):
        if atom.arg > 1:
            return atom, c
        return None if atom.arg == 1 else (Log(1 / atom.arg), -c)
    if isinstance(atom, LogPow):
        if atom.arg == 1:
            return None
        q, s = _upright(atom.arg)
        if atom.power == 1:
            return Log(q), s * c
        return (atom if s == 1 else LogPow(q, atom.power)), s**atom.power * c
    if isinstance(atom, LogProd):
        if atom.first == 1 or atom.second == 1:
            return None
        q1, s1 = _upright(atom.first)
        q2, s2 = _upright(atom.second)
        if q1 == q2:
            return LogPow(q1, 2), s1 * s2 * c
        return (atom if s1 == s2 == 1 else LogProd(q1, q2)), s1 * s2 * c
    if isinstance(atom, Dilog):
        if atom.arg == 0:
            return None
        if atom.arg == -1:
            return PI_SQUARED_ATOM, -c / 12
    return atom, c


def atom_from_json_dict(d: Mapping) -> Atom:
    try:
        builder = _KINDS[d["kind"]]
    except KeyError:
        raise ValueError(f"unknown atom kind {d.get('kind')!r}")
    return builder(d)


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
        self._terms: dict[Atom, Fraction] = {a: c for a, c in acc.items() if c}

    @classmethod
    def _of_canonical(cls, terms: dict[Atom, Fraction]) -> "ClosedForm":
        # Every atom in ``terms`` is already reduced, so only zero
        # coefficients have to go; the reduction is not run again.
        form = object.__new__(cls)
        form._terms = {a: c for a, c in terms.items() if c}
        return form

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "ClosedForm":
        return cls()

    @classmethod
    def of(cls, atom: Atom, coeff: Scalar = 1) -> "ClosedForm":
        return cls(((atom, coeff),))

    @classmethod
    def constant(cls, c: Scalar) -> "ClosedForm":
        return cls(((UNIT, c),))

    @classmethod
    def combine(cls, parts: Iterable[tuple[Scalar, "ClosedForm"]]) -> "ClosedForm":
        """sum_i c_i * form_i, accumulated in one dict and built once."""
        acc: dict[Atom, Fraction] = {}
        for scalar, form in parts:
            for atom, c in form._terms.items():
                acc[atom] = acc.get(atom, 0) + scalar * c
        return cls._of_canonical(acc)

    # -- inspection -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> tuple[tuple[Atom, Fraction], ...]:
        """Term list in a deterministic (atom sort key) order."""
        return tuple(
            sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())
        )

    def coefficient(self, atom: Atom) -> Fraction:
        return self._terms.get(atom, Fraction(0))

    def atoms(self) -> tuple[Atom, ...]:
        return tuple(a for a, _ in self.terms())

    # -- linear algebra ---------------------------------------------------

    def __add__(self, other: "ClosedForm") -> "ClosedForm":
        if not isinstance(other, ClosedForm):
            return NotImplemented
        acc = dict(self._terms)
        for atom, c in other._terms.items():
            acc[atom] = acc.get(atom, 0) + c
        return ClosedForm._of_canonical(acc)

    def __sub__(self, other: "ClosedForm") -> "ClosedForm":
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ClosedForm":
        return ClosedForm._of_canonical({a: -c for a, c in self._terms.items()})

    def __mul__(self, scalar: Scalar) -> "ClosedForm":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return ClosedForm._of_canonical(
            {a: c * scalar for a, c in self._terms.items()}
        )

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
        return hash(frozenset(self._terms.items()))

    # -- evaluation -----------------------------------------------------------

    def evalf(self) -> float:
        """Numeric value; exactly-rounded sum of the term values.  A
        coefficient, term or sum beyond float range is a DomainError."""
        try:
            terms = [float(c) * atom.value() for atom, c in self.terms()]
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
                for atom, c in self.terms()
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ClosedForm":
        terms = []
        for entry in data["terms"]:
            atom = atom_from_json_dict(entry["atom"])
            terms.append((atom, Fraction(entry["coeff"])))
        return cls(terms)

    @classmethod
    def from_json(cls, text: str) -> "ClosedForm":
        return cls.from_json_dict(json.loads(text))

    # -- rendering ---------------------------------------------------------------

    def __str__(self) -> str:
        items = self.terms()
        if not items:
            return "0"
        parts: list[str] = []
        for atom, c in items:
            mag = _render_term(atom, abs(c))
            if not parts:
                parts.append(mag if c > 0 else "-" + mag)
            else:
                parts.append(("+ " if c > 0 else "- ") + mag)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ClosedForm<{self}>"


def _render_term(atom: Atom, c: Fraction) -> str:
    cs = str(c) if c.denominator == 1 else f"({c})"
    if isinstance(atom, Unit):
        return cs if c.denominator == 1 else str(c)
    if c == 1:
        return str(atom)
    return f"{cs}*{atom}"
