"""Tests for the closed-form value type and its canonical form."""

import json
import math
import random
from fractions import Fraction

import pytest

from logint import (
    Atom,
    ClosedForm,
    Dilog,
    DomainError,
    Log,
    LogProd,
    PI_SQUARED_ATOM,
    UNIT,
    dilog,
)
from logint.closedform import atom_from_json_dict


class TestAtomValidation:
    def test_log_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            Log(Fraction(0))
        with pytest.raises(DomainError):
            Log(Fraction(-3, 2))

    def test_log_rejects_float(self):
        with pytest.raises(TypeError):
            Log(0.5)

    def test_logpow_power(self):
        with pytest.raises(ValueError):
            Log(Fraction(2), 0)
        with pytest.raises(DomainError):
            Log(Fraction(-1), 2)
        with pytest.raises(DomainError, match="log power must be an integer >= 1"):
            Log(Fraction(2), True)

    def test_dilog_domain(self):
        with pytest.raises(DomainError):
            Dilog(Fraction(2, 3))
        Dilog(Fraction(1, 2))  # boundary allowed
        Dilog(Fraction(-100))

    def test_values_beyond_float_range(self):
        with pytest.raises(DomainError, match="beyond floating-point range"):
            Log(Fraction(10**10), 400).value()
        with pytest.raises(DomainError, match="beyond floating-point range"):
            Dilog(Fraction(-(10**400))).value()

    @pytest.mark.parametrize(
        "pi2, logs, d",
        [
            (2, (), None),
            (0, ((2, 1), (3, 1), (5, 1)), None),
            (1, (), Fraction(1, 3)),
            (0, ((2, 2), (3, 1)), None),
        ],
        ids=["pi4", "three-logs", "pi2-dilog", "logpow-log"],
    )
    def test_product_of_no_kind_is_refused(self, pi2, logs, d):
        with pytest.raises(DomainError, match="no atom kind"):
            Atom(pi2, logs, d)

    def test_pi2_must_be_an_integer(self):
        for bad in (True, 1.0, -1):
            with pytest.raises(DomainError, match="power of pi\\^2 must be an integer >= 0"):
                Atom(pi2=bad)

    def test_term_must_hold_an_atom(self):
        with pytest.raises(TypeError, match="expected an Atom"):
            ClosedForm([("ln 2", 1)])

    def test_logprod_sorts_arguments(self):
        assert LogProd(Fraction(5), Fraction(2)) == LogProd(Fraction(2), Fraction(5))

    def test_atom_values(self):
        assert UNIT.value() == 1.0
        assert PI_SQUARED_ATOM.value() == pytest.approx(math.pi**2, rel=1e-15, abs=0)
        assert Log(Fraction(3)).value() == pytest.approx(math.log(3), rel=1e-15, abs=0)
        assert Log(Fraction(2), 3).value() == pytest.approx(
            math.log(2) ** 3, rel=1e-14, abs=0
        )
        assert LogProd(Fraction(2), Fraction(3)).value() == pytest.approx(
            math.log(2) * math.log(3), rel=1e-14, abs=0
        )
        assert Dilog(Fraction(-1, 2)).value() == pytest.approx(
            dilog(-0.5).value, abs=1e-15
        )


def is_reduced(atom) -> bool:
    """True when no canonicalization rule applies to ``atom``: every log
    argument is above 1, no two are equal, and Li2 is not at 0 or -1."""
    args = [q for q, _ in atom.logs]
    return (
        all(q > 1 for q in args)
        and len(set(args)) == len(args)
        and atom.dilog not in (0, -1)
    )


def raw_value(terms: dict) -> float:
    """Value of sum c * atom over terms as given, before any rewrite."""
    return math.fsum(float(c) * atom.value() for atom, c in terms.items())


class TestCanonical:
    def test_construction_flips_log_argument(self):
        cf = ClosedForm({Log(Fraction(1, 2)): 1})
        assert cf.terms() == ((Log(Fraction(2)), Fraction(-1)),)

    def test_log_of_one_drops(self):
        cf = ClosedForm({Log(Fraction(1)): Fraction(5)})
        assert cf.canonical() == ClosedForm()

    def test_reciprocal_argument_flips(self):
        # ln(1/2) = -ln(2)
        a = ClosedForm({Log(Fraction(1, 2)): Fraction(1)})
        b = ClosedForm({Log(Fraction(2)): Fraction(-1)})
        assert a == b

    def test_reciprocal_flip_in_logpow(self):
        # ln(1/3)^2 = ln(3)^2, ln(1/3)^3 = -ln(3)^3
        even = ClosedForm({Log(Fraction(1, 3), 2): Fraction(1)})
        assert even == ClosedForm({Log(Fraction(3), 2): Fraction(1)})
        odd = ClosedForm({Log(Fraction(1, 3), 3): Fraction(1)})
        assert odd == ClosedForm({Log(Fraction(3), 3): Fraction(-1)})

    def test_logpow_one_becomes_log(self):
        assert ClosedForm({Log(Fraction(7), 1): Fraction(2)}) == ClosedForm(
            {Log(Fraction(7)): Fraction(2)}
        )

    def test_logprod_equal_args_becomes_logpow(self):
        assert ClosedForm(
            {LogProd(Fraction(5), Fraction(5)): Fraction(1)}
        ) == ClosedForm({Log(Fraction(5), 2): Fraction(1)})

    def test_dilog_special_values(self):
        assert ClosedForm({Dilog(Fraction(0)): Fraction(3)}) == ClosedForm()
        assert ClosedForm({Dilog(Fraction(-1)): Fraction(1)}) == ClosedForm(
            {PI_SQUARED_ATOM: Fraction(-1, 12)}
        )

    def test_product_of_logs_not_split(self):
        # ln(6) stays one atom; it is not rewritten as ln(2) + ln(3).
        cf = ClosedForm({Log(Fraction(6)): Fraction(1)}).canonical()
        assert cf.terms() == ((Log(Fraction(6)), Fraction(1)),)

    def test_cancellation_drops_terms(self):
        cf = ClosedForm({Log(Fraction(2)): Fraction(1)})
        assert (cf - cf).canonical() == ClosedForm()
        assert not (cf - cf)

    def test_canonical_idempotent_random(self):
        rng = random.Random(222)
        qs = [Fraction(k, d) for k in range(1, 8) for d in (1, 2, 3)]
        for _ in range(150):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                kind = rng.randrange(6)
                if kind == 0:
                    atom = UNIT
                elif kind == 1:
                    atom = PI_SQUARED_ATOM
                elif kind == 2:
                    atom = Log(rng.choice(qs))
                elif kind == 3:
                    atom = Log(rng.choice(qs), rng.randint(1, 4))
                elif kind == 4:
                    atom = LogProd(rng.choice(qs), rng.choice(qs))
                else:
                    atom = Dilog(-rng.choice(qs))
                coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                terms[atom] = terms.get(atom, Fraction(0)) + coeff
            cf = ClosedForm(terms)
            assert cf.canonical() == cf
            assert all(is_reduced(atom) for atom, _ in cf.terms())
            # canonicalization must preserve the value of the raw terms
            assert math.isclose(
                cf.evalf(), raw_value(terms), rel_tol=1e-12, abs_tol=1e-12
            )

    def test_equal_forms_share_terms_hash_and_text(self):
        # One term of each kind, listed out of canonical order; ln(1/3)
        # with -1/2 reduces to ln(3) with 1/2.
        terms = [
            (Dilog(Fraction(-1, 3)), -1),
            (Log(Fraction(2), 2), Fraction(-7, 4)),
            (UNIT, 2),
            (LogProd(Fraction(5), Fraction(2)), 3),
            (Log(Fraction(1, 3)), Fraction(-1, 2)),
            (PI_SQUARED_ATOM, Fraction(1, 12)),
        ]
        rng = random.Random(23)
        forms = [ClosedForm(rng.sample(terms, len(terms))) for _ in range(5)]
        head, tail = ClosedForm(terms[:3]), ClosedForm(terms[3:])
        forms += [
            head + tail,
            tail + head,
            3 * ClosedForm(terms[::-1]) - tail * 2 - 2 * head,
            ClosedForm.combine(((Fraction(1, 2), head), (1, tail), (Fraction(1, 2), head))),
            ClosedForm.from_json(forms[0].to_json()),
        ]
        first = forms[0]
        kinds = [atom.to_json_dict()["kind"] for atom, _ in first.terms()]
        assert kinds == ["unit", "pi2", "log", "logpow", "logprod", "dilog"]
        for form in forms:
            assert form == first
            assert form.terms() == first.terms()
            assert hash(form) == hash(first)
            assert str(form) == str(first)
            assert form.to_json() == first.to_json()
        assert len(set(forms)) == 1


class TestArithmetic:
    def test_evalf_frozen_examples(self):
        assert ClosedForm({PI_SQUARED_ATOM: Fraction(-1, 12)}).evalf() == pytest.approx(
            -0.8224670334241132, abs=1e-15
        )
        cf = ClosedForm({Log(Fraction(2)): Fraction(1), UNIT: Fraction(-1)})
        assert cf.evalf() == pytest.approx(-0.3068528194400547, abs=1e-15)

    @pytest.mark.parametrize(
        "q", [Fraction(10**8 + 1, 10**8), Fraction(10**8 - 1, 10**8), Fraction(10**15 + 1, 10**15)]
    )
    def test_evalf_of_a_log_near_one_keeps_its_digits(self, q):
        # ln q as ln p - ln s cancels near q = 1: at 1 + 10^-15 it gave 0.0.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.mpf(q.numerator) / q.denominator))
        assert ClosedForm.of(Log(q)).evalf() == pytest.approx(ref, rel=1e-15, abs=0)

    def test_evalf_of_zero(self):
        assert ClosedForm().evalf() == 0.0

    @pytest.mark.parametrize(
        "terms",
        [
            {UNIT: Fraction(10**400)},  # the coefficient itself
            {Log(Fraction(10**300)): Fraction(10**307)},  # coefficient times atom
            {UNIT: Fraction(10**308), PI_SQUARED_ATOM: Fraction(10**308)},  # the sum
            {Log(Fraction(10**10), 400): Fraction(1)},  # the atom's value
            {Dilog(Fraction(-(10**400))): Fraction(1)},  # the dilog argument
        ],
    )
    def test_evalf_beyond_float_range_is_a_domain_error(self, terms):
        with pytest.raises(DomainError, match="beyond floating-point range"):
            ClosedForm(terms).evalf()

    def test_homomorphism_random(self):
        rng = random.Random(333)
        for _ in range(80):
            x = self._random_form(rng)
            y = self._random_form(rng)
            bound = 1e-12 * (1.0 + abs(x.evalf()) + abs(y.evalf()))
            assert abs((x + y).evalf() - (x.evalf() + y.evalf())) <= bound
            assert abs((x - y).evalf() - (x.evalf() - y.evalf())) <= bound
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert abs((x * c).evalf() - float(c) * x.evalf()) <= abs(bound * c)
            assert (c * x) == (x * c)

    def test_division(self):
        cf = ClosedForm({Log(Fraction(2)): Fraction(3)})
        assert cf / 3 == ClosedForm({Log(Fraction(2)): Fraction(1)})
        with pytest.raises(ZeroDivisionError):
            cf / 0

    def test_neg(self):
        cf = ClosedForm({UNIT: Fraction(2)})
        assert -cf + cf == ClosedForm()

    def test_constant_helper(self):
        assert ClosedForm.of(UNIT, Fraction(3, 4)).evalf() == 0.75

    @staticmethod
    def _random_form(rng):
        atoms = [
            UNIT,
            PI_SQUARED_ATOM,
            Log(Fraction(2)),
            Log(Fraction(3, 2)),
            Log(Fraction(2), 2),
            LogProd(Fraction(2), Fraction(3)),
            Dilog(Fraction(-1, 2)),
        ]
        terms = {}
        for atom in rng.sample(atoms, rng.randint(0, 4)):
            terms[atom] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return ClosedForm(terms)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = random.Random(444)
        for _ in range(60):
            cf = TestArithmetic._random_form(rng).canonical()
            blob = cf.to_json()
            back = ClosedForm.from_json(blob)
            assert back == cf
            assert back.terms() == cf.terms()  # exact Fractions, not approx

    def test_json_is_valid_and_stringly_typed(self):
        cf = ClosedForm({Log(Fraction(1, 3)): Fraction(-2, 7)}).canonical()
        doc = json.loads(cf.to_json())
        assert isinstance(doc["terms"], list)
        for term in doc["terms"]:
            assert isinstance(term["coeff"], str)  # "p/q", never a float

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            atom_from_json_dict({"kind": "hyperlog", "arg": "2"})

    # The reader takes only what the writer emits: fraction strings for
    # arguments and coefficients, and an int for a power.

    def test_fractional_power_rejected(self):
        with pytest.raises(ValueError, match="power"):
            atom_from_json_dict({"kind": "logpow", "arg": "2", "power": 1.7})

    def test_boolean_power_rejected(self):
        with pytest.raises(ValueError, match="power"):
            atom_from_json_dict({"kind": "logpow", "arg": "2", "power": True})

    def test_numeric_argument_rejected(self):
        # 0.1 as a JSON number is a float, 3602879701896397/36028797018963968.
        with pytest.raises(ValueError, match="fraction string"):
            atom_from_json_dict({"kind": "log", "arg": 0.1})

    def test_numeric_coefficient_rejected(self):
        blob = json.dumps({"terms": [{"atom": {"kind": "unit"}, "coeff": 0.1}]})
        with pytest.raises(ValueError, match="fraction string"):
            ClosedForm.from_json(blob)

    def test_kind_must_match_its_shape(self):
        # (ln 2)^1 is written as a "log", never as a "logpow".
        with pytest.raises(ValueError, match="logpow"):
            atom_from_json_dict({"kind": "logpow", "arg": "2", "power": 1})

    # A malformed document is a ValueError, whatever its shape.
    @pytest.mark.parametrize(
        "blob",
        [
            "{}",
            "[]",
            '{"terms": 3}',
            '{"terms": [3]}',
            '{"terms": [{"coeff": "1"}]}',
            '{"terms": [{"atom": [], "coeff": "1"}]}',
            '{"terms": [{"atom": {"kind": "unit"}, "coeff": "1/0"}]}',
        ],
        ids=["empty-object", "list", "terms-not-list", "term-not-object",
             "term-without-atom", "atom-not-object", "zero-denominator"],
    )
    def test_malformed_document_rejected(self, blob):
        with pytest.raises(ValueError):
            ClosedForm.from_json(blob)

    def test_str_rendering(self):
        cf = ClosedForm({PI_SQUARED_ATOM: Fraction(-1, 12)})
        assert "pi^2" in str(cf)
        assert str(ClosedForm()) == "0"
