"""logint: exact closed forms for elementary logarithmic integrals.

The library integrates rational functions with rational negative poles
against integer powers of ln x, producing exact symbolic results over a
small atom vocabulary (products of pi^2, powers of logs and a dilogarithm
at an argument <= 1/2), together with an independent numeric
oracle for verification.
"""

from .closedform import (
    Atom,
    ClosedForm,
    Dilog,
    Log,
    LogProd,
    PI_SQUARED_ATOM,
    UNIT,
    atom_from_json_dict,
)
from .dilog import DilogResult, PI_SQUARED, dilog, euler_identity_residual
from .errors import (
    DegenerateInterval,
    DomainError,
    LimitExceeded,
    NoConvergence,
    NonRationalPole,
    PoleCollision,
    PoleInInterval,
    SingularInterior,
    UnsupportedLogPower,
    UnsupportedPole,
    ZeroDenominator,
)
from .integrate import (
    IntegralSpec,
    LogIntegralParts,
    integrate_monomial_log,
    integrate_multiple_pole,
    integrate_poly_log,
    integrate_rational_log,
    integrate_simple_pole,
    integrate_two_simple_poles,
    symmetric_two_pole_dilog,
    symmetric_two_pole_elementary,
    unit_pole_log_integral,
    unit_pole_log_parts,
)
from .parsing import ParseError, parse_denominator, parse_factored, parse_polynomial, parse_rational
from .poly import Polynomial
from .quadrature import QuadResult, quad_log
from .ratfunc import (
    FactoredDenominator,
    FactoredRationalFunction,
    PoleTerm,
    factor_denominator,
    partial_fractions,
    rational_roots_factorize,
)
from .unimodal import (
    CoeffReport,
    check_nondecreasing,
    check_unimodal,
    coeff_report,
    family_poly,
    shifted_family_poly,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "ClosedForm",
    "CoeffReport",
    "DegenerateInterval",
    "Dilog",
    "DilogResult",
    "DomainError",
    "FactoredDenominator",
    "FactoredRationalFunction",
    "IntegralSpec",
    "LimitExceeded",
    "Log",
    "LogIntegralParts",
    "LogProd",
    "NoConvergence",
    "NonRationalPole",
    "ParseError",
    "PI_SQUARED",
    "PI_SQUARED_ATOM",
    "PoleCollision",
    "PoleInInterval",
    "PoleTerm",
    "Polynomial",
    "QuadResult",
    "SingularInterior",
    "UNIT",
    "UnsupportedLogPower",
    "UnsupportedPole",
    "ZeroDenominator",
    "atom_from_json_dict",
    "check_nondecreasing",
    "check_unimodal",
    "coeff_report",
    "dilog",
    "euler_identity_residual",
    "factor_denominator",
    "family_poly",
    "integrate_monomial_log",
    "integrate_multiple_pole",
    "integrate_poly_log",
    "integrate_rational_log",
    "integrate_simple_pole",
    "integrate_two_simple_poles",
    "parse_denominator",
    "parse_factored",
    "parse_polynomial",
    "parse_rational",
    "partial_fractions",
    "quad_log",
    "rational_roots_factorize",
    "shifted_family_poly",
    "symmetric_two_pole_dilog",
    "symmetric_two_pole_elementary",
    "unit_pole_log_integral",
    "unit_pole_log_parts",
]
