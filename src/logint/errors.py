"""Exception types shared across the library.

Everything that rejects a mathematically invalid input derives from
DomainError so callers can catch one class at API boundaries.
"""


class DomainError(ValueError):
    """Input lies outside the domain an operation supports."""


class ZeroDenominator(DomainError):
    """The denominator polynomial is identically zero."""


class NonRationalPole(DomainError):
    """The denominator has a factor with no rational root, so exact
    partial fractions over Q are impossible."""


class UnsupportedPole(DomainError):
    """A pole sits at a non-negative abscissa outside the integration
    interval; the closed forms here require strictly negative poles."""


class PoleCollision(DomainError):
    """Two poles that must stay distinct coincide."""


class PoleInInterval(DomainError):
    """A pole of the integrand lies inside the integration interval, so
    the integral diverges."""


class DegenerateInterval(DomainError):
    """The integration interval has zero width."""


class LimitExceeded(DomainError):
    """A size (a degree, a pole order, a log power or a family index)
    exceeds the limit that bounds the work of one input."""


class UnsupportedLogPower(DomainError):
    """Log powers m >= 2 are only available for polynomial integrands."""


class SingularInterior(DomainError):
    """The numeric oracle detected a singularity inside (or on) the
    integration interval."""


class NoConvergence(RuntimeError):
    """The numeric oracle could not bound the tail of its integrand at
    the origin below the requested tolerance, so it has no value."""
