"""Exception types raised across the package.

Everything derives from :class:`FrailtyModelError` so callers can catch the
package's failures with a single except clause.  Validation problems also
subclass ``ValueError`` and numerical blowups subclass ``ArithmeticError`` to
stay friendly to generic handlers.
"""


class FrailtyModelError(Exception):
    """Base class for all errors raised by frailty_shapes."""


class ParameterOutOfRange(FrailtyModelError, ValueError):
    """A distribution or hazard parameter violates its admissible range."""


class DegenerateDistribution(FrailtyModelError, ValueError):
    """The frailty distribution has zero variance (a single atom)."""


class LengthMismatch(FrailtyModelError, ValueError):
    """Paired sequences (supports/probabilities, hazards/times) disagree in length."""


class UnsupportedFamily(FrailtyModelError, TypeError):
    """The requested operation is not defined for this family."""


class NumericalOverflow(FrailtyModelError, ArithmeticError):
    """A computation left the representable range; never returned silently."""


class DivisionNearZero(FrailtyModelError, ArithmeticError):
    """A denominator in a ratio formula is numerically zero."""


class TooFewAtRisk(FrailtyModelError, ValueError):
    """Fewer at-risk clusters than the estimator's minimum (30)."""


class EmptyWindow(FrailtyModelError, ValueError):
    """No events fell inside the hazard-rate window."""


class DegenerateConditional(FrailtyModelError, ValueError):
    """The conditional frailty distribution collapsed to mass at zero."""


class TimeBeforeFinalSegment(FrailtyModelError, ValueError):
    """A requested time precedes the final piecewise-frailty segment."""
