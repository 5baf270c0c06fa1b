"""Exception hierarchy. Every error carries a stable machine-readable code
that the CLI prints as ``error: <code>: <message>``, followed by one
``<key> = <value>`` line per diagnostics entry, before exiting 1."""


class MagicTrapError(Exception):
    """Base class for all domain errors raised by this package.

    ``diagnostics`` holds the numbers behind the failure (iteration counts,
    residuals, condition numbers); the CLI prints them after the error
    line."""

    code = "domain-error"

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class InvalidArgumentError(MagicTrapError):
    code = "invalid-argument"


class ConventionViolationError(MagicTrapError):
    """Signed-depth convention broken: trap depths are stored as the
    (negative) ground-state light shift in Hz."""

    code = "convention-violation"


class NoMagicPointError(MagicTrapError):
    """Quadratic coefficient is zero, the shift-vs-depth curve has no vertex."""

    code = "no-magic-point"


class NoZeroCrossingError(MagicTrapError):
    """Linear polarization: no bias field makes the magic depth vanish."""

    code = "no-zero-crossing"


class UnphysicalConfigurationError(MagicTrapError):
    code = "unphysical-configuration"


class NumericalFailureError(MagicTrapError):
    """A quadrature pass missed its tolerance, a phase left float range, or
    the thermal average is not finite; carries diagnostics."""

    code = "numerical-failure"


class RankDeficiencyError(MagicTrapError):
    code = "rank-deficient"


class ConditioningError(MagicTrapError):
    code = "ill-conditioned"


class FitFailureError(MagicTrapError):
    code = "fit-failure"


class FrequencyAmbiguityError(MagicTrapError):
    code = "frequency-ambiguity"


class TimelineError(MagicTrapError):
    code = "invalid-timeline"
