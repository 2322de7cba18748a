"""Exception hierarchy shared across the package.

Two broad families matter for callers: ``ValidationError`` (bad inputs,
CLI exit code 1) and ``NumericalError`` (a solve failed, CLI exit code 2).
"""

# smallest admissible R + D'PD: the Riccati solve raises SingularRhat below
# it, the BSDE sweep raises NegativeRhat at it and clips its samples up to it
RHAT_FLOOR = 1e-8


class RegimeLQError(Exception):
    """Base class for all package errors."""


class ValidationError(RegimeLQError):
    """Invalid input data or configuration."""


class NumericalError(RegimeLQError):
    """A numerical procedure failed or detected an inadmissible state."""


class DimensionMismatch(ValidationError):
    pass


class NegativeOffDiagonal(ValidationError):
    pass


class AsymmetricWeight(ValidationError):
    pass


class BadSegments(ValidationError):
    pass


class OutOfHorizon(ValidationError):
    pass


class EmptySample(ValidationError):
    pass


class SingularRhat(NumericalError):
    """R + D'PD lost uniform positivity during a Riccati solve."""

    def __init__(self, t: float, regime: int, eigenvalue: float):
        self.t = t
        self.regime = regime
        self.eigenvalue = eigenvalue
        super().__init__(
            f"min eigenvalue of R + D'PD is {eigenvalue:.3e} at t={t:.6g}, "
            f"regime {regime + 1}"
        )


class NonFiniteState(NumericalError):
    pass


class IllConditionedRegression(NumericalError):
    pass


class NegativeRhat(NumericalError):
    pass


class NonPositiveP(NumericalError):
    pass


class DegenerateConstraint(NumericalError):
    pass
