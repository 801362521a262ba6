"""Exception classes shared across the suite."""


class OnsagerError(Exception):
    """Base class for all errors raised by this package."""


class AccuracyError(OnsagerError):
    """Quadrature could not meet the requested tolerance.

    Carries the achieved error estimate in ``achieved``.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ValidationError(OnsagerError):
    """Input data violates a structural invariant (e.g. kernel positivity)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SingularLinearizationError(OnsagerError):
    """I - J has no solve at a Newton iterate (exactly singular), or is
    degenerate to rounding at a solution, whose index and stability are
    then undefined; lambda is likely at a critical value or a fold."""


class InconclusiveAuditError(OnsagerError):
    """Solution censuses disagree across seeds; degree audit aborted."""

    def __init__(self, message, censuses=None):
        super().__init__(message)
        self.censuses = censuses


class BranchNotFoundError(OnsagerError):
    """No solution family bifurcates at the critical value, or its
    continuation found no point below lambda_max."""


class ThresholdUndefinedError(OnsagerError):
    """Coefficient sum diverges; uniqueness threshold is undefined."""


class DivergenceError(OnsagerError):
    """Time integration hit a singular step, a negative density or NaN.

    ``last_time`` holds the last valid simulation time.
    """

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time
