"""Domain-error hierarchy shared across the package."""


class GridbaseError(Exception):
    """Base class for domain failures (CLI maps these to exit code 1)."""


class DegenerateFlowError(GridbaseError):
    """A per-zone supply flow fell below the guard floor (1/m_sa blows up)."""


class InvalidCurveError(GridbaseError):
    """An equipment efficiency curve evaluated to a non-positive value."""


class InfeasibleHourError(GridbaseError):
    """No feasible operating point exists for the hour's inputs."""


class NoConvergenceError(GridbaseError):
    """The baseline solver failed to reach the KKT tolerances; `report`
    is the feasible starts' residual report of least stationarity."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class RankDeficientError(GridbaseError):
    """The KKT operator lost column rank; the shift map is not unique."""


class EvaluationDomainError(GridbaseError):
    """A shifted point left the model's evaluable domain."""


class ProfileParseError(GridbaseError):
    """A day-profile file failed validation."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
