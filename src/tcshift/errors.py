"""Exception hierarchy. Every error the CLI can exit on carries a distinct exit code."""


class ToolError(Exception):
    """Base class for pipeline failures surfaced to the CLI.

    ``stage`` names the pipeline stage that raised it, None outside the stages.
    """

    exit_code = 1
    stage = None


class ConfigError(ToolError):
    exit_code = 2


class AssumptionViolation(ToolError):
    exit_code = 3


class NoBracket(ToolError):
    """The top eigenvalue never crosses 1 inside the expanded bracket."""

    exit_code = 4


class PositivityViolation(ToolError):
    """A quantity the theory proves positive came out non-positive (discretization failure)."""

    exit_code = 5


class DomainTooSmall(ToolError):
    """Bound-state mass leaks into the truncation boundary."""

    exit_code = 6


class NonMonotone(ToolError):
    """Eigenvalue curve decreased in beta beyond tolerance during bisection."""

    exit_code = 7


class GridError(ToolError):
    exit_code = 8


class ZeroNormError(ToolError):
    exit_code = 9


class ConvergenceError(ToolError):
    exit_code = 11
