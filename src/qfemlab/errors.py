"""Exception types shared across the package."""
import math


def count_text(count: int) -> str:
    """A count for an error message: in full up to 18 digits, else as about
    10^k, since str() of an integer of more than 4,300 digits raises."""
    return str(count) if count < 10**18 else f"about 10^{math.floor(math.log10(count))}"


class ValidationError(ValueError):
    """Invalid argument or malformed problem specification."""


class UnsupportedConfigurationError(ValidationError):
    """The operation does not support the requested configuration."""


class NonConvergenceError(RuntimeError):
    """An iterative method hit its cap before reaching the requested tolerance.

    ``partial`` carries whatever estimates were available when the cap hit.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class CapExceededError(RuntimeError):
    """A planner or mesh cap was exceeded; ``required`` is the size needed."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class BudgetExceededError(RuntimeError):
    """A sampling budget ran out of shots."""


class SimulationFloorError(RuntimeError):
    """An acceptance probability fell below the simulable floor."""
