"""Exception types shared across the package.

Everything numerical that can fail does so through one of these, so callers
(and the command-line front end) can map failures to exit codes without
string-matching messages.
"""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class SingularPointError(DomainError):
    """Field or potential evaluated at, or too close to, a singular point."""


class StabilityError(ValueError):
    """Configuration would make a time-stepping scheme inaccurate or unstable."""


class AccuracyError(RuntimeError):
    """A quadrature or discretization cannot reach the requested accuracy."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to converge.

    Carries the best estimate, its error/residual history and the solver's
    stats record, if it keeps one, so partial results stay inspectable.
    """

    def __init__(self, message, best=None, error=None, history=None,
                 stats=None):
        super().__init__(message)
        self.best = best
        self.error = error
        self.history = list(history) if history is not None else []
        self.stats = stats
