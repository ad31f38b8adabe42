"""Exception types shared across the package, and the four input rules.

Everything numerical that can fail does so through one of these, so callers
(and the command-line front end) can map failures to exit codes without
string-matching messages.

Each kind of input has one rule, which every check of that kind calls:
check_count (an int or numpy integer, never a bool, within [lo, hi]),
check_finite, check_positive (finite and > 0) and check_normal (finite
and at least TINY, the least normal float), each naming the input.
"""

import sys

import numpy as np

# the least normal float: below it every rounding is absolute, so a square
# or a product that lands there has lost digits
TINY = sys.float_info.min


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


def check_count(name, value, lo, hi=np.inf):
    """value as an int: an int or numpy integer, not a bool, in [lo, hi];
    a tuple (a shape) entry by entry, returned as a tuple of ints."""
    values = value if isinstance(value, tuple) else (value,)
    shown = " x ".join(map(repr, values))
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               for v in values):
        raise DomainError(f"{name}: expected an integer, got {shown}")
    if not all(lo <= v <= hi for v in values):
        raise DomainError(f"{name} must lie in [{lo}, {hi}], not {shown}")
    return tuple(map(int, values)) if isinstance(value, tuple) else int(value)


def check_finite(name, *values):
    """DomainError unless every value, real or array, is finite."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise DomainError(f"{name} must be finite")


def check_positive(name, *values):
    """DomainError unless every value, real or array, is finite and > 0."""
    if not all(np.all((0 < v) & (v < np.inf)) for v in values):
        raise DomainError(f"{name} must be finite and > 0")


def check_normal(name, *values):
    """DomainError unless every value, real or array, is finite and at
    least TINY."""
    if not all(np.all((TINY <= v) & (v < np.inf)) for v in values):
        raise DomainError(f"{name} must be finite and at least {TINY}, the "
                          "least normal float")
