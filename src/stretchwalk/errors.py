"""Exception types shared across the package.

Every error raised on a documented failure path derives from
:class:`StretchwalkError` so callers (and the CLI) can distinguish numerical
failures from plain bugs.
"""

import operator

import numpy as np


class StretchwalkError(Exception):
    """Base class for all documented failures."""


class InvalidModel(StretchwalkError):
    """Model parameters violate a structural requirement (convexity, growth)."""


class OutOfSupport(StretchwalkError):
    """Evaluation point lies outside the open half-line (0, inf)."""


class NonIntegrable(StretchwalkError):
    """Normalization integral failed to converge under cap doubling."""


class DomainError(StretchwalkError):
    """Band or evaluation parameters leave the valid domain."""


class NoConvergence(StretchwalkError):
    """Iterative search failed to stabilise within its refinement budget."""


class EnvelopeViolated(StretchwalkError):
    """Perturbation exceeds its declared envelope on a probe grid."""


class ThresholdNotFound(StretchwalkError):
    """No grid point satisfied a threshold condition within the search range."""


class Divergent(StretchwalkError):
    """Integral transform diverges for the requested argument."""


class NoRoot(StretchwalkError):
    """Monotone root bracketing failed within the expansion budget."""


class DegenerateWeights(StretchwalkError):
    """Importance weights collapsed; the estimate would be meaningless."""


class DegeneratePlan(StretchwalkError):
    """Sequence plan produced non-positive variational gaps on too many rows."""


class BadWindow(StretchwalkError):
    """Sliding-window length is outside 1..n."""


def raise_first(failed: dict[int, Exception]) -> None:
    """Raise the exception of the lowest-numbered row in ``failed``, if any:
    a row-wise call fails as its first failing row would alone."""
    if failed:
        raise failed[min(failed)]


def require_counts(**counts) -> None:
    """Raise ``DomainError`` unless every value is an integer (numpy
    integers included; bools, floats and integral floats are not counts)."""
    for name, value in counts.items():
        try:
            if isinstance(value, (bool, np.bool_)):
                raise TypeError
            operator.index(value)
        except TypeError:
            raise DomainError(f"{name} must be an integer, got {value!r}") from None
