"""Exception types shared across the package, and the rules that check its
scalar arguments.

The rules live here, below every other module (``rng`` included), so each
is written once.  Each returns the value it checked as a Python ``int`` or
``float``: a caller computes with that, never with a numpy scalar whose
dtype could wrap a product or round a quotient.
"""

import math
import numbers

import numpy as np


class UsageError(ValueError):
    """A caller violated a documented precondition (bad shape, bad range)."""


class SolverFailure(RuntimeError):
    """An iterative solver diverged or hit a degenerate system."""


def check_integer(name: str, value, low=None, high=None) -> int:
    """``value`` as a Python int; ``UsageError`` unless it is an integer in ``[low, high]`` (a bool is not one)."""
    if not isinstance(value, bool) and isinstance(value, (int, np.integer)):
        checked = int(value)
        if (low is None or checked >= low) and (high is None or checked <= high):
            return checked
    limits = [f" at {word} {limit}" for word, limit in (("least", low), ("most", high)) if limit is not None]
    raise UsageError(f"{name} must be an integer{' and'.join(limits)}, got {value!r}")


def check_real(name: str, value, *, positive: bool = False) -> float:
    """``value`` as a Python float; ``UsageError`` unless it is a finite real ``>= 0``, or ``> 0`` if ``positive`` (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):  # float first: ABCs are slow
        raise UsageError(f"{name} must be a real number, got {value!r}")
    try:
        checked = float(value)
    except OverflowError:  # an integer past the largest double
        checked = math.inf
    if not math.isfinite(checked):
        raise UsageError(f"{name} must be finite, got {value!r}")
    if value < 0 or (positive and value == 0):
        raise UsageError(f"{name} must be {'positive' if positive else 'non-negative'}, got {value!r}")
    return checked
