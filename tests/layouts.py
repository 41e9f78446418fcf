"""The same values in three memory layouts, none of them contiguous.

Tests pass each layout where a contiguous vector would go and expect the
bytes the contiguous copy gives: the package makes every vector it takes
C-contiguous where it enters, so no BLAS call sees the caller's strides.
"""

import numpy as np


def _checked(view, values):
    assert not view.flags.c_contiguous and np.array_equal(view, values)
    return view


def column(values):
    """``values`` as the middle column of a 2-D C-order array, three entries apart."""
    table = np.zeros((values.size, 3))
    table[:, 1] = values
    return _checked(table[:, 1], values)


def every_other(values):
    """``values`` as the ``[::2]`` view of an array twice as long."""
    spread = np.zeros(2 * values.size)
    spread[::2] = values
    return _checked(spread[::2], values)


def reversed_twice(values):
    """``values`` as the reversed view of a reversed copy: a negative stride."""
    return _checked(values[::-1].copy()[::-1], values)


LAYOUTS = {"column": column, "step-2": every_other, "reversed": reversed_twice}
