"""The tests' pure-Python reference for the SplitMix64 bit stream, the
whole-array variate maps applied to it, and the scalar draws the tests take
from a generator's words.

``word``, ``index_below`` and ``uniform`` read the next words of a
``SplitMix64`` through ``raw``, so a test that draws its instances with
them consumes the same stream positions as one word per scalar draw.
"""

import math

import numpy as np

MASK = (1 << 64) - 1


def reference_stream(seed, count):
    """Scalar reference implementation of the counter-based generator."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def _reference_words(seed, count, position):
    return np.array(reference_stream(seed, position + count)[position:], dtype=np.uint64)


def reference_normal(seed, n, position=0):
    """``n`` standard normal variates from the reference words at ``position``
    on: Box-Muller over the whole array at once, one step per pass, which
    ``SplitMix64.normal`` must match bit for bit whatever its block size."""
    pairs = (n + 1) // 2
    words = _reference_words(seed, 2 * pairs, position).reshape(pairs, 2) >> np.uint64(11)
    radius = (words[:, 0].astype(np.float64) + 1.0) * 2.0**-53
    angle = words[:, 1].astype(np.float64) * 2.0**-53 * (2.0 * math.pi)
    radius = np.sqrt(-2.0 * np.log(radius))
    out = np.empty((pairs, 2))
    out[:, 0] = radius * np.cos(angle)
    out[:, 1] = radius * np.sin(angle)
    return out.reshape(-1)[:n]


def reference_signs(seed, n, position=0):
    """``n`` signs from the reference words at ``position`` on: 2 * (top bit) - 1."""
    return (_reference_words(seed, n, position) >> np.uint64(63)).astype(np.float64) * 2.0 - 1.0


def word(gen):
    """The next output word of ``gen`` as a Python int."""
    return int(gen.raw(1)[0])


def index_below(gen, bound):
    """One integer in [0, bound): the next word modulo ``bound``."""
    return word(gen) % bound


def uniform(gen, n):
    """``n`` doubles in [0, 1): the top 53 bits of each next word, scaled by 2**-53."""
    return (gen.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
