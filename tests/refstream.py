"""The tests' pure-Python reference for the SplitMix64 bit stream, the
variate maps applied to it, and the scalar draws the tests take from a
generator's words.

``reference_normal`` is a scalar ziggurat written from the rules in
``sparsekit.rng``'s docstrings, with its own logarithm and its own layer
tables computed from the same three pinned constants; only those constants
are shared with the package.

``word``, ``index_below`` and ``uniform`` read the next words of a
``SplitMix64`` through ``raw``, so a test that draws its instances with
them consumes the same stream positions as one word per scalar draw.
"""

import math

import numpy as np

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_mix(z):
    """The SplitMix64 finalizer on one integer, reduced mod 2**64 first."""
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_word(seed, position):
    """Output word ``position`` (0-based) of the stream for ``seed``."""
    return reference_mix(seed + (position + 1) * GAMMA)


def reference_stream(seed, count):
    """Scalar reference implementation of the counter-based generator."""
    return [reference_word(seed, i) for i in range(count)]


def reference_derive_seed(master, *parts):
    """``derive_seed``: mix the master, then fold in each part with one round."""
    h = reference_mix(master + GAMMA)
    for part in parts:
        h = reference_mix(((h + GAMMA) & MASK) ^ (part & MASK))
    return h


def _reference_words(seed, count, position):
    return np.array([reference_word(seed, position + i) for i in range(count)], dtype=np.uint64)


# fdlibm's __ieee754_log, one float at a time.
LN2_HI = float.fromhex("0x1.62e42feep-1")
LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
LG = [float.fromhex(h) for h in (
    "0x1.5555555555593p-1", "0x1.999999997fa04p-2", "0x1.2492494229359p-2", "0x1.c71c51d8e78afp-3",
    "0x1.7466496cb03dep-3", "0x1.39a09d078c69fp-3", "0x1.2f112df3e5244p-3",
)]


def reference_log(y):
    """log(y) for a float ``y > 0``: y = 2**k * m with m in [sqrt(1/2), sqrt(2)),
    f = m - 1, s = f / (2 + f), and fdlibm's polynomial in s**2."""
    m, k = math.frexp(y)
    if m < math.sqrt(0.5):
        m, k = 2.0 * m, k - 1
    f = m - 1.0
    s = f / (2.0 + f)
    z = s * s
    r = z * (LG[0] + z * (LG[1] + z * (LG[2] + z * (LG[3] + z * (LG[4] + z * (LG[5] + z * LG[6]))))))
    half_f2 = 0.5 * f * f
    return k * LN2_HI - ((half_f2 - (s * (half_f2 + r) + k * LN2_LO)) - f)


# The ziggurat's pinned constants: R, V and exp(-R**2 / 2).
LAYERS = 1024
ZIG_R = float.fromhex("0x1.027c84109fad5p+2")
ZIG_V = float.fromhex("0x1.417941005fc17p-10")
ZIG_F_R = float.fromhex("0x1.2ce74ae9493f7p-12")
SIDE_TAG = 0x5A16


def reference_layers():
    """Edges x_j and heights f_j of the layers, from the bottom layer up:
    f_{j-1} = V / x_j + f_j, x_{j-1} = sqrt(-2 log f_{j-1}).  Entry 0 is the
    base strip: width V / f(R), height 1 (the top of layer 1)."""
    edge = {LAYERS - 1: ZIG_R}
    height = {LAYERS - 1: ZIG_F_R, 0: 1.0}
    for j in range(LAYERS - 1, 1, -1):
        height[j - 1] = ZIG_V / edge[j] + height[j]
        edge[j - 1] = math.sqrt(-2.0 * reference_log(height[j - 1]))
    edge[0] = ZIG_V / ZIG_F_R
    return [edge[j] for j in range(LAYERS)], [height[j] for j in range(LAYERS)]


EDGE, HEIGHT = reference_layers()
# Layer j's inner edge: R for the base strip, 0 for the top layer.
INNER = [ZIG_R, 0.0] + EDGE[1:-1]
# The fast test u < floor(2**53 * inner / edge), the quotient rounded.
BOUND = [math.floor(inner / edge * 2.0**53) for inner, edge in zip(INNER, EDGE)]


def reference_variate(seed, position, paths=None):
    """The standard normal variate at ``position`` of the stream for ``seed``.

    The word's bits 0-9 are the layer, bit 10 the sign and bits 11-63 the
    magnitude u; the variate is +-u * x_j / 2**53 when u is below the bound.
    Else attempt a = 0, 1, ... reads words 2p and 2p + 1 of the side stream
    ``derive_seed(seed, SIDE_TAG, a)``: in the base strip a tail draw, else a
    wedge test whose failure takes the second word as a fresh word.
    ``paths``, if given, counts "fast", "wedge", "tail" and "retry" steps.
    """
    w = reference_word(seed, position)
    attempt = 0
    while True:
        layer, sign, u = w & 0x3FF, -1.0 if w >> 10 & 1 else 1.0, w >> 11
        x = sign * (u * (EDGE[layer] * 2.0**-53))
        if u < BOUND[layer]:
            _count(paths, "fast")
            return x
        while True:
            side = reference_derive_seed(seed, SIDE_TAG, attempt)
            u0 = ((reference_word(side, 2 * position) >> 11) + 1) * 2.0**-53
            w = reference_word(side, 2 * position + 1)
            attempt += 1
            if layer == 0:
                _count(paths, "tail")
                excess = reference_log(u0) / -ZIG_R
                if -2.0 * reference_log(((w >> 11) + 1) * 2.0**-53) > excess * excess:
                    return sign * (ZIG_R + excess)
                _count(paths, "retry")
                continue
            _count(paths, "wedge")
            height = u0 * (HEIGHT[layer - 1] - HEIGHT[layer]) + HEIGHT[layer]
            if -2.0 * reference_log(height) > x * x:
                return x
            _count(paths, "retry")
            break


def _count(paths, step):
    if paths is not None:
        paths[step] = paths.get(step, 0) + 1


def reference_normal(seed, n, position=0, paths=None):
    """``n`` standard normal variates from stream position ``position`` on,
    one scalar variate at a time."""
    return np.array([reference_variate(seed, position + i, paths) for i in range(n)], dtype=np.float64)


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
