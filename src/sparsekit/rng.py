"""Seeded random number generation from one documented bit stream.

Every random draw in this package comes from one fixed, fully documented
generator.  Its words and index draws are integer arithmetic and match a
pure-Python reference on any platform.  Its Gaussian variates go through
numpy's ``log``, ``cos`` and ``sin``, whose last bits can differ between
CPUs (ROADMAP item 5), so variates, fixtures and benchmark outputs are
verified bit for bit across reruns and thread counts on one numpy/BLAS
build only:

* Bit stream: SplitMix64.  Output ``i`` (0-based) for seed ``s`` is
  ``mix64((s + (i + 1) * 0x9E3779B97F4A7C15) mod 2**64)`` where ``mix64``
  is the standard SplitMix64 finalizer (xor-shift 30 / multiply
  0xBF58476D1CE4E5B9 / xor-shift 27 / multiply 0x94D049BB133111EB /
  xor-shift 31).
* Gaussians: the Box-Muller transform on pairs of words, each taken as
  its top 53 bits scaled by 2**-53 (no ziggurat, no rejection).
* Blocks: ``raw``, ``normal`` and ``signs`` make their words a fixed
  ``_BLOCK`` at a time and map each block into its slice of the result
  while it is in cache.  Every step is elementwise, so no bit of any draw
  depends on the block size or on where a draw's blocks start.
* Derived seeds: ``derive_seed(master, *parts)`` folds each integer part
  into the state with one mix64 round.  Trial ``i`` of a benchmark uses
  ``derive_seed(master_seed, i)``, and the operator / signal / noise
  streams inside a trial use stream tags ``derive_seed(trial_seed, tag)``
  with tags 1, 2, 3 respectively (see ``bench``).
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53

# The array path's constants and shift counts as uint64 scalars, built once:
# rebuilt on every call, they were about a third of a small draw's cost.
_MIX_A_U64 = np.uint64(_MIX_A)
_MIX_B_U64 = np.uint64(_MIX_B)
_SHIFT_11 = np.uint64(11)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
# A sign as bits: a word's top bit xor-ed into the bits of -1.0 gives +1.0
# for a set bit and -1.0 for a clear one.
_TOP_BIT = np.uint64(1 << 63)
_MINUS_ONE_BITS = np.uint64(0xBFF0000000000000)
# Box-Muller's angle scale in one factor: 2*pi*2**-53 only rescales 2*pi by
# a power of two, so ``w * _ANGLE_SCALE`` rounds to the same double as
# ``(w * 2**-53) * (2 * pi)``.
_ANGLE_SCALE = 2.0 * math.pi * _INV_2_53

# Words are made _BLOCK at a time (256 KiB of uint64), so each block is
# generated, mixed and mapped while it sits in cache.  Even, so a block
# always holds whole Box-Muller pairs.  _RAMP[j] is (j + 1) * GAMMA mod 2**64:
# a block's counters are this ramp plus the block's offset.
_BLOCK = 2**15
_RAMP = np.arange(1, _BLOCK + 1, dtype=np.uint64)
_RAMP *= np.uint64(_GAMMA)


def mix64(value: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer (scalar path)."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, *parts: int) -> int:
    """Derive a child seed from a master seed and integer labels.

    The rule is ``h <- mix64((h + GAMMA) XOR part)`` applied left to
    right, starting from ``h = master_seed mod 2**64``.  Used for
    per-trial seeds and per-stream seeds inside a trial.
    """
    h = master_seed & _MASK64
    for part in parts:
        h = mix64(((h + _GAMMA) & _MASK64) ^ (part & _MASK64))
    return h


def _mix64_array(z: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place, with ``shifted``
    (same size) as scratch; returns ``z``."""
    np.right_shift(z, _SHIFT_30, shifted)
    z ^= shifted
    z *= _MIX_A_U64
    np.right_shift(z, _SHIFT_27, shifted)
    z ^= shifted
    z *= _MIX_B_U64
    np.right_shift(z, _SHIFT_31, shifted)
    z ^= shifted
    return z


class SplitMix64:
    """Seedable counter-based SplitMix64 stream.

    Every draw consumes a documented number of stream positions, so
    generation is reproducible regardless of block sizes.  ``raw(n)`` and
    ``signs(n)`` consume ``n``; ``normal(n)`` always consumes
    ``2 * ceil(n / 2)``.  ``choose_without_replacement(population, k)``
    consumes exactly ``k`` positions and ``permutation(n)`` consumes
    ``max(n - 1, 0)``: one word per Fisher-Yates step, reduced modulo the
    population still unpicked at that step.  A large ``raw``, ``normal`` or
    ``signs`` draw allocates its result and at most two and a half blocks
    (640 KiB) of scratch.
    """

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    def _take(self, n: int) -> int:
        """Consume ``n`` positions; returns the first."""
        if n < 0:
            raise ValueError("draw count must be non-negative")
        start = self._position
        self._position += n
        return start

    def _counters(self, start: int, n: int, out=None) -> np.ndarray:
        """The unmixed states of words ``start .. start + n - 1`` (``n`` at
        most ``_BLOCK``), into ``out`` or, if it is None, a new array."""
        offset = np.uint64((self._seed + start * _GAMMA) & _MASK64)
        return np.add(_RAMP[:n], offset, out)

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` output words as uint64."""
        start = self._take(n)
        if n <= _BLOCK:  # one block: its words are the result
            return _mix64_array(self._counters(start, n), np.empty(n, np.uint64))
        out = np.empty(n, np.uint64)
        shifted = np.empty(_BLOCK, np.uint64)
        for lo in range(0, n, _BLOCK):
            z = self._counters(start + lo, min(_BLOCK, n - lo), out[lo : lo + _BLOCK])
            _mix64_array(z, shifted[: z.size])
        return out

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard normal doubles via Box-Muller."""
        size = 2 * ((n + 1) // 2)
        start = self._take(size)
        # Variates 2i and 2i + 1 come from words 2i and 2i + 1.  The block's
        # slice of ``out`` is the mix's scratch until the variates land in it.
        out = np.empty(size)
        block = min(size, _BLOCK)
        words = np.empty(block, np.uint64)
        radius, angle, trig = np.empty(block // 2), np.empty(block // 2), np.empty(block // 2)
        for lo in range(0, size, _BLOCK):
            dest = out[lo : lo + _BLOCK]
            if dest.size < block:  # the last block is short
                half = dest.size // 2
                words, radius, angle, trig = words[: dest.size], radius[:half], angle[:half], trig[:half]
            z = _mix64_array(self._counters(start + lo, dest.size, words), dest.view(np.uint64))
            z >>= _SHIFT_11
            # u1 in (0, 1] so log never sees zero; u2 in [0, 1).  The strided
            # halves are read into contiguous arrays: numpy may take another
            # loop for strided input, and the bits of log/cos/sin must not
            # depend on that.
            np.add(z[0::2], 1.0, radius)
            radius *= _INV_2_53
            np.multiply(z[1::2], _ANGLE_SCALE, angle)
            np.log(radius, radius)
            radius *= -2.0
            np.sqrt(radius, radius)
            np.cos(angle, trig)
            np.multiply(radius, trig, dest[0::2])
            np.sin(angle, trig)
            np.multiply(radius, trig, dest[1::2])
        return out[:n]

    def signs(self, n: int) -> np.ndarray:
        """``n`` equiprobable +-1.0 values (top bit of each word)."""
        start = self._take(n)
        out = np.empty(n)
        bits = out.view(np.uint64)
        shifted = np.empty(min(n, _BLOCK), np.uint64)
        for lo in range(0, n, _BLOCK):
            z = self._counters(start + lo, min(_BLOCK, n - lo), bits[lo : lo + _BLOCK])
            _mix64_array(z, shifted[: z.size])
            z &= _TOP_BIT
            z ^= _MINUS_ONE_BITS
        return out

    def choose_without_replacement(self, population: int, k: int) -> np.ndarray:
        """``k`` distinct indices from [0, population), sorted ascending.

        Partial Fisher-Yates: uniform over size-k subsets.
        """
        if not 0 <= k <= population:
            raise ValueError("need 0 <= k <= population")
        picked, _ = self._fisher_yates(population, k)
        out = np.array(picked, dtype=np.int64)
        out.sort()
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Full Fisher-Yates permutation of [0, n)."""
        order, displaced = self._fisher_yates(n, max(n - 1, 0))
        if n > 0:  # the one entry no step picked
            order.append(displaced.get(n - 1, n - 1))
        return np.array(order, dtype=np.int64)

    def _fisher_yates(self, population: int, k: int):
        """The first ``k`` steps of a Fisher-Yates shuffle of [0, population).

        Step ``i`` swaps entry ``i`` with entry ``i + word_i % (population - i)``;
        the modulo bias, below population / 2**64, is accepted for a simple,
        fully specified reduction.  All ``k`` words come from one ``raw(k)``
        block.  Only the entries moved past the prefix are stored, so the
        cost is O(k) for any population.  Returns the ``k`` picks in order
        and the map from each later position that was moved to the entry
        now there.
        """
        bounds = np.arange(population, population - k, -1, dtype=np.uint64)
        offsets = (self.raw(k) % bounds).tolist()
        picked = []
        displaced = {}
        for i, offset in enumerate(offsets):
            j = i + offset
            picked.append(displaced.get(j, j))
            displaced[j] = displaced.pop(i, i)
        return picked, displaced
