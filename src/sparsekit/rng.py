"""Seeded random number generation from one documented bit stream.

Every random draw in this package comes from one fixed, fully documented
generator.  Its words and index draws are integer arithmetic and match a
pure-Python reference on any platform.  Its Gaussian variates go through
numpy's ``log``, ``cos`` and ``sin``, whose last bits can differ between
CPUs (ROADMAP item 1), so variates, fixtures and benchmark outputs are
verified bit for bit across reruns and thread counts on one numpy/BLAS
build only:

* Bit stream: SplitMix64.  Output ``i`` (0-based) for seed ``s`` is
  ``mix64((s + (i + 1) * 0x9E3779B97F4A7C15) mod 2**64)`` where ``mix64``
  is the standard SplitMix64 finalizer (xor-shift 30 / multiply
  0xBF58476D1CE4E5B9 / xor-shift 27 / multiply 0x94D049BB133111EB /
  xor-shift 31).
* Gaussians: the Box-Muller transform on pairs of words, each taken as
  its top 53 bits scaled by 2**-53 (no ziggurat, no rejection).
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
_GAMMA_U64 = np.uint64(_GAMMA)
_MIX_A_U64 = np.uint64(_MIX_A)
_MIX_B_U64 = np.uint64(_MIX_B)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)


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


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place; returns ``z``."""
    shifted = z >> _SHIFT_30
    z ^= shifted
    z *= _MIX_A_U64
    np.right_shift(z, _SHIFT_27, out=shifted)
    z ^= shifted
    z *= _MIX_B_U64
    np.right_shift(z, _SHIFT_31, out=shifted)
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
    population still unpicked at that step.
    """

    def __init__(self, seed: int):
        self._seed_u64 = np.uint64(seed & _MASK64)
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` output words as uint64."""
        if n < 0:
            raise ValueError("draw count must be non-negative")
        start = self._position
        self._position += n
        state = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        state *= _GAMMA_U64
        state += self._seed_u64
        return _mix64_array(state)

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard normal doubles via Box-Muller."""
        pairs = (n + 1) // 2
        words = self.raw(2 * pairs).reshape(pairs, 2)
        words >>= np.uint64(11)
        # u1 in (0, 1] so log never sees zero; u2 in [0, 1).  The columns
        # are copied out contiguous: numpy may take another loop for strided
        # input, and the bits of log/cos/sin must not depend on that.
        radius = words[:, 0].astype(np.float64)
        radius += 1.0
        radius *= _INV_2_53
        angle = words[:, 1].astype(np.float64)
        del words
        angle *= _INV_2_53
        angle *= 2.0 * math.pi
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        # Row i of ``out`` holds variates 2i and 2i + 1.
        out = np.empty((pairs, 2))
        trig = np.cos(angle)
        np.multiply(radius, trig, out=out[:, 0])
        np.sin(angle, out=trig)
        np.multiply(radius, trig, out=out[:, 1])
        return out.reshape(-1)[:n]

    def signs(self, n: int) -> np.ndarray:
        """``n`` equiprobable +-1.0 values (top bit of each word)."""
        words = self.raw(n)
        words >>= np.uint64(63)
        out = words.astype(np.float64)
        out *= 2.0
        out -= 1.0
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
        block.  Only the
        entries moved past the prefix are stored, so the cost is O(k) for
        any population.  Returns the ``k`` picks in order and the map from
        each later position that was moved to the entry now there.
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
