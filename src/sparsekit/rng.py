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
  depends on the block size, on where a draw's blocks start, or on which
  thread makes a block.  A large ``normal`` draw in a process that may run
  on more than one core shares its blocks between the calling thread and
  one helper thread, started by the first such draw; its bytes and the
  stream positions it consumes are those of a draw on one thread.
* Derived seeds: ``derive_seed(master, *parts)`` folds each integer part
  into the state with one mix64 round.  Trial ``i`` of a benchmark uses
  ``derive_seed(master_seed, i)``, and the operator / signal / noise
  streams inside a trial use stream tags ``derive_seed(trial_seed, tag)``
  with tags 1, 2, 3 respectively (see ``bench``).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

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
# A normal draw of more than _SPLIT_BLOCKS blocks (2**16 words) is shared
# with a helper thread.  Measured on two cores against one thread, a split
# draw took 0.54-0.66 times as long from 2**17 words on, 0.65-0.70 at 2**16
# and 0.77-0.86 at 2**15 with the other core idle; with it busy, 0.96-1.05
# times from 2**17 on, 1.07 at 2**16 and 1.10 at 2**15.  Signs and raw words
# never split: they cost too little per word for handing blocks over to pay.
_SPLIT_BLOCKS = 2


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class _Helper:
    """The one thread that takes blocks of split draws beside their callers,
    started by the first draw that splits."""

    def __init__(self):
        self._lock = threading.Lock()
        self._pool = None

    def submit(self, fn):
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(1, thread_name_prefix="sparsekit-rng")
            return self._pool.submit(fn)


_HELPER = _Helper()
if hasattr(os, "register_at_fork"):
    # A forked child has no helper thread, and a lock held at the fork stays
    # held there: the child starts its own helper when it first needs one.
    os.register_at_fork(after_in_child=_HELPER.__init__)


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
    ``signs`` draw allocates its result and two blocks (512 KiB) of scratch:
    on one thread, or half on each thread of a split draw.
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
        out = np.empty(n, np.uint64)
        self._fill(out, start, self._raw_block)
        return out

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard normal doubles via Box-Muller."""
        size = 2 * ((n + 1) // 2)
        start = self._take(size)
        out = np.empty(size)
        self._fill(out, start, self._normal_block, split=True)
        return out[:n]

    def signs(self, n: int) -> np.ndarray:
        """``n`` equiprobable +-1.0 values (top bit of each word)."""
        start = self._take(n)
        out = np.empty(n)
        self._fill(out, start, self._signs_block)
        return out

    def _fill(self, out: np.ndarray, start: int, fill, split: bool = False) -> None:
        """Fill ``out`` from stream position ``start`` on, a block at a time:
        ``fill(first, dest, scratch)`` maps the words from position ``first``
        on into the block's slice ``dest``, with scratch of twice its size
        that belongs to the thread making it.

        With ``split``, a draw of more than ``_SPLIT_BLOCKS`` blocks in a
        process that may run on more than one core is shared: the caller and
        the helper thread take half blocks from one counter, so together
        they hold the scratch of one thread.  The caller never waits for a
        block it could take itself.  Once none is left, it cancels the
        helper's share if the helper has not started it (it may still be
        busy with another thread's draw), else waits for the block the
        helper is making.
        """
        size = out.size
        if not (split and size > _SPLIT_BLOCKS * _BLOCK and _cores() > 1):
            scratch = np.empty(2 * min(size, _BLOCK), np.uint64)
            for lo in range(0, size, _BLOCK):
                fill(start + lo, out[lo : lo + _BLOCK], scratch)
            return
        block = _BLOCK // 4 * 2  # half a block, in whole Box-Muller pairs
        blocks = iter(range(0, size, block))
        lock = threading.Lock()

        def take_blocks():
            scratch = np.empty(2 * block, np.uint64)
            while True:
                with lock:
                    lo = next(blocks, None)
                if lo is None:
                    return
                fill(start + lo, out[lo : lo + block], scratch)

        helped = _HELPER.submit(take_blocks)
        take_blocks()
        if not helped.cancel():
            helped.result()

    def _raw_block(self, first: int, dest: np.ndarray, scratch: np.ndarray) -> None:
        _mix64_array(self._counters(first, dest.size, dest), scratch[: dest.size])

    def _normal_block(self, first: int, dest: np.ndarray, scratch: np.ndarray) -> None:
        # Variates 2i and 2i + 1 come from words 2i and 2i + 1.  ``dest`` is
        # the mix's scratch until the variates land in it, and the spent words
        # hold each trig value.
        half = dest.size // 2
        words = self._counters(first, dest.size, scratch[: dest.size])
        z = _mix64_array(words, dest.view(np.uint64))
        z >>= _SHIFT_11
        radius = scratch[dest.size : dest.size + half].view(np.float64)
        angle = scratch[dest.size + half : 2 * dest.size].view(np.float64)
        trig = words[:half].view(np.float64)
        # u1 in (0, 1] so log never sees zero; u2 in [0, 1).  The strided
        # halves are read into contiguous arrays: numpy may take another loop
        # for strided input, and the bits of log/cos/sin must not depend on
        # that.
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

    def _signs_block(self, first: int, dest: np.ndarray, scratch: np.ndarray) -> None:
        z = _mix64_array(self._counters(first, dest.size, dest.view(np.uint64)), scratch[: dest.size])
        z &= _TOP_BIT
        z ^= _MINUS_ONE_BITS

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
