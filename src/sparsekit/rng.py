"""Seeded random number generation from one documented bit stream.

Every random draw in this package comes from one fixed, fully documented
generator.  Every draw is integer arithmetic plus IEEE 754 double add,
subtract, multiply, divide and square root, each correctly rounded, in a
fixed order: no draw calls the platform's ``log``, ``exp`` or trig
functions, so the bits of every draw are the same on every CPU and match
the tests' pure-Python reference:

* Bit stream: SplitMix64.  Output ``i`` (0-based) for seed ``s`` is
  ``mix64((s + (i + 1) * 0x9E3779B97F4A7C15) mod 2**64)`` where ``mix64``
  is the standard SplitMix64 finalizer (xor-shift 30 / multiply
  0xBF58476D1CE4E5B9 / xor-shift 27 / multiply 0x94D049BB133111EB /
  xor-shift 31).
* Gaussians: a ziggurat (Marsaglia & Tsang, "The Ziggurat Method for
  Generating Random Variables", J. Stat. Softw. 5(8), 2000) of 1024
  layers.  Variate ``i`` of a draw comes from the word at its stream
  position: bits 0-9 pick the layer, bit 10 the sign and the top 53 bits
  the magnitude ``u``, so the layer and the value take disjoint bits
  (Doornik, "An Improved Ziggurat Method to Generate Normal Random
  Samples", 2005).  When ``u`` is below the layer's integer bound, the
  variate is ``+-u`` times the layer's width over 2**53: one exact compare
  and one correctly rounded multiply, taken by 99.57 % of words.  The rest
  are resolved from side streams: attempt ``a`` for the variate at stream
  position ``p`` reads words ``2p`` and ``2p + 1`` of
  ``SplitMix64(derive_seed(seed, 0x5A16, a))`` for a wedge test, a tail
  draw or, after a failed wedge test, a fresh word, one array round per
  attempt (``SplitMix64._resolve``).  The wedge and tail tests use
  ``_log``, fdlibm's logarithm built from basic operations, and the layer
  tables are computed from three pinned constants the same way.
* Blocks: ``raw``, ``normal`` and ``signs`` make their words a fixed
  ``_BLOCK`` at a time and map each block into its slice of the result
  while it is in cache.  A variate depends only on its stream position, so
  no bit of any draw depends on the block size or on where a draw's blocks
  start.  ``normal(n, scale=s)`` and ``signs(n, scale=s)``, as ``sensing``
  draws a dense operator's entries, finish each value in its block: a
  Gaussian variate is multiplied by ``s`` there, or as its rejected word
  is resolved, and a sign's top bit is xor-ed into the bits of ``-s``.
  So the draw has the bits of the unscaled draw times ``s``, without a
  pass over the result (a 512 x 2048 Bernoulli operator: 4.0 -> 3.0 ms).
  A ``raw`` or ``normal`` draw of at most ``_WORDWISE`` (12) words skips
  the blocks' fixed numpy costs: it maps its words one at a time in
  Python, with ``mix64`` and list copies of the tables (``normal(4)``:
  13.3 -> 4.6 us), and resolves its rejected words as a block draw does.
  Every draw runs on its calling thread.
* Index draws: ``choose_without_replacement`` and ``permutation`` run
  Fisher-Yates steps, one word each.  Below ``_REPLAY_STEPS`` (128) steps
  a Python loop swaps the entries; from there on the same swaps are
  replayed on arrays, by sorting the steps by target and following each
  step's chain of earlier steps into the same position, which costs about
  28 us plus 0.04 us a step against the loop's 0.22 us a step
  (``permutation(4096)``: 849 -> 198 us).  Both give the same indices and
  consume the same stream positions.
* Derived seeds: ``derive_seed(master, *parts)`` mixes the master seed,
  then folds each integer part into the state with one mix64 round.
  Trial ``i`` of a benchmark uses ``derive_seed(master_seed, i)``, and
  the operator / signal / noise streams inside a trial use stream tags
  ``derive_seed(trial_seed, tag)`` with tags 1, 2, 3 respectively (see
  ``bench``).
"""

from __future__ import annotations

import math
import numbers
import operator
import sys

import numpy as np

from .errors import UsageError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53
_MAX_DOUBLE = sys.float_info.max

# The array path's constants and shift counts as uint64 scalars, built once:
# rebuilt on every call, they were about a third of a small draw's cost.
_MIX_A_U64 = np.uint64(_MIX_A)
_MIX_B_U64 = np.uint64(_MIX_B)
_SHIFT_11 = np.uint64(11)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
# A sign as bits: a word's top bit xor-ed into the bits of -x (x > 0) gives
# +x for a set bit and -x for a clear one.
_TOP_BIT = np.uint64(1 << 63)
# A word's low 11 bits: its ziggurat layer (bits 0-9) and sign (bit 10).
_INDEX_BITS = 0x7FF
_LOW_BITS = np.uint64(_INDEX_BITS)
_LAYER_BITS = 0x3FF
_ONE = np.uint64(1)
_TWO_GAMMA = np.uint64(2 * _GAMMA & _MASK64)
# The tag of the ziggurat's side streams, one per attempt (``derive_seed``).
_SIDE_TAG = 0x5A16
# A draw resolves its rejected words together, at most _RESOLVE_CHUNK at a
# time, which bounds the memory of an array round; each chunk runs one
# round per attempt until none of its words is left open.  A round costs
# about 40 us however few words it takes, plus about 115 bytes of arrays a
# word, so a full round of 8192 holds about 0.9 MiB.  A 2**20 draw has
# about 4,500 rejected words and resolves them in one chunk in 0.36 ms,
# where chunks of 1024 take five and 0.59 ms (best of 15 on a 2-vCPU VM
# with numpy 2.4.6).  The bits do not depend on the constant.
_RESOLVE_CHUNK = 8192
# ``raw`` and ``normal`` map a draw of at most _WORDWISE words one word at a
# time in Python, with ``mix64`` and the list tables, rather than in blocks.
# Per call in us, blocks -> words, best of 15 x 300 calls on a 2-vCPU VM with
# numpy 2.4.6: raw(4) 7.9 -> 3.5, raw(8) 7.9 -> 6.1, raw(12) 8.0 -> 8.2,
# raw(16) 7.9 -> 10.5; normal(4) 13.3 -> 4.6, normal(8) 13.5 -> 8.4,
# normal(12) 14.4 -> 11.6, normal(16) 14.2 -> 14.2, normal(24) 14.2 -> 20.3.
_WORDWISE = 12

# Words are made _BLOCK at a time (256 KiB of uint64), so each block is
# generated, mixed and mapped while it sits in cache.  _RAMP[j] is
# (j + 1) * GAMMA mod 2**64: a block's counters are this ramp plus the
# block's offset.
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
    right, starting from ``h = mix64(master_seed + GAMMA)``.  The master
    is mixed first so that different masters have unrelated children:
    folded in unmixed, it gave ``derive_seed(5, i) == derive_seed(7, i ^ 6)``
    for every ``i``, so masters 5 and 7 ran the same trials in another
    order.  Used for per-trial seeds and per-stream seeds inside a trial.
    Numpy integers give the bits of their Python values.
    """
    h = mix64(operator.index(master_seed) + _GAMMA)
    for part in parts:
        h = mix64(((h + _GAMMA) & _MASK64) ^ (operator.index(part) & _MASK64))
    return h


def _checked_scale(scale) -> float:
    """``scale`` as a float; ``UsageError`` unless it is a finite real > 0 (a bool is not one)."""
    if isinstance(scale, bool) or not isinstance(scale, (float, numbers.Real)) or not 0 < scale <= _MAX_DOUBLE:
        raise UsageError(f"scale must be a finite real number > 0, got {scale!r}")
    return float(scale)


def _integer(name: str, value) -> int:
    """``value`` as a Python int; ``UsageError`` unless it is an integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _mix64_array(z: np.ndarray, shifted: np.ndarray, *, top_bit_only: bool = False) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place, with ``shifted``
    (same size) as scratch; returns ``z``.  With ``top_bit_only`` it stops
    before the last xor-shift, which cannot change the top bit."""
    np.right_shift(z, _SHIFT_30, shifted)
    z ^= shifted
    z *= _MIX_A_U64
    np.right_shift(z, _SHIFT_27, shifted)
    z ^= shifted
    z *= _MIX_B_U64
    if not top_bit_only:
        np.right_shift(z, _SHIFT_31, shifted)
        z ^= shifted
    return z


class SplitMix64:
    """Seedable counter-based SplitMix64 stream.

    The generator holds only its seed and its stream position.  Every draw
    consumes a documented number of stream positions, so generation is
    reproducible regardless of block sizes.  ``raw(n)``, ``normal(n)`` and
    ``signs(n)`` consume ``n``; ``normal`` and ``signs`` take a ``scale``
    that multiplies every value, a finite real > 0 checked before any
    position is used.  A Gaussian variate whose word the ziggurat rejects
    reads side streams keyed by its position, never later positions of this
    one.  A ``raw`` or ``normal`` draw of at most ``_WORDWISE`` words maps
    them one at a time with ``mix64`` and the list tables, to the same bits
    and positions.  ``choose_without_replacement(population, k)`` consumes
    exactly ``k`` positions and ``permutation(n)`` consumes
    ``max(n - 1, 0)``: one word per Fisher-Yates step, reduced modulo the
    population still unpicked at that step.  The steps run in a Python loop
    below ``_REPLAY_STEPS`` (128) of them and are replayed on arrays from
    there on, with the same picks and positions either way; a replay of k
    steps allocates a few int64 arrays of k.  A large ``raw``, ``normal`` or
    ``signs`` draw allocates its result and two blocks (512 KiB) of scratch;
    ``normal`` adds a block's reject mask (32 KiB), the positions, layers
    and unscaled values of its rejected words (0.43 % of the draw, 24 bytes
    each) and, for resolving up to ``_RESOLVE_CHUNK`` (8192) of them at a
    time, about 115 bytes of arrays a word.  Counts and seeds are integers;
    a bool is not one.
    """

    def __init__(self, seed: int):
        self._seed = _integer("seed", seed) & _MASK64
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    def _take(self, n: int) -> int:
        """Consume ``n`` positions; returns the first.  The position stays a
        Python integer, so a numpy ``n`` cannot overflow the seed arithmetic."""
        n = _integer("draw count", n)
        if n < 0:
            raise UsageError("draw count must be non-negative")
        start = self._position
        self._position += n
        return start

    def _counters(self, start: int, out: np.ndarray) -> np.ndarray:
        """The unmixed states of words ``start .. start + out.size - 1``
        (at most ``_BLOCK`` of them), into ``out``; returns ``out``."""
        offset = np.uint64((self._seed + start * _GAMMA) & _MASK64)
        return np.add(_RAMP[: out.size], offset, out)

    def _words(self, start: int, n: int) -> list:
        """Words ``start .. start + n - 1`` as Python ints, one ``mix64`` each."""
        base = self._seed + start * _GAMMA
        return [mix64(base + i * _GAMMA) for i in range(1, n + 1)]

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` output words as uint64."""
        start = self._take(n)
        if n <= _WORDWISE:
            return np.array(self._words(start, n), np.uint64)
        out = np.empty(n, np.uint64)
        self._fill(out, start, self._raw_block)
        return out

    def normal(self, n: int, *, scale: float = 1.0) -> np.ndarray:
        """``n`` standard normal doubles from the ziggurat, one per position,
        each times ``scale``: the bits of ``normal(n) * scale``.

        The words take the fast path and are multiplied by ``scale`` there
        (at 1.0 nothing is multiplied); the words it rejects, about 0.43 %,
        are then resolved together, so a large draw pays the fixed cost of
        resolving them once.
        """
        scale = _checked_scale(scale)
        start = self._take(n)
        if n <= _WORDWISE:
            out, found = [], []
            for position, word in enumerate(self._words(start, n), start):
                index, u = word & _INDEX_BITS, word >> 11
                out.append(u * _WIDTH[index])
                if u >= _BOUND[index]:
                    found.append((position, index & _LAYER_BITS, out[-1]))
            out = np.array(out, np.float64)
            if scale != 1.0:
                out *= scale
            rejects = [tuple(map(np.array, zip(*found)))] if found else []
        else:
            out = np.empty(n)
            rejects = [block for block in self._fill(out, start, self._normal_block, scale) if block is not None]
        if rejects:
            positions, layers, values = rejects[0] if len(rejects) == 1 else map(np.concatenate, zip(*rejects))
            for lo in range(0, positions.size, _RESOLVE_CHUNK):
                chunk = slice(lo, lo + _RESOLVE_CHUNK)
                self._resolve(start, out, scale, positions[chunk], layers[chunk], values[chunk])
        return out

    def signs(self, n: int, *, scale: float = 1.0) -> np.ndarray:
        """``n`` equiprobable +-1.0 values (top bit of each word), each times
        ``scale``: the bits of ``signs(n) * scale``."""
        negative = np.float64(-_checked_scale(scale)).view(np.uint64)
        start = self._take(n)
        out = np.empty(n)
        self._fill(out, start, self._signs_block, negative)
        return out

    def _fill(self, out: np.ndarray, start: int, fill, *args) -> list:
        """Fill ``out`` from stream position ``start`` on, a block at a time:
        ``fill(first, dest, scratch, *args)`` maps the words from position
        ``first`` on into the block's slice ``dest``, with scratch of twice
        its size.  Returns what each ``fill`` returned."""
        scratch = np.empty(2 * min(out.size, _BLOCK), np.uint64)
        return [fill(start + lo, out[lo : lo + _BLOCK], scratch, *args) for lo in range(0, out.size, _BLOCK)]

    def _raw_block(self, first: int, dest: np.ndarray, scratch: np.ndarray) -> None:
        _mix64_array(self._counters(first, dest), scratch[: dest.size])

    def _normal_block(self, first: int, dest: np.ndarray, scratch: np.ndarray, scale: float):
        """The ziggurat's fast path for every word of a block at once: the low
        11 bits pick a bound and a signed width from 2048-entry tables, and
        the top 53 bits are the magnitude.  ``dest`` holds the bounds until
        the variates land in it, then, unless ``scale`` is 1.0, their
        products with ``scale``.  Returns the stream positions, layers and
        unscaled signed values of the rejected words, or None if there are
        none."""
        n = dest.size
        words = _mix64_array(self._counters(first, scratch[:n]), scratch[n : 2 * n])
        index = np.bitwise_and(words, _LOW_BITS, scratch[n : 2 * n]).view(np.int64)
        magnitude = np.right_shift(words, _SHIFT_11, words).view(np.int64)
        rejected = (magnitude >= _ZIG_BOUND.take(index, out=dest.view(np.int64), mode="wrap")).nonzero()[0]
        np.multiply(magnitude, _ZIG_WIDTH.take(index, out=dest, mode="wrap"), dest)
        found = (rejected + first, index[rejected] & _LAYER_BITS, dest[rejected]) if rejected.size else None
        if scale != 1.0:
            dest *= scale
        return found

    def _resolve(
        self, start: int, out: np.ndarray, scale: float, positions: np.ndarray, layer: np.ndarray, value: np.ndarray
    ) -> None:
        """Write the variates at stream ``positions`` of a draw ``out`` from
        position ``start``, times ``scale``: their words, in layers ``layer``
        with signed values ``value = +-u * width``, failed the fast test.

        Attempt ``a`` reads side words ``2p`` and ``2p + 1`` of the side
        stream ``derive_seed(seed, _SIDE_TAG, a)``, at ``p`` the variate's
        position.  In the base layer (0) the variate lies past the last
        layer's edge ``R``: the words give ``e0 = -log(u0)`` and
        ``e1 = -log(u1)``, and ``+-(R + e0 / R)`` is taken when
        ``2 * e1 > (e0 / R)**2``.  In any other layer, word ``2p`` gives a
        height ``y`` in the layer, and the value ``x`` is taken when
        ``-2 * log(y) > x**2``, that is, when ``y < exp(-x**2 / 2)``; else
        word ``2p + 1`` starts over as a fresh word.  A round runs one attempt
        for every variate still open and writes each of them times ``scale``.
        """
        attempt = 0
        while positions.size:
            seed = derive_seed(self._seed, _SIDE_TAG, attempt)
            starts = np.array([(seed + _GAMMA) & _MASK64, (seed + 2 * _GAMMA) & _MASK64], np.uint64)
            keys = positions.astype(np.uint64) * _TWO_GAMMA
            words = _mix64_array(np.add.outer(starts, keys), np.empty((2, keys.size), np.uint64))
            n = keys.size
            tails = (layer == 0).nonzero()[0]
            # One log for the first side word of every variate, a wedge test's
            # height or a tail's first uniform, and the second of every tail.
            uniform = ((np.concatenate((words[0], words[1, tails])) >> _SHIFT_11) + _ONE) * _INV_2_53
            heights = uniform[:n]
            heights *= _WEDGE_SPAN[layer]
            heights += _WEDGE_BASE[layer]
            logs = _log(uniform, np.frexp)
            index = (words[1] & _LOW_BITS).view(np.int64)
            u = (words[1] >> _SHIFT_11).view(np.int64)
            # A failed wedge test takes the fresh word, left open if it fails
            # the fast test too.
            taken = -2.0 * logs[:n] > value * value
            left = ~taken & (u >= _ZIG_BOUND[index])
            layer = index & _LAYER_BITS
            resolved = np.where(taken, value, u * _ZIG_WIDTH[index])
            if tails.size:
                # A tail keeps its sign, taken or not.
                excess = logs[tails] / -_ZIG_R
                resolved[tails] = np.copysign(_ZIG_R + excess, value[tails])
                left[tails] = ~(-2.0 * logs[n:] > excess * excess)
                layer[tails] = 0
            out[positions - start] = resolved * scale if scale != 1.0 else resolved
            positions, layer, value = positions[left], layer[left], resolved[left]
            attempt += 1

    def _signs_block(self, first: int, dest: np.ndarray, scratch: np.ndarray, negative: np.uint64) -> None:
        """Each word's top bit xor-ed into ``negative``, the bits of a
        negative double: the word's sign times that double's magnitude."""
        z = _mix64_array(self._counters(first, dest.view(np.uint64)), scratch[: dest.size], top_bit_only=True)
        z &= _TOP_BIT
        z ^= negative

    def choose_without_replacement(self, population: int, k: int) -> np.ndarray:
        """``k`` distinct indices from [0, population), sorted ascending.

        Partial Fisher-Yates: uniform over size-k subsets.
        """
        population, k = _integer("population", population), _integer("k", k)
        if not 0 <= k <= population:
            raise UsageError("need 0 <= k <= population")
        picked, _ = self._fisher_yates(population, k)
        picked.sort()
        return picked

    def permutation(self, n: int) -> np.ndarray:
        """Full Fisher-Yates permutation of [0, n)."""
        n = _integer("draw count", n)  # a numpy uint64 0 would wrap n - 1
        if n < 0:
            raise UsageError("draw count must be non-negative")
        order, leftover = self._fisher_yates(n, max(n - 1, 0))
        # Last comes the one entry no step picked.
        return np.append(order, leftover) if n > 0 else order

    def _fisher_yates(self, population: int, k: int):
        """The first ``k`` steps of a Fisher-Yates shuffle of [0, population).

        Step ``i`` swaps entry ``i`` with entry ``i + word_i % (population - i)``;
        the modulo bias, below population / 2**64, is accepted for a simple,
        fully specified reduction.  All ``k`` words come from one ``raw(k)``
        block, so a draw consumes ``k`` positions whichever way it runs.
        Below ``_REPLAY_STEPS`` steps, or where ``_replay``'s packed keys
        would not fit an int64, a Python loop runs the swaps, storing only
        the entries moved past the prefix, at about 0.22 us a step; else
        ``_replay`` runs them on arrays, at about 28 us plus 0.04 us a step.
        Both give the same picks and take O(k) memory for any population.
        Returns the ``k`` picks in order as int64 and the entry at position
        ``k`` after them.
        """
        bounds = np.arange(population, population - k, -1, dtype=np.uint64)
        offsets = self.raw(k) % bounds
        if k >= _REPLAY_STEPS and population << k.bit_length() <= 1 << 63:
            return _replay(offsets.view(np.int64) + np.arange(k))
        picked = []
        displaced = {}
        for i, offset in enumerate(offsets.tolist()):
            j = i + offset
            picked.append(displaced.get(j, j))
            displaced[j] = displaced.pop(i, i)
        return np.array(picked, dtype=np.int64), displaced.get(k, k)


# The step count from which ``_fisher_yates`` replays its swaps on arrays.
# choose_without_replacement(4096, k) in us, the Python loop -> arrays, best
# of 15 x 100 calls on a 2-vCPU VM with numpy 2.4.6: k = 32: 16.5 -> 28.3,
# 64: 22.6 -> 30.2, 96: 30.7 -> 30.2, 128: 36.2 -> 32.5, 256: 63.1 -> 36.5,
# 1024: 235 -> 67; permutation(4096): 849 -> 198.  Two more runs put the
# crossing between 96 and 128 steps.
_REPLAY_STEPS = 128


def _replay(targets: np.ndarray):
    """The Fisher-Yates swaps whose step ``i`` swaps entries ``i`` and
    ``targets[i] >= i``, on arrays: the int64 picks in step order and the
    entry at position ``k = targets.size`` after them, the values of the
    loop in ``SplitMix64._fisher_yates``.  ``targets << k.bit_length()``
    must fit an int64.

    Step ``i`` picks what its target held: the entry the last earlier step
    into the same target moved there, else the target's own index.  That
    entry is what that earlier step's position held before its own step,
    and so on down a chain of earlier steps, which pointer doubling follows.
    """
    k = targets.size
    shift = k.bit_length()
    steps = np.arange(k)
    # (target, step) pairs sorted by target, then step, as packed keys.
    keys = targets << shift
    keys |= steps
    keys.sort()
    target = keys >> shift
    step = keys & ((1 << shift) - 1)
    follows = target[1:] == target[:-1]
    # earlier[i]: the last step before step i into the same target, or -1.
    earlier = np.empty(k, np.int64)
    earlier[step] = np.append(-1, np.where(follows, step[:-1], -1))
    # last[p]: the last step into position p <= k, else p; the last steps
    # into later positions all land in the spare slot k + 1.
    last = np.arange(k + 2)
    ends = np.append(~follows, True)
    ends &= target <= k
    last[np.where(ends, target, k + 1)] = step
    # held[i]: the entry position i holds before step i, which the last
    # step into i moved there, else i itself, found by doubling the links to
    # earlier steps.  Only a step that moves it on to a later position
    # reads it, so where step i targets i itself, held[i] is never read.
    held = last[:k]
    while True:
        linked = held[held]
        if np.array_equal(linked, held):
            break
        held = linked
    picks = np.where(earlier >= 0, held[earlier], targets)
    return picks, int(held[last[k]]) if last[k] < k else k


# fdlibm's __ieee754_log: ln 2 split so that k * _LN2_HI is exact for
# |k| < 2000, and the minimax coefficients of R(z) ~ (log((1+s)/(1-s)) - 2s) / s.
_LN2_HI = float.fromhex("0x1.62e42feep-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
_LG = [float.fromhex(h) for h in (
    "0x1.5555555555593p-1", "0x1.999999997fa04p-2", "0x1.2492494229359p-2", "0x1.c71c51d8e78afp-3",
    "0x1.7466496cb03dep-3", "0x1.39a09d078c69fp-3", "0x1.2f112df3e5244p-3",
)]
_SQRT_HALF = float.fromhex("0x1.6a09e667f3bcdp-1")


def _log(y, frexp):
    """Natural log of ``y > 0``, a float with ``frexp=math.frexp`` or a
    float64 array with ``np.frexp``, by fdlibm's algorithm from basic
    operations in a fixed order, so both give the same bits on any CPU.

    ``y = 2**k * (1 + f)`` with ``1 + f`` in [sqrt(1/2), sqrt(2)),
    ``s = f / (2 + f)`` and ``log(1 + f) = f - (f**2 / 2 - s * (f**2 / 2 + R(s**2)))``.
    Within 1 ulp of the exact logarithm.
    """
    m, e = frexp(y)
    small = m < _SQRT_HALF
    f = (m + m * small) - 1.0
    k = e - small
    s = f / (2.0 + f)
    z = s * s
    r = z * (_LG[0] + z * (_LG[1] + z * (_LG[2] + z * (_LG[3] + z * (_LG[4] + z * (_LG[5] + z * _LG[6]))))))
    half_f2 = 0.5 * f * f
    return k * _LN2_HI - ((half_f2 - (s * (half_f2 + r) + k * _LN2_LO)) - f)


# The ziggurat: 1024 layers of equal area V under exp(-x**2 / 2), x >= 0.
# Layer j >= 1 has width x_j and spans the heights exp(-x_j**2 / 2) to
# exp(-x_{j-1}**2 / 2), from the top layer (1, where x_0 = 0) down to layer
# 1023, which ends at x = R; layer 0 is the base strip, of width
# V / exp(-R**2 / 2), whose part past R stands for the tail.  R, V and
# exp(-R**2 / 2), solved to 50 digits so that the top layer ends at height
# 1, are pinned as hex literals; the edges and heights follow from them by
# f_{j-1} = V / x_j + f_j and x_{j-1} = sqrt(-2 log f_{j-1}), in basic
# operations and ``_log``, so every CPU computes the same tables.  Each
# entry is within a relative 5e-13 of its exact value.
_ZIG_LAYERS = 1024
_ZIG_R = float.fromhex("0x1.027c84109fad5p+2")
_ZIG_V = float.fromhex("0x1.417941005fc17p-10")
_ZIG_F_R = float.fromhex("0x1.2ce74ae9493f7p-12")


def _layers():
    """The layers' right edges and their heights exp(-x_j**2 / 2), each a
    list by layer; the base strip's entries are its width and 1."""
    edge = [_ZIG_V / _ZIG_F_R] + [0.0] * (_ZIG_LAYERS - 2) + [_ZIG_R]
    height = [1.0] * (_ZIG_LAYERS - 1) + [_ZIG_F_R]
    for j in range(_ZIG_LAYERS - 1, 1, -1):
        height[j - 1] = _ZIG_V / edge[j] + height[j]
        edge[j - 1] = math.sqrt(-2.0 * _log(height[j - 1], math.frexp))
    return edge, height


_edge, _height = _layers()
# The fast path's tables, by a word's low 11 bits.  A magnitude u below
# _ZIG_BOUND, floor(2**53 * x_{j-1} / x_j) with the quotient rounded, puts
# the point left of x_{j-1}, where all of layer j lies under the curve (for
# the base strip, left of R), so +-u * x_j * 2**-53 is taken at once.
_ZIG_BOUND = np.tile(np.floor(np.array([_ZIG_R, 0.0, *_edge[1:-1]]) / _edge * 2.0**53).astype(np.int64), 2)
_ZIG_WIDTH = np.array(_edge + [-x for x in _edge]) * _INV_2_53
# A wedge test's height is u * span + base, uniform over layer j's heights;
# for the base strip it is u itself, the tail's first uniform.
_WEDGE_BASE = np.array([0.0] + _height[1:])
_WEDGE_SPAN = np.array([1.0] + [_height[j - 1] - _height[j] for j in range(1, _ZIG_LAYERS)])
# The fast path's tables as lists, for the word-by-word ``normal``.
_BOUND, _WIDTH = _ZIG_BOUND.tolist(), _ZIG_WIDTH.tolist()
