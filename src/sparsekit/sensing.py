"""Measurement ensembles with forward/adjoint application and an
empirical restricted-isometry probe.

Three ensembles are provided, normalized so every column has unit
expected squared norm (``E||Phi x||^2 = ||x||^2`` for fixed ``x``):

* ``gaussian``   - i.i.d. entries, mean 0, variance ``1/m``.
* ``bernoulli``  - i.i.d. entries ``+-1/sqrt(m)`` equiprobable.
* ``partial_dct`` - ``m`` distinct rows of the orthonormal type-II DCT
  matrix, drawn uniformly without replacement and scaled by
  ``sqrt(N/m)``.  Application uses an O(N log N) fast transform,
  pocketfft through ``scipy.fftpack``, which loads when the first
  partial-DCT operator is built: Gaussian and Bernoulli work never imports
  scipy.  ``scipy.fftpack`` calls the kernel of ``scipy.fft`` without its
  backend dispatch, so each transform has the bits of ``scipy.fft``'s at
  about 6 us less a call.

Operators are deterministic functions of ``(ensemble, m, N, seed)``.
Gaussian and Bernoulli operators hold all ``m * N`` entries in memory, so
they are capped at ``MAX_DENSE_ENTRIES`` of them (``check_dense_size``);
a partial-DCT operator works on length-N vectors, so N is capped there.
Inside the private ``_shared_draw`` block, which only ``bench``'s sweep
runner opens, the Gaussian or Bernoulli operators of one seed and any m up
to the block's are built from prefixes of one draw, byte-identical to
fresh ones.
"""

from __future__ import annotations

import contextlib
import enum
import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UsageError
from .linalg import as_support, as_values, as_vector, check_integer, embed, l2_norm
from .rng import SplitMix64


# Gaussian and Bernoulli operators store their m * N entries as float64.  A
# fresh draw, scaled in the generator's blocks, peaks at the entries plus
# under 1 MiB of generator scratch and reject round (at 512 x 2048, by
# tracemalloc: 1.09 times the entries for Gaussian, 1.06 for Bernoulli);
# inside a sweep's ``_shared_draw`` block of the same m, building the
# operator peaks at twice the entries: the block's unscaled draw and the
# operator's scaled copy.  2**26 entries are 512 MiB; a
# larger dense operator, or a partial-DCT operator whose length-N signal,
# proxy and transform vectors would each exceed it, is refused as a usage
# error rather than left to fail, or to exhaust memory, in the allocator.
MAX_DENSE_ENTRIES = 2**26


class Ensemble(enum.Enum):
    GAUSSIAN = "gaussian"
    BERNOULLI = "bernoulli"
    PARTIAL_DCT = "partial_dct"


def as_ensemble(ensemble) -> Ensemble:
    if isinstance(ensemble, Ensemble):
        return ensemble
    try:
        return Ensemble(str(ensemble))
    except ValueError:
        valid = ", ".join(e.value for e in Ensemble)
        raise UsageError(f"unknown ensemble {ensemble!r} (expected one of: {valid})")


class SenseOperator:
    """An m x N linear measurement map with forward and adjoint application.

    The public applies check their input, count, and call the ensemble's
    ``_forward``, ``_adjoint``, ``_forward_support`` or ``_adjoint_support``;
    each ensemble's class also gives ``dense_matrix()``, the full m x N
    matrix for tests and small probes.  ``matvec_count`` counts operator
    applications (forward, adjoint, and their support-restricted variants
    each count as one).  Gaussian and Bernoulli operators also keep the
    column block ``matrix[:, T]`` of the last support ``T`` they applied,
    so the repeated Gram applies of one iterative restricted least-squares
    solve (CoSaMP's CG) gather it only once; OMP and ROMP apply one column
    at a time, and their ``GramFactor`` holds those columns itself.  Both are plain
    per-operator state without a lock: recovery calls are single-threaded,
    and when running trials concurrently each trial gets its own operator.
    An operator shared across threads would lose counter increments, and
    calls on different supports would evict each other's block.
    """

    def __init__(self, ensemble: Ensemble, m: int, N: int):
        problem = shape_problem(m, N)
        if problem is not None:
            raise UsageError(problem)
        self.ensemble = ensemble
        self.m = int(m)
        self.N = int(N)
        self.matvec_count = 0

    def forward(self, x) -> np.ndarray:
        """Apply the operator: measurements of a length-N vector."""
        x = as_vector(x, self.N, name="x")
        self.matvec_count += 1
        return self._forward(x)

    def adjoint(self, v) -> np.ndarray:
        """Apply the transpose: signal proxy of a length-m vector."""
        v = as_vector(v, self.m, name="v")
        self.matvec_count += 1
        return self._adjoint(v)

    def forward_support(self, indices, coeffs) -> np.ndarray:
        """Apply the operator restricted to the support ``indices``, one coefficient each.

        A float, bool, repeated, descending, negative or out-of-range index
        raises ``UsageError``, and so does a wrong number of coefficients;
        their values go unchecked.
        """
        indices = as_support(indices, below=self.N)
        coeffs = as_values(coeffs, indices.size, "coeffs")
        self.matvec_count += 1
        return self._forward_support(indices, coeffs)

    def adjoint_support(self, indices, v) -> np.ndarray:
        """Rows ``indices`` of the adjoint applied to a length-m ``v``; ``indices`` form a support, checked like ``forward_support``."""
        indices = as_support(indices, below=self.N)
        v = as_values(v, self.m, "v")
        self.matvec_count += 1
        return self._adjoint_support(indices, v)


class _DenseEnsembleOperator(SenseOperator):
    """Gaussian / Bernoulli operator backed by an explicit entry matrix."""

    def __init__(self, ensemble, m, N, seed):
        super().__init__(ensemble, m, N)
        scale = 1.0 / math.sqrt(m)
        shared = getattr(_scope, "draw", None)
        if shared is not None and shared[:3] == (ensemble, N, seed) and m <= shared[3]:
            # Into a fresh array, leaving the shared draw unscaled for the
            # other operators built from it; the products are the same bits.
            entries = shared[4][: m * N] * scale
        else:
            entries = _draw(ensemble, m, N, seed, scale)
        # Row-major fill order is part of the determinism contract.
        self._matrix = entries.reshape(m, N)
        self._gathered = (None, None)

    def _forward(self, x):
        return self._matrix @ x

    def _adjoint(self, v):
        return self._matrix.T @ v

    def _columns(self, indices):
        """``matrix[:, indices]``, gathered again only when the support changes.

        The one-entry memo is keyed on the index bytes, so a caller that
        mutates its index array in place never gets a stale block; the
        indices are always a 1-D int64 array (``as_support``), so the bytes
        also fix the shape.  The block's memory order is part of the byte
        contract: ``matrix[:, indices]`` is F-ordered, and the C-ordered
        block of ``matrix.take(indices, axis=1)``, though faster to gather,
        gives other products.
        """
        key = indices.tobytes()
        cached_key, block = self._gathered
        if key != cached_key:
            block = self._matrix[:, indices]
            self._gathered = (key, block)
        return block

    def _forward_support(self, indices, coeffs):
        return self._columns(indices) @ coeffs

    def _adjoint_support(self, indices, v):
        return self._columns(indices).T @ v

    def dense_matrix(self):
        return self._matrix.copy()


class _PartialDctOperator(SenseOperator):
    """Random rows of the orthonormal DCT-II, applied via fast transforms."""

    def __init__(self, m, N, seed):
        super().__init__(Ensemble.PARTIAL_DCT, m, N)
        rng = SplitMix64(seed)
        self.rows = rng.choose_without_replacement(N, m)
        self._scale = math.sqrt(N / m)
        # scipy takes most of the package's import time, and only this
        # ensemble uses it: it loads with the first partial-DCT operator.
        # scipy.fftpack runs scipy.fft's pocketfft kernel, so its transforms
        # have the same bits, without scipy.fft's backend dispatch, which
        # cost about 6 us of each call (N = 64: 12.7 -> 6.4 us a call).
        from scipy import fftpack

        self._dct = fftpack.dct
        self._idct = fftpack.idct

    def _forward(self, x, overwrite_x=False):
        return self._scale * self._dct(x, type=2, norm="ortho", overwrite_x=overwrite_x)[self.rows]

    # The support applies and the adjoint transform zero-padded arrays of
    # their own, in place; ``forward`` leaves the caller's ``x`` as it was.
    def _forward_support(self, indices, coeffs):
        full = np.zeros(self.N)
        full[indices] = coeffs
        return self._forward(full, overwrite_x=True)

    def _adjoint(self, v):
        padded = np.zeros(self.N)
        padded[self.rows] = v
        out = self._idct(padded, type=2, norm="ortho", overwrite_x=True)
        out *= self._scale
        return out

    def _adjoint_support(self, indices, v):
        return self._adjoint(v)[indices]

    def dense_matrix(self):
        # Closed-form cosine entries, independent of the fft fast path.
        k = self.rows[:, None].astype(np.float64)
        n = np.arange(self.N)[None, :].astype(np.float64)
        mat = math.sqrt(2.0 / self.N) * np.cos(math.pi * k * (2.0 * n + 1.0) / (2.0 * self.N))
        mat[self.rows == 0, :] /= math.sqrt(2.0)
        return self._scale * mat


def shape_problem(m, N) -> Optional[str]:
    """The rule ``1 <= m <= N`` this shape breaks, or None; a non-integer m or N raises ``UsageError``."""
    check_integer("m", m)
    check_integer("N", N)
    return None if 1 <= m <= N else f"need 1 <= m <= N, got m={m}, N={N}"


def _draw(kind: Ensemble, m: int, N: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """The row-major ``m * N`` entries of a dense operator times ``scale``.

    ``scale`` goes to the public ``normal`` or ``signs``, which multiply
    each block by it while it is in cache: the bits are those of
    ``normal(m * N) * scale`` or ``signs(m * N) * scale``, and at the
    default 1.0 no multiply runs.  The draw for m rows is a prefix of the
    draw for any larger m: variate ``i`` of ``normal`` uses word ``i`` and,
    if the ziggurat rejects it, side words keyed by ``i``, whatever the
    length; sign ``i`` uses word ``i``.
    """
    rng = SplitMix64(seed)
    draw = rng.normal if kind is Ensemble.GAUSSIAN else rng.signs
    return draw(m * N, scale=scale)


# Each thread's open ``_shared_draw`` block: (ensemble, N, seed, m, draw), or None.
_scope = threading.local()


@contextlib.contextmanager
def _shared_draw(kind: Ensemble, m: int, N: int, seed: int):
    """Build this thread's dense operators of one seed from one m-row draw.

    Until the block exits, ``make_operator(kind, m2, N, seed)`` on the
    calling thread, for any ``m2 <= m``, takes a prefix of one m-row draw
    made on entry, byte-identical to a draw of its own; any other call
    draws afresh, and a partial-DCT block shares nothing.  Only
    ``bench._run_trial_major`` opens it, once per sweep trial index and
    for configs it has validated, so the block checks nothing and does not
    nest.  On exit, also through an exception, the thread's block is None.
    """
    if kind is not Ensemble.PARTIAL_DCT:
        _scope.draw = (kind, N, seed, m, _draw(kind, m, N, seed))
    try:
        yield
    finally:
        _scope.draw = None


def check_dense_size(ensemble, m: int, N: int) -> None:
    """Raise ``UsageError`` when an operator of this shape needs arrays of
    more than ``MAX_DENSE_ENTRIES`` entries: the m * N entries of a
    Gaussian or Bernoulli operator, or the length-N vectors of a partial-DCT
    one.  ``m`` and ``N`` must be integers; whether ``m <= N`` is not checked."""
    kind = as_ensemble(ensemble)
    shape_problem(m, N)
    if kind is Ensemble.PARTIAL_DCT:
        entries, what = N, "works on vectors of"
    else:
        # As Python integers: a product of two numpy int32 sizes can wrap.
        entries, what = int(m) * int(N), "holds"
    if entries > MAX_DENSE_ENTRIES:
        raise UsageError(
            f"a {kind.value} operator with m={m}, N={N} {what} {entries} entries, "
            f"more than the cap of {MAX_DENSE_ENTRIES} (sensing.MAX_DENSE_ENTRIES)"
        )


def make_operator(ensemble, m: int, N: int, seed: int) -> SenseOperator:
    """Build a measurement operator; same parameters give identical entries.

    A ``seed`` that is not an integer (a bool is not one) raises ``UsageError``.
    """
    kind = as_ensemble(ensemble)
    check_dense_size(kind, m, N)
    check_integer("seed", seed)
    if kind is Ensemble.PARTIAL_DCT:
        return _PartialDctOperator(m, N, seed)
    return _DenseEnsembleOperator(kind, m, N, seed)


@dataclass
class RicEstimate:
    """Empirical lower bound on the restricted-isometry constant.

    ``delta_lower`` is witnessed: ``witness`` is the sampled n-sparse unit
    vector achieving it, and re-evaluating ``||Phi witness||`` reproduces
    ``delta_lower`` exactly.  This is a lower bound on the true constant,
    not a certificate; the definition uses un-squared norms
    ``(1 - d)||v|| <= ||Phi v|| <= (1 + d)||v||`` (many texts state the
    squared form instead).
    """

    n: int
    delta_lower: float
    trials: int
    seed: int
    witness: np.ndarray

    def reevaluate(self, op: SenseOperator) -> float:
        """Deviation of ``||Phi witness||`` from 1; equals ``delta_lower``."""
        r = l2_norm(op.forward(self.witness))
        return max(1.0 - r, r - 1.0)


def check_ric_probe(m: int, n: int, trials: int) -> None:
    """Raise ``UsageError`` unless ``empirical_ric`` can probe an operator
    with ``m`` rows at sparsity ``n`` over ``trials`` draws."""
    check_integer("n", n, 1)
    if n > m:
        raise UsageError(f"n={n} exceeds m={m}: restricted isometry cannot hold at this sparsity")
    check_integer("trials", trials, 1)


def empirical_ric(op: SenseOperator, n: int, trials: int, seed: int) -> RicEstimate:
    """Probe the operator with random n-sparse unit vectors.

    Each trial draws a uniform size-n support and Gaussian coefficients,
    normalizes, and measures ``r = ||Phi v||``; the estimate is the max of
    ``max(1 - r, r - 1)`` over trials.
    """
    check_ric_probe(op.m, n, trials)
    check_integer("seed", seed)

    rng = SplitMix64(seed)
    best = -1.0
    witness = None
    for _ in range(trials):
        support = rng.choose_without_replacement(op.N, n)
        coeffs = rng.normal(n)
        norm = l2_norm(coeffs)
        while norm == 0.0:  # probability ~2**-53 per draw
            coeffs = rng.normal(n)
            norm = l2_norm(coeffs)
        probe = embed(coeffs / norm, support, op.N)
        r = l2_norm(op.forward(probe))
        deviation = max(1.0 - r, r - 1.0)
        if deviation > best:
            best = deviation
            witness = probe
    return RicEstimate(n=n, delta_lower=best, trials=trials, seed=seed, witness=witness)
