"""Measurement ensembles with forward/adjoint application and an
empirical restricted-isometry probe.

Three ensembles are provided, normalized so every column has unit
expected squared norm (``E||Phi x||^2 = ||x||^2`` for fixed ``x``):

* ``gaussian``   - i.i.d. entries, mean 0, variance ``1/m``.
* ``bernoulli``  - i.i.d. entries ``+-1/sqrt(m)`` equiprobable.
* ``partial_dct`` - ``m`` distinct rows of the orthonormal type-II DCT
  matrix, drawn uniformly without replacement and scaled by
  ``sqrt(N/m)``.  Application uses an O(N log N) fast transform.

Operators are deterministic functions of ``(ensemble, m, N, seed)``.
Gaussian and Bernoulli operators hold all ``m * N`` entries in memory, so
they are capped at ``MAX_DENSE_ENTRIES`` of them (``check_dense_size``);
a partial-DCT operator works on length-N vectors, so N is capped there.
Inside a ``shared_draw`` block, the Gaussian or Bernoulli operators of one
seed and any m up to the block's are built from prefixes of one draw,
byte-identical to fresh ones.
"""

from __future__ import annotations

import contextlib
import enum
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import UsageError
from .linalg import as_vector
from .rng import SplitMix64


# Gaussian and Bernoulli operators store their m * N entries as float64, and
# drawing them peaks at about 2.5 times that.  2**26 entries are 512 MiB; a
# larger dense operator, or a partial-DCT operator whose length-N signal,
# proxy and transform vectors would each exceed it, is refused as a usage
# error rather than left to fail, or to exhaust memory, in the allocator.
MAX_DENSE_ENTRIES = 2**26


class Ensemble(enum.Enum):
    GAUSSIAN = "gaussian"
    BERNOULLI = "bernoulli"
    PARTIAL_DCT = "partial_dct"


def _coerce_ensemble(ensemble) -> Ensemble:
    if isinstance(ensemble, Ensemble):
        return ensemble
    try:
        return Ensemble(str(ensemble))
    except ValueError:
        valid = ", ".join(e.value for e in Ensemble)
        raise UsageError(f"unknown ensemble {ensemble!r} (expected one of: {valid})")


class SenseOperator:
    """An m x N linear measurement map with forward and adjoint application.

    ``matvec_count`` counts operator applications (forward, adjoint, and
    their support-restricted variants each count as one).  Gaussian and
    Bernoulli operators also keep the column block ``matrix[:, T]`` of the
    last support ``T`` they applied, so the repeated Gram applies of one
    restricted least-squares solve gather it only once.  Both are plain
    per-operator state without a lock: recovery calls are single-threaded,
    and when running trials concurrently each trial gets its own operator.
    An operator shared across threads would lose counter increments, and
    calls on different supports would evict each other's block.
    """

    def __init__(self, ensemble: Ensemble, m: int, N: int):
        _check_shape(m, N)
        self.ensemble = ensemble
        self.m = int(m)
        self.N = int(N)
        self.matvec_count = 0

    # -- application ----------------------------------------------------

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
        """Apply the operator restricted to columns ``indices``."""
        self.matvec_count += 1
        return self._forward_support(np.asarray(indices, dtype=np.int64), np.asarray(coeffs, dtype=np.float64))

    def adjoint_support(self, indices, v) -> np.ndarray:
        """Rows ``indices`` of the adjoint applied to ``v``."""
        self.matvec_count += 1
        return self._adjoint_support(np.asarray(indices, dtype=np.int64), np.asarray(v, dtype=np.float64))

    # -- hooks ------------------------------------------------------------

    def _forward(self, x):
        raise NotImplementedError

    def _adjoint(self, v):
        raise NotImplementedError

    def _forward_support(self, indices, coeffs):
        full = np.zeros(self.N)
        full[indices] = coeffs
        return self._forward(full)

    def _adjoint_support(self, indices, v):
        return self._adjoint(v)[indices]

    def dense_matrix(self) -> np.ndarray:
        """Materialize the full m x N matrix (testing and small probes)."""
        raise NotImplementedError


class _DenseEnsembleOperator(SenseOperator):
    """Gaussian / Bernoulli operator backed by an explicit entry matrix."""

    def __init__(self, ensemble, m, N, seed):
        super().__init__(ensemble, m, N)
        scale = 1.0 / math.sqrt(m)
        shared = _scope_draw(ensemble, m, N, seed)
        if shared is None:
            entries = _draw(ensemble, m, N, seed)
            entries *= scale
        else:
            # Into a fresh array, leaving the shared draw unscaled for the
            # other operators built from it; the products are the same bits.
            entries = shared[: m * N] * scale
        # Row-major fill order is part of the determinism contract.
        self._matrix = entries.reshape(m, N)
        self._gathered = (None, None)

    def _forward(self, x):
        return self._matrix @ x

    def _adjoint(self, v):
        return self._matrix.T @ v

    def _columns(self, indices):
        """``matrix[:, indices]``, gathered again only when the support changes.

        The one-entry memo is keyed on the index values (shape and bytes),
        so a caller that mutates its index array in place never gets a
        stale block.  A single column is gathered without the memo, so a
        one-column apply such as OMP's ``forward_support([j])`` leaves the
        block in place.
        """
        if indices.size == 1:
            return self._matrix[:, indices]
        key = (indices.shape, indices.tobytes())
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

    def _forward(self, x):
        return self._scale * fft.dct(x, type=2, norm="ortho")[self.rows]

    def _adjoint(self, v):
        padded = np.zeros(self.N)
        padded[self.rows] = v
        return self._scale * fft.idct(padded, type=2, norm="ortho")

    def dense_matrix(self):
        # Closed-form cosine entries, independent of the fft fast path.
        k = self.rows[:, None].astype(np.float64)
        n = np.arange(self.N)[None, :].astype(np.float64)
        mat = math.sqrt(2.0 / self.N) * np.cos(math.pi * k * (2.0 * n + 1.0) / (2.0 * self.N))
        mat[self.rows == 0, :] /= math.sqrt(2.0)
        return self._scale * mat


def _check_shape(m: int, N: int) -> None:
    if m < 1 or m > N:
        raise UsageError(f"need 1 <= m <= N, got m={m}, N={N}")


def _draw(kind: Ensemble, m: int, N: int, seed: int) -> np.ndarray:
    """The unscaled, row-major ``m * N`` entries of a dense operator.

    The draw for m rows is a prefix of the draw for any larger m: variate
    ``i`` of ``normal`` uses words ``2*(i//2)`` and ``2*(i//2) + 1`` whatever
    the length, and sign ``i`` uses word ``i``.
    """
    rng = SplitMix64(seed)
    if kind is Ensemble.GAUSSIAN:
        return rng.normal(m * N)
    return rng.signs(m * N)


# The open ``shared_draw`` block of each thread: (ensemble, N, seed, m, draw).
_scope = threading.local()


@contextlib.contextmanager
def shared_draw(ensemble, m: int, N: int, seed: int):
    """Build this thread's dense operators of one seed from one m-row draw.

    Until the block exits, ``make_operator(ensemble, m2, N, seed)`` on the
    calling thread, with the same ensemble, N and seed and any ``m2 <= m``,
    takes its entries from a prefix of a single m-row draw made on entry,
    instead of drawing its own; the operator is byte-identical to a fresh
    one.  Any other call draws afresh.  A partial-DCT block shares nothing:
    such an operator draws only m words.  A sweep opens one block per trial
    index around every cell's trial.  The draw is released when the block
    exits, also through an exception.
    """
    kind = _coerce_ensemble(ensemble)
    check_dense_size(kind, m, N)
    _check_shape(m, N)
    outer = getattr(_scope, "draw", None)
    if kind is not Ensemble.PARTIAL_DCT:
        _scope.draw = (kind, N, seed, m, _draw(kind, m, N, seed))
    try:
        yield
    finally:
        _scope.draw = outer


def _scope_draw(kind: Ensemble, m: int, N: int, seed: int):
    """The open block's draw if it serves this operator, else None."""
    shared = getattr(_scope, "draw", None)
    if shared is None or shared[:3] != (kind, N, seed) or m > shared[3]:
        return None
    return shared[4]


def check_dense_size(ensemble, m: int, N: int) -> None:
    """Raise ``UsageError`` when an operator of this shape needs arrays of
    more than ``MAX_DENSE_ENTRIES`` entries: the m * N entries of a
    Gaussian or Bernoulli operator, or the length-N vectors of a partial-DCT
    one."""
    kind = _coerce_ensemble(ensemble)
    if kind is Ensemble.PARTIAL_DCT:
        entries, what = N, "works on vectors of"
    else:
        entries, what = m * N, "holds"
    if entries > MAX_DENSE_ENTRIES:
        raise UsageError(
            f"a {kind.value} operator with m={m}, N={N} {what} {entries} entries, "
            f"more than the cap of {MAX_DENSE_ENTRIES} (sensing.MAX_DENSE_ENTRIES)"
        )


def make_operator(ensemble, m: int, N: int, seed: int) -> SenseOperator:
    """Build a measurement operator; same parameters give identical entries."""
    kind = _coerce_ensemble(ensemble)
    check_dense_size(kind, m, N)
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
        r = float(np.linalg.norm(op.forward(self.witness)))
        return max(1.0 - r, r - 1.0)


def check_ric_probe(m: int, n: int, trials: int) -> None:
    """Raise ``UsageError`` unless ``empirical_ric`` can probe an operator
    with ``m`` rows at sparsity ``n`` over ``trials`` draws."""
    if n < 1:
        raise UsageError("sparsity n must be at least 1")
    if n > m:
        raise UsageError(
            f"n={n} exceeds m={m}: restricted isometry cannot hold at this sparsity"
        )
    if trials < 1:
        raise UsageError("trials must be at least 1")


def empirical_ric(op: SenseOperator, n: int, trials: int, seed: int) -> RicEstimate:
    """Probe the operator with random n-sparse unit vectors.

    Each trial draws a uniform size-n support and Gaussian coefficients,
    normalizes, and measures ``r = ||Phi v||``; the estimate is the max of
    ``max(1 - r, r - 1)`` over trials.
    """
    check_ric_probe(op.m, n, trials)

    rng = SplitMix64(seed)
    best = -1.0
    witness = None
    for _ in range(trials):
        support = rng.choose_without_replacement(op.N, n)
        coeffs = rng.normal(n)
        norm = float(np.linalg.norm(coeffs))
        while norm == 0.0:  # probability ~2**-53 per draw
            coeffs = rng.normal(n)
            norm = float(np.linalg.norm(coeffs))
        probe = np.zeros(op.N)
        probe[support] = coeffs / norm
        r = float(np.linalg.norm(op.forward(probe)))
        deviation = max(1.0 - r, r - 1.0)
        if deviation > best:
            best = deviation
            witness = probe
    return RicEstimate(n=n, delta_lower=best, trials=trials, seed=seed, witness=witness)
