"""Ground-truth signal generation, measurement noise, and the head/tail
norms used by every error bound.

Sparse signals put i.i.d. Gaussian values on a uniformly random support.
Compressible signals realize the power-law envelope ``|x|_(i) = R * i**(-1/p)``
with equality at every sorted index (random signs, random positions), which
keeps decay-rate checks sharp and reproducible.  A ``Signal`` carries its
support when it is known to be sparse (``gen_sparse``, ``head``) and
``None`` otherwise.

``measure`` adds noise of one of the config's modes: ``"none"``, ``"fixed"``
(exact norm) or ``"sigma"`` (i.i.d. Gaussian).  The benchmark's
``fixed_rel`` mode is ``"fixed"`` at a norm relative to ``||Phi x||``,
which ``bench.run_trial`` resolves before it measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UsageError
from .linalg import as_support, as_vector, embed, largest_indices
from .rng import SplitMix64


@dataclass
class Signal:
    """A length-N real signal, with its support when that is known.

    A set ``true_support`` is strictly increasing int64 indices into
    ``values`` that hold every nonzero of it.
    """

    values: np.ndarray
    true_support: Optional[np.ndarray] = None

    def __post_init__(self):
        self.values = as_vector(self.values, name="signal values")
        if self.true_support is not None:
            self.true_support = as_support(self.true_support)
            if self.true_support.size and self.true_support[-1] >= self.values.size:
                raise UsageError("support index out of range")
            off = np.delete(self.values, self.true_support)
            if off.size and np.any(off != 0.0):
                raise UsageError("sparse signal has nonzeros off its declared support")


def gen_sparse(N: int, s: int, seed: int) -> Signal:
    """Exactly s-sparse signal: uniform support, standard Gaussian values.

    Zero draws are resampled so the signal has exactly ``s`` nonzeros.
    ``s = 0`` yields the zero signal with an empty support.
    """
    if s < 0 or s > N:
        raise UsageError(f"need 0 <= s <= N, got s={s}, N={N}")
    rng = SplitMix64(seed)
    support = rng.choose_without_replacement(N, s)
    coeffs = rng.normal(s)
    zero = coeffs == 0.0
    while np.any(zero):
        coeffs[zero] = rng.normal(int(zero.sum()))
        zero = coeffs == 0.0
    return Signal(values=embed(coeffs, support, N), true_support=support)


def gen_compressible(N: int, p: float, R: float, seed: int) -> Signal:
    """Power-law signal whose sorted magnitudes equal ``R * i**(-1/p)``."""
    if p <= 0.0:
        raise UsageError("decay exponent p must be positive")
    if R <= 0.0:
        raise UsageError("magnitude R must be positive")
    rng = SplitMix64(seed)
    ranks = np.arange(1, N + 1, dtype=np.float64)
    magnitudes = R * ranks ** (-1.0 / p)
    signs = rng.signs(N)
    positions = rng.permutation(N)
    values = np.empty(N)
    values[positions] = signs * magnitudes
    return Signal(values=values)


def _signal_values(x) -> np.ndarray:
    return x.values if isinstance(x, Signal) else as_vector(x, name="signal")


def head(x, s: int):
    """Keep the ``s`` largest-magnitude entries, zero the rest.

    Ties are broken by lowest index.  Accepts a ``Signal`` or a plain
    array and returns the same flavour.
    """
    values = _signal_values(x)
    if s < 0:
        raise UsageError("s must be non-negative")
    kept = largest_indices(values, s)
    out = np.zeros_like(values)
    out[kept] = values[kept]
    if isinstance(x, Signal):
        return Signal(values=out, true_support=np.flatnonzero(out))
    return out


def tail_l1(x, s: int) -> float:
    """l1 norm of what ``head(x, s)`` discards."""
    values = _signal_values(x)
    head_values = head(values, s)
    return float(np.sum(np.abs(values)) - np.sum(np.abs(head_values)))


def measure(op, x, mode: str = "none", level: float = 0.0, seed: int = 0):
    """Measure a signal through an operator with additive noise.

    ``mode`` is ``"none"``, ``"fixed"`` (a random direction drawn from
    ``seed`` and scaled to norm exactly ``level``) or ``"sigma"`` (i.i.d.
    Gaussian entries of standard deviation ``level``); a level of 0 adds
    no noise.  Returns ``(u, e)``: the noisy measurement vector and the
    noise that went into it, so callers can form bound ratios with the
    exact noise norm.

    Raises ``UsageError`` for an unknown mode or a non-finite or negative
    level.
    """
    if mode not in ("none", "fixed", "sigma"):
        raise UsageError(f"unknown noise mode {mode!r}")
    level = float(level)
    if not math.isfinite(level):
        raise UsageError(f"noise level must be finite, got {level!r}")
    if level < 0.0:
        raise UsageError("noise level must be non-negative")
    values = _signal_values(x)
    clean = op.forward(values)
    m = clean.size
    if mode == "none" or level == 0.0:
        error = np.zeros(m)
    elif mode == "fixed":
        rng = SplitMix64(seed)
        direction = rng.normal(m)
        norm = float(np.linalg.norm(direction))
        while norm == 0.0:
            direction = rng.normal(m)
            norm = float(np.linalg.norm(direction))
        error = direction * (level / norm)
    else:
        error = level * SplitMix64(seed).normal(m)
    return clean + error, error
