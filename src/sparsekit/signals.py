"""Ground-truth signal generation, measurement noise, and the head/tail
norms used by every error bound.

Sparse signals put i.i.d. Gaussian values on a uniformly random support.
Compressible signals realize the power-law envelope ``|x|_(i) = R * i**(-1/p)``
with equality at every sorted index (random signs, random positions), which
keeps decay-rate checks sharp and reproducible.  A ``Signal`` carries its
support when it is known to be sparse (``gen_sparse``, ``head``) and
``None`` otherwise.

``measure`` adds noise in one of three modes: ``"none"``, ``"fixed"``
(exact norm) or ``"sigma"`` (i.i.d. Gaussian).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UsageError
from .linalg import as_support, as_vector, check_integer, check_real, embed, l2_norm, largest_indices
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
            self.true_support = as_support(self.true_support, below=self.values.size)
            off = self.values.copy()
            off[self.true_support] = 0.0
            if off.any():
                raise UsageError("sparse signal has nonzeros off its declared support")


def check_sparse(N, s, name: str = "s") -> None:
    """Refuse a length ``N`` that is not an integer ``>= 1``, or a sparsity ``s`` not one in ``[0, N]``."""
    check_integer("N", N, 1)
    check_integer(name, s, 0, N)


# The largest compressible magnitude R, noise level and eta_rel a trial accepts (``check_scale``).
MAX_SCALE = 2.0**128


def check_scale(name: str, value, positive: bool = False) -> None:
    """Refuse a ``value`` that ``check_real`` refuses or that exceeds ``MAX_SCALE``.

    At the size caps (m <= N <= 2**26, ``sensing.MAX_DENSE_ENTRIES``) the cap
    keeps every squared norm of a trial's data 2**442 below float64's
    overflow at 2**1024.  A Gaussian variate is below 16 in magnitude (the
    ziggurat's tail ends near 14.1), so a column of any ensemble has squared
    norm at most 2**8 and ||Phi||_F**2 <= 2**34.  An entry of x is at most
    max(R, 16), so ||x|| <= 2**17 * MAX_SCALE and ||Phi x|| <= 2**34 * MAX_SCALE.
    The noise norm is at most 2**17 * level for ``sigma``, ``level`` for
    ``fixed`` and ``noise_level * ||Phi x|| <= 2**34 * MAX_SCALE**2`` for
    ``fixed_rel``.  So ||u||**2, which bounds every residual's, is at most
    2**70 * MAX_SCALE**4 = 2**582, ||u|| is at most 2**291, and CoSaMP's
    ``eta = eta_rel * ||u||`` stays below 2**419.
    """
    check_real(name, value, positive=positive)
    if float(value) > MAX_SCALE:  # a numpy float32 would overflow casting MAX_SCALE
        raise UsageError(f"{name} must be at most 2**128 (signals.MAX_SCALE), got {value!r}")


def check_compressible(N, p, R) -> None:
    """Refuse a length ``N`` that is not an integer ``>= 1``, a ``p`` not finite
    and positive, or an ``R`` not positive and at most ``MAX_SCALE``."""
    check_integer("N", N, 1)
    check_real("p", p, positive=True)
    check_scale("R", R, positive=True)


def gen_sparse(N: int, s: int, seed: int) -> Signal:
    """Exactly s-sparse signal: uniform support, standard Gaussian values.

    Zero draws are resampled so the signal has exactly ``s`` nonzeros.
    ``s = 0`` yields the zero signal with an empty support.
    """
    check_sparse(N, s)
    check_integer("seed", seed)
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
    check_compressible(N, p, R)
    check_integer("seed", seed)
    rng = SplitMix64(seed)
    ranks = np.arange(1, N + 1, dtype=np.float64)
    magnitudes = R * ranks ** (-1.0 / float(p))  # a numpy float32 p would divide in float32
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
    kept = largest_indices(values, s)
    out = embed(values[kept], kept, values.size)
    if isinstance(x, Signal):
        return Signal(values=out, true_support=np.flatnonzero(out))
    return out


def tail_l1(x, s: int) -> float:
    """l1 norm of what ``head(x, s)`` discards.

    A ``Signal`` whose ``true_support`` has at most ``s`` entries gives
    ``0.0`` at once: ``head`` keeps all its nonzeros, so the two sums below
    would add equal magnitudes (``-0.0`` included) and cancel exactly.
    """
    check_integer("s", s, 0)
    if isinstance(x, Signal) and x.true_support is not None and x.true_support.size <= s:
        return 0.0
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

    Raises ``UsageError`` for an unknown mode, a non-finite or negative
    level, or a seed that is not an integer.
    """
    if mode not in ("none", "fixed", "sigma"):
        raise UsageError(f"unknown noise mode {mode!r}")
    # Not capped: run_trial resolves a fixed_rel level past MAX_SCALE.
    check_real("noise_level", level)
    check_integer("seed", seed)
    level = float(level)
    values = _signal_values(x)
    clean = op.forward(values)
    m = clean.size
    if mode == "none" or level == 0.0:
        error = np.zeros(m)
    elif mode == "fixed":
        rng = SplitMix64(seed)
        direction = rng.normal(m)
        norm = l2_norm(direction)
        while norm == 0.0:
            direction = rng.normal(m)
            norm = l2_norm(direction)
        error = direction * (level / norm)
    else:
        error = SplitMix64(seed).normal(m, scale=level)
    return clean + error, error
