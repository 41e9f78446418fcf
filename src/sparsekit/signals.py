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
from .linalg import as_support, as_vector, check_integer, check_real, embed, largest_indices
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


def check_compressible(N, p, R) -> None:
    """Refuse a length ``N`` that is not an integer ``>= 1``, or a ``p`` or ``R`` not finite and positive."""
    check_integer("N", N, 1)
    check_real("p", p, positive=True)
    check_real("R", R, positive=True)


def check_noise_level(level) -> None:
    """Refuse a noise level that is not a finite real number ``>= 0``."""
    check_real("noise_level", level)


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

    Raises ``UsageError`` for an unknown mode, a non-finite or negative
    level, or a seed that is not an integer.
    """
    if mode not in ("none", "fixed", "sigma"):
        raise UsageError(f"unknown noise mode {mode!r}")
    check_noise_level(level)
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
        norm = float(np.linalg.norm(direction))
        while norm == 0.0:
            direction = rng.normal(m)
            norm = float(np.linalg.norm(direction))
        error = direction * (level / norm)
    else:
        error = level * SplitMix64(seed).normal(m)
    return clean + error, error
