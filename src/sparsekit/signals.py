"""Ground-truth signal generation, measurement noise, and the head/tail
norms used by every error bound.

Sparse signals put i.i.d. Gaussian values on a uniformly random support.
Compressible signals realize the power-law envelope ``|x|_(i) = R * i**(-1/p)``
with equality at every sorted index (random signs, random positions), which
keeps decay-rate checks sharp and reproducible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UsageError
from .linalg import SupportSet, as_vector, embed, largest_indices
from .rng import SplitMix64


class SignalKind(enum.Enum):
    EXACT_SPARSE = "sparse"
    COMPRESSIBLE = "compressible"
    ARBITRARY = "arbitrary"


@dataclass
class Signal:
    """A length-N real signal with optional ground-truth metadata."""

    values: np.ndarray
    kind: SignalKind = SignalKind.ARBITRARY
    true_support: Optional[SupportSet] = None

    def __post_init__(self):
        self.values = as_vector(self.values, name="signal values")
        if self.kind is SignalKind.EXACT_SPARSE and self.true_support is not None:
            off = np.delete(self.values, self.true_support.indices)
            if off.size and np.any(off != 0.0):
                raise UsageError("sparse signal has nonzeros off its declared support")


class NoiseMode(enum.Enum):
    NONE = "none"
    FIXED_NORM = "fixed_norm"
    GAUSSIAN_SIGMA = "gaussian_sigma"


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement-noise description: exact-norm or i.i.d. Gaussian."""

    mode: NoiseMode = NoiseMode.NONE
    level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.level):
            raise UsageError(f"noise level must be finite, got {self.level!r}")
        if self.level < 0.0:
            raise UsageError("noise level must be non-negative")

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls(NoiseMode.NONE, 0.0, 0)

    @classmethod
    def fixed_norm(cls, eps: float, seed: int = 0) -> "NoiseSpec":
        """Random direction rescaled so the noise norm is exactly ``eps``."""
        return cls(NoiseMode.FIXED_NORM, float(eps), seed)

    @classmethod
    def gaussian(cls, sigma: float, seed: int = 0) -> "NoiseSpec":
        """i.i.d. entries with standard deviation ``sigma``."""
        return cls(NoiseMode.GAUSSIAN_SIGMA, float(sigma), seed)


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
    return Signal(
        values=embed(coeffs, support, N),
        kind=SignalKind.EXACT_SPARSE,
        true_support=SupportSet(support),
    )


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
    return Signal(values=values, kind=SignalKind.COMPRESSIBLE)


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
        support = SupportSet(np.flatnonzero(out).astype(np.int64))
        return Signal(values=out, kind=SignalKind.EXACT_SPARSE, true_support=support)
    return out


def tail_l1(x, s: int) -> float:
    """l1 norm of what ``head(x, s)`` discards."""
    values = _signal_values(x)
    head_values = head(values, s)
    return float(np.sum(np.abs(values)) - np.sum(np.abs(head_values)))


def measure(op, x, noise: NoiseSpec = NoiseSpec.none()):
    """Measure a signal through an operator with additive noise.

    Returns ``(u, e)``: the noisy measurement vector and the noise that
    went into it, so callers can form bound ratios with the exact noise
    norm.
    """
    values = _signal_values(x)
    clean = op.forward(values)
    m = clean.size
    if noise.mode is NoiseMode.NONE or noise.level == 0.0:
        error = np.zeros(m)
    elif noise.mode is NoiseMode.FIXED_NORM:
        rng = SplitMix64(noise.seed)
        direction = rng.normal(m)
        norm = float(np.linalg.norm(direction))
        while norm == 0.0:
            direction = rng.normal(m)
            norm = float(np.linalg.norm(direction))
        error = direction * (noise.level / norm)
    elif noise.mode is NoiseMode.GAUSSIAN_SIGMA:
        rng = SplitMix64(noise.seed)
        error = noise.level * rng.normal(m)
    else:  # pragma: no cover
        raise UsageError(f"unknown noise mode {noise.mode!r}")
    return clean + error, error
