"""Dense vector kernels and the restricted least-squares solve shared by
all pursuit algorithms.

The least-squares solve is matrix-free: it only touches the measurement
operator through ``forward_support`` / ``adjoint_support``.  It either
iterates on the normal equations (CG or Richardson, a fixed number of
operator applications per iteration) or, for a support that only grows,
updates a ``GramFactor`` directly at two applications per added column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverFailure, UsageError

DEFAULT_LS_TOL = 1e-10
DEFAULT_LS_MAX_ITER = 100
LS_METHODS = ("cg", "richardson")

_POWER_ITER_SEED_TAG = 0x524943
_POWER_ITERATIONS = 30

# A column is numerically dependent on the support when the squared norm of
# its part orthogonal to the support, d^2 = ||phi_j||^2 - ||w||^2, is at most
# this fraction of ||phi_j||^2: d^2 is then mostly cancellation round-off.
DEPENDENT_COLUMN_RATIO = 1e-12


def as_vector(x, length=None, name="vector") -> np.ndarray:
    """Validate and return a finite 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise UsageError(f"{name} must be 1-D, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise UsageError(f"{name} must have length {length}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise UsageError(f"{name} contains NaN or Inf")
    return v


def largest_indices(values, k: int) -> np.ndarray:
    """Positions of the ``k`` largest-magnitude entries, ascending.

    Ties are broken in favour of the lowest position, so the selection is
    deterministic: the result is the first ``k`` positions of a stable sort
    on descending magnitude, in which NaN ranks below every magnitude.
    Selection is O(N): one ``np.partition`` finds the k-th magnitude, and
    everything above it is kept together with the lowest-position entries
    equal to it (for ``k = 1``, one ``argmax``).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise UsageError(f"values must be 1-D, got shape {v.shape}")
    if k < 0:
        raise UsageError("k must be non-negative")
    n = v.shape[0]
    k = min(k, n)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    magnitude = np.abs(v)
    # Every magnitude is >= 0, so NaN as -1 ranks below them all and its
    # ties go to the lowest position like any other.
    np.copyto(magnitude, -1.0, where=np.isnan(magnitude))
    if k == 1:
        return np.array([np.argmax(magnitude)], dtype=np.int64)
    kth = np.partition(magnitude, n - k)[n - k]
    keep = magnitude > kth
    ties = np.flatnonzero(magnitude == kth)
    keep[ties[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep).astype(np.int64, copy=False)


def embed(coeffs, indices, length: int) -> np.ndarray:
    """Scatter ``coeffs`` onto positions ``indices`` of a zero length-``length`` vector."""
    out = np.zeros(length)
    out[np.asarray(indices, dtype=np.int64)] = coeffs
    return out


def as_support(indices) -> np.ndarray:
    """Validate and return support indices: 1-D int64, strictly increasing, non-negative."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise UsageError("support indices must be 1-D")
    if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 0):
        raise UsageError("support indices must be strictly increasing and non-negative")
    return idx


@dataclass
class LsSolution:
    """Solution of a restricted least-squares solve.

    ``converged`` says whether the normal-equation residual met the
    tolerance; an iterative solve that did not stopped at its iteration
    cap.  A factor solve is direct and reports 0 ``iterations``.
    """

    coeffs: np.ndarray
    iterations: int
    converged: bool
    normal_residual: float
    applications: int = field(default=0)  # operator applications consumed


class GramFactor:
    """Inverse Cholesky factor of ``Phi_T^* Phi_T`` for a support that only grows.

    With ``Phi_T^* Phi_T = L L^T``, the factor holds ``L^{-1}`` and
    ``z = L^{-1} Phi_T^* rhs`` in the order the columns were added.  Adding
    column ``j`` costs one ``forward_support([j], [1.0])`` for ``phi_j`` and,
    once ``T`` is non-empty, one ``adjoint_support(T, phi_j)`` for
    ``g = Phi_T^* phi_j``.  The new row of ``L`` is ``(w, d)`` with
    ``w = L^{-1} g`` and ``d^2 = ||phi_j||^2 - ||w||^2``, so the new row of
    ``L^{-1}`` is ``(-w^T L^{-1} / d, 1 / d)`` and the new entry of ``z`` is
    ``(phi_j . rhs - w . z) / d``.  The coefficients are ``L^{-T} z``.  Past
    the two applies everything is a matrix product on ``|T|``-sized arrays.
    The Gram matrix and ``Phi_T^* rhs`` are kept too, so every solve reports
    its normal-equation residual without another apply.
    """

    def __init__(self, operator, rhs):
        self.operator = operator
        self.rhs = as_vector(rhs, operator.m, name="rhs")
        self._size = 0
        # Room for 8 columns, doubled when full; entries past ``_size`` (and
        # above the diagonal of L^{-1}) stay zero.
        self._columns = np.zeros(8, dtype=np.int64)
        self._inverse = np.zeros((8, 8))  # L^{-1}, lower triangular
        self._gram = np.zeros((8, 8))
        self._target = np.zeros(8)  # Phi_T^* rhs
        self._z = np.zeros(8)

    @property
    def columns(self) -> np.ndarray:
        """The factor's columns in the order they were added."""
        return self._columns[: self._size]

    def solve(self, support: np.ndarray, tol: float) -> LsSolution:
        """Grow the factor to ``support`` (ascending) and solve on it.

        The support must hold every column already in the factor.  The
        coefficients come back in support order; ``converged`` says whether
        the normal-equation residual is within ``tol * ||Phi_T^* rhs||``.
        """
        support = support.tolist()
        held = set(self.columns.tolist())
        new = [j for j in support if j not in held]
        if len(held) + len(new) != len(support):
            raise UsageError("a factor only grows: the support must hold all its columns")
        applications = sum(self._add(j) for j in new)
        k = self._size
        coeffs = self._inverse[:k, :k].T @ self._z[:k]
        target = self._target[:k]
        residual = target - self._gram[:k, :k] @ coeffs
        normal_residual = math.sqrt(float(residual @ residual))
        return LsSolution(
            coeffs=coeffs[np.argsort(self.columns)],
            iterations=0,
            converged=normal_residual <= tol * math.sqrt(float(target @ target)),
            normal_residual=normal_residual,
            applications=applications,
        )

    def _add(self, j: int) -> int:
        """Grow the factor by column ``j``; returns the applications made."""
        op = self.operator
        k = self._size
        phi = op.forward_support(np.array([j], dtype=np.int64), np.ones(1))
        cross = op.adjoint_support(self.columns, phi) if k else np.empty(0)
        inverse = self._inverse[:k, :k]
        w = inverse @ cross
        norm2 = float(phi @ phi)
        d2 = norm2 - float(w @ w)
        if not d2 > DEPENDENT_COLUMN_RATIO * norm2:
            raise SolverFailure(
                f"column {j} is numerically dependent on the support: the squared "
                f"norm of its part orthogonal to the support, {d2:.3e}, is at most "
                f"{DEPENDENT_COLUMN_RATIO:g} of its own, {norm2:.3e}"
            )
        if k == self._z.size:
            self._columns, self._inverse, self._gram, self._target, self._z = (
                _grown(a, 2 * k)
                for a in (self._columns, self._inverse, self._gram, self._target, self._z)
            )
        d = math.sqrt(d2)
        target = float(phi @ self.rhs)
        self._inverse[k, :k] = (w @ inverse) / -d
        self._inverse[k, k] = 1.0 / d
        self._gram[k, :k] = cross
        self._gram[:k, k] = cross
        self._gram[k, k] = norm2
        self._z[k] = (target - float(w @ self._z[:k])) / d
        self._target[k] = target
        self._columns[k] = j
        self._size = k + 1
        return 2 if k else 1


def _grown(a: np.ndarray, size: int) -> np.ndarray:
    """A zero array of ``size`` along every axis with ``a`` in its leading block."""
    out = np.zeros((size,) * a.ndim, dtype=a.dtype)
    out[tuple(slice(0, n) for n in a.shape)] = a
    return out


def restricted_least_squares(
    op,
    support,
    rhs,
    *,
    tol: float = DEFAULT_LS_TOL,
    max_iter: int = DEFAULT_LS_MAX_ITER,
    method: str = "cg",
    factor: GramFactor | None = None,
) -> LsSolution:
    """Minimize ``||rhs - Phi_T w||_2`` on the normal equations.

    Parameters
    ----------
    op
        Anything exposing ``m``, ``N``, ``forward_support`` and
        ``adjoint_support`` (see ``sensing.SenseOperator``).
    support : 1-D integer array
        The columns ``T``: strictly increasing, non-negative, below ``N``,
        and at most ``m`` of them.
    rhs : 1-D float array
        Finite, of length ``m``.
    tol : float
        Relative stopping tolerance: iterate until the normal-equation
        residual satisfies ``||Phi_T^*(rhs - Phi_T w)|| <= tol * ||Phi_T^* rhs||``.
    max_iter : int
        Iteration cap; hitting it is reported, not raised.
    method : str
        One of ``LS_METHODS``: ``"cg"`` (conjugate gradient on the normal
        equations, default) or ``"richardson"`` (fixed-step iteration with
        step ``2/(lmin+lmax)`` estimated by power iteration).
    factor : GramFactor, optional
        Solve directly instead: grow ``factor`` (built for this operator
        and right-hand side) by the support's new columns, at two
        applications each (one for the first).  ``tol`` then only decides
        ``converged``; ``max_iter`` and ``method`` go unused.

    Returns
    -------
    LsSolution
        Coefficients over ``T``, whether the tolerance was met, and the
        iterations and applications spent.

    Raises
    ------
    UsageError
        A support that is empty, unsorted, repeated, negative, out of range
        or larger than ``m``; a wrong-length or non-finite ``rhs``; a
        non-positive or non-finite ``tol``; a non-integer or sub-1
        ``max_iter``; unknown method; or a factor built for another
        operator or right-hand side, or holding a column outside the support.
    SolverFailure
        The residual grew 10x above its running minimum (divergence),
        naming the offending iteration; or a column new to the factor is
        numerically dependent on the others (see ``DEPENDENT_COLUMN_RATIO``).
    """
    support = as_support(support)
    k = support.size
    if k > op.m:
        raise UsageError(
            f"support size {k} exceeds measurement count "
            f"{op.m}: restricted system is underdetermined"
        )
    if k and int(support[-1]) >= op.N:
        raise UsageError("support index out of range")
    rhs = as_vector(rhs, op.m, name="rhs")
    if k == 0:
        raise UsageError("restricted least squares needs a non-empty support")
    if not (tol > 0 and math.isfinite(tol)):
        raise UsageError(f"tol must be positive and finite, got {tol!r}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise UsageError(f"max_iter must be an integer at least 1, got {max_iter!r}")
    if method not in LS_METHODS:
        raise UsageError(f"unknown method {method!r}")
    if factor is not None:
        if factor.operator is not op or not (rhs is factor.rhs or np.array_equal(rhs, factor.rhs)):
            raise UsageError("the factor was built for another operator or right-hand side")
        return factor.solve(support, tol)

    applications = 0

    def gram_apply(w):
        nonlocal applications
        applications += 2
        return op.adjoint_support(support, op.forward_support(support, w))

    applications += 1
    target = op.adjoint_support(support, rhs)
    target_norm = float(np.linalg.norm(target))
    if target_norm == 0.0:
        return LsSolution(
            coeffs=np.zeros(k),
            iterations=0,
            converged=True,
            normal_residual=0.0,
            applications=applications,
        )
    threshold = tol * target_norm

    if method == "cg":
        coeffs, iters, resid_norm = _cg_normal(gram_apply, target, threshold, max_iter)
    else:
        coeffs, iters, resid_norm = _richardson_normal(
            gram_apply, target, threshold, max_iter, k
        )

    return LsSolution(
        coeffs=coeffs,
        iterations=iters,
        converged=resid_norm <= threshold,
        normal_residual=resid_norm,
        applications=applications,
    )


def _cg_normal(gram_apply, target, threshold, max_iter):
    k = target.size
    coeffs = np.zeros(k)
    resid = target.copy()
    direction = resid.copy()
    rho = float(np.dot(resid, resid))
    resid_norm = float(np.sqrt(rho))
    min_norm = resid_norm
    if resid_norm <= threshold:
        return coeffs, 0, resid_norm
    for it in range(1, max_iter + 1):
        gram_dir = gram_apply(direction)
        denom = float(np.dot(direction, gram_dir))
        if denom <= 0.0 or not np.isfinite(denom):
            raise SolverFailure(
                f"normal-equation CG hit a non-positive curvature at iteration {it}"
            )
        step = rho / denom
        coeffs += step * direction
        resid -= step * gram_dir
        rho_next = float(np.dot(resid, resid))
        resid_norm = float(np.sqrt(rho_next))
        if resid_norm <= threshold:
            return coeffs, it, resid_norm
        if resid_norm > 10.0 * min_norm:
            raise SolverFailure(
                f"normal-equation CG diverged at iteration {it}: residual "
                f"{resid_norm:.3e} grew 10x above its minimum {min_norm:.3e}"
            )
        min_norm = min(min_norm, resid_norm)
        direction = resid + (rho_next / rho) * direction
        rho = rho_next
    return coeffs, max_iter, resid_norm


def _richardson_normal(gram_apply, target, threshold, max_iter, k):
    from .rng import SplitMix64, derive_seed

    # Deterministic power-iteration start vector keyed on the support size.
    probe_rng = SplitMix64(derive_seed(_POWER_ITER_SEED_TAG, k))
    probe = probe_rng.normal(k)
    probe /= np.linalg.norm(probe)
    lam_max = 0.0
    for _ in range(_POWER_ITERATIONS):
        image = gram_apply(probe)
        lam_max = float(np.dot(probe, image))
        nrm = float(np.linalg.norm(image))
        if nrm == 0.0:
            break
        probe = image / nrm
    lam_hi = 1.05 * lam_max if lam_max > 0 else 1.0

    # lmin via power iteration on the reflected operator lam_hi*I - G.
    probe = probe_rng.normal(k)
    probe /= np.linalg.norm(probe)
    reflected = 0.0
    for _ in range(_POWER_ITERATIONS):
        image = lam_hi * probe - gram_apply(probe)
        reflected = float(np.dot(probe, image))
        nrm = float(np.linalg.norm(image))
        if nrm == 0.0:
            break
        probe = image / nrm
    lam_min = max(lam_hi - reflected, 0.0)
    step = 2.0 / (lam_min + lam_hi)

    coeffs = np.zeros(k)
    resid = target.copy()
    resid_norm = float(np.linalg.norm(resid))
    min_norm = resid_norm
    if resid_norm <= threshold:
        return coeffs, 0, resid_norm
    for it in range(1, max_iter + 1):
        coeffs += step * resid
        resid -= step * gram_apply(resid)
        resid_norm = float(np.linalg.norm(resid))
        if resid_norm <= threshold:
            return coeffs, it, resid_norm
        if resid_norm > 10.0 * min_norm:
            raise SolverFailure(
                f"Richardson iteration diverged at iteration {it}: residual "
                f"{resid_norm:.3e} grew 10x above its minimum {min_norm:.3e}"
            )
        min_norm = min(min_norm, resid_norm)
    return coeffs, max_iter, resid_norm
