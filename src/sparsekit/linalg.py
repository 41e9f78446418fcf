"""Dense vector kernels and the restricted least-squares solve shared by
all pursuit algorithms.

The least-squares solve is matrix-free: it only touches the measurement
operator through ``forward_support`` / ``adjoint_support``, and reports
the applications it spent as the change in the operator's
``matvec_count``.  It either iterates on the normal equations (CG or
Richardson, a fixed number of operator applications per iteration, from
zero or from a start vector given with its normal-equation residual) or,
for a support that only grows, updates a ``GramFactor`` directly at one
application per added column: the factor holds each column it applied
for, and forms the correlations and the residual from them.  Every path
measures its normal-equation residual against ``tol * ||rhs||``; the two
iterations share one loop, which stops there, at ``max_iter``, or on
divergence, and differ only in their step.

Every public call checks its inputs, and each check costs a few numpy
calls whatever the array's size: ``as_vector`` one ``isfinite`` and its
``all``, ``as_support`` one neighbour comparison and two bounds read as
Python ints.  So the pursuits, which pass every refit through
``restricted_least_squares`` and every apply through the operator's public
methods, pay the checks each round at that cost rather than skip them.

Every vector that passes ``as_values`` (and so ``as_vector``) is C-contiguous,
so BLAS gives the same bits whatever the caller's memory layout, and every
norm and inner product in the package goes through ``dot`` or ``l2_norm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverFailure, UsageError, check_integer, check_real
from .rng import SplitMix64, derive_seed

DEFAULT_LS_TOL = 1e-10
DEFAULT_LS_MAX_ITER = 100
LS_METHODS = ("cg", "richardson")

_POWER_ITER_SEED_TAG = 0x524943
_POWER_ITERATIONS = 30

# A column is numerically dependent on the support when the squared norm of
# its part orthogonal to the support, d^2 = ||phi_j||^2 - ||w||^2, is at most
# this fraction of ||phi_j||^2: d^2 is then mostly cancellation round-off.
DEPENDENT_COLUMN_RATIO = 1e-12


def as_values(x, length=None, name="values") -> np.ndarray:
    """Return a C-contiguous 1-D float64 array, of ``length`` entries if given; reads no entry, so finiteness goes unchecked."""
    v = np.asarray(x, dtype=np.float64, order="C")  # a contiguous float64 array comes back as it is
    if v.ndim != 1:
        raise UsageError(f"{name} must be 1-D, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise UsageError(f"{name} must have length {length}, got {v.shape[0]}")
    return v


def as_vector(x, length=None, name="vector") -> np.ndarray:
    """Validate and return a finite 1-D float64 array."""
    v = as_values(x, length, name)
    if not np.isfinite(v).all():
        raise UsageError(f"{name} contains NaN or Inf")
    return v


def dot(a, b) -> float:
    """``a . b`` of two 1-D float64 arrays of one length, as a Python float."""
    return float(a.dot(b))


def l2_norm(v) -> float:
    """``||v||_2`` of a 1-D float64 array as ``sqrt(v . v)``: the bits of
    ``numpy.linalg.norm(v)``, which computes exactly that, in one call."""
    return math.sqrt(dot(v, v))


def largest_indices(values, k: int) -> np.ndarray:
    """Positions of the ``k`` largest-magnitude entries, ascending.

    Ties are broken in favour of the lowest position, so the selection is
    deterministic: the result is the first ``k`` positions of a stable sort
    on descending magnitude, in which NaN ranks below every magnitude.
    Selection is O(N): one ``np.partition`` finds the k-th magnitude, and
    everything above it is kept together with the lowest-position entries
    equal to it.  For ``k = 1`` it is one ``argmax`` of the magnitudes,
    which returns the first largest, or the first NaN if there is one; only
    then does the selection rank the NaNs and partition.
    """
    v = as_values(values)
    n = v.shape[0]
    k = min(check_integer("k", k, 0), n)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    magnitude = np.abs(v)
    if k == 1:
        top = magnitude.argmax()
        if not math.isnan(magnitude[top]):
            return np.array([top], dtype=np.int64)
    # Every magnitude is >= 0, so NaN as -1 ranks below them all and its
    # ties go to the lowest position like any other.
    np.copyto(magnitude, -1.0, where=np.isnan(magnitude))
    kth = np.partition(magnitude, n - k)[n - k]
    keep = magnitude > kth
    ties = np.flatnonzero(magnitude == kth)
    keep[ties[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep).astype(np.int64, copy=False)


def embed(coeffs, indices, length: int) -> np.ndarray:
    """Scatter ``coeffs`` onto the support ``indices`` of a zero length-``length`` vector."""
    indices = as_support(indices, below=length)
    out = np.zeros(length)
    out[indices] = as_values(coeffs, indices.size, "coeffs")
    return out


def as_support(indices, below=None) -> np.ndarray:
    """Validate and return support indices: 1-D int64, strictly increasing, non-negative, under ``below``."""
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":
        raise UsageError(f"support indices must be integers, got dtype {idx.dtype}")
    if idx.ndim != 1:
        raise UsageError("support indices must be 1-D")
    idx = idx.astype(np.int64, copy=False)
    if idx.size:
        # Neighbours compared, not differenced: a difference of two int64
        # indices can overflow and pass a descending pair.
        if int(idx[0]) < 0 or (idx.size > 1 and not (idx[1:] > idx[:-1]).all()):
            raise UsageError("support indices must be strictly increasing and non-negative")
        if below is not None and int(idx[-1]) >= below:
            raise UsageError("support index out of range")
    return idx


def _rhs_norm(rhs) -> float:
    """``||rhs||``, refused when it overflows: an infinite scale would meet every tolerance at once."""
    norm = l2_norm(rhs)
    if not math.isfinite(norm):
        raise UsageError("rhs has a norm past float64's range")
    return norm


@dataclass
class LsSolution:
    """Solution of a restricted least-squares solve.

    ``converged`` says whether the normal-equation residual met the
    tolerance ``tol * ||rhs||``; an iterative solve that did not stopped at
    its iteration cap.  A factor solve is direct, reports 0 ``iterations``
    and also returns the ``residual`` ``rhs - Phi_T coeffs``; an iterative
    solve leaves it None.
    """

    coeffs: np.ndarray
    iterations: int
    converged: bool
    normal_residual: float
    applications: int = field(default=0)  # operator applications consumed
    residual: np.ndarray | None = None


class GramFactor:
    """Inverse Cholesky factor of ``Phi_T^* Phi_T`` for a support that only grows.

    With ``Phi_T^* Phi_T = L L^T``, the factor holds ``L^{-1}`` and
    ``z = L^{-1} Phi_T^* rhs`` in the order the columns were added, and
    each column ``phi_j`` itself, as a row of ``block``.  Adding column
    ``j`` costs one ``forward_support([j], [1.0])`` for ``phi_j``; the
    correlations ``g = Phi_T^* phi_j`` are a product with the held block.
    The new row of ``L`` is ``(w, d)`` with ``w = L^{-1} g`` and
    ``d^2 = ||phi_j||^2 - ||w||^2``, so the new row of ``L^{-1}`` is
    ``(-w^T L^{-1} / d, 1 / d)`` and the new entry of ``z`` is
    ``(phi_j . rhs - w . z) / d``.  The coefficients are ``L^{-T} z``, and
    the residual ``r = rhs - Phi_T c`` is one more product with the block,
    and so is the normal-equation residual ``Phi_T^* r``, which every solve
    reports without another apply.  Past the one apply everything is a
    matrix product on arrays of ``|T|`` rows.  The factor holds ``||rhs||``,
    its columns also as a set, which finds a support's new columns, and four
    arrays, the columns, the block, ``L^{-1}`` and ``z``, sized once for
    ``capacity`` columns (at most ``m``), the largest support the caller can
    reach; a solve on a larger support raises ``UsageError`` before any
    apply, and so does building a factor on an ``rhs`` whose norm overflows.
    """

    def __init__(self, operator, rhs, *, capacity: int):
        self.operator = operator
        self.rhs = as_vector(rhs, operator.m, name="rhs")
        self._rhs_norm = _rhs_norm(self.rhs)
        check_integer("capacity", capacity, 1, operator.m)
        self._size = 0
        self._held = set()  # the columns, as a set of Python ints
        # Sized once for ``capacity`` columns; entries past ``_size`` (and
        # above the diagonal of L^{-1}) stay zero.  Rows of the block past
        # ``_size`` are never read, so it is left unzeroed: pages of columns
        # the pursuit never reaches then stay out of resident memory.
        self._columns = np.zeros(capacity, dtype=np.int64)
        self._block = np.empty((capacity, operator.m))  # phi_j, one per row
        self._inverse = np.zeros((capacity, capacity))  # L^{-1}, lower triangular
        self._z = np.zeros(capacity)

    @property
    def columns(self) -> np.ndarray:
        """The factor's columns in the order they were added."""
        return self._columns[: self._size]

    @property
    def block(self) -> np.ndarray:
        """The held columns ``phi_j`` as the rows of a ``|T| x m`` block, in add order."""
        return self._block[: self._size]

    def solve(self, support: np.ndarray, tol: float) -> LsSolution:
        """Grow the factor to ``support`` (ascending) and solve on it.

        The support must hold every column already in the factor.  The
        coefficients come back in support order; ``converged`` says whether
        the normal-equation residual is within ``tol * ||rhs||``.
        """
        support = support.tolist()
        new = [j for j in support if j not in self._held]
        if len(self._held) + len(new) != len(support):
            raise UsageError("a factor only grows: the support must hold all its columns")
        if len(support) > self._z.size:
            raise UsageError(f"the factor holds at most {self._z.size} columns, the support has {len(support)}")
        if self._rhs_norm == 0.0:  # zero is the exact solution, at no apply
            zero = np.zeros(len(support))
            return LsSolution(coeffs=zero, iterations=0, converged=True, normal_residual=0.0, residual=self.rhs.copy())
        start_count = self.operator.matvec_count
        for j in new:
            self._add(j)
        k = self._size
        block = self._block[:k]
        coeffs = self._inverse[:k, :k].T @ self._z[:k]
        residual = self.rhs - block.T @ coeffs
        normal = block @ residual
        normal_residual = l2_norm(normal)
        return LsSolution(
            coeffs=coeffs[self._columns[:k].argsort()],
            iterations=0,
            converged=bool(normal_residual <= tol * self._rhs_norm),
            normal_residual=normal_residual,
            applications=self.operator.matvec_count - start_count,
            residual=residual,
        )

    def _add(self, j: int) -> None:
        """Grow the factor by column ``j``, at one application."""
        k = self._size
        phi = self.operator.forward_support(np.array([j], dtype=np.int64), np.array([1.0]))
        cross = self._block[:k] @ phi
        inverse = self._inverse[:k, :k]
        w = inverse @ cross
        norm2 = dot(phi, phi)
        d2 = norm2 - dot(w, w)
        if not d2 > DEPENDENT_COLUMN_RATIO * norm2:
            raise SolverFailure(
                f"column {j} is numerically dependent on the support: the squared "
                f"norm of its part orthogonal to the support, {d2:.3e}, is at most "
                f"{DEPENDENT_COLUMN_RATIO:g} of its own, {norm2:.3e}"
            )
        d = math.sqrt(d2)
        target = dot(phi, self.rhs)
        self._inverse[k, :k] = (w @ inverse) / -d
        self._inverse[k, k] = 1.0 / d
        self._z[k] = (target - dot(w, self._z[:k])) / d
        self._block[k] = phi
        self._columns[k] = j
        self._held.add(j)
        self._size = k + 1


def restricted_least_squares(
    op,
    support,
    rhs,
    *,
    tol: float = DEFAULT_LS_TOL,
    max_iter: int = DEFAULT_LS_MAX_ITER,
    method: str = "cg",
    factor: GramFactor | None = None,
    x0=None,
    start_residual=None,
) -> LsSolution:
    """Minimize ``||rhs - Phi_T w||_2`` on the normal equations.

    Parameters
    ----------
    op
        Anything exposing ``m``, ``N``, ``forward_support``,
        ``adjoint_support`` and ``matvec_count``, which each of the two
        applies raises by one (see ``sensing.SenseOperator``).
    support : 1-D integer array
        The columns ``T``: strictly increasing, non-negative, below ``N``,
        and at most ``m`` of them.
    rhs : 1-D float array
        Finite, of length ``m``.
    tol : float
        Relative tolerance: converged once ``||Phi_T^*(rhs - Phi_T w)|| <=
        tol * ||rhs||``, a scale that costs no apply; a zero ``rhs`` returns
        zeros at none.
    max_iter : int
        Iteration cap; hitting it is reported, not raised.
    method : str
        One of ``LS_METHODS``: ``"cg"`` (conjugate gradient on the normal
        equations, default) or ``"richardson"`` (fixed-step iteration with
        step ``2/(lmin+lmax)`` estimated by power iteration).
    factor : GramFactor, optional
        Solve directly instead: grow ``factor`` (built for this operator
        and right-hand side) by the support's new columns, at one
        application each, and return the residual ``rhs - Phi_T w`` it
        forms from the columns it holds.  ``tol`` then only decides
        ``converged``; ``max_iter`` and ``method`` go unused.
    x0, start_residual : 1-D float arrays, optional
        Start the iteration at ``x0`` instead of at zero, given its
        normal-equation residual ``Phi_T^*(rhs - Phi_T x0)``: both or
        neither, each finite and of length ``|T|``.  Not taken with
        ``factor``.  A CG solve costs a forward/adjoint pair per iteration,
        plus one application for the residual at zero, ``Phi_T^* rhs``,
        when it starts there: ``2 * iterations`` applications from a start,
        ``1 + 2 * iterations`` without one.

    Returns
    -------
    LsSolution
        Coefficients over ``T``, whether the tolerance was met, and the
        iterations and applications spent; with ``factor``, the residual too.

    Raises
    ------
    UsageError
        A support that is empty, non-integer, unsorted, repeated, negative,
        out of range or larger than ``m``; a wrong-length or non-finite
        ``rhs``, ``x0`` or ``start_residual``, or an ``rhs`` whose norm
        overflows; only one of the last two, or
        both with ``factor``; a non-positive or non-finite ``tol``; a
        non-integer or sub-1 ``max_iter``; unknown method; or a factor built
        for another operator or right-hand side, holding a column outside
        the support or too small for it.
    SolverFailure
        The residual grew 10x above its running minimum (divergence), or
        CG met a non-positive curvature, naming the offending iteration; or
        a column new to the factor is numerically dependent on the others
        (see ``DEPENDENT_COLUMN_RATIO``).
    """
    support = as_support(support, below=op.N)
    k = support.size
    if k > op.m:
        raise UsageError(
            f"support size {k} exceeds measurement count "
            f"{op.m}: restricted system is underdetermined"
        )
    rhs = as_vector(rhs, op.m, name="rhs")
    if k == 0:
        raise UsageError("restricted least squares needs a non-empty support")
    if x0 is not None:
        x0 = as_vector(x0, k, name="x0")
    if start_residual is not None:
        start_residual = as_vector(start_residual, k, name="start_residual")
    if (x0 is None) != (start_residual is None):
        raise UsageError("x0 and start_residual go together: start_residual is the residual at x0")
    check_real("tol", tol, positive=True)
    check_integer("max_iter", max_iter, 1)
    if method not in LS_METHODS:
        raise UsageError(f"unknown method {method!r}")
    if factor is not None:
        if factor.operator is not op or not (rhs is factor.rhs or np.array_equal(rhs, factor.rhs)):
            raise UsageError("the factor was built for another operator or right-hand side")
        if x0 is not None:
            raise UsageError("a factor solves directly and takes no start vector x0")
        return factor.solve(support, tol)
    rhs_norm = _rhs_norm(rhs)
    if rhs_norm == 0.0:
        return LsSolution(coeffs=np.zeros(k), iterations=0, converged=True, normal_residual=0.0)

    start_count = op.matvec_count

    def gram_apply(w):
        return op.adjoint_support(support, op.forward_support(support, w))

    if x0 is None:
        coeffs, resid = np.zeros(k), op.adjoint_support(support, rhs)
    else:
        coeffs, resid = x0.copy(), start_residual.copy()
    if method == "cg":
        name, step = "normal-equation CG", _cg_step(gram_apply, resid)
    else:
        name, step = "Richardson iteration", _richardson_step(gram_apply, k)
    threshold = tol * rhs_norm
    resid_norm = l2_norm(resid)
    min_norm = resid_norm
    iterations = 0
    # ``not <=`` rather than ``>``: a NaN residual iterates on to the cap.
    while not resid_norm <= threshold and iterations < max_iter:
        iterations += 1
        resid_norm = step(coeffs, resid, iterations)
        if resid_norm > 10.0 * min_norm:  # min_norm > threshold, so this one has not converged
            raise SolverFailure(
                f"{name} diverged at iteration {iterations}: residual "
                f"{resid_norm:.3e} grew 10x above its minimum {min_norm:.3e}"
            )
        min_norm = min(min_norm, resid_norm)

    return LsSolution(
        coeffs=coeffs,
        iterations=iterations,
        converged=bool(resid_norm <= threshold),
        normal_residual=resid_norm,
        applications=op.matvec_count - start_count,
    )


def _cg_step(gram_apply, resid):
    """A conjugate-gradient step on ``G w = b``, started from the residual
    ``resid``: ``step(coeffs, resid, iteration)`` moves ``coeffs`` and its
    residual ``b - G coeffs`` in place and returns the new residual norm."""
    direction = resid.copy()
    rho = dot(resid, resid)

    def step(coeffs, resid, iteration):
        nonlocal direction, rho
        gram_dir = gram_apply(direction)
        denom = dot(direction, gram_dir)
        if denom <= 0.0 or not np.isfinite(denom):
            raise SolverFailure(
                f"normal-equation CG hit a non-positive curvature at iteration {iteration}"
            )
        alpha = rho / denom
        coeffs += alpha * direction
        resid -= alpha * gram_dir
        rho_next = dot(resid, resid)
        direction = resid + (rho_next / rho) * direction
        rho = rho_next
        return math.sqrt(rho_next)

    return step


def _richardson_step(gram_apply, k):
    """A fixed-step iteration on ``G w = b`` for ``k`` unknowns, with the
    contract of ``_cg_step``.  The step ``2/(lmin+lmax)`` is estimated by
    power iteration on the first call, so a start that already meets the
    tolerance costs no application."""
    size = None

    def step(coeffs, resid, iteration):
        nonlocal size
        if size is None:
            # Deterministic power-iteration start vectors keyed on the support size.
            probe_rng = SplitMix64(derive_seed(_POWER_ITER_SEED_TAG, k))
            lam_max = _power_iteration(gram_apply, probe_rng.normal(k))
            lam_hi = 1.05 * lam_max if lam_max > 0 else 1.0
            # lmin via power iteration on the reflected operator lam_hi*I - G.
            reflected = _power_iteration(lambda probe: lam_hi * probe - gram_apply(probe), probe_rng.normal(k))
            lam_min = max(lam_hi - reflected, 0.0)
            size = 2.0 / (lam_min + lam_hi)
        coeffs += size * resid
        resid -= size * gram_apply(resid)
        return l2_norm(resid)

    return step


def _power_iteration(apply, probe):
    """The largest eigenvalue of the symmetric map ``apply``, estimated by
    ``_POWER_ITERATIONS`` steps from ``probe``."""
    probe = probe / l2_norm(probe)
    value = 0.0
    for _ in range(_POWER_ITERATIONS):
        image = apply(probe)
        value = dot(probe, image)
        nrm = l2_norm(image)
        if nrm == 0.0:
            break
        probe = image / nrm
    return value
