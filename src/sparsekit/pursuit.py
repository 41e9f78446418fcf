"""Greedy sparse recovery: orthogonal matching pursuit, regularized OMP,
and compressive sampling matching pursuit.

All three share the same skeleton — form a proxy by applying the adjoint
to the current residual, pick candidate coordinates from its largest
entries, refit by restricted least squares — and differ in how many
coordinates they commit per iteration and whether they can drop them
again.  Every routine is deterministic: ties in magnitude comparisons
always resolve to the lowest index, and the iteration trace is logged so
invariants can be audited after the fact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import SolverFailure, UsageError
from .linalg import (
    DEFAULT_LS_TOL,
    GramFactor,
    as_vector,
    check_integer,
    check_real,
    embed,
    l2_norm,
    largest_indices,
    restricted_least_squares,
)
from .sensing import MAX_DENSE_ENTRIES

# CoSaMP declares the support stalled when it repeats and the residual
# norm dropped by less than this relative amount.
STALL_RELATIVE_DECREASE = 1e-6

DEFAULT_COSAMP_MAX_ITER = 100

# CoSaMP solves each refit until its normal-equation residual is within this
# share of eta (and never below DEFAULT_LS_TOL * ||u||): with the restricted
# isometry keeping the Gram matrix near the identity, the inexact solve moves
# the residual by about 1% of eta, which the error analysis absorbs.
COSAMP_LS_ETA_SHARE = 0.01

# ROMP's "r = 0" halt, as a fraction of ||u||: an exact fit leaves round-off
# of about 1e-15 to 1e-14 of ||u||, and a noisy fit never falls below its noise.
ZERO_RESIDUAL_RATIO = 1e-12


class HaltReason(enum.Enum):
    SPARSITY_REACHED = "sparsity_reached"
    RESIDUAL_SMALL = "residual_small"
    MAX_ITERATIONS = "max_iterations"
    SUPPORT_CAP = "support_cap"
    PROXY_ZERO = "proxy_zero"
    # Not one of the canonical stopping events, but CoSaMP's fixed-point
    # halt has to be reportable as itself rather than mislabelled.
    SUPPORT_STALL = "support_stall"


@dataclass
class RecoveryResult:
    """Outcome of one recovery run, with enough trace to audit it."""

    estimate: np.ndarray
    support: np.ndarray  # strictly increasing int64 column indices
    iterations: int
    residual_norms: List[float]
    matvec_count: int
    halted_by: HaltReason
    iterates: List[dict] = field(default_factory=list)


def sparsity_problem(algorithm: str, m: int, s) -> Optional[str]:
    """The rule on ``(m, s)`` that ``algorithm`` needs and these break, or None.

    OMP and ROMP need ``1 <= s <= m``; CoSaMP refits on up to ``3s`` merged
    columns, so it needs ``3s <= m`` to keep that system determined.  OMP
    and ROMP refit on a ``GramFactor``, which at the largest support ``k``
    they can reach (``s`` for OMP, ``min(3s - 1, m)`` for ROMP) holds its
    ``k`` columns of length ``m`` and a ``k x k`` inverse factor; those
    ``k*m + k*k`` entries may not exceed ``sensing.MAX_DENSE_ENTRIES``.
    The operator's shape is not part of the rule.  A non-integral ``s`` is
    malformed input, not a shape, and raises ``UsageError``.
    """
    check_integer("sparsity", s)
    if s < 1:
        return f"sparsity must be at least 1, got {s}"
    if algorithm == "cosamp":
        if 3 * s > m:
            return f"cosamp needs 3*s <= m, got s={s}, m={m}"
        return None
    if s > m:
        return f"sparsity {s} exceeds measurement count {m}"
    k = int(_factor_capacity(algorithm, m, s))  # as Python integers: numpy int32 products can wrap
    entries = k * int(m) + k * k
    if entries > MAX_DENSE_ENTRIES:
        return (
            f"{algorithm} with m={m}, s={s} refits on a factor of up to {entries} entries "
            f"({k} columns of length {m} and a {k} x {k} inverse factor), more than the cap of "
            f"{MAX_DENSE_ENTRIES} (sensing.MAX_DENSE_ENTRIES)"
        )
    return None


def check_halting(eta, max_iter) -> None:
    """Refuse CoSaMP's halting rule unless ``eta`` is a finite real >= 0 and ``max_iter`` an integer >= 1."""
    check_real("eta", eta)
    check_integer("max_iter", max_iter, 1)


def _checked(algorithm: str, op, u, s) -> np.ndarray:
    """A pursuit's preamble: check every input before the first apply; returns ``u``."""
    u = as_vector(u, length=op.m, name="measurement")
    problem = sparsity_problem(algorithm, op.m, s)
    if problem is not None:
        raise UsageError(problem)
    return u


def _factor_capacity(algorithm: str, m: int, s: int) -> int:
    """The largest support OMP (``s``) or ROMP (``min(3s - 1, m)``) refits on."""
    return s if algorithm == "omp" else min(3 * s - 1, m)


def _pursue(
    name: str,
    op,
    u: np.ndarray,
    rounds: int,
    select,
    *,
    capacity: Optional[int] = None,
    ls_tol: float = DEFAULT_LS_TOL,
    prune=None,
    halt=None,
    halted: Optional[HaltReason] = None,
    exhausted: HaltReason = HaltReason.MAX_ITERATIONS,
) -> RecoveryResult:
    """The iteration every pursuit shares: proxy, select, refit, update.

    ``select(proxy, support)`` returns a halt reason, or the support to
    refit on together with its trace entries.  ``prune(refit_support,
    coeffs)`` returns the support and coefficients to keep, plus their
    trace entries; without it the whole refit is kept, and one ``GramFactor``
    of ``capacity`` columns serves every refit of the growing support and
    returns its residual.  With ``prune``, each refit runs CG to ``ls_tol``
    from the current estimate on the refit support, and a forward apply
    forms the residual.  The refit support holds the current one, so the
    proxy's slice on it is the start's normal-equation residual and costs
    no apply; ``select`` must then leave the proxy as it found it.  The loop
    keeps the estimate as its support and coefficients, and embeds it in a
    length-N vector only where it is read: once after the loop, and each
    round for ``prune``'s warm start.
    ``halt(norm, previous_norm, support, new_support)`` runs after every
    iteration.
    A ``halted`` reason ends the run before the first iteration, and
    ``exhausted`` is reported when all ``rounds`` ran without a halt.
    """
    start_count = op.matvec_count
    factor = None if prune is not None else GramFactor(op, u, capacity=capacity)
    support, coeffs = np.empty(0, dtype=np.int64), np.empty(0)
    residual = u.copy()
    norm = l2_norm(residual)
    residual_norms = [norm]
    iterates: List[dict] = []

    iteration = 0
    while halted is None and iteration < rounds:
        iteration += 1
        proxy = op.adjoint(residual)
        picked = select(proxy, support)
        if isinstance(picked, HaltReason):
            halted = picked
            break
        refit_support, entry = picked
        warm = {}
        if factor is None:  # the current estimate on the refit support
            warm = {"x0": embed(coeffs, support, op.N)[refit_support], "start_residual": proxy[refit_support]}
        try:
            solution = restricted_least_squares(op, refit_support, u, tol=ls_tol, factor=factor, **warm)
        except SolverFailure as exc:
            raise SolverFailure(f"{name} iteration {iteration}: {exc}") from exc
        new_support, new_coeffs = refit_support, solution.coeffs
        if prune is not None:
            new_support, new_coeffs, pruned = prune(refit_support, solution.coeffs)
            entry.update(pruned)
        if solution.residual is not None:
            residual = solution.residual
        elif new_support.size:
            residual = u - op.forward_support(new_support, new_coeffs)
        else:
            residual = u.copy()
        previous_norm = norm
        norm = l2_norm(residual)
        residual_norms.append(norm)
        iterates.append(
            {
                "iteration": iteration,
                **entry,
                "residual_norm": norm,
                "ls_iterations": solution.iterations,
                "ls_converged": solution.converged,
                "ls_applications": solution.applications,
                "ls_tol": ls_tol,
            }
        )
        if halt is not None:
            halted = halt(norm, previous_norm, support, new_support)
        support, coeffs = new_support, new_coeffs

    return RecoveryResult(
        estimate=embed(coeffs, support, op.N),
        support=support,
        iterations=len(iterates),
        residual_norms=residual_norms,
        matvec_count=op.matvec_count - start_count,
        halted_by=exhausted if halted is None else halted,
        iterates=iterates,
    )


def omp(op, u, s: int) -> RecoveryResult:
    """Orthogonal matching pursuit: one coordinate per iteration, s iterations.

    Each round applies the adjoint to the residual, commits the largest
    proxy coordinate not already selected (ties to the lowest index), and
    refits all committed coordinates by least squares, so the residual is
    orthogonal to the selected columns and never increases.  The refit
    grows ``_pursue``'s ``GramFactor`` by the new column, which forms the
    residual from the columns it holds, so ``s`` rounds cost ``2s``
    operator applications: per round the proxy adjoint and the new
    column's forward apply.  A column numerically dependent on the
    support raises ``SolverFailure``.
    """
    u = _checked("omp", op, u, s)

    def select(proxy, support):
        proxy[support] = 0.0
        if not proxy.any():  # for float64, the test ``any(proxy != 0.0)``; NaN counts
            return HaltReason.PROXY_ZERO
        chosen = int(largest_indices(proxy, 1)[0])
        # The sorted union: NaN ranks below zero, so the pick may be held already.
        merged = np.array(sorted({chosen, *support.tolist()}), dtype=np.int64)
        return merged, {"selected": chosen, "support_size": int(merged.size)}

    capacity = _factor_capacity("omp", op.m, s)
    return _pursue("omp", op, u, s, select, capacity=capacity, exhausted=HaltReason.SPARSITY_REACHED)


def romp_regularize(proxy_values) -> np.ndarray:
    """Pick the comparable-magnitude window with the most energy.

    Given the candidate proxy values, returns ascending positions (into
    the input array) of a subset whose magnitudes are within a factor of
    two of each other and whose l2 energy is maximal among all such subsets.
    Maximal windows of the magnitude-sorted order suffice: any comparable
    subset lives inside some maximal window, whose energy is at least as
    large.  One sorted search finds where every window ends, and prefix
    sums of the squared magnitudes give every window's energy.  Ties in
    energy go to the window whose largest entry has the lowest original
    position.
    """
    values = as_vector(proxy_values, name="proxy values")
    if values.size == 0:
        raise UsageError("regularization needs at least one candidate")
    if np.any(values == 0.0):
        raise UsageError("regularization candidates must be nonzero")

    order = np.argsort(-np.abs(values), kind="stable")
    mags = np.abs(values)[order]
    energy_prefix = np.concatenate(([0.0], np.cumsum(mags * mags)))
    # The window from ``start`` ends before the first magnitude below half
    # of ``mags[start]``: the count of ``j`` with ``mags[start] <= 2 mags[j]``.
    stops = np.searchsorted(-2.0 * mags, -mags, side="right")
    energies = energy_prefix[stops] - energy_prefix[:-1]
    # nanmax: squares that overflow leave later windows NaN, never the best.
    tied = np.flatnonzero(energies == np.nanmax(energies))
    start = tied[np.argmin(order[tied])]
    return np.sort(order[start : stops[start]])


def romp(op, u, s: int) -> RecoveryResult:
    """Regularized OMP: commit a comparable-magnitude batch per iteration.

    Each round takes the ``s`` largest nonzero proxy coordinates outside
    the current support, regularizes them down to the best window whose
    magnitudes are within a factor of two of each other, commits the
    whole window, and refits.  Runs at most ``s`` rounds, stopping early
    once the residual is zero up to round-off (``ZERO_RESIDUAL_RATIO``)
    or the support holds ``2s`` coordinates, so it never exceeds ``3s``.
    Refits grow ``_pursue``'s ``GramFactor``, which forms the residual
    from the columns it holds: a round costs one apply (the proxy adjoint)
    plus one per committed column; a dependent column raises
    ``SolverFailure``.
    """
    u = _checked("romp", op, u, s)
    zero = ZERO_RESIDUAL_RATIO * l2_norm(u)

    def select(proxy, support):
        proxy[support] = 0.0
        candidates = largest_indices(proxy, s)
        candidates = candidates[proxy[candidates] != 0.0]
        if candidates.size == 0:
            return HaltReason.PROXY_ZERO
        committed = candidates[romp_regularize(proxy[candidates])]
        if support.size + committed.size > op.m:
            return HaltReason.SUPPORT_CAP
        merged = np.union1d(support, committed)
        return merged, {
            "candidates": candidates.tolist(),
            "candidate_values": proxy[candidates].tolist(),
            "committed": committed.tolist(),
            "committed_values": proxy[committed].tolist(),
            "support_size": int(merged.size),
        }

    def halt(norm, previous_norm, support, new_support):
        if norm <= zero:
            return HaltReason.RESIDUAL_SMALL
        if new_support.size >= 2 * s:
            return HaltReason.SPARSITY_REACHED
        return None

    capacity = _factor_capacity("romp", op.m, s)
    return _pursue("romp", op, u, s, select, capacity=capacity, halt=halt)


def cosamp(
    op,
    u,
    s: int,
    *,
    eta: float = 0.0,
    max_iter: int = DEFAULT_COSAMP_MAX_ITER,
) -> RecoveryResult:
    """Compressive sampling matching pursuit with pruning.

    Each iteration merges the ``2s`` largest proxy coordinates with the
    current estimate's support, solves least squares on the merged set,
    prunes back to the ``s`` largest coefficients, and updates the
    residual.  Halts when the residual norm reaches ``eta``, when the
    support repeats without meaningful residual progress, or after
    ``max_iter`` iterations.  The support changes by pruning, so each
    refit runs CG, as the CoSaMP paper's iterative least-squares step does:
    it starts from the current estimate, whose normal-equation residual is
    the proxy's slice on the merged support, and stops once that residual
    is within ``max(DEFAULT_LS_TOL * ||u||, COSAMP_LS_ETA_SHARE * eta)``;
    each iterate records that target over ``||u||`` as ``ls_tol``.  A refit
    costs a forward/adjoint pair per CG step and nothing else.
    """
    u = _checked("cosamp", op, u, s)
    check_halting(eta, max_iter)
    # As a Python float: a numpy float32 eta would keep ls_tol in float32.
    eta = float(eta)

    def select(proxy, support):
        picks = largest_indices(proxy, 2 * s)
        picks = picks[proxy[picks] != 0.0]
        merged = np.union1d(picks, support)
        if merged.size == 0:
            return HaltReason.PROXY_ZERO
        return merged, {
            "proxy_picks": picks.tolist(),
            "merged": merged.tolist(),
            "merged_size": int(merged.size),
        }

    def prune(merged, coeffs):
        keep = largest_indices(coeffs, s)
        keep = keep[coeffs[keep] != 0.0]
        kept = np.sort(merged[keep])
        return kept, coeffs[keep], {"merged_coeffs": coeffs.tolist(), "support": kept.tolist()}

    def halt(norm, previous_norm, support, new_support):
        if norm <= eta:
            return HaltReason.RESIDUAL_SMALL
        if (
            np.array_equal(new_support, support)
            and previous_norm - norm < STALL_RELATIVE_DECREASE * previous_norm
        ):
            return HaltReason.SUPPORT_STALL
        return None

    norm = l2_norm(u)
    halted = HaltReason.RESIDUAL_SMALL if norm <= eta else None
    ls_tol = DEFAULT_LS_TOL if halted else float(max(DEFAULT_LS_TOL, COSAMP_LS_ETA_SHARE * eta / norm))
    return _pursue("cosamp", op, u, max_iter, select, ls_tol=ls_tol, prune=prune, halt=halt, halted=halted)
