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
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import SolverFailure, UsageError
from .linalg import (
    LS_METHODS,
    GramFactor,
    as_vector,
    embed,
    largest_indices,
    restricted_least_squares,
)

# CoSaMP declares the support stalled when it repeats and the residual
# norm dropped by less than this relative amount.
STALL_RELATIVE_DECREASE = 1e-6

DEFAULT_COSAMP_MAX_ITER = 100


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
    columns, so it needs ``3s <= m`` to keep that system determined.  The
    operator's shape is not part of the rule.  A non-integral ``s`` is
    malformed input, not a shape, and raises ``UsageError``.
    """
    if not isinstance(s, (int, np.integer)):
        raise UsageError(f"sparsity must be an integer, got {s!r}")
    if s < 1:
        return f"sparsity must be at least 1, got {s}"
    if algorithm == "cosamp":
        if 3 * s > m:
            return f"cosamp needs 3*s <= m, got s={s}, m={m}"
    elif s > m:
        return f"sparsity {s} exceeds measurement count {m}"
    return None


def _checked(algorithm: str, op, u, s, ls_method: str = "cg") -> np.ndarray:
    """A pursuit's preamble: check every input before the first apply; returns ``u``."""
    u = as_vector(u, length=op.m, name="measurement")
    problem = sparsity_problem(algorithm, op.m, s)
    if problem is not None:
        raise UsageError(problem)
    if ls_method not in LS_METHODS:
        raise UsageError(f"unknown least-squares method {ls_method!r}")
    return u


def _pursue(
    name: str,
    op,
    u: np.ndarray,
    rounds: int,
    select,
    ls: dict,
    *,
    prune=None,
    halt=None,
    halted: Optional[HaltReason] = None,
    exhausted: HaltReason = HaltReason.MAX_ITERATIONS,
) -> RecoveryResult:
    """The iteration every pursuit shares: proxy, select, refit, update.

    ``select(proxy, support)`` returns a halt reason, or the support to
    refit on together with its trace entries.  ``prune(refit_support,
    coeffs)`` returns the support and coefficients to keep, plus their
    trace entries; without it the whole refit is kept.  ``halt(norm,
    previous_norm, support, new_support)`` runs after every iteration.
    A ``halted`` reason ends the run before the first iteration, and
    ``exhausted`` is reported when all ``rounds`` ran without a halt.
    """
    start_count = op.matvec_count
    support = np.empty(0, dtype=np.int64)
    estimate = np.zeros(op.N)
    residual = u.copy()
    norm = float(np.linalg.norm(residual))
    residual_norms = [norm]
    iterates: List[dict] = []

    iteration = 0
    while halted is None and iteration < rounds:
        iteration += 1
        picked = select(op.adjoint(residual), support)
        if isinstance(picked, HaltReason):
            halted = picked
            break
        refit_support, entry = picked
        try:
            solution = restricted_least_squares(op, refit_support, u, **ls)
        except SolverFailure as exc:
            raise SolverFailure(f"{name} iteration {iteration}: {exc}") from exc
        new_support, coeffs = refit_support, solution.coeffs
        if prune is not None:
            new_support, coeffs, pruned = prune(refit_support, solution.coeffs)
            entry.update(pruned)
        estimate = embed(coeffs, new_support, op.N)
        if new_support.size:
            residual = u - op.forward_support(new_support, coeffs)
        else:
            residual = u.copy()
        previous_norm = norm
        norm = float(np.linalg.norm(residual))
        residual_norms.append(norm)
        iterates.append(
            {
                "iteration": iteration,
                **entry,
                "residual_norm": norm,
                "ls_iterations": solution.iterations,
                "ls_converged": solution.converged,
                "ls_applications": solution.applications,
            }
        )
        if halt is not None:
            halted = halt(norm, previous_norm, support, new_support)
        support = new_support

    return RecoveryResult(
        estimate=estimate,
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
    grows a ``GramFactor`` by the new column instead of iterating, so
    ``s`` rounds cost ``4s - 1`` operator applications: per round the
    proxy adjoint, the residual's forward apply and the factor's two
    (one in the first round).  A column numerically dependent on the
    support raises ``SolverFailure``.
    """
    u = _checked("omp", op, u, s)

    def select(proxy, support):
        proxy[support] = 0.0
        if not np.any(proxy != 0.0):
            return HaltReason.PROXY_ZERO
        chosen = int(largest_indices(proxy, 1)[0])
        merged = np.union1d(support, [chosen]).astype(np.int64)
        return merged, {"selected": chosen, "support_size": int(merged.size)}

    ls = dict(factor=GramFactor(op, u))
    return _pursue("omp", op, u, s, select, ls, exhausted=HaltReason.SPARSITY_REACHED)


def romp_regularize(proxy_values) -> np.ndarray:
    """Pick the comparable-magnitude window with the most energy.

    Given the candidate proxy values, returns ascending positions (into
    the input array) of a subset whose magnitudes are within a factor of
    two of each other and whose l2 energy is maximal among all such subsets.
    Scanning maximal windows of the magnitude-sorted order suffices: any
    comparable subset lives inside some maximal window, whose energy is
    at least as large.  Ties in energy go to the window whose largest
    entry has the lowest original position.
    """
    values = as_vector(proxy_values, name="proxy values")
    if values.size == 0:
        raise UsageError("regularization needs at least one candidate")
    if np.any(values == 0.0):
        raise UsageError("regularization candidates must be nonzero")

    order = np.argsort(-np.abs(values), kind="stable")
    mags = np.abs(values)[order]
    n = mags.size
    energy_prefix = np.concatenate(([0.0], np.cumsum(mags * mags)))

    best_energy = -1.0
    best_start = 0
    best_stop = 0
    stop = 0
    for start in range(n):
        if stop < start + 1:
            stop = start + 1
        while stop < n and mags[start] <= 2.0 * mags[stop]:
            stop += 1
        energy = float(energy_prefix[stop] - energy_prefix[start])
        better = energy > best_energy
        tied = energy == best_energy and order[start] < order[best_start]
        if better or tied:
            best_energy = energy
            best_start = start
            best_stop = stop
    return np.sort(order[best_start:best_stop])


def romp(op, u, s: int, *, ls_method: str = "cg") -> RecoveryResult:
    """Regularized OMP: commit a comparable-magnitude batch per iteration.

    Each round takes the ``s`` largest nonzero proxy coordinates outside
    the current support, regularizes them down to the best window whose
    magnitudes are within a factor of two of each other, commits the
    whole window, and refits.  Runs at most ``s`` rounds, stopping early
    once the support holds ``2s`` coordinates, so the final support
    never exceeds ``3s`` entries.
    """
    u = _checked("romp", op, u, s, ls_method)

    def select(proxy, support):
        proxy[support] = 0.0
        nonzero = int(np.count_nonzero(proxy))
        if nonzero == 0:
            return HaltReason.PROXY_ZERO
        candidates = largest_indices(proxy, min(s, nonzero))
        candidates = candidates[proxy[candidates] != 0.0]
        committed = candidates[romp_regularize(proxy[candidates])]
        if support.size + committed.size > op.m:
            return HaltReason.SUPPORT_CAP
        merged = np.union1d(support, committed).astype(np.int64)
        return merged, {
            "candidates": candidates.tolist(),
            "candidate_values": proxy[candidates].tolist(),
            "committed": committed.tolist(),
            "committed_values": proxy[committed].tolist(),
            "support_size": int(merged.size),
        }

    def halt(norm, previous_norm, support, new_support):
        if norm == 0.0:
            return HaltReason.RESIDUAL_SMALL
        if new_support.size >= 2 * s:
            return HaltReason.SPARSITY_REACHED
        return None

    ls = dict(method=ls_method)
    return _pursue("romp", op, u, s, select, ls, halt=halt)


def cosamp(
    op,
    u,
    s: int,
    *,
    eta: float = 0.0,
    max_iter: int = DEFAULT_COSAMP_MAX_ITER,
    ls_method: str = "cg",
) -> RecoveryResult:
    """Compressive sampling matching pursuit with pruning.

    Each iteration merges the ``2s`` largest proxy coordinates with the
    current estimate's support, solves least squares on the merged set,
    prunes back to the ``s`` largest coefficients, and updates the
    residual.  Halts when the residual norm reaches ``eta``, when the
    support repeats without meaningful residual progress, or after
    ``max_iter`` iterations.
    """
    u = _checked("cosamp", op, u, s, ls_method)
    if not math.isfinite(eta):
        raise UsageError(f"residual target eta must be finite, got {eta}")
    if eta < 0.0:
        raise UsageError("residual target eta must be non-negative")
    if max_iter < 1:
        raise UsageError("max_iter must be at least 1")

    def select(proxy, support):
        picks = largest_indices(proxy, 2 * s)
        picks = picks[proxy[picks] != 0.0]
        merged = np.union1d(picks, support).astype(np.int64)
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

    ls = dict(method=ls_method)
    halted = HaltReason.RESIDUAL_SMALL if float(np.linalg.norm(u)) <= eta else None
    return _pursue(
        "cosamp", op, u, max_iter, select, ls, prune=prune, halt=halt, halted=halted
    )
