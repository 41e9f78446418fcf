"""Dense reference OMP, ROMP and CoSaMP, written from the papers'
pseudo-code: the tests' oracle for whole pursuits.

Each runs on an explicit m x N matrix (``op.dense_matrix()``), refits with
``np.linalg.lstsq`` and ranks magnitudes with a stable sort, so every tie
goes to the lowest index.  None calls ``sparsekit.pursuit`` or
``sparsekit.linalg``.

* OMP is the textbook loop: the largest proxy entry off the support joins
  it, and the support is refit, for ``s`` rounds.
* ROMP follows Needell & Vershynin (arXiv:0707.4203): the ``s`` largest
  nonzero proxy entries off the support, the subset of them whose
  magnitudes lie within a factor of two of each other with the most energy
  (``brute_force_regularize``, an exhaustive search), and the union.  It
  stops when the residual is zero up to ``ZERO_RESIDUAL_RATIO * ||u||``, the
  support holds ``2s`` entries, a window would take the support past ``m``,
  or after ``s`` rounds.
* CoSaMP follows Needell & Tropp (arXiv:0803.2392), Algorithm 2.1: the
  ``2s`` largest nonzero proxy entries merge with the estimate's support,
  the merged set is refit, and the ``s`` largest nonzero coefficients are
  kept.  It stops when the residual norm is at most ``eta``, or the support
  repeats while the residual norm falls by less than
  ``STALL_RELATIVE_DECREASE`` of itself, or after ``max_iter`` rounds.

Every run also returns the gap of each decision it made.  A ranking's gap
is the magnitude of the last entry taken less that of the first entry left
out, over ``||u||``; a window's gaps are how far its best energy stands
from the next and how far any two candidates stand from the factor-of-two
boundary, over ``||u||`` and ``||u||**2``; a halting test's gap is how far
its quantity stands from the threshold, relative to the threshold or to
the previous residual norm.  A gap of exactly zero is a tie, which the
lowest-index rule decides; a small nonzero gap is a near-tie, which
rounding in another solver may decide the other way.
"""

from itertools import combinations
from typing import NamedTuple

import numpy as np

ZERO_RESIDUAL_RATIO = 1e-12
STALL_RELATIVE_DECREASE = 1e-6


class Run(NamedTuple):
    steps: list  # one dict of the round's picks and support per round
    halted: str  # a ``HaltReason`` value
    estimate: np.ndarray
    gaps: list


def comparable(mags):
    return max(mags) <= 2.0 * min(mags)


def brute_force_regularize(values):
    """Exhaustive reference: best comparable subset by energy, ties going
    to the subset whose largest-magnitude element has the lowest index."""
    return _windows(values)[0][1]


def _windows(values):
    """Every comparable subset of ``values`` as ``(key, subset, energy)``,
    best first: by energy, then by the lowest index of a largest magnitude."""
    found = []
    for size in range(1, len(values) + 1):
        for subset in combinations(range(len(values)), size):
            mags = [abs(values[i]) for i in subset]
            if comparable(mags):
                energy = sum(m * m for m in mags)
                largest = min(subset, key=lambda i: (-abs(values[i]), i))
                found.append(((-energy, largest), set(subset), energy))
    return sorted(found, key=lambda window: window[0])


def _top(values, k, gaps, unit):
    """The ascending positions of the ``k`` largest nonzero magnitudes of
    ``values``, ties to the lowest position; appends the gap at the cut."""
    mags = np.abs(values)
    order = np.argsort(-mags, kind="stable")
    order = order[mags[order] > 0.0]
    if 0 < k < order.size:
        gaps.append((mags[order[k - 1]] - mags[order[k]]) / unit)
    return sorted(order[:k].tolist())


def _refit(A, u, support):
    """Least-squares coefficients on ``support`` and the residual."""
    coeffs = np.linalg.lstsq(A[:, support], u, rcond=None)[0] if support else np.empty(0)
    return coeffs, u - A[:, support] @ coeffs


def _embed(N, support, coeffs):
    x = np.zeros(N)
    x[support] = coeffs
    return x


def omp(A, u, s):
    unit = np.linalg.norm(u)
    support, coeffs, residual, steps, gaps = [], np.empty(0), u, [], []
    for _ in range(s):
        proxy = A.T @ residual
        proxy[support] = 0.0
        picks = _top(proxy, 1, gaps, unit)
        if not picks:
            return Run(steps, "proxy_zero", _embed(A.shape[1], support, coeffs), gaps)
        support = sorted(support + picks)
        coeffs, residual = _refit(A, u, support)
        steps.append({"selected": picks[0], "support": support})
    return Run(steps, "sparsity_reached", _embed(A.shape[1], support, coeffs), gaps)


def romp(A, u, s):
    m, N = A.shape
    unit = np.linalg.norm(u)
    zero = ZERO_RESIDUAL_RATIO * unit
    support, coeffs, residual, steps, gaps = [], np.empty(0), u, [], []
    halted = "max_iterations"
    for _ in range(s):
        proxy = A.T @ residual
        proxy[support] = 0.0
        candidates = _top(proxy, s, gaps, unit)
        if not candidates:
            halted = "proxy_zero"
            break
        values = proxy[candidates].tolist()
        windows = _windows(values)
        energies = sorted({energy for _, _, energy in windows}, reverse=True)
        if len(energies) > 1:
            gaps.append((energies[0] - energies[1]) / unit**2)
        gaps.extend(abs(2.0 * abs(a) - abs(b)) / unit for a in values for b in values if a is not b)
        committed = sorted(candidates[i] for i in windows[0][1])
        if len(support) + len(committed) > m:
            halted = "support_cap"
            break
        support = sorted(set(support) | set(committed))
        coeffs, residual = _refit(A, u, support)
        steps.append({"candidates": candidates, "committed": committed, "support": support})
        norm = np.linalg.norm(residual)
        gaps.append(abs(norm - zero) / zero)
        if norm <= zero:
            halted = "residual_small"
            break
        if len(support) >= 2 * s:
            halted = "sparsity_reached"
            break
    return Run(steps, halted, _embed(N, support, coeffs), gaps)


def cosamp(A, u, s, eta, max_iter):
    N = A.shape[1]
    unit = np.linalg.norm(u)
    support, coeffs, residual, steps, gaps = [], np.empty(0), u, [], []
    norm = unit
    if eta > 0.0:
        gaps.append(abs(norm - eta) / eta)
    if norm <= eta:
        return Run(steps, "residual_small", np.zeros(N), gaps)
    for _ in range(max_iter):
        picks = _top(A.T @ residual, 2 * s, gaps, unit)
        merged = sorted(set(picks) | set(support))
        if not merged:
            return Run(steps, "proxy_zero", _embed(N, support, coeffs), gaps)
        merged_coeffs, _ = _refit(A, u, merged)
        keep = _top(merged_coeffs, s, gaps, unit)
        previous, support, coeffs = support, [merged[i] for i in keep], merged_coeffs[keep]
        residual = u - A[:, support] @ coeffs
        previous_norm, norm = norm, np.linalg.norm(residual)
        steps.append({"proxy_picks": picks, "merged": merged, "support": support})
        if eta > 0.0:
            gaps.append(abs(norm - eta) / eta)
        if norm <= eta:
            return Run(steps, "residual_small", _embed(N, support, coeffs), gaps)
        if support == previous:
            decrease = previous_norm - norm
            gaps.append(abs(decrease - STALL_RELATIVE_DECREASE * previous_norm) / previous_norm)
            if decrease < STALL_RELATIVE_DECREASE * previous_norm:
                return Run(steps, "support_stall", _embed(N, support, coeffs), gaps)
    return Run(steps, "max_iterations", _embed(N, support, coeffs), gaps)
