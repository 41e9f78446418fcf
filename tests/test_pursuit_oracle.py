"""Whole pursuits against the dense reference pursuits of ``oracle_pursuit``.

Per round the picks and the support must be the oracle's, and then the
halt reason, the round count, the final support and the estimate.  An
instance on which the oracle made a near-tie decision, a nonzero gap below
``MARGIN`` (see ``oracle_pursuit``), is skipped and counted: the package
refits OMP and ROMP through a growing Cholesky factor and CoSaMP by CG to
``ls_tol``, so rounding or the CG tolerance may settle a near-tie the other
way.  Exact ties are not skipped; both sides give them to the lowest index.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracle_pursuit
from sparsekit import pursuit
from sparsekit.bench import TrialConfig, trial_seeds
from sparsekit.sensing import Ensemble, SenseOperator, make_operator
from sparsekit.signals import gen_sparse, measure

# 1000 times CoSaMP's CG tolerance here (ls_tol = 1e-10 at eta = 1e-8 ||u||).
MARGIN = 1e-7
ETA_REL = 1e-8
ALGORITHMS = ["omp", "romp", "cosamp"]


def library_steps(algorithm, result):
    """The library's rounds in the oracle's terms."""
    steps, support = [], set()
    for it in result.iterates:
        if algorithm == "omp":
            support.add(it["selected"])
            steps.append({"selected": it["selected"], "support": sorted(support)})
        elif algorithm == "romp":
            support.update(it["committed"])
            steps.append({"candidates": it["candidates"], "committed": it["committed"], "support": sorted(support)})
        else:
            steps.append({"proxy_picks": it["proxy_picks"], "merged": it["merged"], "support": it["support"]})
    return steps


def agrees_with_the_oracle(algorithm, op, u, s):
    """Assert that the library's run of ``algorithm`` is the oracle's; False
    if the oracle met a near-tie and nothing was compared."""
    A = op.dense_matrix()
    unit = np.linalg.norm(u)
    if algorithm == "cosamp":
        eta = ETA_REL * unit
        want = oracle_pursuit.cosamp(A, u, s, eta, pursuit.DEFAULT_COSAMP_MAX_ITER)
        got = pursuit.cosamp(op, u, s, eta=eta)
    else:
        want = getattr(oracle_pursuit, algorithm)(A, u, s)
        got = getattr(pursuit, algorithm)(op, u, s)
    if any(0.0 < gap < MARGIN for gap in want.gaps):
        return False
    assert library_steps(algorithm, got) == want.steps
    assert got.halted_by.value == want.halted
    assert got.iterations == len(want.steps)
    assert got.support.tolist() == (want.steps[-1]["support"] if want.steps else [])
    # The Cholesky refits agree with lstsq to rounding; CG stops within
    # ls_tol * ||u|| of the normal equations, near-isometric here.
    tol = 100 * max([it["ls_tol"] for it in got.iterates], default=0.0) if algorithm == "cosamp" else 1e-9
    assert np.linalg.norm(got.estimate - want.estimate) <= tol * unit
    return True


@st.composite
def instances(draw):
    ensemble = draw(st.sampled_from(["gaussian", "bernoulli", "partial_dct"]))
    N = draw(st.sampled_from([64, 128, 256]))
    m = draw(st.integers(N // 4, N // 2))
    # The oracle's window search is exhaustive over the s candidates.
    s = draw(st.integers(2, min(8, m // 6)))
    sigma = draw(st.sampled_from([0.0, 1e-3]))
    seeds = st.integers(0, 2**64 - 1)
    op = make_operator(ensemble, m, N, draw(seeds))
    u, _ = measure(op, gen_sparse(N, s, draw(seeds)), "sigma", sigma, draw(seeds))
    return op, u, s


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(instance=instances())
def test_pursuits_match_the_oracle_on_random_instances(algorithm, instance):
    op, u, s = instance
    if not agrees_with_the_oracle(algorithm, op, u, s):
        event("near-tie, skipped")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_pursuits_match_the_oracle_on_the_a1_batches(algorithm):
    # The A1 instances (Gaussian 128 x 256, s = 8, master seed 2026), as
    # bench.run_trial builds them.
    cfg = TrialConfig(algorithm=algorithm, ensemble="gaussian", m=128, N=256, s=8, trials=100, master_seed=2026)
    skipped = 0
    for i in range(cfg.trials):
        seeds = trial_seeds(cfg.master_seed, i)
        op = make_operator(cfg.ensemble, cfg.m, cfg.N, seeds["operator"])
        u, _ = measure(op, gen_sparse(cfg.N, cfg.s, seeds["signal"]), "none", 0.0, seeds["noise"])
        skipped += not agrees_with_the_oracle(algorithm, op, u, cfg.s)
    assert skipped <= 5, f"{skipped} of {cfg.trials} instances skipped as near-ties"


class MatrixOperator(SenseOperator):
    """An operator on an explicit matrix, so an instance can hold two equal columns."""

    def __init__(self, matrix):
        super().__init__(Ensemble.GAUSSIAN, *matrix.shape)
        self._matrix = matrix

    def _forward(self, x):
        return self._matrix @ x

    def _adjoint(self, v):
        return self._matrix.T @ v

    def _forward_support(self, indices, coeffs):
        return self._matrix[:, indices] @ coeffs

    def _adjoint_support(self, indices, v):
        return self._matrix[:, indices].T @ v

    def dense_matrix(self):
        return self._matrix.copy()


@pytest.mark.parametrize("seed", range(8))
def test_omp_gives_an_exact_tie_to_the_lowest_index_like_the_oracle(seed):
    # Column `twin`, off the support, repeats the column of the signal's
    # entry `largest`, made ten times the others, so OMP's first proxy ties
    # them exactly; the lower of the two must be picked.
    m, N, s = 48, 128, 6
    x = gen_sparse(N, s, seed).values
    support = np.flatnonzero(x).tolist()
    largest = support[seed % s]
    x[largest] *= 10.0 * np.abs(x).max() / abs(x[largest])
    twin = (seed * 37 + 11) % N
    while twin in support:
        twin = (twin + 1) % N
    matrix = make_operator("gaussian", m, N, seed).dense_matrix()
    matrix[:, twin] = matrix[:, largest]
    op = MatrixOperator(matrix)
    u = op.forward(x)
    proxy = np.abs(op.adjoint(u))
    assert proxy[largest] == proxy[twin] == proxy.max()
    assert agrees_with_the_oracle("omp", op, u, s)
    assert pursuit.omp(op, u, s).iterates[0]["selected"] == min(largest, twin)
