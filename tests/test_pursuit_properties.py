"""Structural invariants of the three pursuits on small random instances.

The A7 acceptance checks assert these on fixed seeds; here Hypothesis
draws the ensemble, the dimensions, the signal and the noise.
"""

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from sparsekit.errors import SolverFailure
from sparsekit.pursuit import cosamp, omp, romp
from sparsekit.sensing import make_operator
from sparsekit.signals import gen_sparse, measure

seeds = st.integers(0, 2**64 - 1)


@st.composite
def instances(draw, algorithms=("omp", "romp", "cosamp")):
    algorithm = draw(st.sampled_from(algorithms))
    ensemble = draw(st.sampled_from(["gaussian", "bernoulli", "partial_dct"]))
    N = draw(st.integers(3, 40))
    m = draw(st.integers(3 if algorithm == "cosamp" else 1, N))
    s = draw(st.integers(1, m // 3 if algorithm == "cosamp" else m))
    signal_s = draw(st.integers(0, min(N, 2 * s)))
    sigma = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    op = make_operator(ensemble, m, N, draw(seeds))
    signal = gen_sparse(N, signal_s, draw(seeds))
    u, _ = measure(op, signal, "sigma", sigma, draw(seeds))
    return algorithm, op, u, s


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(instances())
def test_pursuit_structural_invariants(instance):
    algorithm, op, u, s = instance
    try:
        result = {"omp": omp, "romp": romp, "cosamp": cosamp}[algorithm](op, u, s)
    except SolverFailure:
        reject()

    assert result.iterations == len(result.iterates) == len(result.residual_norms) - 1
    support = result.support
    assert isinstance(support, np.ndarray) and support.dtype == np.int64
    assert np.all(np.diff(support) > 0)
    assert not np.any(np.delete(result.estimate, support))
    if algorithm == "omp":
        picks = [it["selected"] for it in result.iterates]
        assert len(picks) == len(set(picks))
    elif algorithm == "romp":
        assert len(result.support) <= 3 * s
        for it in result.iterates:
            mags = np.abs(it["committed_values"])
            assert mags.max() <= 2.0 * mags.min()
    else:
        for it in result.iterates:
            assert len(it["proxy_picks"]) <= 2 * s
            assert it["merged_size"] <= 3 * s
            assert len(it["support"]) <= s


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(instances(algorithms=("omp",)))
def test_omp_residual_never_increases_and_is_orthogonal(instance):
    _, op, u, s = instance
    try:
        result = omp(op, u, s)
    except SolverFailure:
        reject()

    norms = result.residual_norms
    assert all(b <= a + 1e-12 * norms[0] for a, b in zip(norms, norms[1:]))
    support = result.support
    if support.size:
        residual = u - op.forward_support(support, result.estimate[support])
        assert np.linalg.norm(op.adjoint_support(support, residual)) <= 1e-9 * np.linalg.norm(op.adjoint(u))
