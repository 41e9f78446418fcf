"""Structural invariants of the three pursuits on small random instances.

The A7 acceptance checks assert these on fixed seeds; here Hypothesis
draws the ensemble, the dimensions, the signal and the noise.
"""

import json

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from layouts import LAYOUTS
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


def test_iterates_are_json_for_numpy_settings():
    # A numpy sparsity, and CoSaMP's numpy eta, must leave plain Python values
    # in the trace: JSON refuses a numpy.bool such as ``ls_converged`` was.
    op = make_operator("partial_dct", 32, 64, seed=5)
    u, _ = measure(op, gen_sparse(64, 4, seed=6))
    s = np.int64(4)
    for result in (omp(op, u, s), romp(op, u, s), cosamp(op, u, np.int64(2), eta=np.float64(1e-3))):
        assert result.iterates
        json.dumps(result.iterates)


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


def recovery_bytes(result):
    return (
        result.estimate.tobytes(),
        result.support.tobytes(),
        [norm.hex() for norm in result.residual_norms],
        result.matvec_count,
        result.halted_by,
        json.dumps(result.iterates),
    )


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
@pytest.mark.parametrize("algorithm", ["omp", "romp", "cosamp"])
def test_layout_gives_the_bytes_of_a_contiguous_copy(algorithm, layout):
    # Left strided, a measurement held as a column of a 2-D array or another
    # view runs other BLAS kernels than its contiguous copy, and OMP and ROMP
    # return other last bits; the pursuits make it C-contiguous on entry.
    pursuit = {"omp": omp, "romp": romp, "cosamp": cosamp}[algorithm]
    for seed in range(10):
        ensemble = ("gaussian", "partial_dct")[seed % 2]
        u, _ = measure(make_operator(ensemble, 64, 256, seed), gen_sparse(256, 8, 100 + seed), "sigma", 0.01, 200 + seed)
        s = 6 if seed < 5 else 12
        contiguous, strided = (pursuit(make_operator(ensemble, 64, 256, seed), v, s) for v in (u, layout(u)))
        assert recovery_bytes(strided) == recovery_bytes(contiguous), seed
