import numpy as np
import pytest

from sparsekit.errors import UsageError
from sparsekit.pursuit import HaltReason, omp
from sparsekit.rng import SplitMix64, derive_seed
from sparsekit.sensing import make_operator
from sparsekit.signals import gen_sparse, measure


def test_identity_single_spike():
    op = make_operator("partial_dct", 8, 8, seed=1)
    x = np.zeros(8)
    x[3] = 5.0
    result = omp(op, op.forward(x), 1)
    assert list(result.support) == [3]
    np.testing.assert_allclose(result.estimate, x, atol=1e-12)
    assert result.iterations == 1
    assert result.halted_by is HaltReason.SPARSITY_REACHED


def test_identity_multi_spike_exact():
    # orthonormal columns: no cross-column interference, recovery exact
    op = make_operator("partial_dct", 32, 32, seed=2)
    sig = gen_sparse(32, 5, seed=3)
    u, _ = measure(op, sig)
    result = omp(op, u, 5)
    assert result.support == sig.true_support
    assert np.linalg.norm(result.estimate - sig.values) <= 1e-10


def test_gaussian_exact_recovery_batch():
    successes = 0
    for trial in range(20):
        op = make_operator("gaussian", 128, 256, seed=derive_seed(1000, trial))
        sig = gen_sparse(256, 8, seed=derive_seed(2000, trial))
        u, _ = measure(op, sig)
        result = omp(op, u, 8)
        err = np.linalg.norm(result.estimate - sig.values) / np.linalg.norm(sig.values)
        if err <= 1e-6:
            successes += 1
            assert result.support == sig.true_support
    assert successes >= 18


def test_residuals_never_increase():
    op = make_operator("gaussian", 64, 128, seed=4)
    sig = gen_sparse(128, 10, seed=5)
    u, _ = measure(op, sig)
    result = omp(op, u, 10)
    norms = result.residual_norms
    assert len(norms) == result.iterations + 1
    slack = 1e-12 * norms[0]
    assert all(b <= a + slack for a, b in zip(norms, norms[1:]))


def test_no_repeated_selection_and_one_per_iteration():
    op = make_operator("bernoulli", 48, 96, seed=6)
    sig = gen_sparse(96, 12, seed=7)
    u, _ = measure(op, sig)
    result = omp(op, u, 12)
    chosen = [it["selected"] for it in result.iterates]
    assert len(chosen) == len(set(chosen))
    sizes = [it["support_size"] for it in result.iterates]
    assert sizes == list(range(1, len(chosen) + 1))


def test_zero_measurement_halts_proxy_zero():
    op = make_operator("gaussian", 16, 32, seed=8)
    result = omp(op, np.zeros(16), 4)
    assert result.halted_by is HaltReason.PROXY_ZERO
    assert result.iterations == 0
    assert np.all(result.estimate == 0.0)
    assert len(result.support) == 0


def test_runs_exactly_s_iterations_under_noise():
    op = make_operator("gaussian", 40, 80, seed=9)
    gen = SplitMix64(10)
    u = gen.normal(40)  # pure noise: nothing sparse to find
    result = omp(op, u, 6)
    assert result.iterations == 6
    assert result.halted_by is HaltReason.SPARSITY_REACHED
    assert len(result.support) == 6


def test_validation_errors():
    op = make_operator("gaussian", 16, 32, seed=11)
    with pytest.raises(UsageError):
        omp(op, np.zeros(16), 0)
    with pytest.raises(UsageError):
        omp(op, np.zeros(16), 17)  # s > m
    with pytest.raises(UsageError):
        omp(op, np.zeros(15), 4)  # wrong measurement length
    with pytest.raises(UsageError):
        omp(op, np.full(16, np.inf), 4)


def test_deterministic_results():
    op = make_operator("gaussian", 32, 64, seed=12)
    sig = gen_sparse(64, 4, seed=13)
    u, _ = measure(op, sig)
    a = omp(op, u, 4)
    b = omp(op, u, 4)
    assert np.array_equal(a.estimate, b.estimate)
    assert a.residual_norms == b.residual_norms
    assert a.support == b.support


def test_matvec_count_is_per_call():
    op = make_operator("gaussian", 32, 64, seed=14)
    sig = gen_sparse(64, 4, seed=15)
    u, _ = measure(op, sig)
    first = omp(op, u, 4)
    second = omp(op, u, 4)
    assert first.matvec_count == second.matvec_count > 0


def test_estimate_sparsity_bound():
    op = make_operator("gaussian", 64, 200, seed=16)
    sig = gen_sparse(200, 9, seed=17)
    u, _ = measure(op, sig)
    result = omp(op, u, 9)
    assert int(np.count_nonzero(result.estimate)) <= 9
    assert len(result.support) <= 9


def test_iterates_record_least_squares_convergence():
    # A 4-column Gaussian refit needs more than one CG step, so a cap of one
    # step leaves the later solves unconverged; the trace must say so.
    op = make_operator("gaussian", 32, 64, seed=8)
    sig = gen_sparse(64, 4, seed=9)
    u, _ = measure(op, sig)
    capped = omp(op, u, 4, ls_max_iter=1)
    assert capped.iterates[-1]["ls_converged"] is False
    assert all(it["ls_iterations"] <= 1 for it in capped.iterates)
    full = omp(op, u, 4)
    assert all(it["ls_converged"] is True for it in full.iterates)
    assert any(it["ls_iterations"] > 1 for it in full.iterates)
    for it in capped.iterates + full.iterates:
        # one adjoint for the right-hand side, then a forward/adjoint pair per step
        assert it["ls_applications"] == 1 + 2 * it["ls_iterations"]
