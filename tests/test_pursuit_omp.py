import numpy as np
import pytest
import scipy.linalg

from sparsekit import pursuit
from sparsekit.errors import SolverFailure, UsageError
from sparsekit.pursuit import HaltReason, omp, romp
from sparsekit.rng import SplitMix64, derive_seed
from sparsekit.sensing import make_operator
from sparsekit.signals import gen_sparse, measure

ENSEMBLES = ["gaussian", "bernoulli", "partial_dct"]


def test_identity_single_spike():
    op = make_operator("partial_dct", 8, 8, seed=1)
    x = np.zeros(8)
    x[3] = 5.0
    result = omp(op, op.forward(x), 1)
    assert result.support.tolist() == [3]
    np.testing.assert_allclose(result.estimate, x, atol=1e-12)
    assert result.iterations == 1
    assert result.halted_by is HaltReason.SPARSITY_REACHED


def test_identity_multi_spike_exact():
    # orthonormal columns: no cross-column interference, recovery exact
    op = make_operator("partial_dct", 32, 32, seed=2)
    sig = gen_sparse(32, 5, seed=3)
    u, _ = measure(op, sig)
    result = omp(op, u, 5)
    assert np.array_equal(result.support, sig.true_support)
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
            assert np.array_equal(result.support, sig.true_support)
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
    assert np.array_equal(a.support, b.support)


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


def noisy_instance(ensemble, m, N, s, trial):
    op = make_operator(ensemble, m, N, seed=derive_seed(3000, trial))
    sig = gen_sparse(N, s, seed=derive_seed(4000, trial))
    u, _ = measure(op, sig, "sigma", 0.01, derive_seed(5000, trial))
    return op, u


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_each_refit_matches_dense_cholesky(monkeypatch, ensemble):
    # Every round refits through pursuit.restricted_least_squares, looked up
    # at call time, and matches the dense normal-equation solve on Phi_T.
    solves = []
    solve = pursuit.restricted_least_squares

    def recording(op, support, rhs, **kwargs):
        solution = solve(op, support, rhs, **kwargs)
        solves.append((support, solution.coeffs))
        return solution

    monkeypatch.setattr(pursuit, "restricted_least_squares", recording)
    for trial in range(10):
        op, u = noisy_instance(ensemble, 64, 256, 10, trial)
        solves.clear()
        result = omp(op, u, 10)
        assert len(solves) == result.iterations == 10
        dense = op.dense_matrix()
        for support, coeffs in solves:
            a = dense[:, support]
            expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a.T @ a), a.T @ u)
            assert np.linalg.norm(coeffs - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_costs_two_applies_per_round(ensemble):
    # Per round: the proxy adjoint and the new column; the factor forms the
    # correlations and the residual from the columns it holds.
    for trial in range(5):
        op, u = noisy_instance(ensemble, 48, 128, 6, trial)
        result = omp(op, u, 8)
        assert result.halted_by is HaltReason.SPARSITY_REACHED
        n = result.iterations
        assert result.matvec_count == 2 * n
        assert sum(it["ls_applications"] for it in result.iterates) == n
        assert all(it["ls_iterations"] == 0 and it["ls_converged"] for it in result.iterates)


@pytest.mark.parametrize("algorithm", [omp, romp])
@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_factor_holds_each_column_and_the_residual(monkeypatch, ensemble, algorithm):
    # After every round the factor's block holds phi_j for each column j it
    # added, in add order, and its residual is u - Phi_T c by dense product.
    rounds = []
    solve = pursuit.restricted_least_squares

    def recording(op, support, rhs, **kwargs):
        solution = solve(op, support, rhs, **kwargs)
        factor = kwargs["factor"]
        rounds.append((support, solution, factor.columns.copy(), factor.block.copy()))
        return solution

    monkeypatch.setattr(pursuit, "restricted_least_squares", recording)
    for trial in range(3):
        op, u = noisy_instance(ensemble, 48, 128, 6, trial)
        rounds.clear()
        result = algorithm(op, u, 6)
        assert len(rounds) == result.iterations > 0
        dense = op.dense_matrix()
        for support, solution, columns, block in rounds:
            assert sorted(columns.tolist()) == support.tolist()
            if ensemble == "partial_dct":
                np.testing.assert_allclose(block, dense[:, columns].T, rtol=0, atol=1e-12)
            else:
                assert np.array_equal(block, dense[:, columns].T)
            expected = u - dense[:, support] @ solution.coeffs
            assert np.linalg.norm(solution.residual - expected) <= 1e-12 * np.linalg.norm(u)


class MatrixOperator:
    """Duck-typed operator over an explicit matrix."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.m, self.N = matrix.shape
        self.matvec_count = 0

    def adjoint(self, v):
        self.matvec_count += 1
        return self.matrix.T @ v

    def forward_support(self, indices, coeffs):
        self.matvec_count += 1
        return self.matrix[:, indices] @ coeffs

    def adjoint_support(self, indices, v):
        self.matvec_count += 1
        return self.matrix[:, indices].T @ v


def test_dependent_column_raises_solver_failure():
    # Columns a and a * (1 + 2**-40) span one direction to working precision;
    # the third round must report that rather than split a's weight.  The
    # small third term keeps the residual after two rounds off zero: an
    # instance whose fit leaves no residual at all halts by proxy_zero
    # before a third round, as it should.
    for seed in range(20):
        gen = SplitMix64(seed)
        a, b = gen.normal(8), gen.normal(8)
        op = MatrixOperator(np.column_stack([a, a * (1.0 + 2.0**-40), b]))
        with pytest.raises(SolverFailure, match=r"^omp iteration 3: column [01] is numerically dependent"):
            omp(op, a + b + 1e-6 * gen.normal(8), 3)
