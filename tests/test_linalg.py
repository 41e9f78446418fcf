import math
import pathlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsekit
from layouts import LAYOUTS
from sparsekit.errors import SolverFailure, UsageError
from sparsekit.linalg import (
    GramFactor,
    LsSolution,
    dot,
    embed,
    l2_norm,
    largest_indices,
    restricted_least_squares,
)
from refstream import index_below
from sparsekit.rng import SplitMix64
from sparsekit.sensing import make_operator
from sparsekit.signals import measure, tail_l1


class MatrixOperator:
    """Minimal duck-typed operator over an explicit matrix, for tests."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.m, self.N = self.matrix.shape
        self.matvec_count = 0

    def forward_support(self, indices, coeffs):
        self.matvec_count += 1
        return self.matrix[:, np.asarray(indices, dtype=np.int64)] @ coeffs

    def adjoint_support(self, indices, v):
        self.matvec_count += 1
        return self.matrix[:, np.asarray(indices, dtype=np.int64)].T @ v


def cholesky_least_squares(matrix, support, rhs):
    """Dense normal-equation oracle: (A'A) w = A'b via Cholesky."""
    a = matrix[:, support]
    gram = a.T @ a
    factor = scipy.linalg.cho_factor(gram)
    return scipy.linalg.cho_solve(factor, a.T @ rhs)


# --- largest_indices / embed --------------------------------------------------

def sort_oracle(values, k):
    """Independent top-k-by-magnitude with lowest-index ties."""
    ranked = sorted(range(len(values)), key=lambda i: (-abs(values[i]), i))
    return sorted(ranked[:k])


def test_largest_indices_against_sort_oracle():
    gen = SplitMix64(23)
    for trial in range(50):
        n = 1 + index_below(gen, 40)
        v = gen.normal(n)
        if trial % 3 == 0:  # force magnitude ties
            v = np.round(v)
        k = index_below(gen, n + 1)
        assert largest_indices(v, k).tolist() == sort_oracle(v.tolist(), k)


def test_largest_indices_tie_cases():
    assert largest_indices([2.0, -2.0, 2.0], 1).tolist() == [0]
    assert largest_indices([1.0, -3.0, 3.0], 1).tolist() == [1]
    assert largest_indices([5.0, 5.0, 5.0], 2).tolist() == [0, 1]
    assert largest_indices([1.0, 2.0], 10).tolist() == [0, 1]  # k clamped
    assert largest_indices([1.0, 2.0], 0).tolist() == []


def nan_last_oracle(values):
    """Every position ranked by ``(isnan, -|v|, index)``: NaN below every
    magnitude, ``inf`` included; a NaN's magnitude key is not used."""
    def key(i):
        nan = math.isnan(values[i])
        return (nan, 0.0 if nan else -abs(values[i]), i)
    return sorted(range(len(values)), key=key)


# Few distinct magnitudes of both signs force ties, signed zeros and
# infinities; arbitrary floats (NaN included) fill in the rest.
tie_prone = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.inf, -math.inf, math.nan])
entries = st.one_of(tie_prone, st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(entries, max_size=300))
def test_largest_indices_every_k_against_nan_last_oracle(values):
    ranked = nan_last_oracle(values)
    for k in range(len(values) + 3):
        got = largest_indices(np.array(values), k)
        assert got.dtype == np.int64
        assert got.tolist() == sorted(ranked[:k])


@pytest.mark.parametrize("values", [np.zeros((2, 3)), np.float64(1.5)], ids=["2-D", "0-d"])
def test_largest_indices_rejects_non_vector(values):
    with pytest.raises(UsageError, match="1-D"):
        largest_indices(values, 1)


def test_embed_scatter():
    out = embed([1.5, -2.0], [1, 3], 5)
    assert out.tolist() == [0.0, 1.5, 0.0, -2.0, 0.0]


@pytest.mark.parametrize(
    "coeffs, indices, message",
    [
        ([1.0], [0.5], "indices must be integers"),  # once wrote position 0
        ([1.0], [True], "indices must be integers"),
        ([1.0, 2.0], [[0, 1]], "indices must be 1-D"),
        ([1.0], [0, 1], "coeffs must have length 2"),
        (1.0, [0, 1], "coeffs must be 1-D"),
        ([1.0], [-1], "strictly increasing and non-negative"),  # once wrote position 3
        ([1.0, 2.0], [3, 3], "strictly increasing"),  # once kept only the 2.0
        ([1.0, 2.0], [3, 1], "strictly increasing"),
        ([1.0], [4], "out of range"),  # once raised numpy's IndexError
        ([1.0], [7], "out of range"),
    ],
)
def test_embed_refuses_malformed_input(coeffs, indices, message):
    with pytest.raises(UsageError, match=message):
        embed(coeffs, indices, 4)


# --- restricted_least_squares --------------------------------------------------

# Every input the solver refuses at its entry, with the message it gives;
# the operator is 3 x 5.
BAD_LS_INPUTS = {
    "underdetermined": ([0, 1, 2, 3], np.zeros(3), "support size 4 exceeds measurement count 3"),
    "out-of-range": ([5], np.zeros(3), "support index out of range"),
    "unsorted": ([2, 0], np.zeros(3), "strictly increasing and non-negative"),
    "duplicate": ([1, 1], np.zeros(3), "strictly increasing and non-negative"),
    "negative": ([-1, 2], np.zeros(3), "strictly increasing and non-negative"),
    "2-D-support": ([[0, 1]], np.zeros(3), "support indices must be 1-D"),
    # A float or bool index array was once cast to int64: [0.9, 1.2] solved on [0, 1].
    "float-support": ([0.9, 1.2], np.zeros(3), "support indices must be integers"),
    "whole-float-support": ([0.0, 1.0], np.zeros(3), "support indices must be integers"),
    "bool-support": ([False, True], np.zeros(3), "support indices must be integers"),
    "empty": (np.empty(0, dtype=np.int64), np.ones(3), "needs a non-empty support"),
    "rhs-length": ([0], np.zeros(4), "rhs must have length 3, got 4"),
    "rhs-nan": ([0], np.array([1.0, np.nan, 0.0]), "rhs contains NaN or Inf"),
    "rhs-inf": ([0], np.array([1.0, np.inf, 0.0]), "rhs contains NaN or Inf"),
}
# A start vector and its residual are refused like rhs; the support is [0, 1].
BAD_LS_STARTS = {
    "x0-length": (dict(x0=np.zeros(3)), "x0 must have length 2, got 3"),
    "x0-nan": (dict(x0=[0.0, np.nan]), "x0 contains NaN or Inf"),
    "x0-inf": (dict(x0=[np.inf, 0.0]), "x0 contains NaN or Inf"),
    "x0-minus-inf": (dict(x0=[0.0, -np.inf]), "x0 contains NaN or Inf"),
    "start-length": (dict(x0=np.zeros(2), start_residual=np.zeros(1)), "start_residual must have length 2"),
    "start-nan": (dict(x0=np.zeros(2), start_residual=[np.nan, 0.0]), "start_residual contains NaN"),
    "start-without-x0": (dict(start_residual=np.zeros(2)), "start_residual is the residual at x0"),
    "x0-without-start": (dict(x0=np.zeros(2)), "x0 and start_residual go together"),
}


@pytest.mark.parametrize(
    "support, rhs, message, start",
    [(*row, {}) for row in BAD_LS_INPUTS.values()]
    + [([0, 1], np.ones(3), message, start) for start, message in BAD_LS_STARTS.values()],
    ids=[*BAD_LS_INPUTS, *BAD_LS_STARTS],
)
def test_ls_rejects_bad_input_at_entry(support, rhs, message, start):
    op = MatrixOperator(np.eye(3, 5))
    for method in ("cg", "richardson"):
        with pytest.raises(UsageError, match=message):
            restricted_least_squares(op, support, rhs, method=method, **start)
    with pytest.raises(UsageError, match=message):
        restricted_least_squares(op, support, rhs, factor=GramFactor(op, np.zeros(3), capacity=3), **start)
    assert op.matvec_count == 0


def test_ls_identity_operator():
    op = MatrixOperator(np.eye(6))
    rhs = np.zeros(6)
    rhs[2] = 1.0
    rhs[5] = 3.0
    sol = restricted_least_squares(op, [2, 5], rhs)
    assert isinstance(sol, LsSolution)
    assert sol.converged
    np.testing.assert_allclose(sol.coeffs, [1.0, 3.0], atol=1e-12)


def test_ls_orthonormal_columns_is_adjoint():
    # QR of a random matrix gives orthonormal columns; the LS solution
    # through an orthonormal frame is just the adjoint applied to rhs.
    gen = SplitMix64(31)
    a = gen.normal(20 * 4).reshape(20, 4)
    q, _ = np.linalg.qr(a)
    op = MatrixOperator(q)
    rhs = gen.normal(20)
    sol = restricted_least_squares(op, np.arange(4), rhs)
    np.testing.assert_allclose(sol.coeffs, q.T @ rhs, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("method", ["cg", "richardson"])
def test_ls_matches_cholesky_oracle(method):
    gen = SplitMix64(47)
    for _ in range(25):
        m, k = 20, 4
        matrix = gen.normal(m * k).reshape(m, k) / np.sqrt(m)
        full = np.zeros((m, 8))
        full[:, [1, 3, 5, 6]] = matrix
        op = MatrixOperator(full)
        rhs = gen.normal(m)
        support = [1, 3, 5, 6]
        expected = cholesky_least_squares(full, support, rhs)
        sol = restricted_least_squares(op, support, rhs, method=method)
        assert sol.converged, sol.iterations
        err = np.linalg.norm(sol.coeffs - expected) / np.linalg.norm(expected)
        assert err < 1e-8


def test_ls_residual_orthogonality():
    gen = SplitMix64(53)
    matrix = gen.normal(30 * 5).reshape(30, 5)
    op = MatrixOperator(matrix)
    rhs = gen.normal(30)
    sol = restricted_least_squares(op, np.arange(5), rhs)
    residual = rhs - matrix @ sol.coeffs
    for j in range(5):
        column = matrix[:, j]
        bound = 1e-9 * np.linalg.norm(rhs) * np.linalg.norm(column)
        assert abs(float(np.dot(residual, column))) <= bound


@pytest.mark.parametrize("method", ["cg", "richardson"])
def test_ls_stops_at_max_iterations(method):
    gen = SplitMix64(61)
    matrix = gen.normal(12 * 3).reshape(12, 3)
    op = MatrixOperator(matrix)
    rhs = gen.normal(12)
    sol = restricted_least_squares(op, [0, 1, 2], rhs, tol=1e-300, max_iter=1, method=method)
    assert sol.converged is False
    assert sol.iterations == 1
    assert sol.applications == op.matvec_count
    # One application for the residual at zero and a pair for the step;
    # Richardson adds two 30-step power iterations for its step size.
    assert sol.applications == {"cg": 3, "richardson": 123}[method]


@pytest.mark.parametrize("method", ["cg", "richardson"])
def test_ls_converged_start_costs_no_application(method):
    op = make_operator("gaussian", 32, 64, 5)
    support = np.array([3, 17, 40])
    columns = op.dense_matrix()[:, support]
    x0 = SplitMix64(67).normal(3)
    rhs = columns @ x0
    start_residual = columns.T @ (rhs - columns @ x0)
    sol = restricted_least_squares(op, support, rhs, x0=x0, start_residual=start_residual, method=method)
    assert sol.converged is True
    assert (sol.iterations, sol.applications, op.matvec_count) == (0, 0, 0)
    assert sol.coeffs.tolist() == x0.tolist()


@pytest.mark.parametrize("method", ["cg", "richardson", "factor"])
def test_ls_converged_is_a_python_bool_for_a_numpy_tol(method):
    gen = SplitMix64(59)
    matrix = gen.normal(12 * 3).reshape(12, 3)
    op = MatrixOperator(matrix)
    rhs = gen.normal(12)
    tol = np.float64(1e-8)
    if method == "factor":
        sol = restricted_least_squares(op, [0, 1, 2], rhs, tol=tol, factor=GramFactor(op, rhs, capacity=3))
    else:
        sol = restricted_least_squares(op, [0, 1, 2], rhs, tol=tol, method=method)
    assert sol.converged is True


def test_power_iteration_stops_on_a_zero_image():
    # Richardson's step size probes the Gram map; a map with a zero image
    # has largest eigenvalue 0, and a second apply would divide by zero.
    probes = []

    def apply(probe):
        probes.append(probe.copy())
        return np.zeros_like(probe)

    assert sparsekit.linalg._power_iteration(apply, np.array([3.0, -4.0])) == 0.0
    assert [p.tolist() for p in probes] == [[0.6, -0.8]]


def test_ls_zero_rhs_short_circuits():
    # Zero is the exact solution, at no apply on any path.
    op = MatrixOperator(np.eye(4))
    rhs = np.zeros(4)
    solutions = [
        restricted_least_squares(op, [0, 2], rhs, method="cg"),
        restricted_least_squares(op, [0, 2], rhs, method="richardson"),
        restricted_least_squares(op, [0, 2], rhs, x0=np.ones(2), start_residual=np.ones(2)),
        restricted_least_squares(op, [0, 2], rhs, factor=GramFactor(op, rhs, capacity=2)),
    ]
    for sol in solutions:
        assert sol.converged and (sol.iterations, sol.applications) == (0, 0)
        assert sol.coeffs.tolist() == [0.0, 0.0]
    assert solutions[-1].residual.tolist() == [0.0] * 4
    assert op.matvec_count == 0


BAD_LS_SETTINGS = {
    "tol-nan": (dict(tol=math.nan), "tol must be finite, got nan"),
    "tol-inf": (dict(tol=math.inf), "tol must be finite, got inf"),
    "max_iter-nan": (dict(max_iter=math.nan), "max_iter must be an integer at least 1, got nan"),
    "max_iter-2.5": (dict(max_iter=2.5), "max_iter must be an integer at least 1, got 2.5"),
}


@pytest.mark.parametrize("bad, message", BAD_LS_SETTINGS.values(), ids=BAD_LS_SETTINGS.keys())
def test_ls_rejects_non_finite_or_non_integer_settings(bad, message):
    op = MatrixOperator(np.eye(3, 5))
    rhs = np.array([1.0, 2.0, 0.0])
    for method in ("cg", "richardson"):
        with pytest.raises(UsageError, match=message):
            restricted_least_squares(op, [0, 1], rhs, method=method, **bad)
    with pytest.raises(UsageError, match=message):
        restricted_least_squares(op, [0, 1], rhs, factor=GramFactor(op, rhs, capacity=3), **bad)
    assert op.matvec_count == 0


def test_ls_validation_errors():
    op = MatrixOperator(np.eye(4))
    with pytest.raises(UsageError):
        restricted_least_squares(op, [0], np.ones(4), tol=0.0)
    with pytest.raises(UsageError):
        restricted_least_squares(op, [0], np.ones(4), max_iter=0)
    with pytest.raises(UsageError):
        restricted_least_squares(op, [0], np.ones(4), method="lobpcg")
    with pytest.raises(UsageError):
        restricted_least_squares(op, [], np.ones(4))


class BrokenAdjointOperator(MatrixOperator):
    """Adjoint with the wrong sign: the effective Gram map is negative
    definite, which is exactly the inconsistency the divergence guards
    exist to catch."""

    def adjoint_support(self, indices, v):
        return -super().adjoint_support(indices, v)


# Each method's own cause: CG meets the negative curvature before its
# residual can grow, and Richardson's residual grows past the shared guard.
FAILURE_MESSAGES = {
    "cg": "normal-equation CG hit a non-positive curvature at iteration 1$",
    "richardson": "Richardson iteration diverged at iteration 1: residual",
}


@pytest.mark.parametrize("method, message", FAILURE_MESSAGES.items(), ids=FAILURE_MESSAGES.keys())
def test_ls_divergence_raises_solver_failure(method, message):
    gen = SplitMix64(67)
    op = BrokenAdjointOperator(gen.normal(12 * 3).reshape(12, 3))
    rhs = gen.normal(12)
    with pytest.raises(SolverFailure, match=message):
        restricted_least_squares(op, [0, 1, 2], rhs, method=method)


def test_ls_on_real_ensemble_operator():
    op = make_operator("gaussian", 32, 64, seed=9)
    gen = SplitMix64(71)
    rhs = gen.normal(32)
    support = [3, 17, 40, 59]
    sol = restricted_least_squares(op, support, rhs)
    expected = cholesky_least_squares(op.dense_matrix(), support, rhs)
    assert np.linalg.norm(sol.coeffs - expected) / np.linalg.norm(expected) < 1e-8


@pytest.mark.parametrize("ensemble", ["gaussian", "bernoulli", "partial_dct"])
def test_ls_warm_start_matches_dense_lstsq(ensemble):
    op = make_operator(ensemble, 64, 128, seed=83)
    gen = SplitMix64(89)
    rhs = gen.normal(64)
    support = np.unique([index_below(gen, 128) for _ in range(40)])[:12]
    columns = op.dense_matrix()[:, support]
    expected = np.linalg.lstsq(columns, rhs, rcond=None)[0]
    x0 = expected + 1e-4 * gen.normal(support.size)
    kept = x0.copy()
    start = columns.T @ (rhs - columns @ x0)
    # From a start given with its residual, a solve costs a forward/adjoint
    # pair per step; from zero, one more adjoint forms Phi_T^* rhs.
    before = op.matvec_count
    sol = restricted_least_squares(op, support, rhs, x0=x0, start_residual=start)
    assert sol.converged and sol.iterations >= 1
    assert sol.applications == op.matvec_count - before == 2 * sol.iterations
    assert np.linalg.norm(sol.coeffs - expected) <= 1e-8 * np.linalg.norm(expected)
    before = op.matvec_count
    cold = restricted_least_squares(op, support, rhs)
    assert cold.applications == op.matvec_count - before == 1 + 2 * cold.iterations
    assert sol.iterations < cold.iterations
    # Richardson iterates from the same start.
    sol = restricted_least_squares(op, support, rhs, x0=x0, start_residual=start, method="richardson")
    assert sol.converged
    assert np.linalg.norm(sol.coeffs - expected) <= 1e-8 * np.linalg.norm(expected)
    assert np.array_equal(x0, kept)  # the start is not updated in place


# --- GramFactor ---------------------------------------------------------------

def test_factor_solves_grow_to_the_cholesky_oracle():
    gen = SplitMix64(73)
    matrix = gen.normal(20 * 8).reshape(20, 8) / np.sqrt(20)
    op = MatrixOperator(matrix)
    rhs = gen.normal(20)
    factor = GramFactor(op, rhs, capacity=5)
    # Columns arrive out of order, one or two at a time; coefficients come
    # back in support order, at one apply per column.
    for support, applications in (([5], 1), ([2, 5, 7], 2), ([0, 2, 5, 6, 7], 2)):
        before = op.matvec_count
        sol = restricted_least_squares(op, support, rhs, factor=factor)
        assert op.matvec_count - before == sol.applications == applications
        assert (sol.iterations, sol.converged) == (0, True)
        expected = cholesky_least_squares(matrix, support, rhs)
        assert np.linalg.norm(sol.coeffs - expected) <= 1e-12 * np.linalg.norm(expected)
        assert sol.normal_residual <= 1e-12 * np.linalg.norm(matrix[:, support].T @ rhs)
    assert factor.columns.tolist() == [5, 2, 7, 0, 6]


def test_factor_rejects_another_system_or_a_shrinking_support():
    gen = SplitMix64(79)
    op = MatrixOperator(gen.normal(10 * 4).reshape(10, 4))
    rhs = gen.normal(10)
    factor = GramFactor(op, rhs, capacity=4)
    restricted_least_squares(op, [0, 1], rhs, factor=factor)
    for system in (
        (op, [0, 1, 2], rhs + 1.0),
        (MatrixOperator(op.matrix), [0, 1, 2], rhs),
        (op, [1, 2], rhs),
    ):
        with pytest.raises(UsageError):
            restricted_least_squares(*system, factor=factor)
    with pytest.raises(UsageError, match="takes no start vector"):
        restricted_least_squares(op, [0, 1, 2], rhs, factor=factor, x0=np.zeros(3), start_residual=np.zeros(3))
    assert factor.columns.tolist() == [0, 1]


def test_factor_is_sized_once_and_refuses_a_support_past_it():
    gen = SplitMix64(97)
    op = MatrixOperator(gen.normal(10 * 6).reshape(10, 6))
    rhs = gen.normal(10)
    for capacity in (0, 11, 2.0, True):
        with pytest.raises(UsageError, match="capacity"):
            GramFactor(op, rhs, capacity=capacity)
    factor = GramFactor(op, rhs, capacity=3)
    assert factor.block.shape == (0, 10)
    restricted_least_squares(op, [1, 4], rhs, factor=factor)
    before = op.matvec_count
    with pytest.raises(UsageError, match="at most 3 columns, the support has 4"):
        restricted_least_squares(op, [0, 1, 2, 4], rhs, factor=factor)
    with pytest.raises(UsageError, match="at most 1 columns, the support has 2"):
        restricted_least_squares(op, [0, 1], np.zeros(10), factor=GramFactor(op, np.zeros(10), capacity=1))
    assert op.matvec_count == before
    sol = restricted_least_squares(op, [1, 2, 4], rhs, factor=factor)
    expected = cholesky_least_squares(op.matrix, [1, 2, 4], rhs)
    assert np.linalg.norm(sol.coeffs - expected) <= 1e-12 * np.linalg.norm(expected)
    assert factor.columns.tolist() == [1, 4, 2]


@pytest.mark.parametrize("ensemble", ["gaussian", "bernoulli", "partial_dct"])
def test_factor_normal_residual_is_the_dense_one_against_rhs(ensemble):
    # The factor forms Phi_T^*(rhs - Phi_T c) from its block; it must match
    # the dense product, and ``converged`` must weigh it against tol * ||rhs||.
    op = make_operator(ensemble, 48, 96, seed=101)
    rhs = SplitMix64(103).normal(48)
    rhs_norm = float(np.linalg.norm(rhs))
    dense = op.dense_matrix()
    factor = GramFactor(op, rhs, capacity=12)
    residuals = []
    for support in ([7], [7, 40, 41], [2, 7, 13, 40, 41, 60, 61, 77, 90, 95]):
        sol = restricted_least_squares(op, support, rhs, factor=factor)
        columns = dense[:, support]
        normal = np.linalg.norm(columns.T @ (rhs - columns @ sol.coeffs))
        assert abs(sol.normal_residual - normal) <= 1e-13 * rhs_norm
        residuals.append(sol.normal_residual)
        if sol.normal_residual == 0.0:
            continue
        before = op.matvec_count
        for scale, converged in ((1.01, True), (0.99, False)):
            tol = scale * sol.normal_residual / rhs_norm
            again = restricted_least_squares(op, support, rhs, factor=factor, tol=tol)
            assert again.converged is converged
            assert again.normal_residual == sol.normal_residual
        assert op.matvec_count == before
    assert any(residuals)  # the tolerance was put to the test


def test_an_rhs_whose_norm_overflows_is_refused_before_any_apply():
    # ||rhs|| = inf would meet the threshold tol * ||rhs|| at once: the solve
    # would return zeros for the solution (1e200, 0) and report convergence.
    # numpy warns of the overflow in the dot product first.
    op = make_operator("gaussian", 16, 64, 1)
    rhs = 1e200 * op.forward(embed([1.0], [3], 64))
    before = op.matvec_count
    solves = [
        lambda: restricted_least_squares(op, [3, 7], rhs),
        lambda: restricted_least_squares(op, [3, 7], rhs, method="richardson"),
        lambda: GramFactor(op, rhs, capacity=2),
    ]
    for solve in solves:
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(UsageError, match="rhs has a norm past float64's range"):
                solve()
    assert op.matvec_count == before


# --- one owner for every reduction ---------------------------------------------

@pytest.mark.parametrize("length", [0, 1, 2, 7, 256, 4097])
@pytest.mark.parametrize("scale", [1e-150, 1e-75, 1.0, 1e75, 1e150])
def test_dot_and_l2_norm_have_the_bits_of_numpy(length, scale):
    gen = SplitMix64(length)
    a, b = scale * gen.normal(length), scale * gen.normal(length)
    assert l2_norm(a).hex() == float(np.linalg.norm(a)).hex()
    assert dot(a, b).hex() == float(np.dot(a, b)).hex()
    assert type(dot(a, b)) is float and type(l2_norm(a)) is float


def test_every_norm_and_inner_product_goes_through_linalg():
    for path in sorted(pathlib.Path(sparsekit.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "np.linalg.norm(" not in text and "np.dot(" not in text, path.name


def ls_bytes(sol):
    residual = None if sol.residual is None else sol.residual.tobytes()
    return (sol.coeffs.tobytes(), sol.iterations, sol.converged, sol.normal_residual.hex(), sol.applications, residual)


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
@pytest.mark.parametrize("ensemble", ["gaussian", "partial_dct"])
def test_layout_gives_the_bytes_of_a_contiguous_copy(ensemble, layout):
    # Every vector a public call takes is made C-contiguous where it
    # enters, so a strided view runs the BLAS kernel its contiguous copy runs.
    m, N = 64, 128
    gen = SplitMix64(29)
    support = np.array([3, 9, 17, 40, 41, 77, 90, 101, 115, 127])
    x, v, rhs, coeffs = gen.normal(N), gen.normal(m), gen.normal(m), gen.normal(support.size)
    x0, start = gen.normal(support.size), gen.normal(support.size)

    def run(wrap):
        op = make_operator(ensemble, m, N, seed=31)
        out = [op.forward(wrap(x)), op.adjoint(wrap(v))]
        out += [op.forward_support(support, wrap(coeffs)), op.adjoint_support(support, wrap(v))]
        out += [a.tobytes() for a in measure(op, wrap(x), "fixed", 0.1, seed=37)]
        out.append(tail_l1(wrap(x), 5).hex())
        for method in ("cg", "richardson"):
            out.append(ls_bytes(restricted_least_squares(op, support, wrap(rhs), method=method)))
            out.append(ls_bytes(restricted_least_squares(
                op, support, wrap(rhs), method=method, x0=wrap(x0), start_residual=wrap(start))))
        factor = GramFactor(op, wrap(rhs), capacity=support.size)
        out.append(ls_bytes(restricted_least_squares(op, support[:4], wrap(rhs), factor=factor)))
        out.append(ls_bytes(factor.solve(support, 1e-10)))
        out.append(op.matvec_count)
        return [a.tobytes() if isinstance(a, np.ndarray) else a for a in out]

    assert run(layout) == run(np.ascontiguousarray)
