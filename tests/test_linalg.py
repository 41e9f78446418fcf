import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit.errors import SolverFailure, UsageError
from sparsekit.linalg import (
    GramFactor,
    LsSolution,
    embed,
    largest_indices,
    restricted_least_squares,
)
from refstream import index_below
from sparsekit.rng import SplitMix64
from sparsekit.sensing import make_operator


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
    "empty": (np.empty(0, dtype=np.int64), np.ones(3), "needs a non-empty support"),
    "rhs-length": ([0], np.zeros(4), "rhs must have length 3, got 4"),
    "rhs-nan": ([0], np.array([1.0, np.nan, 0.0]), "rhs contains NaN or Inf"),
    "rhs-inf": ([0], np.array([1.0, np.inf, 0.0]), "rhs contains NaN or Inf"),
}


@pytest.mark.parametrize("support, rhs, message", BAD_LS_INPUTS.values(), ids=BAD_LS_INPUTS.keys())
def test_ls_rejects_bad_input_at_entry(support, rhs, message):
    op = MatrixOperator(np.eye(3, 5))
    for method in ("cg", "richardson"):
        with pytest.raises(UsageError, match=message):
            restricted_least_squares(op, support, rhs, method=method)
    with pytest.raises(UsageError, match=message):
        restricted_least_squares(op, support, rhs, factor=GramFactor(op, np.zeros(3)))
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


def test_ls_stops_at_max_iterations():
    gen = SplitMix64(61)
    matrix = gen.normal(12 * 3).reshape(12, 3)
    op = MatrixOperator(matrix)
    rhs = gen.normal(12)
    sol = restricted_least_squares(op, [0, 1, 2], rhs, tol=1e-300, max_iter=1)
    assert not sol.converged
    assert sol.iterations == 1


def test_ls_zero_rhs_short_circuits():
    op = MatrixOperator(np.eye(4))
    sol = restricted_least_squares(op, [0, 2], np.zeros(4))
    assert sol.converged
    assert np.all(sol.coeffs == 0.0)


BAD_LS_SETTINGS = {
    "tol-nan": (dict(tol=math.nan), "tol must be positive and finite, got nan"),
    "tol-inf": (dict(tol=math.inf), "tol must be positive and finite, got inf"),
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
        restricted_least_squares(op, [0, 1], rhs, factor=GramFactor(op, rhs), **bad)
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


@pytest.mark.parametrize("method", ["cg", "richardson"])
def test_ls_divergence_raises_solver_failure(method):
    gen = SplitMix64(67)
    op = BrokenAdjointOperator(gen.normal(12 * 3).reshape(12, 3))
    rhs = gen.normal(12)
    with pytest.raises(SolverFailure, match="iteration"):
        restricted_least_squares(op, [0, 1, 2], rhs, method=method)


def test_ls_on_real_ensemble_operator():
    op = make_operator("gaussian", 32, 64, seed=9)
    gen = SplitMix64(71)
    rhs = gen.normal(32)
    support = [3, 17, 40, 59]
    sol = restricted_least_squares(op, support, rhs)
    expected = cholesky_least_squares(op.dense_matrix(), support, rhs)
    assert np.linalg.norm(sol.coeffs - expected) / np.linalg.norm(expected) < 1e-8


# --- GramFactor ---------------------------------------------------------------

def test_factor_solves_grow_to_the_cholesky_oracle():
    gen = SplitMix64(73)
    matrix = gen.normal(20 * 8).reshape(20, 8) / np.sqrt(20)
    op = MatrixOperator(matrix)
    rhs = gen.normal(20)
    factor = GramFactor(op, rhs)
    # Columns arrive out of order, one or two at a time; coefficients come
    # back in support order, at two applies per column (one for the first).
    for support, applications in (([5], 1), ([2, 5, 7], 4), ([0, 2, 5, 6, 7], 4)):
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
    factor = GramFactor(op, rhs)
    restricted_least_squares(op, [0, 1], rhs, factor=factor)
    for system in (
        (op, [0, 1, 2], rhs + 1.0),
        (MatrixOperator(op.matrix), [0, 1, 2], rhs),
        (op, [1, 2], rhs),
    ):
        with pytest.raises(UsageError):
            restricted_least_squares(*system, factor=factor)
    assert factor.columns.tolist() == [0, 1]
