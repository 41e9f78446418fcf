import math
import tracemalloc

import numpy as np
import pytest

from refstream import word
from sparsekit import pursuit
from sparsekit.bench import TrialConfig, run_trial, run_trials
from sparsekit.errors import UsageError
from sparsekit.linalg import DEFAULT_LS_TOL, l2_norm
from sparsekit.pursuit import HaltReason, cosamp
from sparsekit.rng import SplitMix64
from sparsekit.sensing import make_operator
from sparsekit.signals import gen_sparse, measure


def test_orthonormal_spikes_single_iteration():
    op = make_operator("partial_dct", 32, 32, seed=1)
    x = np.zeros(32)
    x[4] = 2.0
    x[19] = -1.5
    u = op.forward(x)
    result = cosamp(op, u, 2, eta=1e-10 * np.linalg.norm(u))
    assert result.halted_by is HaltReason.RESIDUAL_SMALL
    assert result.iterations == 1
    assert set(result.support) == {4, 19}
    np.testing.assert_allclose(result.estimate, x, atol=1e-10)


def test_gaussian_exact_recovery_batch():
    successes = 0
    for trial in range(20):
        op = make_operator("gaussian", 128, 256, seed=word(SplitMix64(trial)))
        sig = gen_sparse(256, 8, seed=word(SplitMix64(trial + 900)))
        u, _ = measure(op, sig)
        result = cosamp(op, u, 8, eta=1e-8 * np.linalg.norm(u))
        err = np.linalg.norm(result.estimate - sig.values) / np.linalg.norm(sig.values)
        if err <= 1e-6:
            successes += 1
    assert successes >= 18


def test_iterate_set_sizes():
    op = make_operator("gaussian", 96, 192, seed=2)
    sig = gen_sparse(192, 10, seed=3)
    u, _ = measure(op, sig)
    s = 10
    result = cosamp(op, u, s, eta=1e-8 * np.linalg.norm(u))
    assert int(np.count_nonzero(result.estimate)) <= s
    assert len(result.support) <= s
    for it in result.iterates:
        assert len(it["proxy_picks"]) <= 2 * s
        assert it["merged_size"] <= 3 * s
        assert len(it["support"]) <= s
        assert set(it["support"]) <= set(it["merged"])


def test_prune_keeps_largest_merged_coefficients():
    op = make_operator("gaussian", 64, 128, seed=4)
    sig = gen_sparse(128, 6, seed=5)
    u, _ = measure(op, sig)
    result = cosamp(op, u, 6, eta=0.0, max_iter=3)
    for it in result.iterates:
        merged = list(it["merged"])
        coeffs = [abs(c) for c in it["merged_coeffs"]]
        kept = set(it["support"])
        # every kept coefficient at least as large as every discarded one,
        # with ties broken toward the lower index
        ranked = sorted(
            range(len(merged)), key=lambda i: (-coeffs[i], merged[i])
        )
        expected = {merged[i] for i in ranked[: len(kept)] if coeffs[i] > 0.0}
        assert kept == expected


def test_zero_measurement_halts_without_iterating():
    op = make_operator("gaussian", 24, 48, seed=6)
    result = cosamp(op, np.zeros(24), 4, eta=0.0)
    assert result.halted_by is HaltReason.RESIDUAL_SMALL
    assert result.iterations == 0
    assert np.array_equal(result.estimate, np.zeros(48))


def test_proxy_orthogonal_to_every_column_halts_on_proxy_zero():
    # Rows 0 and 1 of this operator are equal, so u = e0 - e1 is nonzero but
    # orthogonal to every column: the first proxy is exactly zero.
    op = make_operator("bernoulli", 3, 3, 0)
    dense = op.dense_matrix()
    assert np.array_equal(dense[0], dense[1])
    result = cosamp(op, np.array([1.0, -1.0, 0.0]), 1)
    assert result.halted_by is HaltReason.PROXY_ZERO
    assert result.iterations == 0
    assert result.matvec_count == 1 == op.matvec_count
    assert result.support.dtype == np.int64 and result.support.size == 0
    assert np.array_equal(result.estimate, np.zeros(3))
    assert result.residual_norms == [math.sqrt(2.0)]


def test_a_refit_that_keeps_no_column_leaves_the_residual_at_u():
    # With the entries scaled by 1e-6, the first refit's start residual (the
    # proxy's slice) is already within its tolerance of 0.01 * eta: CG takes
    # no step, the coefficients stay at the zero start, and the prune keeps
    # none of them.  The residual stays u at no apply, and the empty support
    # repeats the start's.
    op = make_operator("gaussian", 24, 48, seed=5)
    op._matrix *= 1e-6
    u = SplitMix64(3).normal(24)
    norm = l2_norm(u)
    result = cosamp(op, u, 2, eta=0.5 * norm)
    assert result.halted_by is HaltReason.SUPPORT_STALL
    assert result.iterates[0]["ls_iterations"] == 0
    assert result.support.size == 0
    assert not result.estimate.any()
    assert result.residual_norms == [norm, norm]
    assert result.matvec_count == 1 == op.matvec_count


def test_unreconstructable_input_stalls():
    # pure noise with eta = 0 can never hit the residual target; the
    # support fixed-point detector has to end the run instead
    op = make_operator("gaussian", 32, 64, seed=7)
    gen = SplitMix64(8)
    u = gen.normal(32)
    result = cosamp(op, u, 4, eta=0.0)
    assert result.halted_by in (
        HaltReason.SUPPORT_STALL,
        HaltReason.MAX_ITERATIONS,
    )
    assert result.iterations <= 100


def test_residual_norm_log_shape():
    op = make_operator("gaussian", 64, 128, seed=9)
    sig = gen_sparse(128, 5, seed=10)
    u, _ = measure(op, sig)
    result = cosamp(op, u, 5, eta=1e-8 * np.linalg.norm(u))
    assert len(result.residual_norms) == result.iterations + 1
    assert result.residual_norms[0] == pytest.approx(np.linalg.norm(u))
    assert result.residual_norms[-1] <= 1e-8 * np.linalg.norm(u)


def test_validation_errors():
    op = make_operator("gaussian", 24, 48, seed=11)
    u = np.zeros(24)
    with pytest.raises(UsageError):
        cosamp(op, u, 0)
    with pytest.raises(UsageError):
        cosamp(op, u, 9)  # 3*9 = 27 > 24 measurements
    with pytest.raises(UsageError):
        cosamp(op, u, 4, eta=-1.0)
    for eta in (np.nan, np.inf):
        with pytest.raises(UsageError, match="finite"):
            cosamp(op, u, 4, eta=eta)
    with pytest.raises(UsageError):
        cosamp(op, u, 4, max_iter=0)
    with pytest.raises(UsageError):
        cosamp(op, np.zeros(23), 4)
    with pytest.raises(UsageError):
        cosamp(op, np.full(24, np.inf), 4)


def test_deterministic_results():
    op = make_operator("bernoulli", 80, 160, seed=12)
    sig = gen_sparse(160, 9, seed=13)
    u, _ = measure(op, sig)
    a = cosamp(op, u, 9, eta=1e-8 * np.linalg.norm(u))
    b = cosamp(op, u, 9, eta=1e-8 * np.linalg.norm(u))
    assert np.array_equal(a.estimate, b.estimate)
    assert a.residual_norms == b.residual_norms
    assert a.halted_by is b.halted_by


def test_iterates_record_least_squares_convergence(monkeypatch):
    # CoSaMP refits by CG: the first, cold refit on a merged Gaussian support
    # needs more than one CG step, so a cap of one step leaves it unconverged;
    # the trace must say so.  Later refits start from the current estimate,
    # and one step may then meet their tolerance.
    op = make_operator("gaussian", 32, 64, seed=8)
    sig = gen_sparse(64, 4, seed=9)
    u, _ = measure(op, sig)
    solve = pursuit.restricted_least_squares
    with monkeypatch.context() as patch:
        patch.setattr(pursuit, "restricted_least_squares", lambda *a, **kw: solve(*a, **kw, max_iter=1))
        capped = cosamp(op, u, 4)
    assert capped.iterates[0]["ls_converged"] is False
    assert all(it["ls_iterations"] <= 1 for it in capped.iterates)
    full = cosamp(op, u, 4)
    assert all(it["ls_converged"] is True for it in full.iterates)
    assert any(it["ls_iterations"] > 1 for it in full.iterates)
    for it in capped.iterates + full.iterates:
        # a forward/adjoint pair per step: the start's residual is the proxy's
        # slice and the tolerance scales with ||u||, so neither costs an apply
        assert it["ls_applications"] == 2 * it["ls_iterations"]


ENSEMBLES = ("gaussian", "bernoulli", "partial_dct")


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_warm_start_residual_is_the_proxy_slice(monkeypatch, ensemble):
    # Each refit starts from the current estimate on the merged support T;
    # the proxy slice it is handed must be that start's normal-equation
    # residual Phi_T^*(u - Phi_T x0), formed here from the dense matrix.
    op = make_operator(ensemble, 64, 128, seed=21)
    sig = gen_sparse(128, 6, seed=22)
    u, _ = measure(op, sig, "fixed", 0.05, seed=23)
    dense = op.dense_matrix()
    calls = []
    solve = pursuit.restricted_least_squares

    def recorded(op_, support, rhs, **kw):
        calls.append((support, kw["x0"], kw["start_residual"]))
        return solve(op_, support, rhs, **kw)

    monkeypatch.setattr(pursuit, "restricted_least_squares", recorded)
    result = cosamp(op, u, 6, eta=0.0)
    assert len(calls) == result.iterations >= 2
    assert not np.any(calls[0][1])  # the first refit starts from zero
    for support, x0, start in calls:
        columns = dense[:, support]
        expected = columns.T @ (u - columns @ x0)
        assert np.linalg.norm(start - expected) <= 1e-12 * np.linalg.norm(columns.T @ u)


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_least_squares_tolerance_follows_eta(monkeypatch, ensemble):
    # A noisy trial halted at eta_rel = 0.01 solves each refit to
    # 0.01 * eta / ||u||, not to DEFAULT_LS_TOL, so it spends fewer applies
    # than the same trial at eta = 0, and finds the same support.
    tols = []
    solve = pursuit.restricted_least_squares
    monkeypatch.setattr(pursuit, "restricted_least_squares", lambda *a, **kw: tols.append(kw["tol"]) or solve(*a, **kw))
    noisy = dict(noise_mode="fixed_rel", noise_level=0.01)
    runs = []
    for eta_rel in (0.01, None):
        tols.clear()
        cfg = TrialConfig("cosamp", ensemble, 128, 256, 8, 4, 31, eta_rel=eta_rel, **noisy)
        records = [run_trial(cfg, i) for i in range(cfg.trials)]
        for r in records:
            u_norm = r.result.residual_norms[0]
            eta = 0.0 if eta_rel is None else eta_rel * u_norm
            rule = max(DEFAULT_LS_TOL, pursuit.COSAMP_LS_ETA_SHARE * eta / u_norm)
            assert all(it["ls_tol"] == rule for it in r.result.iterates)
        # each iterate records the tolerance its solve was given
        assert [it["ls_tol"] for r in records for it in r.result.iterates] == tols
        runs.append(records)
    for loose, tight in zip(*runs):
        assert loose.matvecs < tight.matvecs
        assert loose.support_exact == tight.support_exact


# Mean matvecs per trial at N = 1,024 ... 65,536 in this setup ranged over
# 95.2-104.2 at seed 11 (largest over smallest N: at most 1.095 at seeds 7,
# 11 and 1009); the bound leaves room for that spread only.
FLAT_MATVEC_RATIO = 1.15


def test_matvecs_per_trial_stay_flat_as_n_grows():
    # The paper's O(N log N) running time: with m = 64 log2(N / 16), the
    # number of operator applies must not grow with N, so each trial costs
    # a fixed number of O(N log N) partial-DCT applies.  Most trials take
    # 66 or 98 applies (three or four rounds), so over 12 trials the ratio
    # read 1.08 to 1.21 across master seeds 11-18; over 48, 1.07 to 1.12.
    means = []
    for N in (1024, 4096, 16384):
        m = 64 * int(math.log2(N / 16))
        cfg = TrialConfig("cosamp", "partial_dct", m, N, 16, 48, 11, eta_rel=1e-8)
        records = run_trials(cfg)
        assert all(r.success for r in records)
        means.append(sum(r.matvecs for r in records) / len(records))
    for mean in means[1:]:
        assert means[0] / FLAT_MATVEC_RATIO <= mean <= FLAT_MATVEC_RATIO * means[0], means


# Peak traced bytes per N of a partial-DCT trial (m = N/4, s = N/128) at
# N = 1,024, 4,096 and 16,384, largest over smallest: CoSaMP's whole peak
# read 48.5-53.5 bytes per N (ratio 1.10), and OMP's and ROMP's peaks past
# their factors 39.9-43.1 and 45.7-52.8 (1.08 and 1.16).  The factor pursuits'
# whole peaks grew 59.6 -> 303.9 and 100.2 -> 885.2 bytes per N.
FLAT_STORAGE_RATIO = 1.25


def _peak_bytes(cfg, index):
    tracemalloc.start()
    try:
        record = run_trial(cfg, index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.success
    return peak


@pytest.mark.parametrize("algorithm", ["cosamp", "omp", "romp"])
def test_storage_past_the_gram_factor_stays_linear_in_n(algorithm):
    # The review credits CoSaMP with "rigorous bounds on computational cost
    # and storage": a CoSaMP trial holds O(N) entries, none of m x s.  OMP
    # and ROMP hold a Gram factor of k = capacity columns, k * m + k**2
    # entries (pursuit.sparsity_problem's count), and O(N) besides.
    per_n = []
    for N in (1024, 4096, 16384):
        m, s = N // 4, N // 128
        cfg = TrialConfig(algorithm, "partial_dct", m, N, s, 2, 7).validate()
        k = 0 if algorithm == "cosamp" else pursuit._factor_capacity(algorithm, m, s)
        run_trial(cfg, 0)  # untraced: the first transform of length N caches its plan
        peak = max(_peak_bytes(cfg, i) for i in range(cfg.trials))
        per_n.append((peak - 8 * (k * m + k * k)) / N)
    assert max(per_n) <= FLAT_STORAGE_RATIO * min(per_n), per_n


def test_numpy_float32_eta_runs_as_its_float_twin():
    # A float32 eta must not keep the refit tolerance in float32: it halts
    # and refits exactly as the Python float of the same value.
    op = make_operator("partial_dct", 128, 512, seed=41)
    sig = gen_sparse(512, 8, seed=42)
    u, _ = measure(op, sig, "fixed", 0.05, seed=43)
    narrow = cosamp(op, u, 8, eta=np.float32(0.3))
    wide = cosamp(op, u, 8, eta=float(np.float32(0.3)))
    assert narrow.iterates == wide.iterates
    assert all(type(it["ls_tol"]) is float for it in narrow.iterates)
    assert narrow.residual_norms == wide.residual_norms
    assert np.array_equal(narrow.estimate, wide.estimate)
