import numpy as np
import pytest

from oracle_pursuit import brute_force_regularize, comparable
from refstream import index_below, word
from sparsekit import pursuit
from sparsekit.bench import TrialConfig, run_trials
from sparsekit.errors import UsageError
from sparsekit.pursuit import HaltReason, romp, romp_regularize
from sparsekit.rng import SplitMix64
from sparsekit.sensing import make_operator
from sparsekit.signals import gen_sparse, measure


def test_regularize_single_comparable_block():
    picked = romp_regularize(np.array([4.0, 3.0, 2.5]))
    assert set(picked) == {0, 1, 2}


def test_regularize_forced_split():
    picked = romp_regularize(np.array([10.0, 1.0]))
    assert set(picked) == {0}


def test_regularize_prefers_energy_over_size():
    # singleton 10 has energy 100; the comparable pair (4, 3) only 25
    picked = romp_regularize(np.array([10.0, 4.0, 3.0]))
    assert set(picked) == {0}


# Magnitudes exactly a factor of two apart sit on a window's boundary, and
# repeated ones tie; [3] against nine ones ties two windows' energies exactly,
# which must go to the window whose largest entry comes first.
BOUNDARY_VALUES = [
    [4.0, 2.0, 1.0],
    [1.0, 4.0, 2.0],
    [1.0, 0.5, 0.5, 0.25],
    [0.25, -0.5, 1.0, 0.5],
    [1.0, 1.0, 1.0],
    [2.0, -2.0, 1.0, 1.0, 0.5, 0.5],
    [0.5, 0.5, 2.0, 2.0, 1.0, 1.0],
    [3.0] + [1.0] * 9,
    [1.0] * 9 + [-3.0],
    [1.0] * 4 + [3.0] + [-1.0] * 5,
]


def test_regularize_against_brute_force():
    gen = SplitMix64(101)
    cases = [np.array(values) for values in BOUNDARY_VALUES]
    for trial in range(300):
        size = 1 + index_below(gen, 12)
        values = gen.normal(size)
        values[values == 0.0] = 1.0
        if trial % 5 == 0:
            # quantized magnitudes provoke within-window ties
            values = np.sign(values) * np.maximum(np.round(np.abs(values) * 4) / 4, 0.25)
        cases.append(values)
    for values in cases:
        got = set(int(i) for i in romp_regularize(values))
        expected = brute_force_regularize(values.tolist())
        assert got == expected, f"values={values.tolist()}"
        assert comparable([abs(values[i]) for i in got])


def test_regularize_validation():
    with pytest.raises(UsageError):
        romp_regularize(np.array([]))
    with pytest.raises(UsageError):
        romp_regularize(np.array([1.0, 0.0]))


def test_orthonormal_two_spikes_one_round():
    # with m == N the partial DCT is orthonormal, so the proxy equals x
    # exactly; two equal-magnitude spikes are comparable and commit together
    op = make_operator("partial_dct", 16, 16, seed=1)
    x = np.zeros(16)
    x[3] = 1.0
    x[11] = -1.0
    result = romp(op, op.forward(x), 2)
    assert result.iterations == 1
    assert set(result.support) == {3, 11}
    np.testing.assert_allclose(result.estimate, x, atol=1e-10)


def test_gaussian_exact_recovery_batch():
    successes = 0
    for trial in range(20):
        op = make_operator("gaussian", 128, 256, seed=word(SplitMix64(trial)))
        sig = gen_sparse(256, 8, seed=word(SplitMix64(trial + 500)))
        u, _ = measure(op, sig)
        result = romp(op, u, 8)
        err = np.linalg.norm(result.estimate - sig.values) / np.linalg.norm(sig.values)
        if err <= 1e-6:
            successes += 1
    assert successes >= 17


def test_support_growth_and_bounds():
    op = make_operator("gaussian", 96, 192, seed=3)
    sig = gen_sparse(192, 12, seed=4)
    u, _ = measure(op, sig)
    s = 12
    result = romp(op, u, s)
    assert len(result.support) <= 3 * s
    for it in result.iterates:
        assert 1 <= len(it["candidates"]) <= s
        assert set(it["committed"]) <= set(it["candidates"])
        mags = [abs(v) for v in it["committed_values"]]
        assert comparable(mags)
    sizes = [it["support_size"] for it in result.iterates]
    assert sizes == sorted(sizes)


def test_selected_indices_never_repeat():
    op = make_operator("bernoulli", 64, 128, seed=5)
    gen = SplitMix64(6)
    u = gen.normal(64)  # unstructured measurement
    result = romp(op, u, 8)
    committed = [i for it in result.iterates for i in it["committed"]]
    assert len(committed) == len(set(committed))


def test_zero_measurement_halts_proxy_zero():
    op = make_operator("gaussian", 16, 32, seed=7)
    result = romp(op, np.zeros(16), 4)
    assert result.halted_by is HaltReason.PROXY_ZERO
    assert result.iterations == 0


def test_noisy_run_halts_cleanly():
    op = make_operator("gaussian", 48, 96, seed=8)
    gen = SplitMix64(9)
    u = gen.normal(48)
    result = romp(op, u, 6)
    assert result.halted_by in (
        HaltReason.SPARSITY_REACHED,
        HaltReason.MAX_ITERATIONS,
    )
    assert result.iterations <= 6
    assert len(result.support) <= 18


def test_support_cap_near_measurement_budget():
    # s = m: each round may commit up to s indices, so the second round
    # would push |I| past m. The run must stop with a reported cap (or
    # an exactly dead proxy) instead of building an underdetermined fit.
    op = make_operator("gaussian", 4, 16, seed=10)
    gen = SplitMix64(11)
    u = gen.normal(4)
    result = romp(op, u, 4)
    assert len(result.support) <= 4
    assert result.halted_by in (
        HaltReason.SUPPORT_CAP,
        HaltReason.PROXY_ZERO,
        HaltReason.RESIDUAL_SMALL,
        HaltReason.SPARSITY_REACHED,
    )
    if result.halted_by is HaltReason.SUPPORT_CAP:
        # estimate from before the overflowing round is kept
        assert int(np.count_nonzero(result.estimate)) <= 4


def test_validation_matches_omp():
    op = make_operator("gaussian", 16, 32, seed=12)
    with pytest.raises(UsageError):
        romp(op, np.zeros(16), 0)
    with pytest.raises(UsageError):
        romp(op, np.zeros(16), 17)
    with pytest.raises(UsageError):
        romp(op, np.zeros(12), 4)


def test_deterministic_results():
    op = make_operator("gaussian", 64, 128, seed=13)
    sig = gen_sparse(128, 7, seed=14)
    u, _ = measure(op, sig)
    a = romp(op, u, 7)
    b = romp(op, u, 7)
    assert np.array_equal(a.estimate, b.estimate)
    assert a.residual_norms == b.residual_norms


def test_refits_grow_one_gram_factor():
    # The support only grows, so every refit is a direct factor solve: one
    # apply per new column, no CG iterations.
    for seed in range(6):
        op = make_operator(("gaussian", "bernoulli", "partial_dct")[seed % 3], 48, 96, seed=seed)
        sig = gen_sparse(96, 6, seed=seed + 100)
        u, _ = measure(op, sig, "sigma", 0.01 * (seed % 2), seed + 200)
        result = romp(op, u, 6)
        assert result.halted_by not in (HaltReason.PROXY_ZERO, HaltReason.SUPPORT_CAP)
        for it in result.iterates:
            assert it["ls_iterations"] == 0
            assert it["ls_applications"] == len(it["committed"])
        # per round the proxy adjoint; the factor forms the residual
        applications = sum(it["ls_applications"] for it in result.iterates)
        assert result.matvec_count == result.iterations + applications


def test_exact_fit_halts_on_round_off_residual():
    # An exact fit leaves a round-off residual, which the "r = 0" halt reads as zero.
    op = make_operator("gaussian", 64, 128, seed=21)
    sig = gen_sparse(128, 4, seed=22)
    u, _ = measure(op, sig)
    result = romp(op, u, 4)
    assert result.halted_by is HaltReason.RESIDUAL_SMALL
    assert 0.0 < result.residual_norms[-1] <= pursuit.ZERO_RESIDUAL_RATIO * np.linalg.norm(u)
    np.testing.assert_allclose(result.estimate, sig.values, atol=1e-12)


def test_readme_cell_has_no_solver_failure():
    # With CG refits, 11 of these 40 trials ended in a CG divergence.
    cfg = TrialConfig("romp", "gaussian", 16, 256, 8, 40, 3)
    records = run_trials(cfg)
    assert [r.error for r in records if r.halted_by == "solver_failure"] == []
