"""Desk-scale acceptance run for the whole toolkit.

Each criterion lives in test functions sharing an ``test_a<N>_`` prefix;
conftest.py prints one verdict line per criterion at the end.  All seeds
are pinned, so every run sees the same random instances.
"""

import io
import math
import statistics
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from refstream import index_below, word
from sparsekit.bench import TrialConfig, compressible_scaling, run_trial, run_trials, trial_seeds, trials_report, render_json, write_trials_csv
from sparsekit.cli import main as cli_main
from sparsekit.linalg import restricted_least_squares
from sparsekit.pursuit import romp_regularize
from sparsekit.rng import SplitMix64
from sparsekit.sensing import empirical_ric, make_operator
from sparsekit.signals import gen_sparse

MASTER_SEED = 2026
GOLDEN_CSV = Path(__file__).parent / "data" / "golden_bench.csv"


def _batch_config(algorithm, **overrides):
    kwargs = dict(
        algorithm=algorithm,
        ensemble="gaussian",
        m=128,
        N=256,
        s=8,
        trials=100,
        master_seed=MASTER_SEED,
    )
    if algorithm == "cosamp":
        kwargs["eta_rel"] = 1e-8
    kwargs.update(overrides)
    return TrialConfig(**kwargs)


def _traced_batch(cfg):
    """The records of a one-config batch, each with its recovery trace."""
    return [run_trial(cfg, i) for i in range(cfg.trials)]


@pytest.fixture(scope="module")
def a1_batches():
    records = {}
    start = time.perf_counter()
    for algorithm in ("omp", "romp", "cosamp"):
        cfg = _batch_config(algorithm)
        records[algorithm] = _traced_batch(cfg)
    return {"records": records, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def a2_batches():
    noisy = dict(noise_mode="fixed_rel", noise_level=0.1)
    return {
        algorithm: _traced_batch(_batch_config(algorithm, **noisy))
        for algorithm in ("romp", "cosamp")
    }


@pytest.fixture(scope="module")
def a4_scaling():
    return {
        R: compressible_scaling(
            1024,
            512,
            0.5,
            R,
            [4, 8, 16, 32],
            ensemble="gaussian",
            algorithm="cosamp",
            trials=25,
            master_seed=MASTER_SEED,
        )
        for R in (1.0, 2.0)
    }


def _successes(records):
    return sum(1 for rec in records if rec.success)


# -------------------------------------------------- A1: exact recovery


def test_a1_omp_recovery_rate(a1_batches):
    assert _successes(a1_batches["records"]["omp"]) >= 90


def test_a1_romp_recovery_rate(a1_batches):
    assert _successes(a1_batches["records"]["romp"]) >= 85


def test_a1_cosamp_recovery_rate(a1_batches):
    assert _successes(a1_batches["records"]["cosamp"]) >= 90


def test_a1_batch_runtime(a1_batches):
    assert a1_batches["elapsed"] < 30.0


# -------------------------------------------------- A2: noise stability


@pytest.mark.parametrize("algorithm", ["romp", "cosamp"])
def test_a2_noise_stability(a2_batches, algorithm):
    records = a2_batches[algorithm]
    assert len(records) == 100
    for rec in records:
        assert rec.error is None
        assert math.isfinite(rec.l2_error)
        assert math.isfinite(rec.rel_error)
        assert rec.noise_norm > 0.0
    ratios = [rec.l2_error / rec.noise_norm for rec in records]
    assert statistics.median(ratios) <= 20.0


# -------------------------------------------------- A3: iteration budget


def test_a3_cosamp_iteration_budget(a1_batches):
    for rec in a1_batches["records"]["cosamp"]:
        seeds = trial_seeds(MASTER_SEED, rec.trial_index)
        op = make_operator("gaussian", 128, 256, seeds["operator"])
        signal = gen_sparse(256, 8, seeds["signal"])
        u = op.forward(signal.values)
        eta = 1e-8 * float(np.linalg.norm(u))
        budget = 6.0 * math.log2(float(np.linalg.norm(signal.values)) / eta) + 10.0
        assert rec.iterations <= budget


# -------------------------------------------------- A4: compressible decay


def test_a4_error_decays_with_target_sparsity(a4_scaling):
    result = a4_scaling[1.0]
    medians = [row["median_l2_error"] for row in result["rows"]]
    assert all(a > b for a, b in zip(medians, medians[1:]))
    assert result["degenerate"] is False
    assert result["slope"] < 0.0


def test_a4_error_is_linear_in_envelope_magnitude(a4_scaling):
    base = [row["median_l2_error"] for row in a4_scaling[1.0]["rows"]]
    doubled = [row["median_l2_error"] for row in a4_scaling[2.0]["rows"]]
    for small, big in zip(base, doubled):
        assert 1.6 <= big / small <= 2.4


# -------------------------------------------------- A5: regularizer oracle


def _comparable(mags):
    return max(mags) <= 2.0 * min(mags)


def _exhaustive_window(values):
    best, best_key = None, None
    for size in range(1, len(values) + 1):
        for subset in combinations(range(len(values)), size):
            mags = [abs(values[i]) for i in subset]
            if not _comparable(mags):
                continue
            energy = sum(m * m for m in mags)
            largest = min(subset, key=lambda i: (-abs(values[i]), i))
            key = (-energy, largest)
            if best_key is None or key < best_key:
                best_key, best = key, set(subset)
    return best


def test_a5_regularizer_equals_exhaustive_search():
    rng = SplitMix64(707)
    for trial in range(1000):
        size = 1 + index_below(rng, 12)
        values = rng.normal(size)
        values[values == 0.0] = 1.0
        if trial % 4 == 0:
            # quantized magnitudes drive tie-breaking paths
            values = np.sign(values) * np.maximum(np.round(np.abs(values) * 4) / 4, 0.25)
        window = romp_regularize(values)
        picked = set(int(i) for i in window)
        assert _comparable([abs(values[i]) for i in picked])
        assert picked == _exhaustive_window(values.tolist()), values.tolist()


# -------------------------------------------------- A6: solver oracle


def _draw_system(gen):
    while True:
        op = make_operator("gaussian", 48, 96, seed=word(gen))
        k = 1 + index_below(gen, 16)
        support = gen.choose_without_replacement(96, k)
        dense = op.dense_matrix()[:, support]
        if np.linalg.cond(dense) < 100.0:
            rhs = gen.normal(48)
            return op, support, dense, rhs


def test_a6_iterative_solver_matches_cholesky_oracle():
    gen = SplitMix64(606)
    for index in range(200):
        op, support, dense, rhs = _draw_system(gen)
        oracle = cho_solve(cho_factor(dense.T @ dense), dense.T @ rhs)
        solved = restricted_least_squares(op, support, rhs, method="cg")
        rel = np.linalg.norm(solved.coeffs - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-8, f"system {index}: cg off by {rel:.3e}"
        if index < 50:
            # the one-step stationary method converges linearly, so it
            # needs a tighter target and more iterations to match
            slow = restricted_least_squares(
                op, support, rhs, method="richardson", tol=1e-12, max_iter=5000
            )
            rel = np.linalg.norm(slow.coeffs - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-8, f"system {index}: richardson off by {rel:.3e}"


# -------------------------------------------------- A7: logged invariants


def test_a7_omp_invariants_on_logged_trials(a1_batches):
    for rec in a1_batches["records"]["omp"]:
        result = rec.result
        assert result is not None
        norms = result.residual_norms
        slack = 1e-12 * norms[0]
        assert all(b <= a + slack for a, b in zip(norms, norms[1:]))
        selected = [it["selected"] for it in result.iterates]
        assert len(selected) == len(set(selected))


def test_a7_romp_invariants_on_logged_trials(a1_batches, a2_batches):
    records = a1_batches["records"]["romp"] + a2_batches["romp"]
    for rec in records:
        result = rec.result
        assert result is not None
        assert len(result.support) <= 3 * 8
        for it in result.iterates:
            mags = [abs(v) for v in it["committed_values"]]
            assert max(mags) <= 2.0 * min(mags)


def test_a7_cosamp_invariants_on_logged_trials(a1_batches, a2_batches):
    records = a1_batches["records"]["cosamp"] + a2_batches["cosamp"]
    for rec in records:
        result = rec.result
        assert result is not None
        assert int(np.count_nonzero(result.estimate)) <= 8
        for it in result.iterates:
            assert len(it["proxy_picks"]) <= 2 * 8
            assert it["merged_size"] <= 3 * 8
            assert len(it["support"]) <= 8


# -------------------------------------------------- A8: isometry probe


def test_a8_probe_identity_floor_and_gaussian_ceiling():
    identity_like = make_operator("partial_dct", 64, 64, seed=5)
    floor = empirical_ric(identity_like, 6, 100, seed=11)
    assert floor.delta_lower <= 1e-10
    assert floor.reevaluate(identity_like) == floor.delta_lower

    op = make_operator("gaussian", 128, 256, seed=MASTER_SEED)
    probe = empirical_ric(op, 8, 500, seed=13)
    assert probe.delta_lower < 0.6
    assert probe.reevaluate(op) == probe.delta_lower


# -------------------------------------------------- A9: determinism


def test_a9_library_emitters_are_byte_identical():
    cfg = _batch_config("cosamp")
    first, second = io.StringIO(), io.StringIO()
    write_trials_csv(first, cfg, run_trials(cfg))
    write_trials_csv(second, cfg, run_trials(cfg))
    assert first.getvalue() == second.getvalue()
    json_a = render_json(trials_report(cfg, run_trials(cfg)))
    json_b = render_json(trials_report(cfg, run_trials(cfg)))
    assert json_a == json_b


def test_a9_cli_reruns_are_byte_identical(tmp_path):
    argv = [
        "bench", "--alg", "romp", "--m", "128", "--N", "256", "--s", "8",
        "--trials", "20", "--seed", str(MASTER_SEED),
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli_main(argv + ["--out", str(a)]) == 0
    assert cli_main(argv + ["--out", str(b), "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_a9_output_matches_pinned_golden_file(tmp_path):
    fresh = tmp_path / "fresh.csv"
    code = cli_main(
        [
            "bench", "--alg", "omp", "--m", "64", "--N", "128", "--s", "4",
            "--trials", "5", "--seed", "2026", "--out", str(fresh),
        ]
    )
    assert code == 0
    assert fresh.read_bytes() == GOLDEN_CSV.read_bytes()
