"""Byte identity across thread counts for random configurations.

The README grids are pinned elsewhere; here Hypothesis draws valid
``TrialConfig``s and small sweeps over every algorithm, ensemble, signal
kind and noise mode, and each must emit the same CSV and JSON bytes at 1, 2
and 3 threads.  Those runs are below ``bench.POOL_MIN_APPLY_WORK``, so they
run on the calling thread at every thread count; a large Gaussian batch, a
sweep and a partial-DCT batch above it are checked the same way through the
pool.  A pool opens only at that size or above, with at most one worker
per usable core, and no draw may start a thread of its own.
"""

import concurrent.futures
import io
import os
import pathlib
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from sparsekit import bench, rng
from sparsekit.errors import UsageError

THREADS = (1, 2, 3)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

algorithms = st.sampled_from(bench.ALGORITHMS)
ensembles = st.sampled_from(["gaussian", "bernoulli", "partial_dct"])
noise_modes = st.sampled_from(bench.NOISE_MODES)
noise_levels = st.sampled_from([0.0, 1e-3, 0.05])
seeds = st.integers(0, 2**64 - 1)


@st.composite
def trial_configs(draw):
    algorithm = draw(algorithms)
    N = draw(st.integers(4, 48))
    m = draw(st.integers(1, N))
    s = draw(st.integers(1, max(1, m // 3 if algorithm == "cosamp" else m)))
    kind = draw(st.sampled_from(bench.SIGNAL_KINDS))
    signal = {}
    if kind == "sparse":
        signal["signal_s"] = draw(st.one_of(st.none(), st.integers(0, N)))
    else:
        signal.update(p=draw(st.sampled_from([0.5, 0.7, 1.0])), R=draw(st.sampled_from([1.0, 3.0])))
        signal["signal_truncate"] = draw(st.booleans())
    halting = {}
    if algorithm == "cosamp":
        halting["max_iter"] = draw(st.integers(1, 12))
        if draw(st.booleans()):
            halting["eta_rel"] = draw(st.sampled_from([0.0, 1e-8, 0.01]))
        else:
            halting["eta"] = draw(st.sampled_from([0.0, 1e-6, 0.1]))
    cfg = bench.TrialConfig(
        algorithm, draw(ensembles), m, N, s, draw(st.integers(1, 6)), draw(seeds),
        signal_kind=kind, noise_mode=draw(noise_modes), noise_level=draw(noise_levels),
        **signal, **halting,
    )
    try:
        return cfg.validate()
    except UsageError:
        reject()


def batch_bytes(cfg, threads):
    records = bench.run_trials(cfg, threads=threads)
    csv = io.StringIO()
    bench.write_trials_csv(csv, cfg, records)
    return csv.getvalue(), bench.render_json(bench.trials_report(cfg, records))


@SETTINGS
@given(trial_configs())
def test_random_batches_emit_the_same_bytes_at_any_thread_count(cfg):
    serial = batch_bytes(cfg, 1)
    for threads in THREADS[1:]:
        assert batch_bytes(cfg, threads) == serial


@st.composite
def sweeps(draw):
    N = draw(st.integers(4, 40))
    m_values = draw(st.lists(st.integers(1, N + 2), min_size=1, max_size=3, unique=True))
    s_values = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2, unique=True))
    options = dict(noise_mode=draw(noise_modes), noise_level=draw(noise_levels))
    if draw(st.booleans()):
        options["eta_rel"] = draw(st.sampled_from([0.0, 0.01]))
    args = (N, m_values, s_values, draw(ensembles), draw(algorithms), draw(st.integers(1, 4)), draw(seeds))
    return args, options


def sweep_bytes(args, options, threads):
    cells = bench.phase_sweep(*args, threads=threads, **options)
    config = {"args": list(args[:6]), "master_seed": args[6], **options}
    csv = io.StringIO()
    bench.write_sweep_csv(csv, config, cells)
    return csv.getvalue(), bench.render_json(bench.sweep_report(config, cells))


@SETTINGS
@given(sweeps())
def test_random_sweeps_emit_the_same_bytes_at_any_thread_count(sweep):
    args, options = sweep
    serial = sweep_bytes(args, options, 1)
    for threads in THREADS[1:]:
        assert sweep_bytes(args, options, threads) == serial


def test_large_gaussian_batch_emits_the_same_bytes_at_any_thread_count():
    # Each trial draws a 2**20-variate operator over 32 blocks, with
    # thousands of rejected words resolved on arrays and in Python; at 2 and
    # 3 threads pool workers draw at once.
    cfg = bench.TrialConfig("omp", "gaussian", 512, 2048, 32, 3, 7).validate()
    assert cfg.m * cfg.N == 32 * rng._BLOCK
    serial = batch_bytes(cfg, 1)
    for threads in THREADS[1:]:
        assert batch_bytes(cfg, threads) == serial


def test_sweep_above_the_pool_size_emits_the_same_bytes_at_any_thread_count():
    # The largest operator has 512 x 1024 entries, over twice the pool size,
    # so at 2 and 3 threads the sweep's trial indices run in the pool.
    args = (1024, [256, 512], [8, 40], "gaussian", "omp", 2, 11)
    assert 512 * 1024 >= bench.POOL_MIN_APPLY_WORK
    serial = sweep_bytes(args, {}, 1)
    for threads in THREADS[1:]:
        assert sweep_bytes(args, {}, threads) == serial


def test_partial_dct_batch_above_the_pool_size_emits_the_same_bytes_at_any_thread_count():
    cfg = bench.TrialConfig(
        "cosamp", "partial_dct", 512, 16384, 16, 3, 7, noise_mode="fixed_rel", noise_level=0.01, eta_rel=0.01
    ).validate()
    assert 16384 * 14 >= bench.POOL_MIN_APPLY_WORK
    serial = batch_bytes(cfg, 1)
    for threads in THREADS[1:]:
        assert batch_bytes(cfg, threads) == serial


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every pool ``bench`` opens, in order, with
    four usable cores, so that no thread count here meets the core bound."""
    opened = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(bench, "_usable_cores", lambda: 4)
    return opened


@pytest.mark.parametrize(
    "ensemble, m, N, pooled",
    [
        # m * N for a dense ensemble, N * ceil(log2 N) for a partial DCT
        ("gaussian", 99, 2000, False),
        ("gaussian", 100, 2000, True),  # exactly POOL_MIN_APPLY_WORK
        ("bernoulli", 99, 2000, False),
        ("bernoulli", 100, 2000, True),
        ("partial_dct", 64, 8192, False),  # 8192 * 13 = 106,496
        ("partial_dct", 64, 16384, True),  # 16384 * 14 = 229,376
    ],
)
def test_a_batch_opens_the_pool_only_at_the_pool_size(pools, ensemble, m, N, pooled):
    cfg = bench.TrialConfig("cosamp", ensemble, m, N, 4, 2, 7)
    bench.run_trials(cfg, threads=1)
    assert pools == []
    bench.run_trials(cfg, threads=2)
    assert pools == ([2] if pooled else [])


def test_a_sweep_opens_the_pool_only_at_the_pool_size(pools):
    # The README sweep's largest operator is 256 x 256 = 65,536 entries.
    before = threading.active_count()
    bench.phase_sweep(256, [16, 64, 256], [4], "gaussian", "omp", 2, 3, threads=2)
    assert pools == [] and threading.active_count() == before
    # Only live cells count: m = 4096 > N is NA and builds no operator.
    bench.phase_sweep(256, [64, 4096], [4], "gaussian", "omp", 2, 3, threads=2)
    assert pools == []
    bench.phase_sweep(1024, [64, 256], [4], "gaussian", "omp", 2, 3, threads=2)
    assert pools == [2]
    bench.compressible_scaling(1024, 256, 0.7, 1.0, [4, 8], "gaussian", "cosamp", 2, 3, threads=3)
    assert pools == [2, 3]


@pytest.mark.parametrize("threads, cores, workers", [(64, 2, [2]), (2, 8, [2]), (3, 1, [])])
def test_the_pool_opens_at_most_one_worker_per_usable_core(monkeypatch, threads, cores, workers):
    # A recorder in place of the executor runs each trial index on the
    # calling thread, so no thread starts whatever the counts.
    opened = []

    class Recorder:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(bench, "_usable_cores", lambda: cores)
    cfg = bench.TrialConfig("cosamp", "gaussian", 100, 2000, 4, 3, 7)
    before = threading.active_count()
    pooled = bench.run_trials(cfg, threads=threads)
    assert opened == workers and threading.active_count() == before
    assert [r.to_row() for r in pooled] == [r.to_row() for r in bench.run_trials(cfg, threads=1)]


def test_usable_cores_are_the_affinity_set_else_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert bench._usable_cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert bench._usable_cores() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert bench._usable_cores() == 1


def test_a_run_that_opens_no_pool_never_imports_concurrent_futures():
    code = (
        "import sys, sparsekit, sparsekit.cli\n"
        "sparsekit.run_trials(sparsekit.TrialConfig('omp', 'gaussian', 32, 64, 4, 2, 7), threads=2)\n"
        "print(sorted(m for m in sys.modules if m.startswith('concurrent')))\n"
    )
    src = pathlib.Path(bench.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_no_draw_starts_a_thread():
    before = threading.active_count()
    gen = rng.SplitMix64(5)
    for n in (1, 2**16, 2**17 + 1):
        gen.normal(n)
        gen.signs(n)
        gen.raw(n)
    dct = bench.TrialConfig("cosamp", "partial_dct", 1024, 4096, 48, 1, 7, noise_mode="fixed_rel", noise_level=0.01)
    bench.run_trial(dct.validate(), 0)
    dense = bench.TrialConfig("cosamp", "gaussian", 256, 1024, 16, 1, 7)
    bench.run_trial(dense.validate(), 0)
    assert threading.active_count() == before
