import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sparsekit import bench, sensing
from sparsekit.bench import (
    ALGORITHMS,
    TRIAL_CSV_COLUMNS,
    TrialConfig,
    compressible_scaling,
    fit_decay_slope,
    phase_sweep,
    render_json,
    run_trial,
    run_trials,
    scaling_report,
    summarize,
    sweep_report,
    trial_seeds,
    trials_report,
    write_scaling_csv,
    write_sweep_csv,
    write_trials_csv,
)
from sparsekit.errors import SolverFailure, UsageError
from sparsekit.pursuit import cosamp, omp, romp
from sparsekit.sensing import Ensemble, make_operator
from sparsekit.signals import gen_sparse

PURSUITS = {"omp": omp, "romp": romp, "cosamp": cosamp}


def base_config(**overrides):
    kwargs = dict(
        algorithm="omp",
        ensemble="gaussian",
        m=64,
        N=128,
        s=4,
        trials=5,
        master_seed=7,
    )
    kwargs.update(overrides)
    return TrialConfig(**kwargs)


# ---------------------------------------------------------------- config


def test_validate_passes_through_good_config():
    cfg = base_config()
    assert cfg.validate() is cfg


@pytest.mark.parametrize(
    "overrides",
    [
        dict(algorithm="matching"),
        dict(ensemble="cauchy"),
        dict(m=0),
        dict(N=32),  # m > N
        dict(s=0),
        dict(s=65),  # s > m for omp
        dict(algorithm="cosamp", m=64, s=22),  # 3s > m
        dict(trials=0),
        dict(noise_mode="pink"),
        dict(noise_mode="fixed", noise_level=-1.0),
        dict(eta=-0.5),
        dict(eta_rel=-1e-8),
        dict(max_iter=0),
        dict(max_iter=math.nan),
        dict(signal_kind="chirp"),
        dict(signal_s=-1),
        dict(signal_s=129),
        dict(p=0.5),  # p forbidden for sparse signals
        dict(signal_kind="compressible"),  # needs p and R
        dict(signal_kind="compressible", p=0.5),  # still needs R
        dict(signal_kind="compressible", p=0.0, R=1.0),
        dict(signal_kind="compressible", p=0.5, R=-1.0),
        dict(signal_kind="compressible", p=0.5, R=1.0, signal_s=3),
        dict(signal_truncate=True),  # truncation only for compressible
        dict(noise_mode="fixed", noise_level=math.inf),
        dict(eta=math.nan),
        dict(eta_rel=math.inf),
        dict(signal_kind="compressible", p=math.nan, R=1.0),
        dict(signal_kind="compressible", p=0.5, R=math.inf),
        # A bool is neither a count nor a level; each of these once validated.
        dict(m=True, s=1),
        dict(s=True),
        dict(trials=True),
        dict(master_seed=False),
        dict(noise_mode="fixed", noise_level=True),
        dict(eta_rel=True),
    ],
)
def test_validate_rejects_bad_values(overrides):
    with pytest.raises(UsageError):
        base_config(**overrides).validate()


@pytest.mark.parametrize("max_iter", [math.nan, 2.5, 0])
def test_non_integer_iteration_cap_is_refused_before_any_apply(max_iter):
    op = make_operator("gaussian", 32, 64, seed=7)
    u = op.forward(gen_sparse(64, 2, seed=8).values)
    applied = op.matvec_count
    with pytest.raises(UsageError, match=f"max_iter must be an integer at least 1, got {max_iter!r}"):
        cosamp(op, u, 2, max_iter=max_iter)
    assert op.matvec_count == applied
    with pytest.raises(UsageError, match=f"max_iter must be an integer at least 1, got {max_iter!r}"):
        base_config(max_iter=max_iter).validate()
    cosamp(op, u, 2, max_iter=np.int64(1))
    base_config(max_iter=np.int64(1)).validate()


@pytest.mark.parametrize("field", ["m", "N", "trials", "master_seed", "signal_s"])
def test_fractional_sizes_are_refused_before_any_operator(monkeypatch, field):
    whole = base_config(signal_s=3)
    cfg = replace(whole, **{field: getattr(whole, field) + 0.5})
    with pytest.raises(UsageError, match=f"{field}.* got {getattr(cfg, field)!r}"):
        cfg.validate()

    def no_operator(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(bench, "make_operator", no_operator)
    with pytest.raises(UsageError, match=f"{field}.* got {getattr(cfg, field)!r}"):
        run_trials(cfg)
    # numpy integers are integers.
    replace(whole, **{field: np.int64(getattr(whole, field))}).validate()


# A thread count must be a whole number: the pool used to round 2.5 up.
FRACTIONAL_THREADS = {
    "run_trials": lambda: run_trials(base_config(trials=2), threads=2.5),
    "phase_sweep": lambda: phase_sweep(64, [16], [2], "gaussian", "omp", 2, 7, threads=1.5),
    "compressible_scaling": lambda: compressible_scaling(
        64, 32, 0.5, 1.0, [2, 4], "gaussian", "cosamp", 2, 7, threads=2.5
    ),
}


@pytest.mark.parametrize("call", FRACTIONAL_THREADS.values(), ids=FRACTIONAL_THREADS.keys())
def test_fractional_threads_are_refused_before_any_operator(monkeypatch, call):
    def no_operator(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(bench, "make_operator", no_operator)
    with pytest.raises(UsageError, match="threads must be an integer at least 1"):
        call()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_config_and_pursuit_refuse_the_same_sparsity(algorithm):
    # A zero measurement halts every pursuit before its first solve, so
    # only the (m, s) rule decides whether the call is accepted.
    m, N = 24, 48
    op = make_operator("gaussian", m, N, seed=5)
    for s in (0, 1, m // 3, m // 3 + 1, m, m + 1, 2.5):
        try:
            config_accepts = base_config(algorithm=algorithm, m=m, N=N, s=s)._shape_problem() is None
        except UsageError:
            config_accepts = False
        try:
            PURSUITS[algorithm](op, np.zeros(m), s)
            pursuit_accepts = True
        except UsageError:
            pursuit_accepts = False
        assert config_accepts == pursuit_accepts, s


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_non_integer_sparsity_is_refused_before_any_apply(algorithm):
    op = make_operator("gaussian", 32, 64, seed=7)
    u = op.forward(gen_sparse(64, 2, seed=8).values)
    applied = op.matvec_count
    with pytest.raises(UsageError, match="sparsity must be an integer, got 2.5"):
        PURSUITS[algorithm](op, u, 2.5)
    assert op.matvec_count == applied
    with pytest.raises(UsageError, match="sparsity must be an integer, got 2.5"):
        TrialConfig(algorithm, "gaussian", 32, 64, 2.5, 2, 7).validate()
    # numpy integers are integers.
    PURSUITS[algorithm](op, u, np.int64(2))
    TrialConfig(algorithm, "gaussian", 32, 64, np.int64(2), 2, 7).validate()


@pytest.mark.parametrize("algorithm", ["romp", "cosamp"])
def test_unknown_ls_method_is_refused_before_any_apply(algorithm):
    # The pursuits choose their own refit and take no option for it.
    op = make_operator("gaussian", 32, 64, seed=9)
    with pytest.raises(TypeError, match="ls_method"):
        PURSUITS[algorithm](op, np.ones(32), 2, ls_method="cg")
    assert op.matvec_count == 0


def test_trial_seeds_distinct_across_streams_and_trials():
    a = trial_seeds(7, 0)
    b = trial_seeds(7, 1)
    assert len({a["operator"], a["signal"], a["noise"]}) == 3
    assert a["operator"] != b["operator"]
    assert a["signal"] != b["signal"]


# ---------------------------------------------------------------- trials


def test_orthonormal_operator_gives_trivial_recovery():
    cfg = base_config(ensemble="partial_dct", m=128, N=128, s=6, trials=4)
    records = run_trials(cfg)
    for rec in records:
        assert rec.error is None
        assert rec.l2_error <= 1e-10
        assert rec.support_exact is True
        assert rec.success is True


def test_zero_signal_recovers_exactly():
    cfg = base_config(signal_s=0, trials=2)
    records = run_trials(cfg)
    for rec in records:
        assert rec.l2_error == 0.0
        assert rec.noise_norm == 0.0


def test_noiseless_sparse_ratio_undefined_for_omp():
    # exact-sparse signal, no noise, tail measured at level s: denominator
    # is exactly zero, so the ratio must be reported as missing
    cfg = base_config(trials=3)
    for rec in run_trials(cfg):
        assert rec.bound_ratio is None
        assert rec.tail_term == 0.0


def test_cosamp_ratio_uses_half_sparsity_tail():
    cfg = base_config(algorithm="cosamp", s=8, eta_rel=1e-8, trials=3)
    for rec in run_trials(cfg):
        # the tail at s//2 keeps half the spikes, so it is nonzero and
        # the ratio is defined even without noise
        assert rec.tail_term > 0.0
        assert rec.bound_ratio is not None


def test_run_twice_is_identical():
    cfg = base_config(noise_mode="fixed_rel", noise_level=0.1, trials=6)
    rows_a = [rec.to_row() for rec in run_trials(cfg)]
    rows_b = [rec.to_row() for rec in run_trials(cfg)]
    assert rows_a == rows_b


def test_thread_count_does_not_change_rows():
    cfg = base_config(algorithm="cosamp", s=8, eta_rel=1e-8, trials=8)
    serial = [rec.to_row() for rec in run_trials(cfg, threads=1)]
    threaded = [rec.to_row() for rec in run_trials(cfg, threads=4)]
    assert serial == threaded


def test_run_trial_indexes_into_stream():
    cfg = base_config(trials=5)
    records = run_trials(cfg)
    solo = run_trial(cfg, 3)
    assert solo.to_row() == records[3].to_row()


def test_solver_failure_leaves_outcome_fields_empty(monkeypatch):
    def diverge(*args, **kwargs):
        raise SolverFailure("omp iteration 2: diverged")

    monkeypatch.setattr("sparsekit.bench.omp", diverge)
    record = run_trial(base_config(), 0)
    row = record.to_row()
    for name in ("l2_error", "rel_error", "support_exact", "bound_ratio",
                 "residual_norm", "iterations", "matvecs"):
        assert row[name] is None
    assert row["success"] is False
    assert row["halted_by"] == "solver_failure"
    assert row["error"] == "omp iteration 2: diverged"
    assert row["tail_term"] == 0.0 and row["noise_norm"] == 0.0
    assert record.result is None


def test_summarize_counts():
    cfg = base_config(trials=6)
    records = run_trials(cfg)
    summary = summarize(records)
    assert summary["trials"] == 6
    assert summary["successes"] == sum(1 for r in records if r.success)
    assert summary["all_errors_finite"] is True
    assert sum(summary["halted_by"].values()) == 6


@pytest.mark.parametrize(
    "mode, level, probes",
    [("none", 0.0, 0), ("fixed", 0.1, 0), ("sigma", 0.1, 0), ("fixed_rel", 0.0, 0), ("fixed_rel", 0.1, 1)],
)
def test_forward_applies_before_recovery(monkeypatch, mode, level, probes):
    # The measurement is one forward apply; fixed_rel at a positive level
    # adds one more to probe ||Phi x||.  perfbench's traced runs check the
    # same count (spans.expected_pre_recovery_applies).
    ops = []

    def capturing(*args):
        ops.append(make_operator(*args))
        return ops[-1]

    monkeypatch.setattr(bench, "make_operator", capturing)
    for algorithm in ("omp", "cosamp"):
        cfg = base_config(algorithm=algorithm, noise_mode=mode, noise_level=level, eta_rel=1e-8)
        record = run_trial(cfg, 0)
        assert ops[-1].matvec_count - record.matvecs == 1 + probes


# ----------------------------------------------------------------- sweep


def test_phase_sweep_marks_invalid_cells():
    cells = phase_sweep(
        64,
        m_values=[8, 64],
        s_values=[4],
        ensemble="partial_dct",
        algorithm="cosamp",
        trials_per_cell=3,
        master_seed=1,
        eta_rel=1e-8,
    )
    by_m = {cell["m"]: cell for cell in cells}
    assert by_m[8]["success_rate"] is None  # 3*4 > 8 measurements
    assert by_m[8]["successes"] is None
    assert by_m[64]["success_rate"] == 1.0  # square transform, trivial cell


def test_phase_sweep_success_improves_with_m():
    cells = phase_sweep(
        256,
        m_values=[16, 32, 64, 128, 256],
        s_values=[8],
        ensemble="gaussian",
        algorithm="omp",
        trials_per_cell=40,
        master_seed=3,
    )
    rates = [cell["success_rate"] for cell in cells]
    assert rates[-1] >= 0.975
    inversions = [(a, b) for a, b in zip(rates, rates[1:]) if b < a]
    # Monte Carlo noise may produce one small dip, never a trend break
    assert len(inversions) <= 1
    assert all(a - b <= 0.05 for a, b in inversions)


def test_phase_sweep_grid_is_rectangular():
    cells = phase_sweep(
        32,
        m_values=[8, 16],
        s_values=[2, 4, 20],
        ensemble="gaussian",
        algorithm="omp",
        trials_per_cell=2,
        master_seed=4,
    )
    assert [(c["m"], c["s"]) for c in cells] == [
        (8, 2), (8, 4), (8, 20), (16, 2), (16, 4), (16, 20)
    ]
    assert all(c["success_rate"] is None for c in cells if c["s"] == 20)


def plain_loop(cfg):
    """A batch's records from a serial loop over ``run_trial``, no runner."""
    return [run_trial(cfg, i) for i in range(cfg.trials)]


def cell_by_cell_sweep(N, m_values, s_values, ensemble, algorithm, trials_per_cell, master_seed, **noise):
    """The sweep as a fold over plain loops, one cell at a time."""
    cells = []
    for m in m_values:
        for s in s_values:
            cfg = TrialConfig(algorithm, ensemble, m, N, s, trials_per_cell, master_seed, **noise)
            successes = None
            if cfg._shape_problem() is None:
                successes = sum(1 for r in plain_loop(cfg) if r.success)
            rate = None if successes is None else successes / trials_per_cell
            cells.append({"m": m, "s": s, "trials": trials_per_cell, "successes": successes, "success_rate": rate})
    return cells


def cell_by_cell_scaling(N, m, p, R, s_values, ensemble, algorithm, trials, master_seed):
    """The scaling study's rows as a fold over plain loops, one s at a time."""
    rows = []
    for s in s_values:
        cfg = TrialConfig(
            algorithm, ensemble, m, N, s, trials, master_seed,
            signal_kind="compressible", p=p, R=R, eta_rel=1e-8,
        )
        median = summarize(plain_loop(cfg))["median_l2_error"]
        rows.append({"s": s, "trials": trials, "median_l2_error": median})
    return rows


@pytest.fixture
def sweep_calls(monkeypatch):
    """Every ``run_trial`` call the code under test makes, with its record."""
    calls = []

    def recording(*args):
        record = run_trial(*args)
        calls.append((args, record))
        return record

    monkeypatch.setattr(bench, "run_trial", recording)
    return calls


# m = 80 > N, s = 9 > m = 8 and, for cosamp, 3s > m are NA; m = 24 repeats.
SWEEP_GRID = dict(N=64, m_values=[8, 24, 80, 24, 64], s_values=[2, 9, 6], trials_per_cell=5)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize(
    "ensemble, algorithm, noise",
    [
        ("gaussian", "omp", {}),
        ("bernoulli", "cosamp", {"noise_mode": "fixed_rel", "noise_level": 0.01, "eta_rel": 0.01}),
        ("partial_dct", "romp", {}),
    ],
)
def test_phase_sweep_equals_cell_by_cell_oracle(sweep_calls, threads, ensemble, algorithm, noise):
    expected = cell_by_cell_sweep(
        ensemble=ensemble, algorithm=algorithm, master_seed=11, **SWEEP_GRID, **noise
    )
    del sweep_calls[:]
    cells = phase_sweep(
        ensemble=ensemble, algorithm=algorithm, master_seed=11, threads=threads, **SWEEP_GRID, **noise
    )
    assert cells == expected
    assert any(c["successes"] is None for c in cells)
    live = sum(1 for c in cells if c["successes"] is not None)
    # One two-argument run_trial call per live cell and trial, and no
    # recovery trace kept past its trial.
    assert len(sweep_calls) == live * SWEEP_GRID["trials_per_cell"]
    assert all(len(args) == 2 for args, _ in sweep_calls)
    assert all(record.result is None for _, record in sweep_calls)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("ensemble", ["gaussian", "bernoulli", "partial_dct"])
def test_compressible_scaling_equals_cell_by_cell_oracle(sweep_calls, threads, ensemble):
    shape = dict(N=64, m=32, p=0.7, R=1.0, s_values=[2, 4, 8], ensemble=ensemble, algorithm="omp", trials=4)
    expected_rows = cell_by_cell_scaling(master_seed=13, **shape)
    del sweep_calls[:]
    result = compressible_scaling(master_seed=13, threads=threads, **shape)
    assert result["rows"] == expected_rows
    fit = fit_decay_slope(shape["s_values"], [row["median_l2_error"] for row in expected_rows])
    assert (result["slope"], result["intercept"], result["fit_residual"]) == fit
    assert len(sweep_calls) == len(shape["s_values"]) * shape["trials"]
    assert all(record.result is None for _, record in sweep_calls)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("ensemble", ["gaussian", "partial_dct"])
def test_run_trials_is_the_one_config_case(monkeypatch, threads, ensemble):
    cfg = base_config(ensemble=ensemble, noise_mode="fixed_rel", noise_level=0.05, trials=5)
    expected = io.StringIO()
    write_trials_csv(expected, cfg, plain_loop(cfg))

    def no_block(*args):
        raise AssertionError("a one-config batch opened a shared draw")

    seen = []

    def checking(*args):
        if threads == 1:  # in a pool, another worker may be between its return and its drop
            assert all(r.result is None for r in seen), "an earlier trial's trace was kept"
        seen.append(run_trial(*args))
        return seen[-1]

    monkeypatch.setattr(bench, "_shared_draw", no_block)
    monkeypatch.setattr(bench, "run_trial", checking)
    records = run_trials(cfg, threads=threads)
    got = io.StringIO()
    write_trials_csv(got, cfg, records)
    assert got.getvalue() == expected.getvalue()
    assert len(seen) == cfg.trials
    assert all(record.result is None for record in records)


@pytest.mark.parametrize("m_values, s_values", [([0, 16], [2]), ([16], [2, -1]), ([-5, 80], [0])])
def test_phase_sweep_rejects_counts_below_one(sweep_calls, m_values, s_values):
    with pytest.raises(UsageError, match="every m and s at least 1"):
        phase_sweep(
            64, m_values=m_values, s_values=s_values, ensemble="gaussian", algorithm="omp",
            trials_per_cell=2, master_seed=1,
        )
    assert sweep_calls == []
    # An m > N cell breaks the dimensional rule, not the input: it reads NA.
    cells = phase_sweep(
        64, m_values=[16, 80], s_values=[2], ensemble="gaussian", algorithm="omp",
        trials_per_cell=2, master_seed=1,
    )
    assert [c["successes"] is None for c in cells] == [False, True]


@pytest.mark.parametrize("N", [0, -5])
def test_phase_sweep_rejects_n_below_one(sweep_calls, N):
    # Every cell would break m <= N and read NA; the grid is malformed input.
    with pytest.raises(UsageError, match=f"N and every m and s at least 1, got N={N}"):
        phase_sweep(
            N, m_values=[16], s_values=[2], ensemble="gaussian", algorithm="omp",
            trials_per_cell=2, master_seed=1,
        )
    assert sweep_calls == []


def test_phase_sweep_rejects_non_integer_sparsity(sweep_calls):
    with pytest.raises(UsageError, match="sparsity must be an integer, got 2.5"):
        phase_sweep(
            64, m_values=[16], s_values=[2, 2.5], ensemble="gaussian", algorithm="omp",
            trials_per_cell=2, master_seed=1,
        )
    assert sweep_calls == []


def test_all_na_sweep_runs_no_trial(sweep_calls):
    cells = phase_sweep(
        16, m_values=[4, 32], s_values=[8], ensemble="gaussian", algorithm="omp",
        trials_per_cell=3, master_seed=1,
    )
    assert [c["successes"] for c in cells] == [None, None]
    assert sweep_calls == []


@pytest.mark.parametrize("as_array", [np.array, lambda values: np.array(values, dtype=np.int32)])
def test_phase_sweep_takes_numpy_arrays(as_array):
    # Arrays once raised numpy's "truth value is ambiguous" ValueError.
    grid = dict(N=64, ensemble="gaussian", algorithm="omp", master_seed=5)
    expected = phase_sweep(m_values=[16, 32], s_values=[2, 4], trials_per_cell=3, **grid)
    cells = phase_sweep(
        m_values=as_array([16, 32]), s_values=as_array([2, 4]), trials_per_cell=np.int64(3), **grid
    )
    assert cells == expected
    emitted = []
    for got in (expected, cells):
        buffer = io.StringIO()
        write_sweep_csv(buffer, {"N": 64}, got)
        emitted.append(buffer.getvalue() + render_json(sweep_report({"N": 64}, got)))
    assert emitted[0] == emitted[1]
    with pytest.raises(UsageError, match="at least one m and one s"):
        phase_sweep(m_values=np.array([], dtype=np.int64), s_values=as_array([2]), trials_per_cell=3, **grid)


@pytest.mark.parametrize("ensemble", ["gaussian", "bernoulli"])
def test_phase_sweep_refuses_an_over_cap_grid_before_its_first_draw(monkeypatch, sweep_calls, ensemble):
    # The m = 16 cells alone would fit; the m = 100000 cell decides.
    def no_draw(*args):
        raise AssertionError("an operator was drawn")

    monkeypatch.setattr(sensing, "_draw", no_draw)
    with pytest.raises(UsageError, match="MAX_DENSE_ENTRIES"):
        phase_sweep(1_000_000, [16, 100_000], [1, 2], ensemble, "omp", 2, 7)
    assert sweep_calls == []


# --------------------------------------------------------------- scaling


def test_fit_decay_slope_recovers_planted_exponent():
    s_values = [4, 8, 16, 32, 64]
    medians = [3.0 * s ** (-1.5) * math.sqrt(math.log(s)) for s in s_values]
    fit = fit_decay_slope(s_values, medians)
    assert fit is not None
    slope, intercept, rms = fit
    assert slope == pytest.approx(-1.5, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert rms <= 1e-12


def test_fit_decay_slope_refuses_degenerate_input():
    assert fit_decay_slope([4], [0.5]) is None
    assert fit_decay_slope([1, 2], [0.5, 0.25]) is None  # log(s) vanishes at 1
    assert fit_decay_slope([4, 8], [0.5, 0.0]) is None
    assert fit_decay_slope([4, 8], [0.5, float("nan")]) is None


def test_compressible_scaling_truncation_degenerates():
    # zeroing the tail makes every trial exact to solver tolerance, so the
    # medians sit at the floor and no decay law can be read off
    result = compressible_scaling(
        256,
        128,
        0.5,
        1.0,
        [4, 8],
        ensemble="gaussian",
        algorithm="cosamp",
        trials=3,
        master_seed=5,
        truncate=True,
    )
    assert result["degenerate"] is True
    assert result["slope"] is None
    assert all(row["median_l2_error"] <= 1e-6 for row in result["rows"])


def test_compressible_scaling_reports_decay():
    result = compressible_scaling(
        256,
        128,
        0.5,
        1.0,
        [4, 8, 16],
        ensemble="gaussian",
        algorithm="cosamp",
        trials=5,
        master_seed=5,
    )
    medians = [row["median_l2_error"] for row in result["rows"]]
    assert medians[0] > medians[1] > medians[2] > 0
    assert result["degenerate"] is False
    assert result["slope"] < 0


# -------------------------------------------------------------- emitters


def test_trials_csv_shape_and_repr_round_trip():
    cfg = base_config(noise_mode="fixed_rel", noise_level=0.1, trials=4)
    records = run_trials(cfg)
    buf = io.StringIO()
    write_trials_csv(buf, cfg, records)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# format_version=2"
    assert lines[1].startswith("# config=")
    assert json.loads(lines[1].removeprefix("# config=")) == cfg.to_dict()
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    assert rows[0] == list(TRIAL_CSV_COLUMNS)
    assert len(rows) == 1 + len(records)
    # float cells are full-precision reprs: parsing one back must be exact
    idx = rows[0].index("l2_error")
    assert float(rows[1][idx]) == records[0].l2_error
    # noiseless-style missing values render as NA
    ratio_idx = rows[0].index("bound_ratio")
    assert all(row[ratio_idx] != "" for row in rows[1:])


def test_trials_report_is_json_renderable():
    cfg = base_config(trials=3)
    records = run_trials(cfg)
    payload = json.loads(render_json(trials_report(cfg, records)))
    assert payload["format_version"] == 2
    assert payload["config"]["algorithm"] == "omp"
    assert payload["summary"]["trials"] == 3
    assert len(payload["records"]) == 3


def test_sweep_emitters():
    cells = phase_sweep(
        32,
        m_values=[8, 32],
        s_values=[2],
        ensemble="gaussian",
        algorithm="omp",
        trials_per_cell=2,
        master_seed=9,
    )
    config = {"N": 32, "ensemble": "gaussian", "algorithm": "omp"}
    buf = io.StringIO()
    write_sweep_csv(buf, config, cells)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# format_version=2"
    assert lines[2] == "m,s,trials,successes,success_rate"
    payload = json.loads(render_json(sweep_report(config, cells)))
    assert payload["format_version"] == 2
    assert len(payload["cells"]) == 2


def test_scaling_emitters():
    result = compressible_scaling(
        128,
        64,
        0.5,
        1.0,
        [4, 8],
        ensemble="gaussian",
        algorithm="omp",
        trials=2,
        master_seed=11,
    )
    config = {"N": 128, "m": 64, "p": 0.5, "R": 1.0}
    buf = io.StringIO()
    write_scaling_csv(buf, config, result)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# format_version=2"
    assert lines[2].startswith("# fit=")
    assert lines[3] == "s,trials,median_l2_error"
    payload = json.loads(render_json(scaling_report(config, result)))
    assert payload["format_version"] == 2
    assert payload["slope"] == result["slope"]


def test_render_json_writes_non_finite_floats_as_null():
    report = bench.report({"R": math.inf}, values=[math.nan, -math.inf, np.float64(math.inf), 1.5])
    assert json.loads(render_json(report)) == {
        "format_version": 2, "config": {"R": None}, "values": [None, None, None, 1.5]
    }


# The numpy-typed fields of each config; its twin holds their Python values.
TYPED_FIELDS = {
    **{mode: dict(noise_mode=mode, noise_level=np.float32(0.5), eta_rel=np.float32(0.25)) for mode in bench.NOISE_MODES},
    "compressible": dict(signal_kind="compressible", p=np.float32(0.7), R=np.float32(1.3), signal_truncate=np.bool_(True)),
}


@pytest.mark.parametrize("typed_fields", TYPED_FIELDS.values(), ids=TYPED_FIELDS.keys())
def test_numpy_typed_config_emits_the_bytes_of_its_plain_twin(typed_fields):
    plain_fields = {k: v.item() for k, v in typed_fields.items() if isinstance(v, np.generic)}
    plain = TrialConfig("cosamp", "gaussian", 48, 96, 4, 3, 7, **{**typed_fields, **plain_fields})
    typed = TrialConfig(
        "cosamp", Ensemble.GAUSSIAN, np.int64(48), np.int32(96), np.uint64(4), np.int64(3), np.uint64(7), **typed_fields
    )
    emitted = []
    for cfg in (plain, typed):
        records = run_trials(cfg)
        buffer = io.StringIO()
        write_trials_csv(buffer, cfg, records)
        emitted.append((buffer.getvalue(), render_json(trials_report(cfg, records))))
    assert emitted[0] == emitted[1]


def test_emitted_bytes_are_deterministic():
    cfg = base_config(trials=3)
    first = io.StringIO()
    second = io.StringIO()
    write_trials_csv(first, cfg, run_trials(cfg))
    write_trials_csv(second, cfg, run_trials(cfg))
    assert first.getvalue() == second.getvalue()
