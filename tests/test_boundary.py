"""Bad input is refused at the boundary: a ``UsageError`` from the library,
exit code 2 with nothing on stdout from the CLI, before any random draw,
operator build or apply."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsekit import bench, cli, sensing, signals
from sparsekit.bench import TrialConfig, run_trials
from sparsekit.errors import UsageError
from sparsekit.linalg import largest_indices
from sparsekit.pursuit import omp, romp, sparsity_problem
from sparsekit.sensing import empirical_ric, make_operator
from sparsekit.signals import MAX_SCALE, Signal, gen_compressible, gen_sparse, head, measure, tail_l1


def _refuse(*args, **kwargs):
    raise AssertionError("work started on refused input")


# Each call used to raise TypeError or ValueError from deep inside numpy or
# the random stream, not the UsageError the README promises.
FRACTIONAL_COUNTS = {
    "make_operator-m": lambda op, v: make_operator("gaussian", 32.5, 64, 1),
    "make_operator-N": lambda op, v: make_operator("partial_dct", 32, 64.5, 1),
    "gen_sparse-s": lambda op, v: gen_sparse(64, 2.5, 1),
    "largest_indices-k": lambda op, v: largest_indices(v, 2.5),
    "head-s": lambda op, v: head(v, 2.5),
    "tail_l1-s": lambda op, v: tail_l1(v, 2.5),
    # A signal whose support fits in s takes tail_l1's shortcut.
    "tail_l1-signal-s": lambda op, v: tail_l1(Signal(np.array([0.0, 3.0, 0.0]), true_support=[1]), 2.5),
    "empirical_ric-n": lambda op, v: empirical_ric(op, 2.5, 3, 1),
    "empirical_ric-trials": lambda op, v: empirical_ric(op, 2, 2.5, 1),
    "validate-noise_level": lambda op, v: TrialConfig(
        "omp", "gaussian", 8, 16, 2, 2, 7, noise_level="x"
    ).validate(),
    "make_operator-seed": lambda op, v: make_operator("gaussian", 8, 16, 1.5),
    "gen_sparse-seed": lambda op, v: gen_sparse(16, 2, 2.5),
    "gen_compressible-seed": lambda op, v: gen_compressible(16, 0.5, 1.0, 2.5),
    "measure-seed": lambda op, v: measure(op, np.ones(16), "sigma", 0.1, 2.5),
    # A bool seed ran as seed 0 or 1.
    "make_operator-bool-seed": lambda op, v: make_operator("partial_dct", 8, 16, True),
    "empirical_ric-bool-seed": lambda op, v: empirical_ric(op, 2, 3, False),
}


@pytest.mark.parametrize("call", FRACTIONAL_COUNTS.values(), ids=FRACTIONAL_COUNTS.keys())
def test_library_entry_points_refuse_fractional_counts_before_any_draw(monkeypatch, call):
    op = make_operator("gaussian", 8, 16, 1)
    monkeypatch.setattr(sensing, "SplitMix64", _refuse)
    monkeypatch.setattr(signals, "SplitMix64", _refuse)
    with pytest.raises(UsageError):
        call(op, np.arange(6.0))
    assert op.matvec_count == 0


# Each call raised OverflowError on a numpy integer seed, part or count: the
# random stream's 64-bit arithmetic overflowed the numpy type.  Each result
# is reduced to bytes, a trial to its CSV and JSON output.
def _trial_bytes(cfg, records):
    stream = io.StringIO()
    bench.write_trials_csv(stream, cfg, records)
    return (stream.getvalue() + bench.render_json(bench.trials_report(cfg, records))).encode()


_TRIAL = TrialConfig("cosamp", "gaussian", 24, 48, 4, 3, 7, noise_mode="fixed_rel", noise_level=0.1)

NUMPY_INTEGER_CALLS = {
    "make_operator": lambda i: make_operator("gaussian", 8, 16, i(3)).dense_matrix().tobytes(),
    "make_operator-dct": lambda i: make_operator("partial_dct", 8, 16, i(3)).rows.tobytes(),
    "gen_sparse": lambda i: gen_sparse(i(16), i(2), 5).values.tobytes(),
    "gen_compressible": lambda i: gen_compressible(i(16), 0.5, 1.0, i(5)).values.tobytes(),
    "measure": lambda i: measure(make_operator("gaussian", 8, 16, 3), np.ones(16), "fixed", 0.1, seed=i(4))[0].tobytes(),
    "empirical_ric": lambda i: empirical_ric(make_operator("gaussian", 8, 16, 3), i(2), i(5), i(4)).witness.tobytes(),
    "run_trial": lambda i: _trial_bytes(_TRIAL, [bench.run_trial(_TRIAL, i(1))]),
    "run_trials": lambda i: _trial_bytes(
        TrialConfig("omp", "gaussian", i(24), i(48), i(4), i(3), i(7)),
        run_trials(TrialConfig("omp", "gaussian", i(24), i(48), i(4), i(3), i(7))),
    ),
}


@pytest.mark.parametrize("numpy_int", [np.int64, np.int32, np.uint64])
@pytest.mark.parametrize("call", NUMPY_INTEGER_CALLS.values(), ids=NUMPY_INTEGER_CALLS.keys())
def test_numpy_integers_give_the_bytes_of_python_integers(call, numpy_int):
    assert call(numpy_int) == call(int)


def test_numpy_int32_sizes_over_the_cap_are_refused(monkeypatch):
    # In int32, 65536 * 65536 wraps to 0 and 46341 * 46341 to a negative
    # count, and both passed their caps.
    monkeypatch.setattr(sensing, "SplitMix64", _refuse)
    with pytest.raises(UsageError, match="MAX_DENSE_ENTRIES"):
        make_operator("gaussian", np.int32(2**16), np.int32(2**16), 1)
    size = np.int32(46341)
    with pytest.raises(UsageError, match="MAX_DENSE_ENTRIES"):
        TrialConfig("omp", "partial_dct", size, size, size, 1, 0).validate()


# ------------------------------------------------------ the factor's size cap

# OMP's factor at s = 8192 holds 8192 columns of length 16384 and an
# 8192 x 8192 inverse factor: 3 * 2**26 entries.  ROMP's can reach 3s - 1
# columns: at m = 8192, s = 1688 gives 5063 of them, 67,110,065 entries, the
# least s over the cap (s = 1687 gives 5060, 67,055,120 entries).
OVERSIZED_FACTORS = [("omp", 16384, 8192), ("romp", 16384, 3000), ("romp", 8192, 1688)]


@pytest.mark.parametrize("algorithm, m, s", OVERSIZED_FACTORS)
def test_oversized_factor_is_refused_before_any_work(monkeypatch, capsys, algorithm, m, s):
    monkeypatch.setattr(bench, "make_operator", _refuse)
    config = TrialConfig(algorithm, "partial_dct", m, m, s, 1, 7)
    with pytest.raises(UsageError, match="MAX_DENSE_ENTRIES"):
        config.validate()
    argv = [
        "bench", "--alg", algorithm, "--ensemble", "partial_dct",
        "--m", str(m), "--N", str(m), "--s", str(s), "--trials", "1",
    ]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_DENSE_ENTRIES" in captured.err
    op = sensing.make_operator("partial_dct", m, m, 7)
    with pytest.raises(UsageError, match="MAX_DENSE_ENTRIES"):
        (omp if algorithm == "omp" else romp)(op, np.zeros(m), s)
    assert op.matvec_count == 0


def test_factor_at_the_cap_is_accepted():
    # 4096 columns of length 12288 and a 4096 x 4096 inverse factor: exactly 2**26.
    assert sparsity_problem("omp", 12288, 4096) is None
    assert sparsity_problem("omp", 12288, 4097) is not None
    assert sparsity_problem("romp", 8192, 1687) is None
    assert sparsity_problem("cosamp", 16384, 5000) is None


def test_sweep_reports_an_oversized_factor_as_na(monkeypatch):
    # Each cell is refused alone, like s > m, and builds no operator.
    monkeypatch.setattr(bench, "make_operator", _refuse)
    cells = bench.phase_sweep(16384, [16384], [8192], "partial_dct", "omp", 1, 7)
    assert [cell["success_rate"] for cell in cells] == [None]


# ----------------------------------------- the cap on R, noise and eta_rel

# Past signals.MAX_SCALE, squared norms overflowed mid-run: the first case
# warned and exited 2 after its recovery, the second exited 0 with null
# norms, and the third ran 6 trials before CoSaMP's eta = eta_rel * ||u||
# overflowed and stopped the batch with exit 2.
HUGE_SCALES = {
    "R": ["bench", "--trials", "2", "--signal-kind", "compressible", "--p", "0.7", "--R", "1e308"],
    "noise_level": ["recover", "--noise-mode", "sigma", "--noise-level", "1e308"],
    "eta_rel": ["bench", "--alg", "cosamp", "--trials", "40", "--seed", "3", "--eta-rel", "5e307"],
}


@pytest.mark.parametrize("argv", HUGE_SCALES.values(), ids=HUGE_SCALES.keys())
def test_a_scale_over_the_cap_is_refused_before_any_draw(monkeypatch, capsys, argv):
    monkeypatch.setattr(bench, "make_operator", _refuse)
    monkeypatch.setattr(signals, "SplitMix64", _refuse)
    assert cli.main(argv + ["--m", "16", "--N", "64", "--s", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_SCALE" in captured.err
    with pytest.raises(UsageError, match="MAX_SCALE"):
        gen_compressible(64, 0.7, math.nextafter(MAX_SCALE, math.inf), 1)


def test_an_eta_rel_over_the_cap_is_refused_before_any_operator(monkeypatch):
    monkeypatch.setattr(bench, "make_operator", _refuse)
    for eta_rel in (5e307, math.nextafter(MAX_SCALE, math.inf)):
        with pytest.raises(UsageError, match="eta_rel must be at most"):
            run_trials(TrialConfig("cosamp", "gaussian", 16, 64, 2, 40, 3, eta_rel=eta_rel))


@pytest.mark.parametrize("algorithm", ["omp", "romp", "cosamp"])
@pytest.mark.parametrize("noise_mode", ["fixed_rel", "sigma"])
def test_trials_at_the_cap_keep_every_norm_finite(algorithm, noise_mode):
    # fixed_rel at the cap resolves to a noise norm near MAX_SCALE**2; an
    # overflow would warn, and the suite turns warnings into errors.
    cfg = TrialConfig(
        algorithm, "gaussian", 32, 128, 4, 2, 7,
        signal_kind="compressible", p=0.01, R=MAX_SCALE, noise_mode=noise_mode, noise_level=MAX_SCALE,
    )
    for record in run_trials(cfg):
        norms = [record.l2_error, record.noise_norm, record.residual_norm, record.tail_term, record.bound_ratio]
        assert all(math.isfinite(value) for value in norms), norms


# --------------------------------------------- every numeric config field

SPARSE = dict(algorithm="cosamp", ensemble="gaussian", m=24, N=48, s=4, trials=2, master_seed=7)
COMPRESSIBLE = dict(SPARSE, signal_kind="compressible", p=0.5, R=1.0)
NOISY = dict(SPARSE, noise_mode="fixed", noise_level=0.1)

_NEGATIVE = st.floats(max_value=-5e-324, allow_nan=False, allow_infinity=False)
_OVER_THE_CAP = st.floats(min_value=math.nextafter(MAX_SCALE, math.inf), allow_infinity=False)

# Each numeric TrialConfig field: a valid config that sets it, and its
# out-of-range values in that config (None when every integer is valid).
FIELDS = {
    "m": (SPARSE, st.integers(max_value=0) | st.integers(min_value=49)),
    "N": (SPARSE, st.integers(max_value=23)),
    "s": (SPARSE, st.integers(max_value=0) | st.integers(min_value=9)),  # cosamp: 3s <= m
    "trials": (SPARSE, st.integers(max_value=0)),
    "master_seed": (SPARSE, None),
    "signal_s": (dict(SPARSE, signal_s=4), st.integers(max_value=-1) | st.integers(min_value=49)),
    "max_iter": (SPARSE, st.integers(max_value=0)),
    "p": (COMPRESSIBLE, st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)),
    "R": (COMPRESSIBLE, st.floats(max_value=0.0, allow_nan=False, allow_infinity=False) | _OVER_THE_CAP),
    "noise_level": (NOISY, _NEGATIVE | _OVER_THE_CAP),
    "eta": (SPARSE, _NEGATIVE),
    "eta_rel": (dict(SPARSE, eta_rel=1e-8), _NEGATIVE | _OVER_THE_CAP),
}
INTEGER_FIELDS = ("m", "N", "s", "trials", "master_seed", "signal_s", "max_iter")


@st.composite
def bad_fields(draw):
    """A numeric field, its valid config, and a NaN, infinite, boolean,
    fractional (integer fields) or out-of-range value for it."""
    field = draw(st.sampled_from(sorted(FIELDS)))
    base, out_of_range = FIELDS[field]
    kinds = [st.sampled_from([math.nan, math.inf, -math.inf, True, False])]
    if out_of_range is not None:
        kinds.append(out_of_range)
    if field in INTEGER_FIELDS:
        kinds.append(st.integers(-10**6, 10**6).map(lambda k: k + 0.5))
    return field, base, draw(st.one_of(kinds))


def _bench_argv(config: dict, path) -> list:
    """``sparsekit bench`` with every field of ``config`` in a config file."""
    keys = {"seed" if k == "master_seed" else k: v for k, v in config.items()}
    path.write_text(json.dumps(keys), encoding="utf-8")
    return ["bench", "--config", str(path)]


def test_each_field_has_a_valid_base(tmp_path, capsys):
    for field, (base, _) in FIELDS.items():
        TrialConfig(**base).validate()
        assert cli.main(_bench_argv(base, tmp_path / "base.json")) == 0, field
        assert capsys.readouterr().out.startswith("# format_version=")


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(bad_fields())
def test_bad_numeric_field_is_refused_before_any_work(monkeypatch, tmp_path, capsys, case):
    field, base, value = case
    config = dict(base, **{field: value})
    monkeypatch.setattr(bench, "make_operator", _refuse)
    monkeypatch.setattr(bench, "run_trial", _refuse)
    with pytest.raises(UsageError):
        TrialConfig(**config).validate()
    with pytest.raises(UsageError):
        run_trials(TrialConfig(**config))
    capsys.readouterr()
    assert cli.main(_bench_argv(config, tmp_path / "bad.json")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# ----------------------------------------------- the signal_truncate switch

# Each value used to validate: "no" truncated a compressible signal and was
# written into the CSV config line as "no", 1 wrote 1 where the CLI writes
# true, and a sparse config with "no" was refused as if it asked for
# truncation.
NOT_SWITCHES = ["no", "false", 1, 0, 1.0, None, np.int64(1), [True]]


@pytest.mark.parametrize("base", [SPARSE, COMPRESSIBLE], ids=["sparse", "compressible"])
@pytest.mark.parametrize("value", NOT_SWITCHES, ids=repr)
def test_a_signal_truncate_that_is_no_boolean_is_refused_before_any_work(monkeypatch, base, value):
    monkeypatch.setattr(bench, "make_operator", _refuse)
    monkeypatch.setattr(bench, "run_trial", _refuse)
    config = TrialConfig(**dict(base, signal_truncate=value))
    for call in (config.validate, lambda: run_trials(config)):
        with pytest.raises(UsageError, match="signal_truncate must be true or false"):
            call()


def test_compressible_scaling_refuses_a_truncate_that_is_no_boolean(monkeypatch):
    monkeypatch.setattr(bench, "make_operator", _refuse)
    monkeypatch.setattr(bench, "run_trial", _refuse)
    with pytest.raises(UsageError, match="signal_truncate must be true or false"):
        bench.compressible_scaling(48, 24, 0.7, 1.0, [2, 4], "gaussian", "cosamp", 2, 7, truncate="no")


@pytest.mark.parametrize("value", [True, False, np.bool_(True), np.bool_(False)], ids=repr)
def test_a_boolean_signal_truncate_is_accepted(value):
    TrialConfig(**dict(COMPRESSIBLE, signal_truncate=value)).validate()
