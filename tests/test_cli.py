import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparsekit
from sparsekit import bench, cli, sensing
from sparsekit.errors import SolverFailure


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


RECOVER_ARGS = ["recover", "--m", "64", "--N", "128", "--s", "4", "--seed", "3"]


# --------------------------------------------------------------- recover


def test_recover_emits_json_record(capsys):
    code, out, err = run_cli(capsys, *RECOVER_ARGS)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["format_version"] == 2
    assert payload["config"]["algorithm"] == "omp"
    assert payload["config"]["master_seed"] == 3
    assert payload["record"]["success"] is True
    assert payload["record"]["l2_error"] <= 1e-6


def test_recover_missing_required_params(capsys):
    code, out, err = run_cli(capsys, "recover", "--m", "64")
    assert code == 2
    assert out == ""
    assert "missing required parameters" in err
    assert "N" in err and "s" in err


def test_recover_rejects_zero_sparsity(capsys):
    code, _, err = run_cli(capsys, "recover", "--m", "64", "--N", "128", "--s", "0")
    assert code == 2
    assert "error:" in err


def test_recover_rejects_cosamp_budget_violation(capsys):
    code, _, err = run_cli(
        capsys, "recover", "--alg", "cosamp", "--m", "16", "--N", "64", "--s", "8"
    )
    assert code == 2
    assert "cosamp" in err


def test_algorithm_flag_aliases_agree(capsys):
    base = ["recover", "--m", "64", "--N", "128", "--s", "4", "--seed", "9"]
    code_a, out_a, _ = run_cli(capsys, *base, "--alg", "romp")
    code_b, out_b, _ = run_cli(capsys, *base, "--algorithm", "romp")
    assert code_a == code_b == 0
    assert out_a == out_b


# ---------------------------------------------------------------- config


def test_flags_override_config_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"m": 64, "N": 128, "s": 4, "seed": 11}))
    code, out, _ = run_cli(capsys, "recover", "--config", str(config), "--s", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["s"] == 6  # flag wins
    assert payload["config"]["master_seed"] == 11  # config fills the rest


def test_unknown_config_key_is_fatal(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"m": 64, "N": 128, "s": 4, "tolernace": 0.1}))
    code, _, err = run_cli(capsys, "recover", "--config", str(config))
    assert code == 2
    assert "unknown config keys: tolernace" in err


def test_config_must_be_json_object(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text("[1, 2, 3]")
    code, _, err = run_cli(capsys, "recover", "--config", str(config))
    assert code == 2
    assert "JSON object" in err


def test_config_invalid_json(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text("{not json")
    code, _, err = run_cli(capsys, "recover", "--config", str(config))
    assert code == 2
    assert "not valid JSON" in err


def test_config_missing_file(capsys):
    code, _, err = run_cli(capsys, "recover", "--config", "/nonexistent/run.json")
    assert code == 2
    assert "cannot read config file" in err


def test_config_cannot_set_output_path(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"m": 64, "N": 128, "s": 4, "out": "/tmp/x"}))
    code, _, err = run_cli(capsys, "recover", "--config", str(config))
    assert code == 2
    assert "unknown config keys: out" in err


# ------------------------------------------------------------------ seed


def test_seed_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("PURSUIT_SEED", "42")
    code, out, _ = run_cli(capsys, "recover", "--m", "64", "--N", "128", "--s", "4")
    assert code == 0
    assert json.loads(out)["config"]["master_seed"] == 42


def test_seed_flag_beats_environment(monkeypatch, capsys):
    monkeypatch.setenv("PURSUIT_SEED", "42")
    code, out, _ = run_cli(capsys, *RECOVER_ARGS)
    assert code == 0
    assert json.loads(out)["config"]["master_seed"] == 3


def test_seed_defaults_to_zero(monkeypatch, capsys):
    monkeypatch.delenv("PURSUIT_SEED", raising=False)
    code, out, _ = run_cli(capsys, "recover", "--m", "64", "--N", "128", "--s", "4")
    assert code == 0
    assert json.loads(out)["config"]["master_seed"] == 0


def test_garbage_environment_seed_is_fatal(monkeypatch, capsys):
    monkeypatch.setenv("PURSUIT_SEED", "many")
    code, _, err = run_cli(capsys, "recover", "--m", "64", "--N", "128", "--s", "4")
    assert code == 2
    assert "PURSUIT_SEED" in err


# ----------------------------------------------------------------- bench


BENCH_ARGS = [
    "bench", "--m", "64", "--N", "128", "--s", "4", "--trials", "5", "--seed", "3",
]


def test_bench_csv_to_stdout(capsys):
    code, out, err = run_cli(capsys, *BENCH_ARGS)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "# format_version=2"
    assert lines[1].startswith("# config=")
    assert lines[2].startswith("trial_index,")
    assert len(lines) == 3 + 5  # comments + header + one row per trial


def test_bench_json_format(capsys):
    code, out, _ = run_cli(capsys, *BENCH_ARGS, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["format_version"] == 2
    assert payload["summary"]["trials"] == 5
    assert len(payload["records"]) == 5


def test_bench_output_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "batch.csv"
    code, _, _ = run_cli(capsys, *BENCH_ARGS, "--out", str(out_path))
    assert code == 0
    _, stdout_text, _ = run_cli(capsys, *BENCH_ARGS)
    assert out_path.read_text() == stdout_text


def test_bench_reruns_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(capsys, *BENCH_ARGS, "--out", str(a))[0] == 0
    assert run_cli(capsys, *BENCH_ARGS, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_threads_do_not_change_bytes(tmp_path, capsys):
    a = tmp_path / "serial.csv"
    b = tmp_path / "threaded.csv"
    assert run_cli(capsys, *BENCH_ARGS, "--out", str(a))[0] == 0
    assert run_cli(capsys, *BENCH_ARGS, "--threads", "4", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_requires_trials(capsys):
    code, _, err = run_cli(capsys, "bench", "--m", "64", "--N", "128", "--s", "4")
    assert code == 2
    assert "trials" in err


def test_scaling_requires_compressible_signal(capsys):
    code, _, err = run_cli(
        capsys, "bench", "--m", "64", "--N", "128", "--trials", "2",
        "--scaling-s", "4,8",
    )
    assert code == 2
    assert "compressible" in err


def test_scaling_requires_envelope_parameters(capsys):
    code, _, err = run_cli(
        capsys, "bench", "--m", "64", "--N", "128", "--trials", "2",
        "--scaling-s", "4,8", "--signal-kind", "compressible",
    )
    assert code == 2
    assert "p, R" in err


def test_scaling_study_json(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--alg", "cosamp", "--m", "64", "--N", "128",
        "--trials", "2", "--scaling-s", "4,8", "--signal-kind", "compressible",
        "--p", "0.5", "--R", "1.0", "--seed", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["mode"] == "scaling"
    assert [row["s"] for row in payload["rows"]] == [4, 8]
    assert payload["slope"] is not None


SCALING_ARGS = [
    "bench", "--m", "64", "--N", "128", "--trials", "2", "--scaling-s", "4,8",
    "--signal-kind", "compressible", "--p", "0.5", "--R", "1.0", "--seed", "5",
]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--s", "4"),
        ("--signal-s", "4"),
        ("--noise-mode", "fixed"),
        ("--noise-level", "0.1"),
        ("--eta", "0.1"),
        ("--max-iter", "5"),
    ],
)
def test_scaling_rejects_keys_it_does_not_use(capsys, flag, value):
    code, out, err = run_cli(capsys, *SCALING_ARGS, flag, value)
    assert code == 2
    assert out == ""
    assert f"scaling study does not use {flag[2:].replace('-', '_')}" in err


def test_scaling_accepts_unused_keys_at_their_defaults(tmp_path, capsys):
    config = tmp_path / "shared.json"
    config.write_text(json.dumps({
        "s": None, "signal_s": None, "noise_mode": "none", "noise_level": 0.0,
        "eta": 0.0, "max_iter": 100,
    }))
    code, out, _ = run_cli(capsys, *SCALING_ARGS, "--config", str(config))
    assert code == 0
    assert out == run_cli(capsys, *SCALING_ARGS)[1]


def _header(csv_text: str) -> dict:
    line = next(l for l in csv_text.splitlines() if l.startswith("# config="))
    header = json.loads(line[len("# config="):])
    del header["mode"]
    return header


def test_scaling_header_regenerates_its_run(capsys):
    code, out, _ = run_cli(capsys, *SCALING_ARGS, "--alg", "cosamp", "--eta-rel", "0.5")
    assert code == 0
    header = _header(out)
    buffer = io.StringIO()
    bench.write_scaling_csv(buffer, {"mode": "scaling", **header}, bench.compressible_scaling(**header))
    assert buffer.getvalue() == out


@pytest.mark.parametrize(
    "argv, config, fragment",
    [
        (["--scaling-s", "8,4"], None, "s values must be strictly increasing"),
        (["--scaling-s", "4,4"], None, "s values must be strictly increasing"),
        ([], {"scaling_s": []}, "scaling needs at least one s value"),
    ],
    ids=["descending", "repeated", "empty"],
)
def test_scaling_refuses_an_empty_or_unsorted_s_list_before_any_work(
    refuse_work, tmp_path, capsys, argv, config, fragment
):
    base = [arg for arg in SCALING_ARGS if arg not in ("--scaling-s", "4,8")]
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, out, err = run_cli(capsys, *base, *argv)
    assert code == 2
    assert out == ""
    assert fragment in err


@pytest.mark.parametrize("command", ["recover", "bench"])
def test_a_switch_set_in_a_config_file_gives_the_bytes_of_its_flag(tmp_path, capsys, command):
    argv = [command, "--m", "64", "--N", "128", "--s", "4", "--signal-kind", "compressible",
            "--p", "0.5", "--R", "1.0", "--seed", "5", *(["--trials", "2"] if command == "bench" else [])]
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"signal_truncate": True}))
    code, out, _ = run_cli(capsys, *argv, "--config", str(path))
    assert code == 0
    flagged = run_cli(capsys, *argv, "--signal-truncate")
    assert flagged == (0, out, "")
    assert out != run_cli(capsys, *argv)[1]


# ----------------------------------------------------------------- sweep


def test_sweep_csv_grid(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--N", "32", "--m-values", "8,32", "--s-values", "2",
        "--trials", "2", "--seed", "7",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "m,s,trials,successes,success_rate"
    assert len(lines) == 3 + 2


README_SWEEP = [
    "sweep", "--alg", "omp", "--N", "256", "--m-values", "16,32,64,128,256",
    "--s-values", "4,8", "--trials", "40", "--seed", "7",
]
# The README sweep's CSV at format version 2 (ziggurat variates, mixed master
# seeds); every later runner must keep every byte.
README_SWEEP_SHA256 = "161d6228cd9d1130ec5a880ccb755ed1ca73759a1c8d3c53a12a11481d50477c"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_readme_sweep_bytes_are_pinned(capsys, threads):
    code, out, _ = run_cli(capsys, *README_SWEEP, "--threads", threads)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == README_SWEEP_SHA256


# The README grid swept with ROMP: its successes hold across changes to how
# the Gram factor gets its columns, so these bytes must too.
README_ROMP_SWEEP_SHA256 = "4bafbe3cdc0c77ddc9f4a5369da27e7c1471dbacd945b0fac4a8627b0353990f"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_readme_romp_sweep_bytes_are_pinned(capsys, threads):
    argv = [("romp" if arg == "omp" else arg) for arg in README_SWEEP]
    code, out, _ = run_cli(capsys, *argv, "--threads", threads)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == README_ROMP_SWEEP_SHA256


def test_sweep_json_marks_invalid_cells(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--alg", "cosamp", "--N", "32", "--m-values", "8,32",
        "--s-values", "4", "--trials", "2", "--seed", "7", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    cells = {cell["m"]: cell for cell in payload["cells"]}
    assert cells[8]["success_rate"] is None
    assert cells[32]["success_rate"] is not None


def test_sweep_header_regenerates_its_run(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--alg", "cosamp", "--N", "128", "--m-values", "48,96",
        "--s-values", "4,8", "--trials", "4", "--seed", "3", "--eta", "1000",
    )
    assert code == 0
    header = _header(out)
    buffer = io.StringIO()
    bench.write_sweep_csv(buffer, {"mode": "sweep", **header}, bench.phase_sweep(**header))
    assert buffer.getvalue() == out


def test_sweep_validates_when_every_cell_is_na(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--alg", "cosamp", "--N", "4", "--m-values", "8", "--s-values", "2",
        "--noise-mode", "fixed", "--noise-level", "-1", "--trials", "2",
    )
    assert code == 2
    assert out == ""
    assert "noise_level must be non-negative" in err


def test_sweep_checks_threads_when_every_cell_is_na(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--N", "4", "--m-values", "8", "--s-values", "2",
        "--trials", "2", "--threads", "0",
    )
    assert code == 2
    assert out == ""
    assert "threads must be an integer at least 1, got 0" in err


def test_sweep_missing_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "--N", "32", "--trials", "2")
    assert code == 2
    assert "m_values" in err and "s_values" in err


def test_sweep_rejects_garbage_list(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--N", "32", "--m-values", "8;16", "--s-values", "2",
        "--trials", "2",
    )
    assert code == 2
    assert "integer list" in err


@pytest.fixture
def refuse_work(monkeypatch):
    """Fail the test if a trial runs or a dense operator is built."""

    def no_work(*args):
        raise AssertionError("a trial ran or an operator was built")

    monkeypatch.setattr(bench, "run_trial", no_work)
    monkeypatch.setattr(sensing, "_DenseEnsembleOperator", no_work)


@pytest.mark.parametrize(
    "m_values, s_values",
    [("-5,0,16", "-1,0,2"), ("0,16", "2"), ("16", "0,2"), ("16,128", "2,-1")],
)
def test_sweep_rejects_counts_below_one_before_any_work(refuse_work, capsys, m_values, s_values):
    # NA marks a cell that breaks an algorithm's dimensional rule; a count
    # below 1 is malformed input, even beside an m > N cell.
    code, out, err = run_cli(
        capsys, "sweep", "--N", "64", f"--m-values={m_values}", f"--s-values={s_values}",
        "--trials", "2",
    )
    assert code == 2
    assert out == ""
    assert "every m and s at least 1" in err


@pytest.mark.parametrize("N", ["0", "-5"])
def test_sweep_rejects_n_below_one_before_any_work(refuse_work, capsys, N):
    code, out, err = run_cli(
        capsys, "sweep", f"--N={N}", "--m-values", "16", "--s-values", "2", "--trials", "2",
    )
    assert code == 2
    assert out == ""
    assert f"got N={N}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--N", "64", "--m-values", "16,,32", "--s-values", "2", "--trials", "2"],
        ["sweep", "--N", "64", "--m-values", "16", "--s-values", "4,", "--trials", "2"],
        ["sweep", "--N", "64", "--m-values", ",16", "--s-values", "2", "--trials", "2"],
        [*SCALING_ARGS, "--scaling-s", "4,,8"],  # the last --scaling-s wins
        [*SCALING_ARGS, "--scaling-s", "4,8,"],
    ],
    ids=["m-inner", "s-trailing", "m-leading", "scaling-inner", "scaling-trailing"],
)
def test_integer_list_with_an_empty_part_is_refused_before_any_work(refuse_work, capsys, argv):
    # An empty part was dropped: 16,,32 ran 16,32 and 4, ran 4.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "integer list" in err


# ------------------------------------------------------------------- ric


def test_ric_identity_probe(capsys):
    code, out, _ = run_cli(
        capsys, "ric", "--ensemble", "partial_dct", "--m", "32", "--N", "32",
        "--n", "4", "--trials", "50", "--seed", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    assert payload["trials"] == 50
    assert payload["delta_lower"] <= 1e-10


def test_ric_rejects_oversparse_probe(capsys):
    code, _, err = run_cli(
        capsys, "ric", "--m", "16", "--N", "64", "--n", "20", "--trials", "5",
    )
    assert code == 2
    assert "exceeds m" in err


@pytest.mark.parametrize(
    "probe, fragment",
    [(["--n", "0", "--trials", "2"], "at least 1"),
     (["--n", "17", "--trials", "2"], "exceeds m"),
     (["--n", "2", "--trials", "0"], "trials must be an integer at least 1, got 0")],
    ids=["n-zero", "n-over-m", "trials-zero"],
)
def test_ric_checks_the_probe_before_building_the_operator(monkeypatch, capsys, probe, fragment):
    def no_work(*args):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(cli, "make_operator", no_work)
    code, out, err = run_cli(capsys, "ric", "--m", "16", "--N", "64", *probe)
    assert code == 2
    assert out == ""
    assert fragment in err


# --------------------------------------------------- the deleted ls_method

OMP_BENCH_ARGS = ["bench", "--alg", "omp", "--m", "64", "--N", "128", "--s", "4", "--trials", "2"]
OMP_SWEEP_ARGS = ["sweep", "--alg", "omp", "--N", "64", "--m-values", "32", "--s-values", "4", "--trials", "2"]


# No command has an ls_method parameter: each pursuit chooses its own refit.
@pytest.mark.parametrize(
    "argv, config, fragment",
    [
        (RECOVER_ARGS + ["--ls-method", "richardson"], None, "unrecognized arguments"),
        (RECOVER_ARGS, {"ls_method": "richardson"}, "unknown config keys: ls_method"),
        (OMP_BENCH_ARGS + ["--ls-method", "richardson"], None, "unrecognized arguments"),
        (OMP_BENCH_ARGS, {"ls_method": "richardson"}, "unknown config keys: ls_method"),
        (OMP_SWEEP_ARGS + ["--ls-method", "richardson"], None, "unrecognized arguments"),
        (OMP_SWEEP_ARGS, {"ls_method": "richardson"}, "unknown config keys: ls_method"),
    ],
)
def test_omp_rejects_ls_method_before_any_work(tmp_path, monkeypatch, capsys, argv, config, fragment):
    def no_trials(cfg, index):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(bench, "run_trial", no_trials)
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert fragment in err


@pytest.mark.parametrize("algorithm", ["romp", "cosamp"])
def test_ls_method_config_key_exits_2_before_any_work(tmp_path, monkeypatch, capsys, algorithm):
    # ls_method once steered these two; a config file that names it, even at
    # its old default, is refused.
    def no_trials(cfg, index):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(bench, "run_trial", no_trials)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"algorithm": algorithm, "ls_method": "cg"}))
    argv = ["bench", "--m", "64", "--N", "128", "--s", "4", "--trials", "2", "--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unknown config keys: ls_method" in err


# Gaussian and Bernoulli at m * N = 1e11 entries (745 GiB), far over the cap.
BIG = ["--m", "100000", "--N", "1000000"]
# A partial-DCT operator on length-10**12 vectors (7.3 TiB each).
HUGE_DCT = ["--m", "16", "--N", "1000000000000"]


@pytest.mark.parametrize(
    "argv",
    [
        ["recover", "--s", "1", *BIG],
        ["recover", "--ensemble", "bernoulli", "--s", "1", *BIG],
        ["bench", "--alg", "romp", "--ensemble", "bernoulli", "--s", "1", "--trials", "2", *BIG],
        ["bench", "--alg", "cosamp", "--signal-kind", "compressible", "--p", "0.5", "--R", "1",
         "--scaling-s", "1,2", "--trials", "2", *BIG],
        # The largest m decides, though the m = 16 cell alone would fit.
        ["sweep", "--N", "1000000", "--m-values", "16,100000", "--s-values", "1", "--trials", "2"],
        ["ric", "--n", "1", "--trials", "2", *BIG],
        # A partial-DCT operator stores no entries, but every trial allocates
        # length-N vectors.
        ["recover", "--ensemble", "partial_dct", "--s", "1", *HUGE_DCT],
        ["sweep", "--ensemble", "partial_dct", "--N", "1000000000000", "--m-values", "16",
         "--s-values", "1", "--trials", "2"],
        ["ric", "--ensemble", "partial_dct", "--n", "1", "--trials", "2", *HUGE_DCT],
    ],
    ids=["recover", "recover-bernoulli", "bench", "scaling", "sweep", "ric",
         "recover-dct", "sweep-dct", "ric-dct"],
)
def test_dense_operator_over_the_size_cap_exits_2_before_any_work(monkeypatch, capsys, argv):
    def no_work(*args):
        raise AssertionError("a trial ran or an operator was built")

    monkeypatch.setattr(bench, "run_trial", no_work)
    monkeypatch.setattr(sensing, "_DenseEnsembleOperator", no_work)
    monkeypatch.setattr(sensing, "_PartialDctOperator", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "sensing.MAX_DENSE_ENTRIES" in err


def test_sweep_size_cap_skips_cells_that_build_no_operator(capsys):
    # m > N cells are NA and build nothing, so an m of 10**9 is no size problem.
    code, out, _ = run_cli(
        capsys, "sweep", "--N", "64", "--m-values", "32,1000000000", "--s-values", "4", "--trials", "2"
    )
    assert code == 0
    assert out.splitlines()[-1] == "1000000000,4,2,NA,NA"


def test_sweep_size_cap_skips_an_over_cap_m_whose_cells_are_all_na(capsys):
    # Only live cells are size-checked: with s > m every cell is NA, so the
    # over-cap m = 100000 builds nothing and reads NA.
    code, out, _ = run_cli(
        capsys, "sweep", "--N", "1000000", "--m-values", "16,100000", "--s-values", "200000", "--trials", "2"
    )
    assert code == 0
    assert out.splitlines()[-1] == "100000,200000,2,NA,NA"


# ---------------------------------------------------------------- --out


@pytest.mark.parametrize(
    "argv",
    [RECOVER_ARGS, BENCH_ARGS, OMP_SWEEP_ARGS, ["ric", "--m", "16", "--N", "32", "--n", "2", "--trials", "2"]],
    ids=["recover", "bench", "sweep", "ric"],
)
@pytest.mark.parametrize("where", ["missing-directory", "a-directory", "empty"])
def test_unwritable_out_is_refused_before_any_work(refuse_work, tmp_path, capsys, argv, where):
    # Into a missing directory or an empty path, the run once finished every
    # trial and then ended in a FileNotFoundError traceback with exit 1.
    out_path = {"missing-directory": tmp_path / "missing" / "x.csv", "a-directory": tmp_path, "empty": ""}[where]
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write --out {str(out_path)!r}")
    assert not (tmp_path / "missing").exists()


def test_failed_run_leaves_an_existing_out_file_as_it_was(monkeypatch, tmp_path, capsys):
    out_path = tmp_path / "kept.csv"
    out_path.write_text("earlier results\n")

    def explode(cfg, index):
        raise SolverFailure("diverged at iteration 7")

    assert run_cli(capsys, *BENCH_ARGS, "--threads", "0", "--out", str(out_path))[0] == 2
    monkeypatch.setattr(bench, "run_trial", explode)
    assert run_cli(capsys, *BENCH_ARGS, "--out", str(out_path))[0] == 3
    assert out_path.read_text() == "earlier results\n"


# ------------------------------------------------------------ exit wiring


def test_solver_failure_exit_code(monkeypatch, capsys):
    def explode(cfg, index):
        raise SolverFailure("diverged at iteration 7")

    monkeypatch.setattr("sparsekit.bench.run_trial", explode)
    code, _, err = run_cli(capsys, *RECOVER_ARGS)
    assert code == 3
    assert "solver failure: diverged at iteration 7" in err


@pytest.mark.parametrize("argv, expected", [(["recover", "--m", "x"], 2), (["recover", "--help"], 0)])
def test_main_returns_argparse_exit_code(capsys, argv, expected):
    assert run_cli(capsys, *argv)[0] == expected


def test_module_entry_point_matches_main(capsys):
    src = Path(sparsekit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "sparsekit.cli", *RECOVER_ARGS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code, out, _ = run_cli(capsys, *RECOVER_ARGS)
    assert done.returncode == code == 0
    assert done.stderr == ""
    assert done.stdout == out != ""


# ------------------------------------------------------- input boundary


@pytest.mark.parametrize(
    "argv, name",
    [
        (["recover", "--alg", "cosamp", "--eta", "nan"], "eta"),
        (["recover", "--alg", "cosamp", "--eta-rel", "inf"], "eta_rel"),
        (["recover", "--noise-mode", "fixed", "--noise-level", "inf"], "noise_level"),
        (["recover", "--signal-kind", "compressible", "--p", "nan", "--R", "1"], "p"),
        (["recover", "--signal-kind", "compressible", "--p", "0.5", "--R", "inf"], "R"),
        (["bench", "--trials", "2", "--noise-mode", "sigma", "--noise-level", "nan"], "noise_level"),
    ],
)
def test_non_finite_parameters_exit_2(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv, "--m", "48", "--N", "96", "--s", "4")
    assert code == 2
    assert out == ""
    assert f"error: {name} must be finite" in err


@pytest.mark.parametrize(
    "argv, config, fragment",
    [
        (["recover"], {"m": "abc", "N": 128, "s": 4}, "config key m"),
        (["recover"], {"m": 64, "N": 128, "s": 4, "eta": [0.1]}, "config key eta"),
        (["sweep"], {"N": 32, "m_values": "8", "s_values": "2", "trials": "x"}, "config key trials"),
        (["sweep"], {"N": 32, "m_values": [8, "x"], "s_values": "2", "trials": 2}, "integer list"),
        (["ric"], {"m": 16, "N": 32, "n": "two", "trials": 5}, "config key n"),
        (
            ["recover"],
            {"m": 64, "N": 128, "s": 4, "signal_kind": "compressible", "p": 0.5, "R": 1.0,
             "signal_truncate": "false"},
            "config key signal_truncate",
        ),
        (["recover"], {"m": 64.7, "N": 128, "s": 4}, "config key m"),
        (["recover"], {"m": 64, "N": 128, "s": True}, "config key s"),
        (["recover"], {"m": 64, "N": 128, "s": 4, "eta": False}, "config key eta"),
        (["sweep"], {"N": 32, "m_values": [8, 16.5], "s_values": "2", "trials": 2}, "integer list"),
        (["sweep"], {"N": 32, "m_values": [8, True], "s_values": "2", "trials": 2}, "integer list"),
    ],
)
def test_malformed_config_values_exit_2(tmp_path, capsys, argv, config, fragment):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, *argv, "--config", str(path))
    assert code == 2
    assert out == ""
    assert fragment in err


# ---------------------------------------------------------- parser table

_CHOICES = {
    "algorithm": ("omp", "romp", "cosamp"),
    "ensemble": ("gaussian", "bernoulli", "partial_dct"),
    "signal_kind": ("sparse", "compressible"),
    "noise_mode": ("none", "fixed", "fixed_rel", "sigma"),
}

# dest -> (option strings, type, choices, default); ``bool`` marks a switch.
_RECOVER_OPTIONS = {
    "algorithm": (("--alg", "--algorithm"), None, _CHOICES["algorithm"], None),
    "ensemble": (("--ensemble",), None, _CHOICES["ensemble"], None),
    "m": (("--m",), int, None, None),
    "N": (("--N",), int, None, None),
    "s": (("--s",), int, None, None),
    "seed": (("--seed",), int, None, None),
    "signal_kind": (("--signal-kind",), None, _CHOICES["signal_kind"], None),
    "signal_s": (("--signal-s",), int, None, None),
    "p": (("--p",), float, None, None),
    "R": (("--R",), float, None, None),
    "signal_truncate": (("--signal-truncate",), bool, None, None),
    "noise_mode": (("--noise-mode",), None, _CHOICES["noise_mode"], None),
    "noise_level": (("--noise-level",), float, None, None),
    "eta": (("--eta",), float, None, None),
    "eta_rel": (("--eta-rel",), float, None, None),
    "max_iter": (("--max-iter",), int, None, None),
    "config": (("--config",), None, None, None),
    "out": (("--out",), None, None, None),
}
_BATCH_OPTIONS = {
    "threads": (("--threads",), int, None, 1),
    "format": (("--format",), None, ("csv", "json"), "csv"),
}
PARSER_TABLE = {
    "recover": _RECOVER_OPTIONS,
    "bench": {
        **_RECOVER_OPTIONS,
        **_BATCH_OPTIONS,
        "trials": (("--trials",), int, None, None),
        "scaling_s": (("--scaling-s",), None, None, None),
    },
    "sweep": {
        **{k: _RECOVER_OPTIONS[k] for k in (
            "algorithm", "ensemble", "N", "seed", "noise_mode", "noise_level",
            "eta", "eta_rel", "config", "out",
        )},
        **_BATCH_OPTIONS,
        "m_values": (("--m-values",), None, None, None),
        "s_values": (("--s-values",), None, None, None),
        "trials": (("--trials",), int, None, None),
    },
    "ric": {
        **{k: _RECOVER_OPTIONS[k] for k in ("ensemble", "m", "N", "seed", "config", "out")},
        "op_seed": (("--op-seed",), int, None, None),
        "n": (("--n",), int, None, None),
        "trials": (("--trials",), int, None, None),
    },
}


def test_parser_matches_option_table():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    assert sorted(commands.choices) == sorted(PARSER_TABLE)
    for name, subparser in commands.choices.items():
        found = {}
        for action in subparser._actions:
            if action.dest == "help":
                continue
            kind = bool if action.nargs == 0 else action.type
            choices = tuple(action.choices) if action.choices is not None else None
            found[action.dest] = (tuple(action.option_strings), kind, choices, action.default)
        assert found == PARSER_TABLE[name], name
