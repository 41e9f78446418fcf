"""Command-line front end: single recoveries, Monte Carlo batches,
phase-transition sweeps, and restricted-isometry probes.

Every subcommand validates its full parameter set before doing any work,
and identical invocations produce byte-identical output files.  Exit
codes: 0 success, 2 parameter/validation error, 3 numerical solver
failure.  The master seed resolves in order: ``--seed`` flag, config
file, the ``PURSUIT_SEED`` environment variable, then 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
from typing import List, Optional, Sequence

from . import bench
from .bench import TrialConfig
from .errors import SolverFailure, UsageError
from .sensing import Ensemble, check_ric_probe, empirical_ric, make_operator


@dataclasses.dataclass(frozen=True)
class _Param:
    """A parameter settable by flag and by config key.

    ``type`` converts flag text and config values alike; ``_switch``
    makes the flag a switch.  Parameters without one (choices, integer
    lists) are checked where they are used.
    """

    type: Optional[type] = None
    choices: Optional[Sequence[str]] = None
    help: Optional[str] = None
    alias: Optional[str] = None


def _switch(value) -> bool:
    """A switch's config value must be a JSON boolean."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


_PARAMS = {
    "algorithm": _Param(choices=bench.ALGORITHMS, alias="--alg"),
    "ensemble": _Param(choices=tuple(e.value for e in Ensemble)),
    "m": _Param(int),
    "N": _Param(int),
    "s": _Param(int, help="target sparsity for recovery"),
    "seed": _Param(int, help="master seed (else PURSUIT_SEED, else 0)"),
    "signal_kind": _Param(choices=bench.SIGNAL_KINDS),
    "signal_s": _Param(int, help="signal sparsity when it differs from --s"),
    "p": _Param(float, help="compressible decay exponent"),
    "R": _Param(float, help="compressible magnitude"),
    "signal_truncate": _Param(_switch, help="zero the compressible tail past s"),
    "noise_mode": _Param(choices=bench.NOISE_MODES),
    "noise_level": _Param(float),
    "eta": _Param(float, help="residual-norm halting target (cosamp)"),
    "eta_rel": _Param(float, help="eta as a fraction of the measurement norm"),
    "max_iter": _Param(int),
    "trials": _Param(int),
    "scaling_s": _Param(help="comma-separated s list: compressible scaling study"),
    "m_values": _Param(help="comma-separated measurement counts"),
    "s_values": _Param(help="comma-separated sparsities"),
    "op_seed": _Param(int, help="operator seed (default 0)"),
    "n": _Param(int, help="sparsity level probed"),
}

# Used when neither a flag nor the config file sets a parameter.
_DEFAULTS = {
    **{
        f.name: f.default
        for f in dataclasses.fields(TrialConfig)
        if f.default is not dataclasses.MISSING
    },
    "algorithm": "omp",
    "ensemble": "gaussian",
    "op_seed": 0,
}

# The TrialConfig fields, in order; the batch size is bench-only.
_RECOVER_KEYS = tuple(
    "seed" if f.name == "master_seed" else f.name
    for f in dataclasses.fields(TrialConfig)
    if f.name != "trials"
)

# TrialConfig fields a scaling study fixes itself or does not read.
_SCALING_UNUSED = ("s", "signal_s", "noise_mode", "noise_level", "eta", "max_iter")


def _load_config(path: Optional[str], keys: Sequence[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in data.items():
        convert = _PARAMS[key].type
        if convert is not None and value is not None:
            try:
                data[key] = _config_value(convert, value)
            except (TypeError, ValueError):
                raise UsageError(f"config key {key}: invalid value {value!r}") from None
    return data


def _config_value(convert, value):
    """Convert a config value; a JSON number must be of the parameter's kind."""
    if convert in (int, float) and isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    if convert is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return convert(value)


def _params(args: argparse.Namespace, required: Sequence[str]) -> dict:
    """Flags beat config-file keys beat defaults; an unset value is None."""
    params = {key: _DEFAULTS.get(key) for key in args.keys}
    for source in (_load_config(args.config, args.keys), vars(args)):
        params.update({k: v for k, v in source.items() if k in params and v is not None})
    _require(params, required)
    params["seed"] = _resolve_seed(params["seed"])
    return params


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("PURSUIT_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise UsageError(f"PURSUIT_SEED is not an integer: {env!r}") from None
    return 0


def _int_list(text) -> List[int]:
    try:
        if isinstance(text, list):
            return [_config_value(int, v) for v in text]
        return [int(part) for part in str(text).split(",")]
    except (TypeError, ValueError):
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None


def _check_out(out: Optional[str]) -> None:
    """Refuse an ``--out`` that cannot be written, before any work; creates
    and truncates nothing, so a failed run leaves an existing file as it was."""
    if out is None:
        return
    if not out:
        raise UsageError("cannot write --out '': an empty path")
    folder = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(folder):
        raise UsageError(f"cannot write --out {out!r}: no directory {folder!r}")
    if os.path.isdir(out) or not os.access(out if os.path.exists(out) else folder, os.W_OK):
        raise UsageError(f"cannot write --out {out!r}: not a writable file")


def _require(params: dict, names: Sequence[str]) -> None:
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise UsageError(f"missing required parameters: {', '.join(missing)}")


def _trial_config(params: dict, *, trials: int) -> TrialConfig:
    fields = {f.name: params.get(f.name) for f in dataclasses.fields(TrialConfig)}
    return TrialConfig(**{**fields, "trials": trials, "master_seed": params["seed"]}).validate()


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _emit_batch(args: argparse.Namespace, write_csv, report, *data) -> None:
    """Emit a batch result as CSV or as a JSON report, per ``--format``."""
    if args.format == "csv":
        buffer = io.StringIO()
        write_csv(buffer, *data)
        _emit(buffer.getvalue(), args.out)
    else:
        _emit(bench.render_json(report(*data)), args.out)


def cmd_recover(args: argparse.Namespace) -> int:
    params = _params(args, ["m", "N", "s"])
    cfg = _trial_config(params, trials=1)
    record = bench.run_trial(cfg, 0)
    record.result = None
    _emit(bench.render_json(bench.report(cfg.to_dict(), record=record.to_row())), args.out)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    params = _params(args, ["m", "N", "trials"])
    if params["scaling_s"] is not None:
        if params["signal_kind"] != "compressible":
            raise UsageError("--scaling-s requires --signal-kind compressible")
        _require(params, ["p", "R"])
        unused = [k for k in _SCALING_UNUSED if params[k] != _DEFAULTS.get(k)]
        if unused:
            raise UsageError(f"a scaling study does not use {', '.join(unused)}")
        study = {
            "algorithm": params["algorithm"], "ensemble": params["ensemble"],
            "m": params["m"], "N": params["N"], "p": params["p"], "R": params["R"],
            "s_values": _int_list(params["scaling_s"]), "trials": params["trials"],
            "master_seed": params["seed"], "truncate": params["signal_truncate"],
            "eta_rel": bench.SCALING_ETA_REL if params["eta_rel"] is None else params["eta_rel"],
        }
        scaling = bench.compressible_scaling(**study, threads=args.threads)
        echo = {"mode": "scaling", **study}
        _emit_batch(args, bench.write_scaling_csv, bench.scaling_report, echo, scaling)
        return 0

    _require(params, ["s"])
    cfg = _trial_config(params, trials=params["trials"])
    records = bench.run_trials(cfg, threads=args.threads)
    _emit_batch(args, bench.write_trials_csv, bench.trials_report, cfg, records)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    params = _params(args, ["N", "m_values", "s_values", "trials"])
    grid = {
        "algorithm": params["algorithm"], "ensemble": params["ensemble"], "N": params["N"],
        "m_values": _int_list(params["m_values"]), "s_values": _int_list(params["s_values"]),
        "trials_per_cell": params["trials"], "master_seed": params["seed"],
        "noise_mode": params["noise_mode"], "noise_level": params["noise_level"],
        "eta": params["eta"], "eta_rel": params["eta_rel"],
    }
    cells = bench.phase_sweep(**grid, threads=args.threads)
    echo = {"mode": "sweep", **grid}
    _emit_batch(args, bench.write_sweep_csv, bench.sweep_report, echo, cells)
    return 0


def cmd_ric(args: argparse.Namespace) -> int:
    params = _params(args, ["m", "N", "n", "trials"])
    check_ric_probe(params["m"], params["n"], params["trials"])
    op = make_operator(params["ensemble"], params["m"], params["N"], params["op_seed"])
    estimate = empirical_ric(op, params["n"], params["trials"], params["seed"])
    report = bench.report(
        {key: params[key] for key in args.keys},
        n=estimate.n, delta_lower=estimate.delta_lower, trials=estimate.trials, seed=estimate.seed,
    )
    _emit(bench.render_json(report), args.out)
    return 0


# Subcommand -> (handler, help, the parameters it takes as flags and config
# keys).  Output destination, format and threading stay flag-only, so a
# shared config file never hijacks where results land.
_COMMANDS = {
    "recover": (cmd_recover, "run one recovery on a synthetic instance", _RECOVER_KEYS),
    "bench": (
        cmd_bench,
        "run a Monte Carlo batch (or scaling study)",
        _RECOVER_KEYS + ("trials", "scaling_s"),
    ),
    "sweep": (
        cmd_sweep,
        "success-rate sweep over an (m, s) grid",
        ("algorithm", "ensemble", "N", "m_values", "s_values", "trials", "seed",
         "noise_mode", "noise_level", "eta", "eta_rel"),
    ),
    "ric": (
        cmd_ric,
        "empirical restricted-isometry probe",
        ("ensemble", "m", "N", "op_seed", "n", "trials", "seed"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsekit",
        description="Greedy sparse recovery over synthetic sensing ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, keys) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for key in keys:
            spec = _PARAMS[key]
            flags = ([spec.alias] if spec.alias else []) + ["--" + key.replace("_", "-")]
            if spec.type is _switch:
                command.add_argument(*flags, dest=key, action="store_true", default=None, help=spec.help)
            else:
                command.add_argument(
                    *flags, dest=key, type=spec.type, choices=spec.choices, default=None, help=spec.help
                )
        if name in ("bench", "sweep"):
            command.add_argument("--threads", type=int, default=1)
            command.add_argument("--format", choices=["csv", "json"], default="csv")
        command.add_argument("--config", default=None, help="JSON config file")
        command.add_argument("--out", default=None, help="output file (default: stdout)")
        command.set_defaults(func=func, keys=keys)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return exc.code
    try:
        _check_out(args.out)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
