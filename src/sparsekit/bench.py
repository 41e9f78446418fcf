"""Monte Carlo benchmark harness: seeded trial execution, phase-transition
sweeps, compressible-decay scaling, and deterministic CSV/JSON emission.

Reproducibility contract: every trial derives its own seed from the
batch's master seed and trial index, then splits that into independent
streams for the operator, the signal, and the noise.  Records are always
ordered by trial index, so running a batch with any number of threads
emits identical bytes.  Wall-clock timings are kept on the in-memory
records but never written to output files for the same reason.

One runner, ``_run_trial_major``, executes batches, sweeps and scaling
studies; a batch is its one-config case.  Trial ``i``'s operator seed
depends on neither m nor s, so a sweep draws the largest m once per trial
index and builds every cell's dense operator from a prefix of that draw.

``threads`` is an upper bound, not the number of cores a run uses.  The
runner opens a pool of ``min(threads, usable cores)`` workers only when
one apply of its largest operator touches at least ``POOL_MIN_APPLY_WORK``
elements (``m * N`` dense, ``N * ceil(log2 N)`` for a partial DCT); any
other run executes its trial indices on the calling thread.  Threads
overlap only work done outside the interpreter lock, and in a smaller
trial the pursuit's Python work dominates.  The README's threading
paragraph has the measured speeds, size by size.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import os
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import List, Optional, Sequence

import numpy as np

from .errors import SolverFailure, UsageError
from .linalg import check_integer, l2_norm
from .pursuit import DEFAULT_COSAMP_MAX_ITER, RecoveryResult, check_halting, cosamp, omp, romp, sparsity_problem
from .rng import derive_seed
from .sensing import Ensemble, _shared_draw, as_ensemble, check_dense_size, make_operator, shape_problem
from .signals import Signal, check_compressible, check_scale, check_sparse, gen_compressible, gen_sparse
from .signals import head, measure, tail_l1

FORMAT_VERSION = 2

# Exact recovery means relative l2 error at or below this; the margin
# separates least-squares round-off from genuine support errors.
SUCCESS_RELATIVE_TOL = 1e-6

ALGORITHMS = ("omp", "romp", "cosamp")
SIGNAL_KINDS = ("sparse", "compressible")
# ``fixed_rel`` is ``signals.measure``'s ``fixed`` at a norm of
# ``noise_level * ||Phi x||``; ``run_trial`` resolves it.
NOISE_MODES = ("none", "fixed", "fixed_rel", "sigma")

# A compressible scaling study's default eta_rel, for the library call
# and the CLI alike.
SCALING_ETA_REL = 1e-8

# Stream tags hashed into the per-trial seed so the operator, signal,
# and noise draws are independent of each other.
_STREAM_OPERATOR = 1
_STREAM_SIGNAL = 2
_STREAM_NOISE = 3

# A run with threads > 1 opens its pool only when one apply of its largest
# operator touches at least this many elements (``_apply_work``).  Two
# threads ran slower than one on every dense size up to 3 * 2**16 entries
# and on partial DCTs up to N = 4096, and as fast or faster from 2**18 entries and at
# N = 16384 (N * 14 = 229,376); the README has the table.
POOL_MIN_APPLY_WORK = 200_000

SWEEP_CSV_COLUMNS = ("m", "s", "trials", "successes", "success_rate")

SCALING_CSV_COLUMNS = ("s", "trials", "median_l2_error")


@dataclass(frozen=True)
class TrialConfig:
    """Everything that determines one benchmark batch."""

    algorithm: str
    ensemble: str
    m: int
    N: int
    s: int
    trials: int
    master_seed: int
    signal_kind: str = "sparse"
    signal_s: Optional[int] = None  # sparse signals only; defaults to s
    p: Optional[float] = None
    R: Optional[float] = None
    signal_truncate: bool = False  # compressible only: zero the tail past s
    noise_mode: str = "none"
    noise_level: float = 0.0
    eta: float = 0.0
    eta_rel: Optional[float] = None  # eta as a fraction of ||u||; wins over eta
    max_iter: int = DEFAULT_COSAMP_MAX_ITER

    def validate(self) -> "TrialConfig":
        self._check_settings()
        problem = self._shape_problem()
        if problem is not None:
            raise UsageError(problem)
        check_dense_size(self.ensemble, self.m, self.N)
        return self

    def _check_settings(self) -> None:
        """Every check of ``validate`` except the (m, N, s) shape rule; each value
        the library takes is checked by the rule of the layer that takes it."""
        if self.algorithm not in ALGORITHMS:
            raise UsageError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        as_ensemble(self.ensemble)
        check_integer("trials", self.trials, 1)
        check_integer("master_seed", self.master_seed)
        if self.signal_kind not in SIGNAL_KINDS:
            raise UsageError(f"unknown signal kind {self.signal_kind!r}")
        # Like the CLI's switch: any other value would truncate by its truth
        # value and enter the CSV's config line as given.
        if not isinstance(self.signal_truncate, (bool, np.bool_)):
            raise UsageError(f"signal_truncate must be true or false, got {self.signal_truncate!r}")
        if self.signal_kind == "sparse":
            if self.p is not None or self.R is not None:
                raise UsageError("p and R apply only to compressible signals")
            if self.signal_truncate:
                raise UsageError("signal_truncate applies only to compressible signals")
            # An unset signal_s means s, which the shape rule bounds.
            if self.signal_s is not None:
                check_sparse(self.N, self.signal_s, "signal_s")
        else:
            if self.signal_s is not None:
                raise UsageError("signal_s applies only to sparse signals")
            if self.p is None or self.R is None:
                raise UsageError("compressible signals need p and R")
            check_compressible(self.N, self.p, self.R)
        if self.noise_mode not in NOISE_MODES:
            raise UsageError(f"unknown noise mode {self.noise_mode!r}")
        check_scale("noise_level", self.noise_level)
        if self.eta_rel is not None:
            check_scale("eta_rel", self.eta_rel)
        check_halting(self.eta, self.max_iter)

    def _shape_problem(self) -> Optional[str]:
        """The (m, N, s) rule this config breaks, or None: ``shape_problem``, then ``sparsity_problem``."""
        return shape_problem(self.m, self.N) or sparsity_problem(self.algorithm, self.m, self.s)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrialRecord:
    """Outcome of one trial, ready for CSV/JSON emission.

    ``wall_time`` and ``result`` stay in memory only: timings would break
    byte-reproducible outputs, and the full recovery trace is bulky.
    """

    trial_index: int
    l2_error: Optional[float]
    rel_error: Optional[float]
    support_exact: Optional[bool]
    success: bool
    tail_term: float
    noise_norm: float
    bound_ratio: Optional[float]
    residual_norm: Optional[float]
    iterations: Optional[int]
    matvecs: Optional[int]
    halted_by: str
    error: Optional[str] = None
    wall_time: float = 0.0
    result: Optional[RecoveryResult] = None

    def to_row(self) -> dict:
        return {name: getattr(self, name) for name in TRIAL_CSV_COLUMNS}


# Every TrialRecord field but the two kept in memory only, in field order.
TRIAL_CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.name not in ("wall_time", "result"))


def trial_seeds(master_seed: int, trial_index: int) -> dict:
    """Per-trial seeds for the operator, signal, and noise streams.

    Trial ``i``'s seed is ``derive_seed(master_seed, i)``, which mixes the
    master seed first, so different master seeds run different trials;
    each stream's seed folds its tag into the trial's.
    """
    trial_seed = derive_seed(master_seed, trial_index)
    return {
        "operator": derive_seed(trial_seed, _STREAM_OPERATOR),
        "signal": derive_seed(trial_seed, _STREAM_SIGNAL),
        "noise": derive_seed(trial_seed, _STREAM_NOISE),
    }


def _trial_signal(cfg: TrialConfig, seed: int) -> Signal:
    if cfg.signal_kind == "sparse":
        s_sig = cfg.s if cfg.signal_s is None else cfg.signal_s
        return gen_sparse(cfg.N, s_sig, seed)
    signal = gen_compressible(cfg.N, cfg.p, cfg.R, seed)
    if cfg.signal_truncate:
        signal = head(signal, cfg.s)
    return signal


def run_trial(cfg: TrialConfig, trial_index: int) -> TrialRecord:
    """Build the trial's operator/signal/noise, recover, and score."""
    seeds = trial_seeds(cfg.master_seed, trial_index)
    op = make_operator(cfg.ensemble, cfg.m, cfg.N, seeds["operator"])
    signal = _trial_signal(cfg, seeds["signal"])
    # As Python floats: a numpy float32 level or eta would keep products in float32.
    mode, level = cfg.noise_mode, float(cfg.noise_level)
    if mode == "fixed_rel":
        # One forward apply probes ||Phi x||; a zero level needs no probe.
        if level != 0.0:
            level = level * l2_norm(op.forward(signal.values))
        mode = "fixed"
    u, e = measure(op, signal, mode, level, seeds["noise"])

    eta = float(cfg.eta) if cfg.eta_rel is None else float(cfg.eta_rel) * l2_norm(u)

    started = time.perf_counter()
    error_message = None
    result: Optional[RecoveryResult] = None
    try:
        if cfg.algorithm == "omp":
            result = omp(op, u, cfg.s)
        elif cfg.algorithm == "romp":
            result = romp(op, u, cfg.s)
        else:
            result = cosamp(op, u, cfg.s, eta=eta, max_iter=cfg.max_iter)
    except SolverFailure as exc:
        error_message = str(exc)
    wall_time = time.perf_counter() - started

    x = signal.values
    x_norm = l2_norm(x)
    tail_s = cfg.s // 2 if cfg.algorithm == "cosamp" else cfg.s
    tail_term = tail_l1(signal, tail_s) / math.sqrt(cfg.s)
    noise_norm = l2_norm(e)

    l2_error = rel_error = support_exact = bound_ratio = None
    success = False
    if result is not None:
        l2_error = l2_norm(result.estimate - x)
        rel_error = l2_error / x_norm if x_norm > 0 else None
        success = l2_error <= SUCCESS_RELATIVE_TOL * x_norm
        if signal.true_support is not None:
            support_exact = np.array_equal(result.support, signal.true_support)
        denominator = tail_term + noise_norm
        bound_ratio = l2_error / denominator if denominator > 0 else None

    return TrialRecord(
        trial_index=trial_index,
        l2_error=l2_error,
        rel_error=rel_error,
        support_exact=support_exact,
        success=success,
        tail_term=tail_term,
        noise_norm=noise_norm,
        bound_ratio=bound_ratio,
        residual_norm=None if result is None else result.residual_norms[-1],
        iterations=None if result is None else result.iterations,
        matvecs=None if result is None else result.matvec_count,
        halted_by="solver_failure" if result is None else result.halted_by.value,
        error=error_message,
        wall_time=wall_time,
        result=result,
    )


def run_trials(cfg: TrialConfig, *, threads: int = 1) -> List[TrialRecord]:
    """Run the whole batch; records come back ordered by trial index.

    The one-config case of ``_run_trial_major``: each trial builds its own
    operator, so the matvec counter is never shared across threads, and the
    output is identical for any thread count.  Each record's ``result`` is
    dropped as soon as its trial returns; ``run_trial`` keeps it.
    """
    return _run_trial_major([cfg], threads)[0]


def _run_trial_major(configs: Sequence[TrialConfig], threads: int) -> List[List[TrialRecord]]:
    """Every config's batch as one record list per config, in trial order.

    Every config and the thread count are validated before the first
    trial.  The configs differ only in m and s, so trial ``i`` has one
    operator seed: with more than one config, each worker opens the private
    ``sensing._shared_draw`` block of the largest m around
    ``run_trial(cfg, i)`` of every config, and holds that unscaled draw plus
    the operator of the cell it is running.  This is the only place the
    block is opened, and only for configs validated here.  A single config
    opens no block, so each trial draws its operator alone.
    A pool of ``min(threads, _usable_cores())`` workers runs the trial
    indices if that is more than one and ``_apply_work`` of the largest m
    reaches ``POOL_MIN_APPLY_WORK``; otherwise they run on the calling
    thread, as at ``threads == 1``, so such a run uses one core whatever
    ``threads`` says (see the module docstring).  Each ``result`` is
    dropped as soon as its trial returns.
    """
    for cfg in configs:
        cfg.validate()
    check_integer("threads", threads, 1)
    if not configs:
        return []
    first = configs[0]
    kind = as_ensemble(first.ensemble)
    m_max = max(cfg.m for cfg in configs)

    def run(cfg: TrialConfig, i: int) -> TrialRecord:
        record = run_trial(cfg, i)
        record.result = None
        return record

    def trial_index(i: int) -> List[TrialRecord]:
        if len(configs) == 1:
            return [run(first, i)]
        seed = trial_seeds(first.master_seed, i)["operator"]
        with _shared_draw(kind, m_max, first.N, seed):
            return [run(cfg, i) for cfg in configs]

    indices = range(first.trials)
    workers = min(threads, _usable_cores())
    if workers == 1 or _apply_work(kind, m_max, first.N) < POOL_MIN_APPLY_WORK:
        by_index = [trial_index(i) for i in indices]
    else:
        # Imported here: a run that opens no pool never loads the module.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            by_index = list(pool.map(trial_index, indices))
    return [list(records) for records in zip(*by_index)]


def _usable_cores() -> int:
    """The cores this process may run on: its affinity set where the
    platform has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _apply_work(kind: Ensemble, m: int, N: int) -> int:
    """Elements one apply of an m x N operator touches: ``m * N`` for a dense
    ensemble, ``N * ceil(log2 N)`` for a partial DCT."""
    if kind is Ensemble.PARTIAL_DCT:
        return N * (N - 1).bit_length()
    return m * N


def summarize(records: Sequence[TrialRecord]) -> dict:
    """Aggregate statistics over a batch, None-safe for failed trials."""
    def _median(values):
        values = [v for v in values if v is not None and math.isfinite(v)]
        return float(np.median(values)) if values else None

    iteration_counts = [r.iterations for r in records if r.iterations is not None]
    halt_counts: dict = {}
    for record in records:
        halt_counts[record.halted_by] = halt_counts.get(record.halted_by, 0) + 1
    successes = sum(1 for r in records if r.success)
    return {
        "trials": len(records),
        "successes": successes,
        "success_rate": successes / len(records) if records else None,
        "median_l2_error": _median([r.l2_error for r in records]),
        "median_rel_error": _median([r.rel_error for r in records]),
        "median_bound_ratio": _median([r.bound_ratio for r in records]),
        "mean_iterations": (
            float(np.mean(iteration_counts)) if iteration_counts else None
        ),
        "max_iterations": max(iteration_counts) if iteration_counts else None,
        "total_matvecs": sum(r.matvecs for r in records if r.matvecs is not None),
        "all_errors_finite": all(
            r.l2_error is not None and math.isfinite(r.l2_error) for r in records
        ),
        "halted_by": {k: halt_counts[k] for k in sorted(halt_counts)},
    }


def phase_sweep(
    N: int,
    m_values: Sequence[int],
    s_values: Sequence[int],
    ensemble: str,
    algorithm: str,
    trials_per_cell: int,
    master_seed: int,
    *,
    noise_mode: str = "none",
    noise_level: float = 0.0,
    eta: float = 0.0,
    eta_rel: Optional[float] = None,
    threads: int = 1,
) -> List[dict]:
    """Exact-recovery fraction over an (m, s) grid.

    Cells that violate the algorithm's dimensional preconditions (m > N,
    s > m, 3s > m for CoSaMP, or an OMP or ROMP Gram factor over the size
    cap) are emitted with ``None`` statistics rather than being skipped,
    so the grid shape of the output is always
    ``len(m_values) * len(s_values)``.  An N, m or s below 1 is malformed
    input and raises ``UsageError`` before the first trial.
    The live cells run trial-major (``_run_trial_major``), which validates
    them and ``threads`` before the first trial: one dense draw of the
    largest live m per trial index serves every cell, and each cell's
    counts equal those of ``run_trial`` over its own config at any thread
    count.  Only live cells meet the size cap: an m whose cells are all
    NA builds no operator, however large.
    """
    m_values, s_values = list(m_values), list(s_values)
    if not m_values or not s_values:
        raise UsageError("sweep needs at least one m and one s value")
    if N < 1 or min(m_values) < 1 or min(s_values) < 1:
        raise UsageError(
            f"sweep needs N and every m and s at least 1, got N={N}, "
            f"m_values={m_values}, s_values={s_values}"
        )
    base = TrialConfig(
        algorithm, ensemble, m_values[0], N, s_values[0], trials_per_cell, master_seed,
        noise_mode=noise_mode, noise_level=noise_level, eta=eta, eta_rel=eta_rel,
    )
    base._check_settings()
    grid = [replace(base, m=m, s=s) for m in m_values for s in s_values]
    live = {k: cfg for k, cfg in enumerate(grid) if cfg._shape_problem() is None}
    batches = dict(zip(live, _run_trial_major(list(live.values()), threads)))
    cells = []
    for k, cfg in enumerate(grid):
        successes = sum(1 for r in batches[k] if r.success) if k in batches else None
        cells.append(
            {
                "m": cfg.m,
                "s": cfg.s,
                "trials": trials_per_cell,
                "successes": successes,
                "success_rate": None if successes is None else successes / trials_per_cell,
            }
        )
    return cells


def fit_decay_slope(s_values: Sequence[int], medians: Sequence[float]):
    """Least-squares slope of log(median / sqrt(log s)) against log s.

    Returns ``(slope, intercept, rms_residual)`` or ``None`` when the fit
    is degenerate: fewer than two points, any s < 2 (log s vanishes), or
    any non-positive or non-finite median.
    """
    if len(s_values) < 2 or len(s_values) != len(medians):
        return None
    if any(s < 2 for s in s_values):
        return None
    if any(m is None or not math.isfinite(m) or m <= 0 for m in medians):
        return None
    xs = np.log(np.asarray(s_values, dtype=np.float64))
    ys = np.log(np.asarray(medians, dtype=np.float64) / np.sqrt(np.log(s_values)))
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    rms = float(np.sqrt(np.mean((ys - fitted) ** 2)))
    return float(slope), float(intercept), rms


def compressible_scaling(
    N: int,
    m: int,
    p: float,
    R: float,
    s_values: Sequence[int],
    ensemble: str,
    algorithm: str,
    trials: int,
    master_seed: int,
    *,
    eta_rel: Optional[float] = SCALING_ETA_REL,
    truncate: bool = False,
    threads: int = 1,
) -> dict:
    """Median recovery error per target sparsity on compressible signals.

    Noiseless by construction.  Fits the decay slope described in
    ``fit_decay_slope``; a degenerate fit (for example when truncation
    makes every error vanish) is reported rather than raised.  The rows
    run trial-major like ``phase_sweep``: m is fixed, so one operator draw
    per trial index serves every s.
    """
    s_values = list(s_values)
    if not s_values:
        raise UsageError("scaling needs at least one s value")
    if s_values != sorted(set(s_values)):
        raise UsageError("s values must be strictly increasing")
    base = TrialConfig(
        algorithm, ensemble, m, N, s_values[0], trials, master_seed,
        signal_kind="compressible", p=p, R=R, signal_truncate=truncate, eta_rel=eta_rel,
    )
    batches = _run_trial_major([replace(base, s=s) for s in s_values], threads)
    rows = [
        {"s": int(s), "trials": trials, "median_l2_error": summarize(records)["median_l2_error"]}
        for s, records in zip(s_values, batches)
    ]
    medians = [row["median_l2_error"] for row in rows]
    # Medians at the solver-tolerance floor (e.g. a zeroed tail making every
    # trial exact) carry no decay information; the envelope scale R sets the
    # natural unit for "effectively zero" here.
    floor = 1e-6 * R
    fit = None
    if all(v is not None and math.isfinite(v) and v > floor for v in medians):
        fit = fit_decay_slope([row["s"] for row in rows], medians)
    if fit is None:
        return {"rows": rows, "slope": None, "intercept": None, "fit_residual": None, "degenerate": True}
    slope, intercept, rms = fit
    return {"rows": rows, "slope": slope, "intercept": intercept, "fit_residual": rms, "degenerate": False}


# ---------------------------------------------------------------------------
# Deterministic emission


def _cell_text(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # a numpy float64 reprs as np.float64(...)
    return str(value)


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.generic):  # a numpy bool, integer or float
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_csv(stream, columns: Sequence[str], rows: Sequence[dict], **comments) -> None:
    """Comment lines (the format version, then each ``comments`` entry as
    compact JSON), the header row, and one row per record."""
    stream.write(f"# format_version={FORMAT_VERSION}\n")
    for key, value in comments.items():
        text = json.dumps(_json_safe(value), sort_keys=True, separators=(",", ":"))
        stream.write(f"# {key}={text}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell_text(row[c]) for c in columns])


def write_trials_csv(stream, cfg: TrialConfig, records: Sequence[TrialRecord]) -> None:
    _write_csv(stream, TRIAL_CSV_COLUMNS, [r.to_row() for r in records], config=cfg.to_dict())


def report(config: dict, **body) -> dict:
    """A JSON report: the format version and the run's ``config``, then ``body``."""
    return {"format_version": FORMAT_VERSION, "config": config, **body}


def trials_report(cfg: TrialConfig, records: Sequence[TrialRecord]) -> dict:
    return report(cfg.to_dict(), summary=summarize(records), records=[r.to_row() for r in records])


def write_sweep_csv(stream, config: dict, cells: Sequence[dict]) -> None:
    _write_csv(stream, SWEEP_CSV_COLUMNS, cells, config=config)


def sweep_report(config: dict, cells: Sequence[dict]) -> dict:
    return report(config, cells=list(cells))


def write_scaling_csv(stream, config: dict, scaling: dict) -> None:
    fit = {k: scaling[k] for k in ("slope", "intercept", "fit_residual", "degenerate")}
    _write_csv(stream, SCALING_CSV_COLUMNS, scaling["rows"], config=config, fit=fit)


def scaling_report(config: dict, scaling: dict) -> dict:
    return report(config, **scaling)


def render_json(report: dict) -> str:
    """A report as indented JSON; non-finite floats become null."""
    return json.dumps(_json_safe(report), sort_keys=True, indent=2) + "\n"
