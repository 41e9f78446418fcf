"""Workloads, timed passes and output checks of the sparsekit benchmark.

A workload is a fixed list of units: one ``bench.run_trial`` call for the
Monte Carlo workloads, one ``cli.main`` sweep for ``sweep-phase``.  A timed
pass runs the list round after round, and each unit or trial is timed as the
median of its rounds, so a slow spell of a shared machine must cover most of
the pass to show.  Each time is first scaled by the yardstick timed in the
same round, which cancels the machine's slower and faster regimes.
Algorithms take turns unit by unit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import scipy.fft

from sparsekit import bench, cli, signals
from sparsekit.bench import TrialConfig, TrialRecord

import spans

ALGORITHMS = ("omp", "romp", "cosamp")

# Distinct units per round.  In 30 s on a 2-vCPU VM, mc-dense runs its
# minimum of three rounds and mc-dct about five; a sweep-phase round is three
# 400-trial sweeps.  Shorter lists would give more rounds, but the count
# metrics, taken over one round, would then vary more with the seed.
MC_DENSE_UNITS = 60
MC_DCT_UNITS = 90
MIN_ROUNDS = 3

# The yardstick is a fixed job, independent of sparsekit, timed between units
# to track the speed of the shared machine.  Timings are reported at the
# reference speed, at which one yardstick takes YARDSTICK_REF_S; about 5 % of
# a pass goes to it.
YARDSTICK_REF_S = 0.005
YARDSTICK_SHARE = 0.05
_YARD_RNG = np.random.default_rng(812_2202)
_YARD_MATRIX = _YARD_RNG.standard_normal((256, 1024))
_YARD_VECTOR = _YARD_RNG.standard_normal(1024)
_YARD_SIGNAL = _YARD_RNG.standard_normal(4096)


def yardstick() -> float:
    """Wall time of the yardstick: an interpreted loop, BLAS products and a
    DCT, the three kinds of work a trial spends its time on."""
    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i
    for _ in range(20):
        _YARD_MATRIX.T @ (_YARD_MATRIX @ _YARD_VECTOR)
    scipy.fft.dct(_YARD_SIGNAL, norm="ortho")
    return time.perf_counter() - start


def yardsticks(seconds: float) -> List[float]:
    """Yardstick times for about ``YARDSTICK_SHARE`` of ``seconds``, at least one."""
    return [yardstick() for _ in range(max(1, round(YARDSTICK_SHARE * seconds / YARDSTICK_REF_S)))]


@dataclass
class Trial:
    cfg: TrialConfig
    index: int
    seconds: float
    record: Optional[TrialRecord]  # None when run_trial raised
    estimate: Optional[np.ndarray]


@dataclass
class Unit:
    seconds: float
    trials: List[Trial]
    errors: List[str] = field(default_factory=list)
    checked_output: bool = False


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trials_csv(cfg: TrialConfig, records) -> bytes:
    buffer = io.StringIO()
    bench.write_trials_csv(buffer, cfg, records)
    return buffer.getvalue().encode("utf-8")


def check_trial(trial: Trial) -> Optional[str]:
    """Recompute the trial's error from a regenerated signal; None if it holds."""
    record, cfg = trial.record, trial.cfg
    if record is None:
        return "run_trial raised"
    if record.halted_by == "solver_failure":
        return f"solver failure: {record.error}"
    seed = bench.trial_seeds(cfg.master_seed, trial.index)["signal"]
    if cfg.signal_kind == "sparse":
        signal = signals.gen_sparse(cfg.N, cfg.s if cfg.signal_s is None else cfg.signal_s, seed)
    else:
        signal = signals.gen_compressible(cfg.N, cfg.p, cfg.R, seed)
        if cfg.signal_truncate:
            signal = signals.head(signal, cfg.s)
    x = signal.values
    l2 = float(np.linalg.norm(trial.estimate - x))
    if l2 != record.l2_error:
        return f"l2_error {record.l2_error!r} but recomputed {l2!r}"
    if (l2 <= bench.SUCCESS_RELATIVE_TOL * float(np.linalg.norm(x))) != record.success:
        return "success flag disagrees with the recomputed error"
    return None


class McWorkload:
    """Monte Carlo batch driven through ``bench.run_trial`` at one thread."""

    def __init__(self, name, configs, *, units, trace_units, identity_config):
        self.name = name
        self.configs = configs
        self.units = units
        self.trace_units = trace_units
        self.identity_config = identity_config

    def warm_up(self):
        for cfg in self.configs:
            bench.run_trial(cfg, 0)

    def run_unit(self, k: int) -> Unit:
        cfg = self.configs[k % len(self.configs)]
        index = k // len(self.configs)
        start = time.perf_counter()
        try:
            record = bench.run_trial(cfg, index)
        except Exception:
            traceback.print_exc()
            record = None
        seconds = time.perf_counter() - start
        estimate = None
        if record is not None and record.result is not None:
            estimate = record.result.estimate
            record.result = None
        return Unit(seconds, [Trial(cfg, index, seconds, record, estimate)])

    def emitted(self, window: List[Trial]):
        """The batch CSV of each configuration over the trials in ``window``."""
        out = []
        for cfg in self.configs:
            records = [t.record for t in window if t.cfg is cfg and t.record is not None]
            label = f"{cfg.algorithm}-{cfg.ensemble}-{cfg.m}x{cfg.N}-s{cfg.s}"
            out.append((label, trials_csv(replace(cfg, trials=len(records)), records)))
        return out

    def output_bytes_per_call(self) -> float:
        return 0.0


def _capturing(run_trial, sink: List[Trial]):
    def capture(cfg, index):
        start = time.perf_counter()
        record = run_trial(cfg, index)
        seconds = time.perf_counter() - start
        estimate = None if record.result is None else record.result.estimate
        sink.append(Trial(cfg, index, seconds, record, estimate))
        return record

    return capture


class SweepWorkload:
    """The README phase sweep through ``cli.main``; each unit is one sweep.

    Unit ``k`` runs the sweep with the ``k % SEEDS``-th master seed, so the
    count window holds ``SEEDS`` sweeps' worth of distinct trials.
    """

    ALGORITHM = "omp"
    N = 256
    TRIALS = 40
    SEEDS = 3

    def __init__(self, seeds: List[int], out_dir: Path, *, trace_units):
        self.name = "sweep-phase"
        self.units = len(seeds)
        self.trace_units = trace_units
        self.out_path = out_dir / "sweep.csv"
        self.argvs = [
            [
                "sweep", "--alg", self.ALGORITHM, "--N", str(self.N),
                "--m-values", "16,32,64,128,256", "--s-values", "4,8",
                "--trials", str(self.TRIALS), "--threads", "2",
                "--seed", str(seed), "--out", str(self.out_path),
            ]
            for seed in seeds
        ]
        self.identity_config = TrialConfig(self.ALGORITHM, "gaussian", 64, self.N, 8, self.TRIALS, seeds[0])
        self.first_outputs: Dict[int, bytes] = {}
        self.output_sizes: List[int] = []

    def warm_up(self):
        bench.run_trial(self.identity_config, 0)

    def run_unit(self, k: int) -> Unit:
        variant = k % self.units
        captured: List[Trial] = []
        patches = spans.Patches()
        patches.set(bench, "run_trial", _capturing(bench.run_trial, captured))
        start = time.perf_counter()
        try:
            code = cli.main(self.argvs[variant])
        except Exception:
            traceback.print_exc()
            code = None
        finally:
            seconds = time.perf_counter() - start
            patches.restore()
        unit = Unit(seconds, captured, checked_output=True)
        if code != 0:
            unit.errors.append(f"sweep exited with {code}")
            return unit
        data = self.out_path.read_bytes()
        self.output_sizes.append(len(data))
        unit.errors.extend(self._check_cells(data, captured))
        if self.first_outputs.setdefault(variant, data) != data:
            unit.errors.append("sweep output changed between reruns")
        return unit

    @staticmethod
    def _check_cells(data: bytes, captured: List[Trial]) -> List[str]:
        """Each cell's success count must match the trials the sweep ran."""
        by_cell = defaultdict(list)
        for trial in captured:
            by_cell[(trial.cfg.m, trial.cfg.s)].append(trial.record)
        lines = [line for line in data.decode("utf-8").splitlines() if not line.startswith("#")]
        errors = []
        for row in csv.DictReader(lines):
            records = by_cell.pop((int(row["m"]), int(row["s"])), [])
            if row["successes"] == "NA":
                expected = (0, 0)
            else:
                expected = (int(row["trials"]), int(row["successes"]))
            if (len(records), sum(r.success for r in records)) != expected:
                errors.append(f"sweep cell m={row['m']} s={row['s']} disagrees with its trials")
        if by_cell:
            errors.append("sweep ran trials for cells missing from its output")
        return errors

    def emitted(self, window: List[Trial]):
        return [(f"sweep-{variant}", data) for variant, data in sorted(self.first_outputs.items())]

    def output_bytes_per_call(self) -> float:
        return statistics.fmean(self.output_sizes)


def master_seed(seed: int, variant: int = 0) -> int:
    """The master seed a workload's configurations share; ``variant`` gives
    further independent ones.

    ``--seed`` is hashed first: sparsekit derives trial ``i``'s seed from
    ``(master + c) XOR i``, so master seeds that differ only in their low bits
    run the same set of trials.
    """
    label = f"sparsekit-bench:{seed}" + (f":{variant}" if variant else "")
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


def make_workload(name: str, seed: int, out_dir: Path):
    if name == "sweep-phase":
        out_dir.mkdir(parents=True, exist_ok=True)
        seeds = [master_seed(seed, variant) for variant in range(SweepWorkload.SEEDS)]
        return SweepWorkload(seeds, out_dir, trace_units=3)
    seed = master_seed(seed)
    if name == "mc-dense":
        # ROADMAP's large size; the dense gather and Box-Muller dominate.
        shape = dict(m=512, N=2048, s=32, trials=100, master_seed=seed)
        configs = [
            TrialConfig("omp", "gaussian", **shape),
            TrialConfig("romp", "bernoulli", **shape),
            TrialConfig("cosamp", "gaussian", eta_rel=1e-8, **shape),
        ]
        return McWorkload(
            name, configs, units=MC_DENSE_UNITS, trace_units=90,
            identity_config=replace(configs[0], trials=4),
        )
    if name == "mc-dct":
        # FFT applies, top-k over N=4096 and the pure-Python index loops.
        shape = dict(ensemble="partial_dct", m=1024, N=4096, s=48, trials=100, master_seed=seed)
        configs = [
            TrialConfig("omp", **shape),
            TrialConfig("romp", **shape),
            TrialConfig(
                "cosamp", signal_kind="compressible", p=0.7, R=1.0,
                noise_mode="fixed_rel", noise_level=0.01, eta_rel=0.01, **shape,
            ),
        ]
        return McWorkload(
            name, configs, units=MC_DCT_UNITS, trace_units=150,
            identity_config=replace(configs[2], trials=8),
        )
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Pass:
    """What one timed pass ran, and what its output checks found."""

    rounds: int = 0
    busy: float = 0.0  # summed unit wall time; checks run outside it
    trials: int = 0
    attempted: int = 0
    failed: int = 0
    # Timings are (round, seconds) pairs, so each can be scaled by its round's
    # yardstick.
    latencies: Dict[str, List[Tuple[int, float]]] = field(default_factory=lambda: defaultdict(list))
    unit_rounds: Dict[int, List[Tuple[int, float]]] = field(default_factory=lambda: defaultdict(list))
    trial_rounds: Dict[tuple, List[Tuple[int, float]]] = field(default_factory=lambda: defaultdict(list))
    yardstick: Dict[int, List[float]] = field(default_factory=lambda: defaultdict(list))
    first_outcome: Dict[tuple, str] = field(default_factory=dict)
    window: List[Trial] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def fail(self, message: str):
        self.failed += 1
        self.failures.append(message)

    def add(self, unit: Unit, in_window: bool, k: Optional[int] = None):
        """Account for one unit, the ``k``-th of its round, and check its outputs."""
        self.busy += unit.seconds
        if k is not None:
            self.unit_rounds[k].append((self.rounds, unit.seconds))
        if unit.checked_output:
            self.attempted += 1
            if unit.errors:
                self.fail("; ".join(unit.errors))
        for trial in unit.trials:
            self.trials += 1
            self.attempted += 1
            algorithm = trial.cfg.algorithm
            self.latencies[algorithm].append((self.rounds, trial.seconds))
            cfg = trial.cfg
            key = (algorithm, cfg.ensemble, cfg.m, cfg.s, cfg.master_seed, trial.index)
            self.trial_rounds[key].append((self.rounds, trial.seconds))
            error = check_trial(trial)
            if error is None:
                # repr, so that a NaN field compares equal to itself
                outcome = repr(replace(trial.record, wall_time=0.0, result=None))
                if self.first_outcome.setdefault(key, outcome) != outcome:
                    error = "outcome differs from an earlier round"
            if error is not None:
                self.fail(f"{algorithm} trial {trial.index}: {error}")
            trial.estimate = None
            if in_window:
                self.window.append(trial)


def run_pass(workload, seconds: float) -> Pass:
    """Run the workload's units round after round until ``MIN_ROUNDS`` rounds
    are done and ``seconds`` have passed; the last round may stop part way.
    The first round is the window that counts are taken over, so counts
    repeat exactly for a seed.  The yardstick runs after every unit."""
    result = Pass()
    started = time.perf_counter()
    while True:
        for k in range(workload.units):
            if result.rounds >= MIN_ROUNDS and time.perf_counter() - started >= seconds:
                return result
            unit = workload.run_unit(k)
            result.yardstick[result.rounds].extend(yardsticks(unit.seconds))
            result.add(unit, result.rounds == 0, k)
        result.rounds += 1


def check_thread_identity(workload, result: Pass, recorder=None):
    """Emit the identity config's batch at 1 and 2 threads and from the pass,
    and count the comparison as one output check.  When ``recorder`` is
    given, it traces the 2-thread batch."""
    cfg = workload.identity_config
    one = trials_csv(cfg, bench.run_trials(cfg, threads=1))
    patches = spans.install(recorder) if recorder is not None else spans.Patches()
    try:
        two = trials_csv(cfg, bench.run_trials(cfg, threads=2))
    finally:
        patches.restore()
    from_pass = {}
    for t in result.window:
        if t.record is not None and t.index < cfg.trials and replace(t.cfg, trials=cfg.trials) == cfg:
            from_pass.setdefault(t.index, t.record)
    error = None
    if one != two:
        error = "run_trials CSV differs between 1 and 2 threads"
    elif one != trials_csv(cfg, [from_pass[i] for i in sorted(from_pass)]):
        error = "run_trials CSV differs from the timed pass's trials"
    print(
        f"check thread_identity {cfg.algorithm}/{cfg.ensemble} m={cfg.m} N={cfg.N} s={cfg.s} "
        f"trials={cfg.trials} threads=1,2 sha256={sha256(one)} " + ("FAIL " + error if error else "ok")
    )
    result.attempted += 1
    if error:
        result.fail(error)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timings(result: Pass, scale, prefix=""):
    """The timing metrics, each time multiplied by ``scale[round]``."""
    def median(samples):
        return statistics.median(seconds * scale[r] for r, seconds in samples)

    distinct = len(result.trial_rounds)
    counts = sorted({len(samples) for samples in result.unit_rounds.values()})
    rounds = str(counts[0]) if len(counts) == 1 else f"{counts[0]}–{counts[-1]}"
    unit_s = sum(median(samples) for samples in result.unit_rounds.values())
    metrics = {
        "trials_per_s": (distinct / unit_s, "1/s", f"{distinct} trials, each unit timed as the median of {rounds} rounds")
    }
    for algorithm in ALGORITHMS:
        typical = [median(samples) for key, samples in result.trial_rounds.items() if key[0] == algorithm]
        if not typical:
            continue
        metrics[f"{algorithm}_trial_ms_p50"] = (
            1000.0 * statistics.median(typical), "ms",
            f"median over {len(typical)} trials of each one's median of {rounds} rounds",
        )
        samples = [seconds * scale[r] for r, seconds in result.latencies[algorithm]]
        beyond = len(samples) - math.ceil(0.9 * len(samples))
        if beyond >= 10:  # a p90 needs ten samples beyond it
            metrics[f"{algorithm}_trial_ms_p90"] = (
                1000.0 * percentile(samples, 0.9), "ms", f"every call: n={len(samples)} beyond_p90={beyond}",
            )
    return {prefix + name: value for name, value in metrics.items()}


def end_to_end(result: Pass, *, setup_s: float, peak_rss_mb: float, sweep: bool):
    """Every end-to-end metric the workload measures: ``name -> (value, unit, note)``.

    Pass timings are at the reference speed; the ``raw_`` ones and
    ``setup_s`` are as measured."""
    scale = {r: YARDSTICK_REF_S / statistics.median(times) for r, times in result.yardstick.items()}
    metrics = timings(result, scale)
    if sweep:
        sweeps = [seconds * scale[r] for samples in result.unit_rounds.values() for r, seconds in samples]
        metrics["sweep_s"] = (statistics.median(sweeps), "s", f"median of {len(sweeps)} sweeps")
    records = [t.record for t in result.window if t.record is not None]
    matvecs = [r.matvecs for r in records if r.matvecs is not None]
    metrics["matvecs_per_trial"] = (statistics.fmean(matvecs), "count", f"{len(matvecs)} trials in the count window")
    metrics["success_rate"] = (sum(r.success for r in records) / len(result.window), "share", "")
    metrics["failed_share"] = (
        result.failed / result.attempted, "share", f"{result.failed} of {result.attempted} trials and output checks",
    )
    metrics["setup_s"] = (setup_s, "s", "median of fresh-interpreter imports")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB", "")
    raw = timings(result, defaultdict(lambda: 1.0), "raw_")
    metrics.update((name, raw[name]) for name in ("raw_trials_per_s", "raw_omp_trial_ms_p50") if name in raw)
    yard = [t for times in result.yardstick.values() for t in times]
    metrics["yardstick_ms"] = (
        1000.0 * statistics.median(yard), "ms", f"median of {len(yard)}; reference {1000.0 * YARDSTICK_REF_S} ms",
    )
    return metrics


def print_metric(name, value, unit, note=""):
    print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def end_to_end_run(workload, seconds: float, setup_s: float):
    """The untraced run: a timed pass, its output checks and the end-to-end metrics."""
    workload.warm_up()
    yardsticks(1.0)
    result = run_pass(workload, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print_emitted(workload, result)
    check_thread_identity(workload, result)
    metrics = end_to_end(
        result, setup_s=setup_s, peak_rss_mb=peak_rss_mb, sweep=workload.name == "sweep-phase"
    )
    for name, (value, unit, note) in metrics.items():
        print_metric(name, value, unit, note)
    return result, {name: (value, unit) for name, (value, unit, _) in metrics.items()}


def print_emitted(workload, result):
    for label, data in workload.emitted(result.window):
        print(f"csv {label} sha256={sha256(data)} bytes={len(data)}")


def traced_run(workload, span_file: Path):
    """Run each unit of the trace window untraced and traced, in alternating
    order, so the overhead compares the same work at nearly the same time."""
    workload.warm_up()
    untraced, traced = Pass(), Pass()
    recorder = spans.Recorder()

    def run_traced(k):
        patches = spans.install(recorder)
        try:
            return workload.run_unit(k)
        finally:
            patches.restore()

    for k in range(workload.trace_units):
        if k % 2:
            traced.add(run_traced(k), True)
            untraced.add(workload.run_unit(k), True)
        else:
            untraced.add(workload.run_unit(k), True)
            traced.add(run_traced(k), True)
    patches = spans.install(recorder)
    try:
        print_emitted(workload, traced)
    finally:
        patches.restore()

    pool = spans.Recorder()
    check_thread_identity(workload, traced, pool)
    span_file.parent.mkdir(parents=True, exist_ok=True)
    recorder.write(span_file)
    print(f"spans {len(recorder.spans)} written to {span_file}")

    table = spans.SpanTable(recorder.spans)
    for algorithm, index, seen, expected in table.apply_mismatches():
        traced.fail(f"{algorithm} trial {index}: {seen} operator applies, expected matvecs + pre = {expected}")
    speedup = table.pool_speedup()
    if speedup is None:
        speedup = spans.SpanTable(pool.spans).pool_speedup()
    metrics = spans.layer_metrics(
        table, cli_output_bytes=workload.output_bytes_per_call(), pool_speedup=speedup
    )
    overhead = 100.0 * (traced.busy / untraced.busy - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    print(
        f"trace trials={traced.trials} untraced_trials_per_s={untraced.trials / untraced.busy!r} "
        f"traced_trials_per_s={traced.trials / traced.busy!r} overhead_pct={overhead!r}"
    )
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit)
    counts = {name: value for name, (value, unit) in metrics.items() if unit in ("count", "bytes", "share")}
    print(f"counts sha256={sha256(repr(sorted(counts.items())).encode())} (repeats exactly for a seed)")
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.failures.extend(untraced.failures)
    return traced, metrics
