"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps sparsekit's public call sites from outside, by replacing
module and class attributes for the length of a pass, so nothing under
``src/`` changes.  Each span records its name, start, end, parent span and
trial id; spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import csv
import itertools
import threading
import time
from collections import defaultdict

from sparsekit import bench, cli, pursuit, rng, sensing

HALT_REASONS = (
    "sparsity_reached",
    "residual_small",
    "max_iterations",
    "support_cap",
    "proxy_zero",
    "support_stall",
)

_DENSE_ENSEMBLES = (sensing.Ensemble.GAUSSIAN, sensing.Ensemble.BERNOULLI)


class Patches:
    """Attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Recorder:
    """In-memory spans with a per-thread parent stack.

    A pool worker starts with an empty stack, so its spans take the open
    ``run_trials`` span as parent; that keeps the 2-thread sweep nested.
    """

    def __init__(self):
        self.spans = []  # (span_id, parent_id, trial_id, name, start, end, value)
        self._ids = itertools.count(1)
        self._trial_ids = itertools.count(1)
        self._local = threading.local()
        self._batch = (0, 0)

    def wrap(self, name, fn, *, pre=None, post=None, new_trial=False, batch=False):
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent_id, trial_id = stack[-1] if stack else self._batch
            span_id = next(self._ids)
            if new_trial:
                trial_id = next(self._trial_ids)
            before = pre(args) if pre else None
            stack.append((span_id, trial_id))
            if batch:
                outer, self._batch = self._batch, (span_id, trial_id)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if batch:
                    self._batch = outer
                value = post(args, result, before) if ok and post else None
                self.spans.append((span_id, parent_id, trial_id, name, start, end, value))

        return traced

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("span_id", "parent_id", "trial_id", "name", "start_s", "end_s"))
            for span in self.spans:
                writer.writerow(span[:4] + (repr(span[4]), repr(span[5])))


def _position(args):
    return args[0].position


def _consumed(args, result, before):
    return args[0].position - before


def _gather_bytes(args, result, before):
    op = args[0]
    if op.ensemble in _DENSE_ENSEMBLES:
        return 8 * op.m * len(args[1])
    return 0


def _ls(args, result, before):
    return result.iterations, result.applications, result.converged


def _recovery(args, result, before):
    return result.iterations, result.halted_by.value


def _trial(args, result, before):
    return args[0], result


def install(recorder: Recorder) -> Patches:
    """Wrap every traced call site; the caller restores the returned patches."""
    patches = Patches()
    wrap = recorder.wrap

    def site(owner, attr, name, **kwargs):
        patches.set(owner, attr, wrap(name, getattr(owner, attr), **kwargs))

    for method in ("normal", "signs", "choose_without_replacement", "permutation"):
        site(rng.SplitMix64, method, f"rng.{method}", pre=_position, post=_consumed)
    for method in ("forward", "adjoint"):
        site(sensing.SenseOperator, method, f"sensing.{method}")
    for method in ("forward_support", "adjoint_support"):
        site(sensing.SenseOperator, method, f"sensing.{method}", post=_gather_bytes)
    site(bench, "make_operator", "sensing.make_operator")
    for fn in ("gen_sparse", "gen_compressible", "measure"):
        site(bench, fn, f"signals.{fn}")
    for fn in ("omp", "romp", "cosamp"):
        site(bench, fn, f"pursuit.{fn}", post=_recovery)
    site(pursuit, "restricted_least_squares", "linalg.restricted_least_squares", post=_ls)
    site(pursuit, "largest_indices", "linalg.largest_indices")
    site(pursuit, "romp_regularize", "pursuit.romp_regularize")
    site(bench, "run_trial", "bench.run_trial", post=_trial, new_trial=True)
    site(bench, "run_trials", "bench.run_trials", batch=True)
    site(bench, "phase_sweep", "bench.phase_sweep")
    for fn in ("write_trials_csv", "write_sweep_csv", "render_json"):
        site(bench, fn, f"bench.{fn}")
    site(cli, "main", "cli.main")
    return patches


def _covered(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def expected_pre_recovery_applies(cfg) -> int:
    """Forward applies ``run_trial`` makes before recovery: the measurement,
    plus the clean-norm probe that ``fixed_rel`` noise scales by."""
    return 2 if cfg.noise_mode == "fixed_rel" and cfg.noise_level > 0 else 1


class SpanTable:
    """Totals per span name, with self time as duration minus child coverage."""

    def __init__(self, spans):
        children = defaultdict(list)
        for span_id, parent_id, _, _, start, end, _ in spans:
            children[parent_id].append((start, end))
        self.count = defaultdict(int)
        self.self_time = defaultdict(float)
        self.values = defaultdict(list)
        self.applies_by_trial = defaultdict(int)
        for span_id, _, trial_id, name, start, end, value in spans:
            self.count[name] += 1
            self.self_time[name] += end - start - _covered(children.get(span_id, ()))
            if value is not None:
                self.values[name].append(value)
            if name.startswith("sensing.") and name != "sensing.make_operator":
                self.applies_by_trial[trial_id] += 1
        self.spans = spans

    def pool_speedup(self):
        """Sum of run_trial time over run_trials wall, or None without a pool."""
        batches = {s[0]: s[5] - s[4] for s in self.spans if s[3] == "bench.run_trials"}
        if not batches:
            return None
        inside = sum(
            s[5] - s[4] for s in self.spans if s[3] == "bench.run_trial" and s[1] in batches
        )
        return inside / sum(batches.values())

    def apply_mismatches(self):
        """Trials whose operator applications differ from matvecs plus the
        pre-recovery forward applies."""
        bad = []
        for span in self.spans:
            if span[3] != "bench.run_trial" or span[6] is None:
                continue
            cfg, record = span[6]
            if record.matvecs is None:
                continue
            expected = record.matvecs + expected_pre_recovery_applies(cfg)
            if self.applies_by_trial[span[2]] != expected:
                bad.append((cfg.algorithm, record.trial_index, self.applies_by_trial[span[2]], expected))
        return bad


def layer_metrics(table: SpanTable, *, cli_output_bytes: float, pool_speedup: float) -> dict:
    """Per-layer metrics as ``name -> (value, unit)``, per trial unless noted.

    Every ``*_ms`` figure is a self time; for rng and sensing spans, which
    have no traced children, that equals their duration.
    ``linalg.ls_converged_ratio`` is per solve, ``bench.pool_speedup`` per
    batch and ``cli.output_bytes`` per ``cli.main`` call.
    """
    trials = table.count["bench.run_trial"]

    def ms(*names):
        return 1000.0 * sum(table.self_time[n] for n in names) / trials, "ms"

    def per_trial(value, unit="count"):
        return value / trials, unit

    rng_names = [f"rng.{m}" for m in ("normal", "signs", "choose_without_replacement", "permutation")]
    full = ("sensing.forward", "sensing.adjoint")
    support = ("sensing.forward_support", "sensing.adjoint_support")
    pursuits = ("pursuit.omp", "pursuit.romp", "pursuit.cosamp")
    emitters = ("bench.write_trials_csv", "bench.write_sweep_csv", "bench.render_json")
    solves = table.values["linalg.restricted_least_squares"]
    recoveries = [v for n in pursuits for v in table.values[n]]

    metrics = {
        "rng.normal_ms": ms("rng.normal"),
        "rng.variates": per_trial(sum(sum(table.values[n]) for n in rng_names)),
        "rng.signs_ms": ms("rng.signs"),
        "rng.index_ms": ms("rng.choose_without_replacement", "rng.permutation"),
        "sensing.build_ms": ms("sensing.make_operator"),
        "sensing.support_apply_ms": ms(*support),
        "sensing.gather_bytes": per_trial(sum(sum(table.values[n]) for n in support), "bytes"),
        "sensing.full_apply_ms": ms(*full),
        "sensing.apply_calls": per_trial(sum(table.count[n] for n in full + support)),
        "signals.gen_ms": ms("signals.gen_sparse", "signals.gen_compressible"),
        "signals.measure_ms": ms("signals.measure"),
        "linalg.ls_calls": per_trial(len(solves)),
        "linalg.ls_self_ms": ms("linalg.restricted_least_squares"),
        "linalg.cg_iterations": per_trial(sum(v[0] for v in solves)),
        "linalg.ls_applications": per_trial(sum(v[1] for v in solves)),
        "linalg.ls_converged_ratio": (sum(1 for v in solves if v[2]) / len(solves), "share"),
        "linalg.select_ms": ms("linalg.largest_indices"),
        "pursuit.self_ms": ms(*pursuits),
        "pursuit.regularize_ms": ms("pursuit.romp_regularize"),
        "pursuit.iterations": per_trial(sum(v[0] for v in recoveries)),
    }
    for reason in HALT_REASONS:
        metrics[f"pursuit.halted.{reason}"] = per_trial(sum(1 for v in recoveries if v[1] == reason), "share")
    metrics.update(
        {
            "bench.trial_self_ms": ms("bench.run_trial"),
            "bench.pool_speedup": (pool_speedup, "ratio"),
            "bench.emit_ms": ms(*emitters),
            "bench.operator_builds": per_trial(table.count["sensing.make_operator"]),
            "cli.self_ms": ms("cli.main"),
            "cli.output_bytes": (cli_output_bytes, "bytes"),
        }
    )
    return metrics
