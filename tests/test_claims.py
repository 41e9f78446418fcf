"""The review's claims (PAPER.md) that no other file checks, and the
README's ledger of every claim beside the test that shows it."""

import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from sparsekit.bench import TrialConfig, phase_sweep, run_trials

ROOT = Path(__file__).resolve().parent.parent
GRID_M = (16, 32, 48, 64, 96, 128)
GRID_S = (4, 8, 16)


@pytest.fixture(scope="module")
def grid():
    """Success counts out of 40 by (m, s) cell, Gaussian N = 256, seed 3;
    None where the algorithm refuses the cell (CoSaMP needs 3s <= m)."""
    return {
        algorithm: {(c["m"], c["s"]): c["successes"] for c in phase_sweep(256, GRID_M, GRID_S, "gaussian", algorithm, 40, 3)}
        for algorithm in ("romp", "cosamp")
    }


def test_cosamp_recovers_at_least_as_often_as_romp_in_every_cell(grid):
    # CoSaMP's weaker RIC requirement: it needs no more measurements than ROMP.
    live = {cell: successes for cell, successes in grid["cosamp"].items() if successes is not None}
    assert len(live) == 15
    behind = {cell: (successes, grid["romp"][cell]) for cell, successes in live.items() if successes < grid["romp"][cell]}
    assert not behind, f"(m, s): (CoSaMP, ROMP) successes out of 40: {behind}"


def test_median_bound_ratios_under_sigma_noise_are_finite(record_testsuite_property):
    # CoSaMP's stability bound against ROMP's: the median of each trial's
    # l2 error over (tail term + noise norm) on the A1 instances with
    # sigma = 0.01 noise.  Reported, not bounded: one seed shows no spread.
    for algorithm in ("romp", "cosamp"):
        cfg = TrialConfig(algorithm, "gaussian", 128, 256, 8, 100, 2026, noise_mode="sigma", noise_level=0.01)
        median = statistics.median(r.bound_ratio for r in run_trials(cfg))
        record_testsuite_property(f"{algorithm}_median_bound_ratio", median)
        assert math.isfinite(median) and median > 0.0


def test_every_test_the_ledger_names_is_collected():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    ledger = readme.split("## The review's claims", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"tests/\w+\.py::\w+(?:\[[^\]`]*\])?", ledger))
    assert len(named) >= 5
    files = sorted({name.split("::")[0] for name in named})
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    missing = [name for name in named if not any(c == name or c.startswith(name + "[") for c in collected)]
    assert not missing
