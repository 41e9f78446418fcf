"""Greedy sparse-signal recovery over synthetic sensing ensembles.

Public surface: sensing operators (Gaussian, Bernoulli, partial DCT) with
an empirical restricted-isometry probe, sparse/compressible signal
generators, the OMP / ROMP / CoSaMP recovery algorithms backed by a
restricted least-squares solver (a growing Cholesky factor for OMP and
ROMP, conjugate gradients for CoSaMP), and a deterministic Monte
Carlo benchmark harness with a CLI (``sparsekit``).
"""

from .bench import (
    TrialConfig,
    TrialRecord,
    compressible_scaling,
    phase_sweep,
    run_trial,
    run_trials,
    summarize,
)
from .errors import SolverFailure, UsageError
from .linalg import (
    GramFactor,
    LsSolution,
    embed,
    largest_indices,
    restricted_least_squares,
)
from .pursuit import HaltReason, RecoveryResult, cosamp, omp, romp, romp_regularize
from .rng import SplitMix64, derive_seed
from .sensing import (
    Ensemble,
    RicEstimate,
    SenseOperator,
    empirical_ric,
    make_operator,
)
from .signals import (
    Signal,
    gen_compressible,
    gen_sparse,
    head,
    measure,
    tail_l1,
)

__version__ = "0.1.0"

__all__ = [
    "Ensemble",
    "GramFactor",
    "HaltReason",
    "LsSolution",
    "RecoveryResult",
    "RicEstimate",
    "SenseOperator",
    "Signal",
    "SolverFailure",
    "SplitMix64",
    "TrialConfig",
    "TrialRecord",
    "UsageError",
    "compressible_scaling",
    "cosamp",
    "derive_seed",
    "embed",
    "empirical_ric",
    "gen_compressible",
    "gen_sparse",
    "head",
    "largest_indices",
    "make_operator",
    "measure",
    "omp",
    "phase_sweep",
    "restricted_least_squares",
    "romp",
    "romp_regularize",
    "run_trial",
    "run_trials",
    "summarize",
    "tail_l1",
]
