import sparsekit

# The package's public surface.  Adding or removing a name is a deliberate
# edit of this list, recorded in CHANGES.md.
PUBLIC_NAMES = [
    "Ensemble",
    "GramFactor",
    "HaltReason",
    "LsSolution",
    "NoiseMode",
    "NoiseSpec",
    "RecoveryResult",
    "RicEstimate",
    "SenseOperator",
    "Signal",
    "SignalKind",
    "SolverFailure",
    "SplitMix64",
    "SupportSet",
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


def test_public_surface_is_pinned_and_resolves():
    assert sorted(sparsekit.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(sparsekit, name)] == []
