"""Whole recoveries pinned byte for byte.

``golden_bench.csv`` pins the CSV columns of a batch; these digests pin
everything a recovery returns: the estimate, the support, every residual
norm, the apply count, the halt reason and the JSON of every iterate.  One
digest covers each algorithm on each ensemble over a few small noiseless
and noisy instances, and one covers each algorithm on the benchmark's
partial-DCT configs at 1024/4096/48, where the index draws run on arrays
and every transform is 4096 long.  A change to the arithmetic of any
round, to the order of its floating-point operations or to its trace moves
the digest.
"""

import hashlib
import json

import pytest

from sparsekit import bench
from sparsekit.bench import TrialConfig
from sparsekit.errors import SolverFailure
from sparsekit.pursuit import cosamp, omp, romp
from sparsekit.sensing import make_operator
from sparsekit.signals import gen_sparse, measure

# (m, N, s, signal sparsity, noise sigma): easy, noisy, and too few rows.
INSTANCES = ((24, 96, 4, 4, 0.0), (40, 128, 6, 6, 1e-3), (16, 128, 5, 7, 0.0))
SEEDS = (0, 1, 2)

PINNED = {
    ("omp", "gaussian"): "3b6e1d53fe51d4aad5046f0a4e6ba9b2b4826c4d692f49ab7d515bda31223cd7",
    ("omp", "bernoulli"): "668523a698603907f6a3b5ded9f98be5076478c826e1e58251466bf7b74afeb2",
    ("omp", "partial_dct"): "b3060772ac1d26b407bbc448a5224a4ea43605fd92a96976adfb057c95e9284d",
    ("romp", "gaussian"): "774eeec88a845215fec24f0d7db6a8ecee1fbbacd44b028c56ae4b4be60e7cff",
    ("romp", "bernoulli"): "d3fa4d5affa17410277c08e83920b2cbbf0f87de2ee193096713ff422811b247",
    ("romp", "partial_dct"): "f67600964adc85e3fc6c375a94e1df7a644898bf2121d35ed31465b4131b3b48",
    ("cosamp", "gaussian"): "203675b1d1463f5de77892d3a10a4702125717e809f5989469a1f688a5c95687",
    ("cosamp", "bernoulli"): "3e4eb5d734e99bbecdbfa816e2203acc3392c4cae65b6e7e38d68c67e0af7acb",
    ("cosamp", "partial_dct"): "65b2ea6d4a858a25374c7ae721366e306202daba7b2376da18a26ab1c8c9a7ea",
}


# The three configs of the benchmark's mc-dct workload, two trials each, at
# master seed 7 (the benchmark hashes its seed first).
MC_DCT_SHAPE = dict(ensemble="partial_dct", m=1024, N=4096, s=48, trials=2, master_seed=7)
MC_DCT_CONFIGS = {
    "omp": TrialConfig("omp", **MC_DCT_SHAPE),
    "romp": TrialConfig("romp", **MC_DCT_SHAPE),
    "cosamp": TrialConfig(
        "cosamp", signal_kind="compressible", p=0.7, R=1.0,
        noise_mode="fixed_rel", noise_level=0.01, eta_rel=0.01, **MC_DCT_SHAPE,
    ),
}

MC_DCT_PINNED = {
    "omp": "590bac2fab5ca4955dbc00e14695ca6aebc4d5d687f5b14e2d57def4e3956b05",
    "romp": "19e37e316587c1c53e2f46b04add4ca975ac03bb6b29cfca3b86aec32b1b3fba",
    "cosamp": "073d791d1f8c898601739e4d7e13ea7633f0a83bc7b38f3a66a201819c2c74c0",
}


def update_digest(digest, result):
    """Fold everything ``result`` holds into ``digest``."""
    digest.update(result.estimate.tobytes())
    digest.update(result.support.tobytes())
    digest.update(repr([float(r).hex() for r in result.residual_norms]).encode())
    digest.update(f"{result.iterations} {result.matvec_count} {result.halted_by.value}\n".encode())
    digest.update(json.dumps(result.iterates, sort_keys=True).encode())


def recovery_digest(algorithm, ensemble):
    """sha256 over every recovery of ``algorithm`` on ``ensemble``."""
    digest = hashlib.sha256()
    for m, N, s, signal_s, sigma in INSTANCES:
        for seed in SEEDS:
            op = make_operator(ensemble, m, N, 100 + seed)
            signal = gen_sparse(N, signal_s, 200 + seed)
            u, _ = measure(op, signal, "sigma", sigma, 300 + seed)
            try:
                if algorithm == "omp":
                    result = omp(op, u, s)
                elif algorithm == "romp":
                    result = romp(op, u, s)
                else:
                    result = cosamp(op, u, s, eta=1e-6 * sigma * m)
            except SolverFailure as exc:
                digest.update(f"SolverFailure: {exc}\n".encode())
                continue
            update_digest(digest, result)
    return digest.hexdigest()


def mc_dct_digest(monkeypatch, algorithm):
    """sha256 over the recoveries of ``bench.run_trial`` on ``algorithm``'s mc-dct config."""
    digest = hashlib.sha256()
    pursuit = getattr(bench, algorithm)

    def recorded(*args, **kwargs):
        result = pursuit(*args, **kwargs)
        update_digest(digest, result)
        return result

    monkeypatch.setattr(bench, algorithm, recorded)
    cfg = MC_DCT_CONFIGS[algorithm].validate()
    for index in range(cfg.trials):
        bench.run_trial(cfg, index)
    return digest.hexdigest()


@pytest.mark.parametrize("algorithm, ensemble", PINNED, ids=[f"{a}-{e}" for a, e in PINNED])
def test_recovery_is_pinned(algorithm, ensemble):
    assert recovery_digest(algorithm, ensemble) == PINNED[algorithm, ensemble]


@pytest.mark.parametrize("algorithm", MC_DCT_PINNED)
def test_benchmark_sized_partial_dct_recovery_is_pinned(monkeypatch, algorithm):
    assert mc_dct_digest(monkeypatch, algorithm) == MC_DCT_PINNED[algorithm]
