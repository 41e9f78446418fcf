"""Whole recoveries pinned byte for byte.

``golden_bench.csv`` pins the CSV columns of a batch; these digests pin
everything a recovery returns: the estimate, the support, every residual
norm, the apply count, the halt reason and the JSON of every iterate.  One
digest covers each algorithm on each ensemble over a few small noiseless
and noisy instances.  A change to the arithmetic of any round, to the order
of its floating-point operations or to its trace moves the digest.
"""

import hashlib
import json

import pytest

from sparsekit.errors import SolverFailure
from sparsekit.pursuit import cosamp, omp, romp
from sparsekit.sensing import make_operator
from sparsekit.signals import gen_sparse, measure

# (m, N, s, signal sparsity, noise sigma): easy, noisy, and too few rows.
INSTANCES = ((24, 96, 4, 4, 0.0), (40, 128, 6, 6, 1e-3), (16, 128, 5, 7, 0.0))
SEEDS = (0, 1, 2)

PINNED = {
    ("omp", "gaussian"): "edd62f5dc8504295a847c3916d338afeeba1f0174f567c6233e7f8ec6c585482",
    ("omp", "bernoulli"): "675ca9311f7657867dfdb0d0fc3354be822ecb67ec6fa1086ee6d711dd998c57",
    ("omp", "partial_dct"): "24afdeeeea1d40ba5f466505a938d8f6edf958ba1abfaa149adf72d07bfc1e89",
    ("romp", "gaussian"): "a3122c7e9ac1810de108950b7bfe56d91c68efff3005e034f1d5ae3f4637f4fa",
    ("romp", "bernoulli"): "658b52a03186aa44989e135ad52e9e93e941a73fb1faa37a1ba3bb479c879755",
    ("romp", "partial_dct"): "4c85719086aec4db8da0e29eb0ac7df59e6cba4fae78bd603b1e33dbe25b0d09",
    ("cosamp", "gaussian"): "428ceb99506671555fb44ab5222cba66ff93c414f0f8ea255b58c56b4714b73e",
    ("cosamp", "bernoulli"): "859fa9f59e167afda6de8a220b4c216cd3baeb53430310d5b38f9302ef33c070",
    ("cosamp", "partial_dct"): "faf45c1ed3ecd50cf6351b32a0921c757bbfc8cfbdc6c5b822232907910cb2dd",
}


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
            digest.update(result.estimate.tobytes())
            digest.update(result.support.tobytes())
            digest.update(repr([float(r).hex() for r in result.residual_norms]).encode())
            digest.update(f"{result.iterations} {result.matvec_count} {result.halted_by.value}\n".encode())
            digest.update(json.dumps(result.iterates, sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("algorithm, ensemble", PINNED, ids=[f"{a}-{e}" for a, e in PINNED])
def test_recovery_is_pinned(algorithm, ensemble):
    assert recovery_digest(algorithm, ensemble) == PINNED[algorithm, ensemble]
