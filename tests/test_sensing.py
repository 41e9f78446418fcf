import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from refstream import reference_normal, reference_signs
from sparsekit import cli, rng, sensing
from sparsekit.errors import UsageError
from sparsekit.linalg import embed, l2_norm
from sparsekit.rng import SplitMix64
from sparsekit.sensing import (
    MAX_DENSE_ENTRIES,
    Ensemble,
    check_dense_size,
    empirical_ric,
    make_operator,
)
from zerodraw import zero_next_normal

ENSEMBLES = ["gaussian", "bernoulli", "partial_dct"]


def dct_row_oracle(N, k):
    """Row k of the orthonormal type-II DCT matrix, from the closed form."""
    n = np.arange(N)
    row = math.sqrt(2.0 / N) * np.cos(math.pi * k * (2 * n + 1) / (2 * N))
    if k == 0:
        row /= math.sqrt(2.0)
    return row


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_forward_adjoint_match_dense_oracle(ensemble):
    op = make_operator(ensemble, 24, 40, seed=12)
    dense = op.dense_matrix()
    assert dense.shape == (24, 40)
    gen = SplitMix64(5)
    for _ in range(10):
        x = gen.normal(40)
        v = gen.normal(24)
        np.testing.assert_allclose(op.forward(x), dense @ x, atol=1e-10)
        np.testing.assert_allclose(op.adjoint(v), dense.T @ v, atol=1e-10)


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_adjoint_consistency(ensemble):
    op = make_operator(ensemble, 32, 64, seed=8)
    gen = SplitMix64(21)
    for _ in range(20):
        x = gen.normal(64)
        v = gen.normal(32)
        lhs = float(np.dot(op.forward(x), v))
        rhs = float(np.dot(x, op.adjoint(v)))
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(v)


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_restricted_application_matches_full(ensemble):
    op = make_operator(ensemble, 20, 50, seed=3)
    dense = op.dense_matrix()
    gen = SplitMix64(9)
    support = np.array([1, 7, 30, 49])
    coeffs = gen.normal(4)
    full = np.zeros(50)
    full[support] = coeffs
    np.testing.assert_allclose(op.forward_support(support, coeffs), dense @ full, atol=1e-10)
    v = gen.normal(20)
    np.testing.assert_allclose(op.adjoint_support(support, v), (dense.T @ v)[support], atol=1e-10)


# Malformed support applies, refused before the apply by checks that read no
# entry.  Partial DCT once broadcast one coefficient over two columns, and
# every ensemble applied column 0 for the float index 0.9.
BAD_SUPPORT_APPLIES = {
    "forward-short-coeffs": (lambda op: op.forward_support([0, 1], [1.0]), "coeffs must have length 2"),
    "forward-long-coeffs": (lambda op: op.forward_support([0], [1.0, 2.0]), "coeffs must have length 1"),
    "forward-scalar-coeffs": (lambda op: op.forward_support([0, 1], 1.0), "coeffs must be 1-D"),
    "forward-float-indices": (lambda op: op.forward_support([0.9], [1.0]), "indices must be integers"),
    "forward-bool-indices": (lambda op: op.forward_support([True], [1.0]), "indices must be integers"),
    "forward-2-D-indices": (lambda op: op.forward_support([[0, 1]], [1.0, 2.0]), "indices must be 1-D"),
    "adjoint-short-v": (lambda op: op.adjoint_support([0], np.zeros(op.m - 1)), "v must have length 20"),
    "adjoint-long-v": (lambda op: op.adjoint_support([0], np.zeros(op.m + 1)), "v must have length 20"),
    "adjoint-float-indices": (lambda op: op.adjoint_support(np.array([0.0, 1.0]), np.zeros(op.m)), "integers"),
    "adjoint-bool-indices": (lambda op: op.adjoint_support([False, True], np.zeros(op.m)), "integers"),
}

# Indices that are integers but no support.  A repeated index was applied
# twice (3*phi_3 on a dense operator, 2*phi_3 on a partial-DCT one for
# ``forward_support([3, 3], [1, 2])``), a negative one applied column N - k,
# and one past N raised numpy's IndexError.
NOT_A_SUPPORT = {
    "repeated": ([3, 3], "strictly increasing and non-negative"),
    "descending": ([7, 3], "strictly increasing and non-negative"),
    "negative": ([-1], "strictly increasing and non-negative"),
    "negative-in-support": ([-2, 4], "strictly increasing and non-negative"),
    "at-N": ([49, 50], "support index out of range"),
    "past-N": ([60], "support index out of range"),
}


@pytest.mark.parametrize("ensemble", ENSEMBLES)
@pytest.mark.parametrize("side", ["forward", "adjoint"])
@pytest.mark.parametrize("indices, message", NOT_A_SUPPORT.values(), ids=NOT_A_SUPPORT.keys())
def test_support_applies_refuse_indices_that_are_no_support(ensemble, side, indices, message):
    op = make_operator(ensemble, 20, 50, seed=3)
    with pytest.raises(UsageError, match=message):
        if side == "forward":
            op.forward_support(indices, np.arange(1.0, len(indices) + 1.0))
        else:
            op.adjoint_support(indices, np.ones(op.m))
    assert op.matvec_count == 0


@pytest.mark.parametrize("ensemble", ENSEMBLES)
@pytest.mark.parametrize("call, message", BAD_SUPPORT_APPLIES.values(), ids=BAD_SUPPORT_APPLIES.keys())
def test_support_applies_refuse_malformed_input(ensemble, call, message):
    op = make_operator(ensemble, 20, 50, seed=3)
    with pytest.raises(UsageError, match=message):
        call(op)
    assert op.matvec_count == 0


@pytest.mark.parametrize("ensemble", ["gaussian", "bernoulli"])
def test_support_applies_equal_freshly_gathered_columns(ensemble):
    # Dense operators keep the last gathered column block.  Whatever the
    # call order, and even when the caller rewrites its index array in
    # place, each apply must give the bytes of a fresh gather and count once.
    a = np.array([2, 9, 31, 58])
    b = np.array([0, 9, 40, 41, 59])
    _run_gather_plan(make_operator(ensemble, 24, 60, seed=4), a, b, [5, 9, 31, 58], [5, 9, 31, 57])
    if ensemble == "gaussian":
        # The mc-dense shape with supports of CoSaMP's merged size, 3s = 96.
        # The block's memory order is part of the bytes: a C-ordered gather,
        # matrix.take(T, axis=1), gives other products here than the
        # F-ordered matrix[:, T].
        gen = SplitMix64(21)
        a = gen.choose_without_replacement(2046, 96)
        b = gen.choose_without_replacement(2048, 96)
        _run_gather_plan(make_operator(ensemble, 512, 2048, seed=4), a, b, [*a[:-1], 2046], [*a[:-1], 2047])


def _run_gather_plan(op, a, b, first_rewrite, second_rewrite):
    """Apply ``op`` on the supports ``a`` and ``b``, on one column of ``a``
    and on a copy of ``a`` rewritten in place, each against a fresh gather
    from its dense matrix."""
    dense = op.dense_matrix()
    gen = SplitMix64(13)
    one = a[2:3]  # one column, as OMP and ROMP apply: it replaces the block of a
    mutable = a.copy()
    plan = [
        (a, None), (b, None), (a, None), (a, None),  # alternating, then repeated
        (one, None), (a, None), (one, None),
        (mutable, None),  # a new array with the values of the last support
        (mutable, first_rewrite), (mutable, second_rewrite),  # rewritten in place
        (b, None), (mutable, None),
    ]
    for indices, values in plan:
        if values is not None:
            indices[:] = values
        block = dense[:, indices]
        coeffs = gen.normal(len(indices))
        v = gen.normal(op.m)
        count = op.matvec_count
        assert op.forward_support(indices, coeffs).tobytes() == (block @ coeffs).tobytes()
        assert op.matvec_count == count + 1
        assert op.adjoint_support(indices, v).tobytes() == (block.T @ v).tobytes()
        assert op.matvec_count == count + 2


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_determinism_and_seed_sensitivity(ensemble):
    a = make_operator(ensemble, 16, 32, seed=77)
    b = make_operator(ensemble, 16, 32, seed=77)
    c = make_operator(ensemble, 16, 32, seed=78)
    gen = SplitMix64(2)
    for _ in range(5):
        x = gen.normal(32)
        assert np.array_equal(a.forward(x), b.forward(x))
    assert not np.array_equal(a.dense_matrix(), c.dense_matrix())


def test_partial_dct_identity_when_square():
    op = make_operator("partial_dct", 48, 48, seed=4)
    gen = SplitMix64(13)
    x = gen.normal(48)
    np.testing.assert_allclose(op.adjoint(op.forward(x)), x, atol=1e-10)


def test_partial_dct_dense_matches_cosine_formula():
    # dense_matrix() is built from the closed form; verify the fast
    # transform path against it row by row as an independent oracle.
    op = make_operator("partial_dct", 6, 16, seed=10)
    dense = op.dense_matrix()
    scale = math.sqrt(16 / 6)
    for position, k in enumerate(op.rows):
        np.testing.assert_allclose(dense[position], scale * dct_row_oracle(16, int(k)), atol=1e-12)
    # distinct rows, all below N
    assert len(set(op.rows.tolist())) == 6
    assert int(op.rows.max()) < 16


def test_partial_dct_fast_path_equals_dense_larger():
    op = make_operator("partial_dct", 100, 512, seed=6)
    dense = op.dense_matrix()
    x = SplitMix64(30).normal(512)
    np.testing.assert_allclose(op.forward(x), dense @ x, atol=1e-10)


@pytest.mark.parametrize("N", [4096, 1000, 4099])
def test_partial_dct_applies_have_the_bits_of_scipy_fft(N):
    # The operator runs pocketfft through scipy.fftpack, in place on its own
    # padded arrays; every apply must give scipy.fft's bits, and forward
    # must leave the caller's vector as it was.
    from scipy import fft

    m = N // 4
    op = make_operator("partial_dct", m, N, seed=N)
    scale = math.sqrt(N / m)
    gen = SplitMix64(N + 1)
    x, v = gen.normal(N), gen.normal(m)
    support = gen.choose_without_replacement(N, 48)
    coeffs = gen.normal(48)
    kept = x.copy()
    full = np.zeros(N)
    full[support] = coeffs
    padded = np.zeros(N)
    padded[op.rows] = v
    want_forward = scale * fft.dct(x, type=2, norm="ortho")[op.rows]
    want_adjoint = scale * fft.idct(padded, type=2, norm="ortho")
    assert op.forward(x).tobytes() == want_forward.tobytes()
    assert x.tobytes() == kept.tobytes()
    assert op.adjoint(v).tobytes() == want_adjoint.tobytes()
    assert op.forward_support(support, coeffs).tobytes() == (scale * fft.dct(full, type=2, norm="ortho")[op.rows]).tobytes()
    assert op.adjoint_support(support, v).tobytes() == want_adjoint[support].tobytes()


def test_bernoulli_entries():
    op = make_operator("bernoulli", 4, 4, seed=123)
    dense = op.dense_matrix()
    assert set(np.unique(dense).tolist()) == {-0.5, 0.5}


def test_gaussian_column_norms_concentrate():
    op = make_operator("gaussian", 128, 256, seed=20)
    dense = op.dense_matrix()
    norms = np.linalg.norm(dense, axis=0)
    assert 0.9 < float(np.mean(norms)) < 1.1


def test_zero_maps_to_zero():
    for ensemble in ENSEMBLES:
        op = make_operator(ensemble, 8, 20, seed=1)
        assert np.all(op.forward(np.zeros(20)) == 0.0)
        assert np.all(op.adjoint(np.zeros(8)) == 0.0)


def test_gaussian_forward_on_basis_vector_is_column():
    op = make_operator("gaussian", 12, 18, seed=31)
    dense = op.dense_matrix()
    e = np.zeros(18)
    e[5] = 1.0
    np.testing.assert_allclose(op.forward(e), dense[:, 5], atol=1e-14)


def test_matvec_counter():
    op = make_operator("gaussian", 8, 16, seed=2)
    assert op.matvec_count == 0
    op.forward(np.zeros(16))
    op.adjoint(np.zeros(8))
    op.forward_support(np.array([1, 2]), np.array([1.0, 2.0]))
    op.adjoint_support(np.array([1, 2]), np.zeros(8))
    assert op.matvec_count == 4


def test_dimension_validation():
    with pytest.raises(UsageError):
        make_operator("gaussian", 0, 4, seed=1)
    with pytest.raises(UsageError):
        make_operator("gaussian", 5, 4, seed=1)
    with pytest.raises(UsageError):
        make_operator("fourier", 4, 8, seed=1)
    op = make_operator("gaussian", 4, 8, seed=1)
    with pytest.raises(UsageError):
        op.forward(np.zeros(7))
    with pytest.raises(UsageError):
        op.adjoint(np.zeros(9))


@pytest.mark.parametrize(
    "ensemble, m, N, refused",
    [
        ("gaussian", 2**13, 2**13, False),  # exactly MAX_DENSE_ENTRIES
        ("gaussian", 2**13, 2**13 + 1, True),
        ("bernoulli", 2**13 + 1, 2**13, True),
        ("bernoulli", 100_000, 1_000_000, True),
        ("partial_dct", 100_000, 1_000_000, False),  # stores no entries
        ("partial_dct", 16, 2**26, False),  # length-N vectors at the cap
        ("partial_dct", 16, 2**26 + 1, True),
    ],
)
def test_dense_size_cap(monkeypatch, ensemble, m, N, refused):
    assert MAX_DENSE_ENTRIES == 2**26
    if not refused:
        check_dense_size(ensemble, m, N)
        return

    def no_operator(*args):
        raise AssertionError("the entries were allocated")

    monkeypatch.setattr(sensing, "_DenseEnsembleOperator", no_operator)
    monkeypatch.setattr(sensing, "_PartialDctOperator", no_operator)
    if ensemble == "partial_dct":
        message = f"m={m}, N={N} works on vectors of {N} entries"
    else:
        message = f"m={m}, N={N} holds {m * N} entries"
    with pytest.raises(UsageError, match=message):
        check_dense_size(ensemble, m, N)
    with pytest.raises(UsageError, match=message):
        make_operator(ensemble, m, N, seed=0)


# --- operators built from a shared draw --------------------------------------

def _count_draws(monkeypatch):
    """Record the seed of each random stream ``sensing`` opens from now on."""
    draws = []

    def counted(seed):
        draws.append(seed)
        return SplitMix64(seed)

    monkeypatch.setattr(sensing, "SplitMix64", counted)
    return draws


def assert_same_operator(a, b):
    assert (a.ensemble, a.m, a.N) == (b.ensemble, b.m, b.N)
    assert a.dense_matrix().tobytes() == b.dense_matrix().tobytes()
    if a.ensemble is Ensemble.PARTIAL_DCT:
        assert a.rows.tobytes() == b.rows.tobytes()


def reference_operator_bytes(ensemble, m, N, seed):
    """An operator's entries (dense, from the whole-array oracle over the
    reference stream) or rows (partial DCT, drawn directly)."""
    if ensemble == "partial_dct":
        return SplitMix64(seed).choose_without_replacement(N, m).tobytes()
    oracle = reference_normal if ensemble == "gaussian" else reference_signs
    return (oracle(seed, m * N) * (1.0 / math.sqrt(m))).tobytes()


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_prefix_operators_equal_fresh_ones_byte_for_byte(monkeypatch, ensemble):
    # An odd N makes m * N odd for every odd m, so prefixes end at odd stream
    # positions; at N = 513 the larger draws, and the shared one, span
    # several ``rng`` blocks and hold hundreds of rejected words.
    seed = 0x5EED_F00D
    for N, m_values in ((129, (1, 15, 33, 129)), (513, (1, 129, 257))):
        fresh = {m: make_operator(ensemble, m, N, seed) for m in m_values}
        for m, op in fresh.items():
            built = op.rows if ensemble == "partial_dct" else op.dense_matrix()
            assert built.tobytes() == reference_operator_bytes(ensemble, m, N, seed)
        draws = _count_draws(monkeypatch)
        with sensing._shared_draw(Ensemble(ensemble), max(m_values), N, seed):
            for m, op in fresh.items():
                assert_same_operator(make_operator(ensemble, m, N, seed), op)
        if ensemble == "partial_dct":
            assert len(draws) == len(fresh)  # a partial-DCT block shares nothing
        else:
            assert len(draws) == 1  # every operator came from the block's one draw


# Fresh Gaussian and Bernoulli operators leave the generator's blocks
# already scaled by 1/sqrt(m).  Blocks of 64 words put rejected words at
# both edges of a block and, at this seed, in the partial last block of the
# 7-row draw; the 512-row draw takes every ziggurat step, and a 2 x 6
# operator's 12 entries are mapped word by word.
SCALED_SEED, SCALED_N = 22, 515


@pytest.fixture(scope="module")
def scaled_oracle():
    """The oracle's 512-row draws, whose prefixes are every smaller draw,
    and the ziggurat steps the Gaussian one takes."""
    paths = {}
    gaussian = reference_normal(SCALED_SEED, 512 * SCALED_N, paths=paths)
    return {"gaussian": gaussian, "bernoulli": reference_signs(SCALED_SEED, 512 * SCALED_N)}, paths


@pytest.mark.parametrize("m, N", [(1, SCALED_N), (2, SCALED_N), (4, SCALED_N), (7, SCALED_N), (512, SCALED_N), (2, 6)])
@pytest.mark.parametrize("ensemble", ["gaussian", "bernoulli"])
def test_fresh_operators_hold_the_scaled_draw(monkeypatch, scaled_oracle, ensemble, m, N):
    monkeypatch.setattr(rng, "_BLOCK", 64)
    scale = 1.0 / math.sqrt(m)
    entries = make_operator(ensemble, m, N, SCALED_SEED).dense_matrix()
    draw = getattr(SplitMix64(SCALED_SEED), "normal" if ensemble == "gaussian" else "signs")(m * N)
    assert entries.tobytes() == (draw * scale).tobytes()
    assert entries.tobytes() == (scaled_oracle[0][ensemble][: m * N] * scale).tobytes()


def test_the_scaled_draws_reject_at_block_edges_and_take_every_step(monkeypatch, scaled_oracle):
    monkeypatch.setattr(rng, "_BLOCK", 64)
    rejected = []
    block = SplitMix64._normal_block

    def spy(self, first, dest, scratch, scale):
        found = block(self, first, dest, scratch, scale)
        if found is not None:
            rejected.extend(found[0].tolist())
        return found

    monkeypatch.setattr(SplitMix64, "_normal_block", spy)
    make_operator("gaussian", 7, SCALED_N, SCALED_SEED)
    assert max(rejected) >= 7 * SCALED_N // 64 * 64  # in the partial last block
    rejected.clear()
    make_operator("gaussian", 512, SCALED_N, SCALED_SEED)
    assert {0, 63} <= {position % 64 for position in rejected}
    paths = scaled_oracle[1]
    assert min(paths.get(step, 0) for step in ("fast", "wedge", "tail", "retry")) > 0, paths


@pytest.mark.parametrize(
    "draw",
    [lambda: SplitMix64(3).normal(2**20), lambda: make_operator("gaussian", 512, 2048, 3)],
    ids=["normal", "operator"],
)
def test_a_draw_of_two_to_the_twenty_resolves_its_rejects_in_one_round(monkeypatch, draw):
    # Each array round has a fixed cost of about 40 us, so the 4,500 or so
    # rejected words of an mc-dense operator's draw go in one.
    rounds = []
    resolve = SplitMix64._resolve

    def spy(self, start, out, scale, positions, *rest):
        rounds.append(positions.size)
        resolve(self, start, out, scale, positions, *rest)

    monkeypatch.setattr(SplitMix64, "_resolve", spy)
    draw()
    assert len(rounds) == 1 and rounds[0] > 4000, rounds


@pytest.mark.parametrize(
    "ensemble, m, N, seed",
    [
        ("bernoulli", 16, 64, 3),  # another ensemble
        ("gaussian", 16, 65, 3),  # another N
        ("gaussian", 16, 64, 4),  # another seed
        ("gaussian", 33, 64, 3),  # more rows than were drawn
    ],
    ids=["ensemble", "N", "seed", "larger-m"],
)
def test_shared_draw_serves_only_its_own_operators(monkeypatch, ensemble, m, N, seed):
    with sensing._shared_draw(Ensemble.GAUSSIAN, 32, 64, 3):
        draws = _count_draws(monkeypatch)
        op = make_operator(ensemble, m, N, seed)
        assert len(draws) == 1
    assert_same_operator(op, make_operator(ensemble, m, N, seed))


def test_shared_draw_does_not_outlive_its_block(monkeypatch):
    draws = _count_draws(monkeypatch)
    with sensing._shared_draw(Ensemble.GAUSSIAN, 32, 64, 3):
        make_operator("gaussian", 8, 64, 3)
    assert len(draws) == 1
    make_operator("gaussian", 8, 64, 3)
    assert len(draws) == 2

    with pytest.raises(RuntimeError, match="inside"):
        with sensing._shared_draw(Ensemble.BERNOULLI, 32, 64, 3):
            raise RuntimeError("raised inside the block")
    assert len(draws) == 3
    make_operator("bernoulli", 8, 64, 3)
    assert len(draws) == 4
    assert sensing._scope.draw is None


def test_shared_draw_is_per_thread(monkeypatch):
    draws = _count_draws(monkeypatch)
    with sensing._shared_draw(Ensemble.GAUSSIAN, 32, 64, 3):
        worker = threading.Thread(target=make_operator, args=("gaussian", 8, 64, 3))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert len(draws) == 2  # the other thread drew its own
        make_operator("gaussian", 8, 64, 3)
        assert len(draws) == 2  # this thread's operator came from the block


def test_ensemble_enum_accepts_instances():
    op = make_operator(Ensemble.BERNOULLI, 4, 8, seed=9)
    assert op.ensemble is Ensemble.BERNOULLI


# --- empirical RIC probe -----------------------------------------------------

def test_ric_identity_like_operator():
    op = make_operator("partial_dct", 32, 32, seed=14)
    est = empirical_ric(op, 5, 100, seed=0)
    assert est.delta_lower <= 1e-10


def test_ric_witness_reevaluates_exactly():
    op = make_operator("gaussian", 32, 64, seed=25)
    est = empirical_ric(op, 4, 200, seed=7)
    assert est.delta_lower > 0.0
    assert est.reevaluate(op) == est.delta_lower
    assert np.count_nonzero(est.witness) <= 4
    assert np.linalg.norm(est.witness) == pytest.approx(1.0, abs=1e-12)


def test_ric_singleton_matches_column_norm_scan():
    # With n=1 every probe vector is +-e_j, so the probe reduces to a
    # column-norm scan once sampling has covered every column.
    op = make_operator("gaussian", 6, 6, seed=44)
    est = empirical_ric(op, 1, 400, seed=3)
    norms = np.linalg.norm(op.dense_matrix(), axis=0)
    expected = float(np.max(np.maximum(1.0 - norms, norms - 1.0)))
    assert est.delta_lower == pytest.approx(expected, abs=1e-14)


def test_ric_redraws_an_all_zero_probe(monkeypatch):
    op = make_operator("partial_dct", 16, 32, seed=3)
    sizes = zero_next_normal(monkeypatch)
    est = empirical_ric(op, 4, 1, seed=9)
    # Positions 0-3 pick the support, 4-7 the zeroed draw, 8-11 the redraw.
    assert sizes == [4, 4]
    support = SplitMix64(9).choose_without_replacement(32, 4)
    coeffs = reference_normal(9, 4, 8)
    assert est.witness.tobytes() == embed(coeffs / l2_norm(coeffs), support, 32).tobytes()
    assert est.reevaluate(op) == est.delta_lower


def test_ric_validation():
    op = make_operator("gaussian", 8, 16, seed=2)
    with pytest.raises(UsageError):
        empirical_ric(op, 9, 10, seed=1)  # n > m
    with pytest.raises(UsageError):
        empirical_ric(op, 0, 10, seed=1)
    with pytest.raises(UsageError):
        empirical_ric(op, 2, 0, seed=1)


def test_ric_deterministic():
    op = make_operator("bernoulli", 16, 40, seed=5)
    a = empirical_ric(op, 3, 50, seed=9)
    b = empirical_ric(op, 3, 50, seed=9)
    assert a.delta_lower == b.delta_lower
    assert np.array_equal(a.witness, b.witness)


# ------------------------------------------------------------- cold start

def run_fresh(code):
    """Run ``code`` in a new interpreter that imports this sparsekit; return
    the JSON object it prints last."""
    src = Path(sensing.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_dense_work_loads_no_scipy_and_a_partial_dct_operator_loads_it():
    loaded = run_fresh(f"""
import contextlib, io, json, sys
import sparsekit
import sparsekit.cli
sparsekit.run_trials(sparsekit.TrialConfig("romp", "bernoulli", 32, 64, 4, 3, 7))
with contextlib.redirect_stdout(io.StringIO()):
    code = sparsekit.cli.main(["recover", "--alg", "omp", "--ensemble", "gaussian",
                               "--m", "32", "--N", "64", "--s", "4", "--seed", "3"])
dense = {SCIPY_MODULES}
sparsekit.make_operator("partial_dct", 16, 64, 3)
print(json.dumps({{"code": code, "dense": dense, "dct": "scipy.fft" in sys.modules}}))
""")
    assert loaded == {"code": 0, "dense": [], "dct": True}


def test_first_scipy_import_inside_the_sweep_pool(tmp_path):
    # The two workers start on their first trials together, so both can
    # reach the scipy.fft import while it is loading; the finder records
    # which thread loads it.  At N = 16384 one transform is above
    # bench.POOL_MIN_APPLY_WORK, so the sweep runs in the pool.
    argv = ["sweep", "--alg", "omp", "--ensemble", "partial_dct", "--N", "16384",
            "--m-values", "512,1024", "--s-values", "4,8", "--trials", "6", "--seed", "3"]
    pooled = tmp_path / "pooled.csv"
    loaded = run_fresh(f"""
import importlib.abc, json, sys, threading
importers = []

class Spy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "scipy.fft":
            importers.append(threading.current_thread().name)
        return None

sys.meta_path.insert(0, Spy())
import sparsekit.cli
before = {SCIPY_MODULES}
code = sparsekit.cli.main({argv!r} + ["--threads", "2", "--out", {str(pooled)!r}])
print(json.dumps({{"code": code, "before": before, "importers": importers}}))
""")
    assert loaded["code"] == 0 and loaded["before"] == []
    assert len(loaded["importers"]) == 1 and loaded["importers"][0] != "MainThread"
    serial = tmp_path / "serial.csv"
    assert cli.main(argv + ["--threads", "1", "--out", str(serial)]) == 0
    assert pooled.read_bytes() == serial.read_bytes()
