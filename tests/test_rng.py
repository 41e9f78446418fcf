import hashlib
import tracemalloc

import numpy as np
import pytest

from refstream import MASK, reference_normal, reference_signs, reference_stream, uniform, word
from sparsekit import rng
from sparsekit.rng import SplitMix64, derive_seed, mix64


def test_matches_reference_stream():
    for seed in (0, 1, 42, 2**63, MASK):
        gen = SplitMix64(seed)
        assert list(gen.raw(16)) == reference_stream(seed, 16)


def test_known_values_seed_zero():
    # First outputs of the widely published seed-0 stream; pins the
    # generator across platforms and releases.
    gen = SplitMix64(0)
    assert word(gen) == 0xE220A8397B1DCDAF
    assert word(gen) == 0x6E789E6AA1B965F4
    assert word(gen) == 0x06C45D188009454F


def test_vector_and_scalar_paths_agree():
    # The scalar path is the pure-Python reference stream; split and
    # one-word draws land on the same stream positions as one block.
    a = SplitMix64(99).raw(7)
    b = reference_stream(99, 7)
    gen = SplitMix64(99)
    c = list(gen.raw(3)) + [word(gen)] + list(gen.raw(3))
    assert list(a) == b == c


def test_position_tracks_consumption():
    gen = SplitMix64(5)
    assert gen.position == 0
    gen.raw(10)
    assert gen.position == 10
    gen.normal(3)  # Box-Muller consumes pairs
    assert gen.position == 14


def test_normal_moments():
    z = SplitMix64(123).normal(200000)
    assert abs(float(np.mean(z))) < 0.01
    assert abs(float(np.std(z)) - 1.0) < 0.01
    assert np.all(np.isfinite(z))


def test_signs_are_unit_magnitude():
    s = SplitMix64(3).signs(1000)
    assert set(np.unique(s)) == {-1.0, 1.0}
    # roughly balanced
    assert 400 < int(np.sum(s == 1.0)) < 600


def test_choose_without_replacement():
    for seed in range(20):
        got = SplitMix64(seed).choose_without_replacement(50, 12)
        assert got.dtype == np.int64
        assert len(set(got.tolist())) == 12
        assert np.all(np.diff(got) > 0)
        assert got[0] >= 0 and got[-1] < 50


def test_choose_edge_sizes():
    assert SplitMix64(1).choose_without_replacement(10, 0).size == 0
    full = SplitMix64(1).choose_without_replacement(10, 10)
    assert np.array_equal(full, np.arange(10))


def test_permutation_is_permutation():
    for seed in range(10):
        p = SplitMix64(seed).permutation(31)
        assert np.array_equal(np.sort(p), np.arange(31))


def test_derive_seed_sensitivity():
    base = derive_seed(2024, 0)
    assert derive_seed(2024, 1) != base
    assert derive_seed(2025, 0) != base
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert 0 <= derive_seed(2024, 7) <= MASK


def test_mix64_is_masked():
    assert 0 <= mix64(MASK) <= MASK
    assert mix64(0) == mix64(1 << 64)  # inputs reduced mod 2^64


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_normal_length(n):
    assert SplitMix64(11).normal(n).shape == (n,)


def test_variate_bits_pinned():
    # The pure-Python reference covers raw words only; this pins the bits of
    # every array draw and the stream position after each call, for zero,
    # odd, even and large sizes with the methods interleaved.  The uniform
    # draws are the tests' own (``refstream.uniform``), kept so the digest
    # covers the same stream positions.
    gen = SplitMix64(0x5EED)
    digest = hashlib.sha256()
    for n in (0, 1, 2, 7, 10, 2**20 + 1):
        for method in (gen.raw, lambda n: uniform(gen, n), gen.normal, gen.signs):
            out = method(n)
            assert out.shape == (n,)
            digest.update(out.dtype.str.encode())
            digest.update(out.tobytes())
            digest.update(gen.position.to_bytes(8, "little"))
    assert digest.hexdigest() == "353bed001aace7653d7134281c09f745cb1bff315370b6853b7d4acddc95da1a"


@pytest.mark.parametrize("block", [None, 6], ids=["module-block", "block-6"])
def test_blocked_draws_match_whole_array_oracle(monkeypatch, block):
    # Sizes a word short of, at, a word past and three words past a whole
    # number of blocks, each drawn from an odd stream position.  A block of
    # 6 words holds 3 Box-Muller pairs, so no vector lane lines up with it.
    if block is not None:
        monkeypatch.setattr(rng, "_BLOCK", block)
    seed = 0xB10C
    size = rng._BLOCK
    for n in (size - 1, size, size + 1, 2 * size + 3):
        oracles = {
            "raw": np.array(reference_stream(seed, 1 + n)[1:], dtype=np.uint64),
            "normal": reference_normal(seed, n, position=1),
            "signs": reference_signs(seed, n, position=1),
        }
        for method, want in oracles.items():
            gen = SplitMix64(seed)
            gen.raw(1)
            got = getattr(gen, method)(n)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (method, n)
            assert gen.position == 1 + (2 * ((n + 1) // 2) if method == "normal" else n)


@pytest.mark.parametrize("method", ["normal", "signs"])
def test_large_draw_allocates_little_beyond_its_result(method):
    # Words are made and mapped a block at a time: a 2**20 draw (8 MiB) may
    # hold at most 1 MiB of scratch besides its result.
    tracemalloc.start()
    try:
        out = getattr(SplitMix64(3), method)(2**20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == 2**23
    assert peak <= out.nbytes + 2**20, f"peak {peak / 2**20:.2f} MiB"


def reference_fisher_yates(seed, population, steps):
    """Pure-Python Fisher-Yates over ``reference_stream``: the oracle for the
    index draws.  Step ``i`` swaps entry ``i`` with entry ``i + word % (population - i)``,
    one stream word per step; returns the shuffled list."""
    pool = list(range(population))
    for i, word in enumerate(reference_stream(seed, steps)):
        j = i + word % (population - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool


CHOOSE_SIZES = [(0, 0), (1, 1), (2, 1), (10, 10), (50, 12), (2048, 32), (4096, 1024)]
PERMUTATION_SIZES = [0, 1, 2, 31, 4096]


@pytest.mark.parametrize("population, k", CHOOSE_SIZES)
def test_choose_matches_reference_fisher_yates(population, k):
    for seed in (0, 3, MASK):
        gen = SplitMix64(seed)
        got = gen.choose_without_replacement(population, k)
        pool = reference_fisher_yates(seed, population, k)
        assert got.dtype == np.int64
        assert got.tolist() == sorted(pool[:k])
        assert gen.position == k


@pytest.mark.parametrize("n", PERMUTATION_SIZES)
def test_permutation_matches_reference_fisher_yates(n):
    for seed in (0, 3, MASK):
        gen = SplitMix64(seed)
        got = gen.permutation(n)
        pool = reference_fisher_yates(seed, n, max(n - 1, 0))
        assert got.dtype == np.int64
        assert got.tolist() == pool
        assert gen.position == max(n - 1, 0)


def test_index_draw_bits_pinned():
    # Every size above from one stream, so each call starts mid-stream; the
    # sha256 covers the indices and the position after each call.
    gen = SplitMix64(0x1D5)
    digest = hashlib.sha256()

    def record(out):
        digest.update(out.dtype.str.encode())
        digest.update(out.tobytes())
        digest.update(gen.position.to_bytes(8, "little"))

    for population, k in CHOOSE_SIZES:
        record(gen.choose_without_replacement(population, k))
    for n in PERMUTATION_SIZES:
        record(gen.permutation(n))
    assert digest.hexdigest() == "7bd46b411b3c40f643a73985f73c5474454fba868de35a4714c4833cba438373"
