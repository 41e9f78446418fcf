import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


# Split draws at a block of 12 words, so a few dozen words make a draw that
# splits, into half blocks of 6 words (3 Box-Muller pairs).  EDGE_SIZES holds
# 0, 1, odd sizes, and one word either side of a block boundary, of the split
# size (itself a block boundary) and of a half-block boundary past it.
SPLIT_BLOCK = 12
SPLIT_WORDS = rng._SPLIT_BLOCKS * SPLIT_BLOCK
EDGE_SIZES = [0, 1, 3, 5, 11, 12, 13, SPLIT_WORDS - 1, SPLIT_WORDS, SPLIT_WORDS + 1, SPLIT_WORDS + 2,
              SPLIT_WORDS + 5, SPLIT_WORDS + 6, SPLIT_WORDS + 7, 4 * SPLIT_WORDS + 1]


def interleaved_draws(seed, position, sizes, cores):
    """``raw``, ``normal`` and ``signs`` at each size in turn, from one
    generator at ``position`` with a block of ``SPLIT_BLOCK`` words, as a
    process on ``cores`` cores makes them: each output with the position
    after it.  The switch interval is shortened so that the helper thread
    takes blocks of even these small draws."""
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng, "_BLOCK", SPLIT_BLOCK)
            patch.setattr(rng, "_cores", lambda: cores)
            gen = SplitMix64(seed)
            gen.raw(position)
            return [(getattr(gen, method)(n), gen.position) for n in sizes for method in ("raw", "normal", "signs")]
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, MASK),
    position=st.integers(0, 40),
    sizes=st.lists(st.one_of(st.sampled_from(EDGE_SIZES), st.integers(0, 6 * SPLIT_WORDS)), min_size=1, max_size=3),
)
@example(seed=0x5EED, position=1, sizes=EDGE_SIZES)
def test_split_draws_match_the_oracles_and_one_thread(seed, position, sizes):
    split = interleaved_draws(seed, position, sizes, cores=2)
    one = interleaved_draws(seed, position, sizes, cores=1)
    assert [(a.dtype, a.tobytes(), p) for a, p in split] == [(b.dtype, b.tobytes(), q) for b, q in one]
    draws = iter(split)
    for n in sizes:
        oracles = {
            "raw": lambda: np.array(reference_stream(seed, position + n)[position:], dtype=np.uint64),
            "normal": lambda: reference_normal(seed, n, position=position),
            "signs": lambda: reference_signs(seed, n, position=position),
        }
        for method, oracle in oracles.items():
            got, after = next(draws)
            want = oracle()
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (method, n)
            position += 2 * ((n + 1) // 2) if method == "normal" else n
            assert after == position, (method, n)


def split_size():
    """A normal draw that splits at the module's block size: one block and
    one pair past the split size."""
    return (rng._SPLIT_BLOCKS + 1) * rng._BLOCK + 2


def test_helper_blocks_land_in_place(monkeypatch):
    # The caller's first block waits until the helper has mixed words, so on
    # any machine the helper makes part of the draw.
    monkeypatch.setattr(rng, "_cores", lambda: 2)
    caller = threading.get_ident()
    helped = threading.Event()
    mix = rng._mix64_array

    def mix_once_helped(z, shifted):
        if threading.get_ident() == caller:
            assert helped.wait(30)
        else:
            helped.set()
        return mix(z, shifted)

    monkeypatch.setattr(rng, "_mix64_array", mix_once_helped)
    got = SplitMix64(11).normal(split_size())
    assert helped.is_set()
    monkeypatch.setattr(rng, "_cores", lambda: 1)
    gen = SplitMix64(11)
    assert got.tobytes() == gen.normal(split_size()).tobytes()
    assert gen.position == split_size()


def test_helper_error_reaches_the_caller(monkeypatch):
    # A block the helper fails to make would leave its slice unwritten: the
    # draw must raise, not return.
    monkeypatch.setattr(rng, "_cores", lambda: 2)
    caller = threading.get_ident()
    failed = threading.Event()
    mix = rng._mix64_array

    def mix_failing_on_the_helper(z, shifted):
        if threading.get_ident() == caller:
            assert failed.wait(30)
            return mix(z, shifted)
        failed.set()
        raise MemoryError("helper scratch")

    monkeypatch.setattr(rng, "_mix64_array", mix_failing_on_the_helper)
    with pytest.raises(MemoryError, match="helper scratch"):
        SplitMix64(11).normal(split_size())


def test_busy_helper_does_not_stall_a_split_draw(monkeypatch):
    # The helper is held by another job for the whole draw, as by another
    # thread's draw: the caller makes every block itself and returns.
    monkeypatch.setattr(rng, "_cores", lambda: 2)
    release = threading.Event()
    held = rng._HELPER.submit(lambda: release.wait(10))
    try:
        got = SplitMix64(13).normal(split_size())
        assert not held.done()
    finally:
        release.set()
    assert held.result(timeout=10)
    monkeypatch.setattr(rng, "_cores", lambda: 1)
    assert got.tobytes() == SplitMix64(13).normal(split_size()).tobytes()


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
