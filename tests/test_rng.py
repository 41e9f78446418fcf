import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refstream
from refstream import MASK, reference_normal, reference_signs, reference_stream, uniform, word
from sparsekit import bench, rng
from sparsekit.errors import UsageError
from sparsekit.rng import SplitMix64, derive_seed, mix64


def test_matches_reference_stream():
    for seed in (0, 1, 42, 2**63, MASK):
        gen = SplitMix64(seed)
        assert list(gen.raw(16)) == reference_stream(seed, 16)


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda gen: gen.raw(-1), "draw count must be non-negative"),
        (lambda gen: gen.normal(-1), "draw count must be non-negative"),
        (lambda gen: gen.signs(-2), "draw count must be non-negative"),
        (lambda gen: gen.choose_without_replacement(5, 6), "need 0 <= k <= population"),
        (lambda gen: gen.choose_without_replacement(5, -1), "need 0 <= k <= population"),
    ],
    ids=["raw", "normal", "signs", "k-past-population", "negative-k"],
)
def test_a_draw_refuses_a_count_it_cannot_take(draw, message):
    # UsageError is a ValueError, so callers that caught ValueError still do.
    gen = SplitMix64(1)
    with pytest.raises(UsageError, match=message):
        draw(gen)
    assert gen.position == 0


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
    gen.normal(3)  # one position per variate
    assert gen.position == 13


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
    assert digest.hexdigest() == "a7d637707b653e5d136b3f13c9e92be6bb7cafd24e00fac3000091623c084389"


@pytest.mark.parametrize("block", [None, 6], ids=["module-block", "block-6"])
def test_blocked_draws_match_whole_array_oracle(monkeypatch, block):
    # Sizes a word short of, at, a word past and three words past a whole
    # number of blocks, each drawn from an odd stream position.  A block of
    # 6 words lines up with no vector lane.
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
            assert gen.position == 1 + n


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


# Draws from a block of 64 words: a few thousand words hold a few dozen
# rejected ones, which block draws resolve on arrays and then in Python,
# all at once or a few at a time.  EDGE_SIZES holds 0, 1, one word either
# side of the largest draw mapped word by word (W), and of one and of three
# blocks.
SMALL_BLOCK = 64
W = rng._WORDWISE
EDGE_SIZES = [0, 1, W - 1, W, W + 1, 63, 64, 65, 191, 192, 193]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, MASK),
    position=st.integers(0, 200),
    sizes=st.lists(st.one_of(st.sampled_from(EDGE_SIZES), st.integers(0, 4000)), min_size=1, max_size=3),
    chunk=st.sampled_from([3, rng._RESOLVE_CHUNK]),
)
@example(seed=0x5EED, position=1, sizes=EDGE_SIZES, chunk=3)
def test_normal_matches_the_scalar_oracle(seed, position, sizes, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "_BLOCK", SMALL_BLOCK)
        patch.setattr(rng, "_RESOLVE_CHUNK", chunk)
        gen = SplitMix64(seed)
        gen.raw(position)
        for n in sizes:
            got = gen.normal(n)
            want = reference_normal(seed, n, position)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), n
            position += n
            assert gen.position == position


def test_every_ziggurat_step_matches_the_oracle():
    # 2**18 variates take every step: the fast path, wedge tests, fresh
    # words after a failed one, and tail draws, with attempt 0 on arrays
    # and the leftovers in Python.
    gen = SplitMix64(0x7A11)
    gen.raw(3)
    paths = {}
    want = reference_normal(0x7A11, 2**18, 3, paths)
    assert gen.normal(2**18).tobytes() == want.tobytes()
    assert min(paths.get(step, 0) for step in ("fast", "wedge", "tail", "retry")) > 0, paths


def test_consecutive_small_draws_take_every_ziggurat_step_like_the_oracle(monkeypatch):
    # The same 2**18 variates as draws of 1 to W words, each mapped word by
    # word, never in blocks.
    monkeypatch.setattr(SplitMix64, "_fill", lambda *args: pytest.fail("a small draw ran in blocks"))
    gen = SplitMix64(0x7A11)
    gen.raw(3)
    paths = {}
    want = reference_normal(0x7A11, 2**18, 3, paths)
    got = []
    while len(got) < 2**18:
        got.extend(gen.normal(min(1 + len(got) % W, 2**18 - len(got))).tolist())
    assert np.array(got).tobytes() == want.tobytes()
    assert gen.position == 3 + 2**18
    assert min(paths.get(step, 0) for step in ("fast", "wedge", "tail", "retry")) > 0, paths


@pytest.mark.parametrize("n", [W - 1, W, W + 1])
def test_draws_either_side_of_the_word_by_word_threshold_match_the_reference(n):
    for seed in (0, 3, MASK):
        gen = SplitMix64(seed)
        gen.raw(1)
        got = gen.raw(n)
        assert got.dtype == np.uint64
        assert got.tolist() == reference_stream(seed, 1 + n)[1:]
        assert gen.position == 1 + n
        gen = SplitMix64(seed)
        assert gen.choose_without_replacement(256, n).tolist() == sorted(reference_fisher_yates(seed, 256, n)[:n])
        assert gen.position == n


def test_layer_tables_are_the_oracles_and_a_ziggurat():
    # The package's tables equal the oracle's; each layer has area V within
    # rounding, its heights are exp(-x**2 / 2), the top layer closes at
    # height 1, and V is the base strip's rectangle plus the tail past R.
    edge, height = rng._layers()
    assert (edge, height) == (refstream.EDGE, refstream.HEIGHT)
    assert rng._ZIG_BOUND.tolist() == 2 * refstream.BOUND
    R, V = rng._ZIG_R, rng._ZIG_V
    assert math.isclose(R * math.exp(-R * R / 2) + math.sqrt(math.pi / 2) * math.erfc(R / math.sqrt(2)), V, rel_tol=1e-14)
    assert math.isclose(edge[0] * height[-1], V, rel_tol=1e-15)
    for j in range(1, rng._ZIG_LAYERS):
        above = height[j - 1] if j > 1 else V / edge[1] + height[1]
        assert math.isclose(edge[j] * (above - height[j]), V, rel_tol=1e-12), j
        assert math.isclose(math.exp(-edge[j] ** 2 / 2), height[j], rel_tol=1e-14), j
    assert abs(V / edge[1] + height[1] - 1.0) < 1e-13
    assert all(a < b for a, b in zip(edge[1:], edge[2:]))


def test_normal_distribution_on_a_million_draws():
    # Moments within five standard errors, a Kolmogorov-Smirnov test, and
    # the share of draws past the last layer's edge R against its exact
    # value erfc(R / sqrt(2)), within five binomial standard deviations.
    from scipy import stats

    n = 10**6
    z = SplitMix64(0xD15).normal(n)
    assert abs(z.mean()) < 5 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 5 * math.sqrt(2 / n)
    assert abs(stats.skew(z)) < 5 * math.sqrt(6 / n)
    assert abs(stats.kurtosis(z)) < 5 * math.sqrt(24 / n)
    assert stats.kstest(z, "norm").pvalue > 1e-3
    share = math.erfc(rng._ZIG_R / math.sqrt(2))
    past = int(np.count_nonzero(np.abs(z) > rng._ZIG_R))
    assert abs(past - n * share) < 5 * math.sqrt(n * share * (1 - share)), past


def test_tail_draws_follow_the_normal_tail():
    # Base-strip rejects past R, resolved one at a time: 20,000 of them must
    # follow the normal distribution conditioned on x > R (the oracle shares
    # the algorithm, so only a test against the distribution checks it).
    from scipy import stats

    R = rng._ZIG_R
    gen = SplitMix64(0x7A1)
    tail = np.array([gen._resolve_one(position, 0, R + 1.0, 0) for position in range(20_000)])
    assert tail.min() > R
    beyond = math.erfc(R / math.sqrt(2))
    cdf = np.vectorize(lambda x: 1.0 - math.erfc(x / math.sqrt(2)) / beyond)
    assert stats.kstest(tail, cdf).pvalue > 1e-3


@pytest.mark.parametrize("layer", [1, 2, 500, 1023])
def test_wedge_acceptances_follow_the_curve(layer):
    # Words rejected in one layer, their magnitudes uniform above its bound:
    # the values the first wedge test takes must have density proportional
    # to exp(-x**2 / 2) - f_j on the layer's span [x_{j-1}, x_j].
    from scipy import stats

    inner = 0.0 if layer == 1 else refstream.EDGE[layer - 1]
    outer, floor = refstream.EDGE[layer], refstream.HEIGHT[layer]
    bound = refstream.BOUND[layer]
    gen = SplitMix64(0x3ED6E + layer)
    values = [(bound + w % (2**53 - bound)) * rng._WIDTH[layer] for w in gen.raw(5000).tolist()]
    taken = np.array([x for position, x in enumerate(values) if gen._resolve_one(position, layer, x, 0) == x])
    assert taken.size > 2000 and inner <= taken.min() and taken.max() <= outer

    def area(x):
        return math.sqrt(math.pi / 2) * math.erf(x / math.sqrt(2)) - floor * x

    cdf = np.vectorize(lambda x: (area(x) - area(inner)) / (area(outer) - area(inner)))
    assert stats.kstest(taken, cdf).pvalue > 1e-3


def test_log_is_within_an_ulp_and_the_same_on_floats_and_arrays():
    # 10**5 values: the side streams' uniforms in (0, 1], the wedge heights'
    # range and doubles over a wide range of exponents, plus edge cases.
    gen = SplitMix64(5)
    values = np.concatenate([
        1.0 - uniform(gen, 40_000),
        rng._ZIG_F_R + (1.0 - rng._ZIG_F_R) * uniform(gen, 40_000),
        np.exp2(2000.0 * uniform(gen, 20_000) - 1000.0),
        [1.0, 2.0**-53, 0.5, rng._SQRT_HALF, np.nextafter(rng._SQRT_HALF, 0), 2.0, 1e300, 5e-324],
    ])
    arrays = rng._log(values, np.frexp)
    for y, got in zip(values.tolist(), arrays.tolist()):
        assert rng._log(y, math.frexp) == got == refstream.reference_log(y)
        exact = math.log(y)
        assert abs(got - exact) <= (math.ulp(exact) if exact else 0.0), y


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(masters=st.lists(st.integers(0, MASK), min_size=2, max_size=2, unique=True), trials=st.integers(1, 1000))
def test_no_operator_seed_repeats_across_master_seeds(masters, trials):
    seeds = [bench.trial_seeds(master, i)["operator"] for master in masters for i in range(trials)]
    assert len(set(seeds)) == len(seeds)


def test_masters_five_and_seven_share_no_trial():
    # With the master folded in unmixed, derive_seed(5, i) was derive_seed(7, i ^ 6).
    assert not {derive_seed(5, i) for i in range(40)} & {derive_seed(7, i) for i in range(40)}
    assert derive_seed(7, 0) == refstream.reference_derive_seed(7, 0)


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


# Fisher-Yates draws of at least T steps replay their swaps on arrays.
T = rng._REPLAY_STEPS


@pytest.mark.parametrize("k", [T - 1, T, T + 1])
def test_index_draws_either_side_of_the_replay_threshold_match_the_reference(k):
    for seed in (0, 3, MASK):
        for population in (k, 16_384):
            gen = SplitMix64(seed)
            assert gen.choose_without_replacement(population, k).tolist() == sorted(reference_fisher_yates(seed, population, k)[:k])
            assert gen.position == k
        gen = SplitMix64(seed)
        assert gen.permutation(k + 1).tolist() == reference_fisher_yates(seed, k + 1, k)
        assert gen.position == k


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, MASK), population=st.integers(T - 2, 3000), share=st.floats(0.0, 1.0))
def test_index_draws_near_and_above_the_replay_threshold_match_the_reference(seed, population, share):
    k = T - 2 + round(share * (population - T + 2))
    gen = SplitMix64(seed)
    assert gen.choose_without_replacement(population, k).tolist() == sorted(reference_fisher_yates(seed, population, k)[:k])
    assert gen.position == k
    gen = SplitMix64(seed)
    assert gen.permutation(population).tolist() == reference_fisher_yates(seed, population, population - 1)
    assert gen.position == population - 1


def swap_replay(population, targets):
    """Step ``i`` swaps entries ``i`` and ``targets[i]`` of a list of
    [0, population); the picks and the entry at position ``len(targets)``."""
    pool = list(range(population))
    for i, j in enumerate(targets):
        pool[i], pool[j] = pool[j], pool[i]
    return pool[: len(targets)], pool[len(targets)]


@pytest.mark.parametrize("k", [1, 2, T, 1000])
@pytest.mark.parametrize("kind", ["all-to-the-last", "each-to-itself", "each-to-the-next"])
def test_replay_of_adversarial_targets_matches_list_swaps(kind, k):
    # The longest chains of earlier steps a replay can meet, and none at all.
    population = k + 5
    targets = {
        "all-to-the-last": [population - 1] * k,
        "each-to-itself": list(range(k)),
        "each-to-the-next": list(range(1, k + 1)),
    }[kind]
    picks, leftover = rng._replay(np.array(targets, dtype=np.int64))
    assert picks.dtype == np.int64
    assert (picks.tolist(), leftover) == swap_replay(population, targets)


def dict_fisher_yates(seed, population, steps):
    """``reference_fisher_yates`` storing only the entries moved past the
    prefix, for any population: the picks and the entry at position ``steps``."""
    picked, displaced = [], {}
    for i, word in enumerate(reference_stream(seed, steps)):
        j = i + word % (population - i)
        picked.append(displaced.get(j, j))
        displaced[j] = displaced.pop(i, i)
    return picked, displaced.get(steps, steps)


# A replay packs each target above the step's bits into an int64 key.
PACKED = 2 ** (63 - T.bit_length())


@pytest.mark.parametrize(
    "population, replayed",
    [(PACKED, True), (PACKED + 1, False), (2**62 + 3, False), (2**63, False)],
    ids=["largest-packed", "smallest-unpacked", "above-2**62", "2**63"],
)
def test_huge_populations_draw_like_the_loop(monkeypatch, population, replayed):
    # Past the largest population whose keys fit, the loop runs instead.
    replay, calls = rng._replay, []

    def spy(targets):
        calls.append(targets.size)
        return replay(targets)

    monkeypatch.setattr(rng, "_replay", spy)
    for seed in (0, 3):
        picked, leftover = dict_fisher_yates(seed, population, T)
        order, entry = SplitMix64(seed)._fisher_yates(population, T)
        assert (order.tolist(), entry) == (picked, leftover)
        gen = SplitMix64(seed)
        assert gen.choose_without_replacement(population, T).tolist() == sorted(picked)
        assert gen.position == T
    assert bool(calls) == replayed
