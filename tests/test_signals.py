import math

import numpy as np
import pytest

from refstream import index_below, uniform, word
from sparsekit.errors import UsageError
from sparsekit.rng import SplitMix64
from sparsekit.sensing import make_operator
from sparsekit.signals import (
    Signal,
    gen_compressible,
    gen_sparse,
    head,
    measure,
    tail_l1,
)


# --- gen_sparse --------------------------------------------------------------

def test_gen_sparse_exact_support_count():
    gen = SplitMix64(1)
    for _ in range(100):
        N = 2 + index_below(gen, 200)
        s = index_below(gen, N) + 1
        sig = gen_sparse(N, s, seed=word(gen))
        assert int(np.count_nonzero(sig.values)) == s
        assert len(sig.true_support) == s
        assert np.array_equal(np.flatnonzero(sig.values), sig.true_support)


def test_gen_sparse_full_density():
    sig = gen_sparse(10, 10, seed=3)
    assert np.all(sig.values != 0.0)
    assert sig.true_support.tolist() == list(range(10))


def test_gen_sparse_zero_sparsity_gives_zero_signal():
    sig = gen_sparse(16, 0, seed=5)
    assert np.all(sig.values == 0.0)
    assert len(sig.true_support) == 0


def test_gen_sparse_validation():
    with pytest.raises(UsageError):
        gen_sparse(4, 5, seed=0)
    with pytest.raises(UsageError):
        gen_sparse(4, -1, seed=0)


def test_gen_sparse_deterministic():
    a = gen_sparse(64, 6, seed=99)
    b = gen_sparse(64, 6, seed=99)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, gen_sparse(64, 6, seed=100).values)


# --- gen_compressible --------------------------------------------------------

def test_compressible_small_example():
    sig = gen_compressible(4, p=0.5, R=1.0, seed=0)
    mags = np.sort(np.abs(sig.values))[::-1]
    np.testing.assert_allclose(mags, [1.0, 1.0 / 4.0, 1.0 / 9.0, 1.0 / 16.0], rtol=0, atol=0)


def test_compressible_envelope_holds_with_equality():
    gen = SplitMix64(7)
    for _ in range(100):
        N = 4 + index_below(gen, 120)
        p = 0.2 + float(uniform(gen, 1)[0]) * 1.5
        R = 0.5 + float(uniform(gen, 1)[0]) * 4.0
        sig = gen_compressible(N, p, R, seed=word(gen))
        mags = np.sort(np.abs(sig.values))[::-1]
        envelope = R * np.arange(1, N + 1, dtype=float) ** (-1.0 / p)
        assert np.array_equal(mags, envelope)


def test_compressible_positions_and_signs_are_randomized():
    sig = gen_compressible(256, 0.5, 1.0, seed=11)
    # largest magnitude should not always sit at index 0
    other = gen_compressible(256, 0.5, 1.0, seed=12)
    assert int(np.argmax(np.abs(sig.values))) != int(np.argmax(np.abs(other.values))) or not np.array_equal(
        np.sign(sig.values), np.sign(other.values)
    )
    assert np.any(sig.values < 0) and np.any(sig.values > 0)


def test_compressible_validation():
    with pytest.raises(UsageError):
        gen_compressible(8, 0.0, 1.0, seed=1)
    with pytest.raises(UsageError):
        gen_compressible(8, 0.5, 0.0, seed=1)


# --- head / tail -------------------------------------------------------------

def head_oracle(values, s):
    """Full-sort reference for head(): keep s largest |.|, lowest index on ties."""
    order = sorted(range(len(values)), key=lambda i: (-abs(values[i]), i))
    out = np.zeros(len(values))
    for i in order[:s]:
        out[i] = values[i]
    return out


def test_head_examples():
    x = np.array([3.0, -5.0, 2.0])
    assert head(x, 1).tolist() == [0.0, -5.0, 0.0]
    assert head(x, 3).tolist() == x.tolist()
    assert head(x, 0).tolist() == [0.0, 0.0, 0.0]


def test_head_matches_sort_oracle():
    gen = SplitMix64(19)
    for trial in range(100):
        n = 1 + index_below(gen, 30)
        v = gen.normal(n)
        if trial % 4 == 0:
            v = np.round(v * 2.0) / 2.0  # create magnitude ties
        s = index_below(gen, n + 1)
        np.testing.assert_array_equal(head(v, s), head_oracle(v.tolist(), s))


def test_head_idempotent():
    gen = SplitMix64(29)
    v = gen.normal(40)
    np.testing.assert_array_equal(head(head(v, 7), 7), head(v, 7))


def test_head_on_signal_returns_sparse_signal():
    sig = gen_compressible(32, 0.5, 1.0, seed=2)
    truncated = head(sig, 5)
    assert isinstance(truncated, Signal)
    assert len(truncated.true_support) == 5
    assert np.array_equal(np.flatnonzero(truncated.values), truncated.true_support)


def test_l1_splits_into_head_plus_tail():
    gen = SplitMix64(37)
    for _ in range(50):
        v = gen.normal(25)
        s = index_below(gen, 26)
        total = float(np.sum(np.abs(v)))
        head_l1 = float(np.sum(np.abs(head(v, s))))
        assert head_l1 + tail_l1(v, s) == pytest.approx(total, rel=1e-12)


def test_tail_examples():
    assert tail_l1(np.array([1.0, 2.0, 3.0, 4.0]), 2) == pytest.approx(3.0)
    sparse = gen_sparse(50, 6, seed=8)
    assert tail_l1(sparse.values, 6) == 0.0


def test_tail_matches_partial_sum_oracle():
    R, p, N, s = 2.0, 0.5, 200, 10
    sig = gen_compressible(N, p, R, seed=21)
    expected = math.fsum(R * i ** (-2.0) for i in range(s + 1, N + 1))
    assert tail_l1(sig, s) == pytest.approx(expected, rel=1e-12)
    # classic envelope bound for p = 0.5
    assert tail_l1(sig, s) <= R / s


# --- Signal type -------------------------------------------------------------

def test_sparse_signal_rejects_offsupport_values():
    values = np.zeros(8)
    values[2] = 1.0
    values[5] = -1.0
    Signal(values=values, true_support=[2, 5])
    Signal(values=values)  # no support declared, nothing to check
    with pytest.raises(UsageError):
        Signal(values=values, true_support=[2])


def test_signal_validates_declared_support():
    values = np.zeros(8)
    values[[1, 4]] = 1.0
    sig = Signal(values=values, true_support=[1, 4])
    assert sig.true_support.dtype == np.int64
    assert sig.true_support.tolist() == [1, 4]
    # Repeated, unsorted and negative indices.
    for bad in ([1, 1, 4], [4, 1], [-1, 1, 4]):
        with pytest.raises(UsageError, match="strictly increasing and non-negative"):
            Signal(values=values, true_support=bad)
    with pytest.raises(UsageError, match="1-D"):
        Signal(values=values, true_support=[[1, 4]])
    with pytest.raises(UsageError, match="support index out of range"):
        Signal(values=values, true_support=[1, 4, 8])


# --- measure -----------------------------------------------------------------

def test_measure_noiseless():
    op = make_operator("gaussian", 16, 32, seed=40)
    sig = gen_sparse(32, 3, seed=41)
    u, e = measure(op, sig)
    assert np.all(e == 0.0)
    np.testing.assert_array_equal(u, op.forward(sig.values))


def test_measure_fixed_norm_is_exact():
    op = make_operator("gaussian", 16, 32, seed=42)
    sig = gen_sparse(32, 3, seed=43)
    for eps in (0.1, 2.5):
        u, e = measure(op, sig, "fixed", eps, seed=44)
        assert np.linalg.norm(e) == pytest.approx(eps, abs=1e-12)
        np.testing.assert_allclose(u - e, op.forward(sig.values), atol=1e-12)


def test_measure_gaussian_sigma_concentrates():
    op = make_operator("partial_dct", 10000, 10000, seed=45)
    sig = gen_sparse(10000, 5, seed=46)
    u, e = measure(op, sig, "sigma", 1.0, seed=47)
    assert 0.9 < float(np.dot(e, e)) / 10000 < 1.1


def test_measure_accepts_plain_arrays():
    op = make_operator("bernoulli", 8, 12, seed=48)
    x = np.zeros(12)
    x[4] = 2.0
    u, e = measure(op, x)
    np.testing.assert_array_equal(u, op.forward(x))


def test_measure_validates_mode_and_level():
    op = make_operator("gaussian", 8, 12, seed=49)
    x = np.ones(12)
    with pytest.raises(UsageError, match="non-negative"):
        measure(op, x, "fixed", -0.5)
    with pytest.raises(UsageError, match="non-negative"):
        measure(op, x, "sigma", -1.0)
    for mode in ("none", "fixed", "sigma"):
        for level in (math.inf, math.nan):
            with pytest.raises(UsageError, match="finite"):
                measure(op, x, mode, level)
    # The config's relative mode is resolved by bench.run_trial, not here.
    for mode in ("fixed_rel", "fixed_norm", "gaussian_sigma", "FIXED"):
        with pytest.raises(UsageError, match="unknown noise mode"):
            measure(op, x, mode, 0.1)
    # A refused call applies nothing; a zero level adds no noise in any mode.
    assert op.matvec_count == 0
    for mode in ("none", "fixed", "sigma"):
        u, e = measure(op, x, mode, 0.0, seed=50)
        assert np.all(e == 0.0)
        np.testing.assert_array_equal(u, op.forward(x))
