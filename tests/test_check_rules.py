"""The boundary checks and OMP's round rules against their earlier forms.

Each check was rewritten to cost a few ndarray method calls.  The earlier
form is kept here as the reference, and Hypothesis compares the two on
inputs that hold NaN, +-inf, -0.0, empty arrays, duplicates, negatives and
indices at or past the bound.  The outcome compared is the returned array
(its dtype and bytes) or the exception (its type and message).
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sparsekit.errors import UsageError
from sparsekit.linalg import as_support, as_values, as_vector, largest_indices
from sparsekit.pursuit import HaltReason, omp
from sparsekit.signals import Signal

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0]),
)
finite_floats = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]))


def outcome(check, *args, **kwargs):
    """What ``check`` does with these arguments: its result's dtype and bytes, or its error."""
    try:
        result = check(*args, **kwargs)
    except UsageError as exc:
        return "refused", str(exc)
    return "accepted", result.dtype.str, result.tobytes()


def reference_as_vector(x, length=None, name="vector"):
    v = as_values(x, length, name)
    if not np.all(np.isfinite(v)):
        raise UsageError(f"{name} contains NaN or Inf")
    return v


def reference_as_support(indices, below=None):
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":
        raise UsageError(f"support indices must be integers, got dtype {idx.dtype}")
    if idx.ndim != 1:
        raise UsageError("support indices must be 1-D")
    idx = idx.astype(np.int64, copy=False)
    if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 0):
        raise UsageError("support indices must be strictly increasing and non-negative")
    if idx.size and below is not None and idx[-1] >= below:
        raise UsageError("support index out of range")
    return idx


def reference_signal_check(values, support):
    """The earlier off-support test of ``Signal``: True when it refuses."""
    off = np.delete(values, support)
    return bool(off.size and np.any(off != 0.0))


@SETTINGS
@given(st.lists(floats, max_size=12), st.one_of(st.none(), st.integers(0, 12)))
@example([], None)
@example([], 0)
@example([-0.0, 0.0], 2)
@example([np.nan], None)
@example([1.0, -np.inf], 2)
def test_as_vector_matches_its_earlier_form(values, length):
    x = np.array(values, dtype=np.float64)
    assert outcome(as_vector, x, length) == outcome(reference_as_vector, x, length)


@SETTINGS
@given(st.lists(finite_floats, max_size=6).map(lambda v: np.array(v).reshape(-1, 1)))
def test_as_vector_refuses_2d_like_its_earlier_form(x):
    assert outcome(as_vector, x) == outcome(reference_as_vector, x)


index_values = st.one_of(
    st.integers(-3, 20),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -(2**62), 2**62, INT64_MAX - 1, INT64_MAX]),
)


@SETTINGS
@given(
    st.lists(index_values, max_size=10),
    st.sampled_from(["int64", "int32", "uint8", "uint64"]),
    st.one_of(st.none(), st.integers(0, 21), st.just(2**70)),
)
@example([], "int64", None)
@example([], "int64", 0)
@example([3, 3], "int64", 10)
@example([-1, 4], "int64", 10)
@example([0, 9, 10], "int64", 10)
@example([0, 9], "int64", 10)
def test_as_support_matches_its_earlier_form(values, dtype, below):
    info = np.iinfo(dtype)
    values = [v for v in values if info.min <= v <= info.max]
    idx = np.array(values, dtype=dtype)
    wide = idx.astype(np.int64).tolist()
    # The earlier form differenced neighbours in int64, which wraps when a
    # difference leaves its range; see the test below for that case.
    assume(all(INT64_MIN <= b - a <= INT64_MAX for a, b in zip(wide, wide[1:])))
    assert outcome(as_support, idx, below) == outcome(reference_as_support, idx, below)


def test_as_support_refuses_a_descent_whose_difference_overflows():
    # 2**62 -> -2**63 steps down by 3 * 2**62, which wraps to +2**62 in int64:
    # the earlier form saw an increasing support and accepted index -2**63.
    idx = np.array([0, 2**62, INT64_MIN], dtype=np.int64)
    assert outcome(reference_as_support, idx, 256)[0] == "accepted"
    with pytest.raises(UsageError, match="strictly increasing and non-negative"):
        as_support(idx, 256)


@st.composite
def signals_with_support(draw):
    n = draw(st.integers(0, 10))
    values = draw(st.lists(st.one_of(finite_floats, floats), min_size=n, max_size=n))
    support = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))) if n else []
    if draw(st.booleans()):  # zero every entry off the support
        values = [v if i in support else draw(st.sampled_from([0.0, -0.0])) for i, v in enumerate(values)]
    return np.array(values, dtype=np.float64), np.array(support, dtype=np.int64)


@SETTINGS
@given(signals_with_support())
@example((np.array([-0.0, 2.0]), np.array([1])))
@example((np.array([0.0, 2.0]), np.array([1])))
@example((np.array([1e-300, 2.0]), np.array([1])))
@example((np.array([np.nan, 2.0]), np.array([1])))
@example((np.array([]), np.array([], dtype=np.int64)))
@example((np.array([0.0, -0.0]), np.array([], dtype=np.int64)))
def test_signal_off_support_check_matches_its_earlier_form(case):
    values, support = case
    finite = bool(np.all(np.isfinite(values)))
    try:
        Signal(values=values.copy(), true_support=support)
        refused = False
    except UsageError as exc:
        refused = True
        if finite:
            assert str(exc) == "sparse signal has nonzeros off its declared support"
    assert refused == (not finite or reference_signal_check(values, support))


class ScriptedProxies:
    """An ``N x N`` identity operator whose adjoint returns scripted proxies.

    OMP's rounds then see exactly the proxies a test chooses, NaN and
    infinities included, while its refits stay well posed.
    """

    def __init__(self, proxies):
        self.proxies = [np.array(p, dtype=np.float64) for p in proxies]
        self.m = self.N = self.proxies[0].size
        self.matvec_count = 0
        self._identity = np.eye(self.N)

    def adjoint(self, v):
        self.matvec_count += 1
        return self.proxies.pop(0).copy()

    def forward_support(self, indices, coeffs):
        self.matvec_count += 1
        return self._identity[:, indices] @ coeffs

    def adjoint_support(self, indices, v):
        self.matvec_count += 1
        return self._identity[:, indices].T @ v


def reference_omp_rounds(proxies, rounds):
    """OMP's picks, supports and halt by the earlier round rules."""
    support = np.empty(0, dtype=np.int64)
    picks = []
    for proxy in proxies[:rounds]:
        proxy = np.array(proxy, dtype=np.float64)
        proxy[support] = 0.0
        if not np.any(proxy != 0.0):
            return picks, support, HaltReason.PROXY_ZERO
        chosen = int(largest_indices(proxy, 1)[0])
        support = np.union1d(support, [chosen]).astype(np.int64)
        picks.append((chosen, int(support.size)))
    return picks, support, HaltReason.SPARSITY_REACHED


@st.composite
def proxy_scripts(draw):
    n = draw(st.integers(1, 6))
    rounds = draw(st.integers(1, n))
    entry = st.one_of(floats, st.sampled_from([0.0, -0.0, np.nan]))
    proxies = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=rounds, max_size=rounds))
    return proxies, rounds


@SETTINGS
@given(proxy_scripts())
@example(([[0.0, 5.0, 0.0], [np.nan, 0.0, np.nan]], 2))  # the pick is held already
@example(([[0.0, 5.0, 0.0], [-0.0, 3.0, -0.0]], 2))  # zero off the support: halt
@example(([[-0.0, -0.0]], 1))
@example(([[np.nan, np.inf]], 1))
def test_omp_rounds_match_their_earlier_rules(script):
    proxies, rounds = script
    picks, support, halted = reference_omp_rounds(proxies, rounds)
    result = omp(ScriptedProxies(proxies), np.ones(len(proxies[0])), rounds)
    assert [(it["selected"], it["support_size"]) for it in result.iterates] == picks
    assert result.support.dtype == np.int64
    assert result.support.tobytes() == support.tobytes()
    assert result.halted_by is halted


def test_omp_merge_keeps_a_held_pick_once():
    # Off the support the proxy is all NaN, which ranks below zero, so the
    # pick is the held column 1: the support must stay [1], not grow to [1, 1].
    result = omp(ScriptedProxies([[0.0, 5.0, 0.0], [np.nan, 0.0, np.nan]]), np.ones(3), 2)
    assert [it["selected"] for it in result.iterates] == [1, 1]
    assert result.support.tolist() == [1]
    assert result.iterates[-1]["support_size"] == 1
