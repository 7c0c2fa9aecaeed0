import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmark.arnold import period, scramble, unscramble
from gridmark.errors import BadParameterError, NotSquareError

SIDES = (1, 2, 4, 8, 16, 32)


def bits(n, seed=0):
    return np.random.default_rng(seed).integers(0, 2, size=(n, n), dtype=np.uint8)


def test_forward_map_on_side_two():
    m = np.array([[10, 20], [30, 40]], dtype=np.uint8)
    # (p,q) -> ((p+q)%n, (p+2q)%n): 20 goes to (1,0), 30 to (1,1), 40 to (0,1)
    assert np.array_equal(scramble(m, 1), np.array([[10, 40], [20, 30]]))


def test_inverse_map_on_side_two():
    m = np.zeros((2, 2), dtype=np.uint8)
    m[1, 0] = 1
    out = unscramble(m, 1)
    assert out[0, 1] == 1 and out.sum() == 1


@pytest.mark.parametrize("n", SIDES)
def test_roundtrip_all_small_keys(n):
    m = bits(n, seed=n)
    for key in range(11):
        assert np.array_equal(unscramble(scramble(m, key), key), m)


def test_key_zero_and_side_one_are_copies():
    m = bits(8, seed=3)
    out = scramble(m, 0)
    assert np.array_equal(out, m) and out is not m
    one = np.array([[7]], dtype=np.uint8)
    assert np.array_equal(scramble(one, 9), one)


def test_period_small_values():
    assert period(1) == 1
    assert period(2) == 3


@pytest.mark.parametrize("n", SIDES)
def test_period_is_minimal(n):
    m = np.arange(n * n, dtype=np.int64).reshape(n, n)
    t = period(n)
    assert np.array_equal(scramble(m, t), m)
    for k in range(1, t):
        assert not np.array_equal(scramble(m, k), m)


def test_large_key_steps_key_mod_period():
    # a key above 3n takes key mod period steps: 10**18 steps would never end
    m = bits(32, seed=4)
    key = 10**18
    t0 = time.perf_counter()
    out = scramble(m, key)
    back = unscramble(out, key)
    assert time.perf_counter() - t0 < 0.5
    assert np.array_equal(out, scramble(m, key % period(32)))
    assert np.array_equal(back, m)
    # keys up to 3n step as given; past it the period folds them
    for key in (3 * 32, 3 * 32 + 1, 5 * period(32), 10**12):
        assert np.array_equal(scramble(m, key), scramble(m, key % period(32)))
        assert np.array_equal(unscramble(m, key), unscramble(m, key % period(32)))


def test_period_at_most_three_sides():
    for n in range(1, 41):
        assert period(n) <= 3 * n


def test_scramble_composes():
    m = bits(16, seed=1)
    assert np.array_equal(scramble(m, 5), scramble(scramble(m, 2), 3))
    step = m
    for _ in range(4):
        step = scramble(step, 1)
    assert np.array_equal(step, scramble(m, 4))


def test_population_count_preserved():
    m = bits(32, seed=9)
    for key in (1, 7, 13):
        assert scramble(m, key).sum() == m.sum()
        assert unscramble(m, key).sum() == m.sum()


def test_parameter_validation():
    m = bits(4)
    with pytest.raises(BadParameterError):
        scramble(m, -1)
    with pytest.raises(BadParameterError):
        scramble(m, 2.5)
    with pytest.raises(BadParameterError):
        unscramble(m, "3")
    with pytest.raises(NotSquareError):
        scramble(np.zeros((2, 3), dtype=np.uint8), 1)
    with pytest.raises(BadParameterError):
        period(0)
    with pytest.raises(BadParameterError):
        period(-3)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from(SIDES),
    key=st.integers(0, 12),
    seed=st.integers(0, 2**31),
)
def test_roundtrip_property(n, key, seed):
    m = np.random.default_rng(seed).integers(0, 2, size=(n, n), dtype=np.uint8)
    assert np.array_equal(unscramble(scramble(m, key), key), m)


# ---------------------------------------------------------------------------
# The step loop the closed-form permutation replaced, kept as the exact
# reference: one cat-map step at a time, forward and inverse.

def step_forward(m):
    n = m.shape[0]
    P, Q = np.indices((n, n))
    out = np.empty_like(m)
    out[(P + Q) % n, (P + 2 * Q) % n] = m[P, Q]
    return out


def step_inverse(m):
    n = m.shape[0]
    P, Q = np.indices((n, n))
    out = np.empty_like(m)
    out[(2 * P - Q) % n, (Q - P) % n] = m[P, Q]
    return out


def walk(m, step, keys):
    """step applied 0, 1, ..., keys - 1 times to m."""
    out = [m]
    for _ in range(keys - 1):
        out.append(step(out[-1]))
    return out


def brute_period(n):
    """Steps until an index grid first comes back to itself."""
    ident = np.arange(n * n).reshape(n, n)
    cur, t = step_forward(ident), 1
    while not np.array_equal(cur, ident):
        cur, t = step_forward(cur), t + 1
    return t


@pytest.mark.parametrize("n", range(1, 65))
def test_permutation_equals_step_loop(n):
    # an index grid, so equal outputs mean equal permutations
    m = np.arange(n * n, dtype=np.int64).reshape(n, n)
    keys = list(range(3 * n + 3))
    t = brute_period(n)
    assert period(n) == t
    for fn, step in ((scramble, step_forward), (unscramble, step_inverse)):
        want = walk(m, step, len(keys))
        for key in keys + [10**12, 10**18]:
            got = fn(m, key)
            assert got.dtype == m.dtype
            assert np.array_equal(got, want[key % t]), (fn.__name__, key)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
def test_fortran_order_view_and_dtypes(dtype):
    n = 24
    base = (np.random.default_rng(2).normal(size=(n, n)) * 100).astype(dtype)
    m = base.T
    assert not m.flags.c_contiguous
    t = brute_period(n)
    for key in (0, 1, 7, 3 * n + 1, 10**12):
        s, u = scramble(m, key), unscramble(m, key)
        assert s.dtype == u.dtype == m.dtype
        assert np.array_equal(s, walk(m, step_forward, key % t + 1)[-1])
        assert np.array_equal(u, walk(m, step_inverse, key % t + 1)[-1])
        assert np.array_equal(unscramble(s, key), m)
        assert np.array_equal(scramble(u, key), m)
    assert np.array_equal(m, base.T)
