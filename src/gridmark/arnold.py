"""Arnold cat-map scrambling of square bitmaps.

One step sends the entry at (P, Q) to (P + Q mod N, P + 2Q mod N); the
transform matrix [[1, 1], [1, 2]] has determinant 1 mod N, so every step
is a permutation and the inverse matrix [[2, -1], [-1, 1]] undoes it.
The map's period on an N x N grid is at most 3N (Dyson & Falk 1992), so
a key above 3N takes only key mod period steps, with the same result.
"""

import functools

import numpy as np

from .errors import BadParameterError, NotSquareError


def _check(bitmap):
    m = np.asarray(bitmap)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square array, got shape {m.shape}")
    return m


def _check_key(key):
    if not isinstance(key, (int, np.integer)) or key < 0:
        raise BadParameterError(f"key must be a non-negative integer, got {key!r}")
    return int(key)


def _steps(key, n):
    """Steps equivalent to `key` on an n x n grid: key itself up to 3n."""
    return key if key <= 3 * n else key % _period(n)


def scramble(bitmap, key):
    """Apply `key` forward cat-map steps."""
    m = _check(bitmap)
    key = _check_key(key)
    n = m.shape[0]
    key = _steps(key, n)
    if n == 1 or key == 0:
        return m.copy()
    P, Q = np.indices((n, n))
    out = m
    for _ in range(key):
        nxt = np.empty_like(out)
        nxt[(P + Q) % n, (P + 2 * Q) % n] = out[P, Q]
        out = nxt
    return out


def unscramble(bitmap, key):
    """Apply `key` inverse cat-map steps; unscramble(scramble(m, k), k) == m."""
    m = _check(bitmap)
    key = _check_key(key)
    n = m.shape[0]
    key = _steps(key, n)
    if n == 1 or key == 0:
        return m.copy()
    P, Q = np.indices((n, n))
    out = m
    for _ in range(key):
        nxt = np.empty_like(out)
        nxt[(2 * P - Q) % n, (Q - P) % n] = out[P, Q]
        out = nxt
    return out


def period(n):
    """Smallest t >= 1 with scramble^t = identity on an n x n grid."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise BadParameterError(f"side must be a positive integer, got {n!r}")
    return _period(int(n))


@functools.lru_cache(maxsize=None)
def _period(n):
    if n <= 1:
        return 1
    ident = np.arange(n * n).reshape(n, n)
    cur = scramble(ident, 1)
    t = 1
    while not np.array_equal(cur, ident):
        cur = scramble(cur, 1)
        t += 1
    return t
