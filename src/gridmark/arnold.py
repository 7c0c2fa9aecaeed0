"""Arnold cat-map scrambling of square bitmaps.

One step sends the entry at (P, Q) to A (P, Q) mod N, that is to
(P + Q mod N, P + 2Q mod N), with A = [[1, 1], [1, 2]].  A has
determinant 1, so every step is a permutation, and `key` steps are the one
linear map A^key mod N.  Its inverse A^-key is the power of
[[2, -1], [-1, 1]], found by repeated squaring in O(log key) 2x2 integer
products, so scramble and unscramble cost one index permutation of the
bitmap for any key, with the same result as stepping key times.
"""

import numpy as np

from .errors import BadParameterError, NotSquareError

_FORWARD = ((1, 1), (1, 2))
_INVERSE = ((2, -1), (-1, 1))
_IDENTITY = ((1, 0), (0, 1))


def _check(bitmap):
    m = np.asarray(bitmap)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square array, got shape {m.shape}")
    return m


def _check_key(key):
    if not isinstance(key, (int, np.integer)) or key < 0:
        raise BadParameterError(f"key must be a non-negative integer, got {key!r}")
    return int(key)


def _mul(a, b, n):
    """The 2x2 product a b mod n, in Python ints."""
    return tuple(tuple((a[i][0] * b[0][j] + a[i][1] * b[1][j]) % n for j in range(2)) for i in range(2))


def _source(n, key):
    """Flat index into an n x n bitmap of the entry that `key` forward steps
    bring to each position: A^-key (P, Q) mod n, row-major."""
    mod = max(n, 1)  # a 0 x 0 bitmap has nothing to permute
    power, base = _IDENTITY, _INVERSE
    while key:
        if key & 1:
            power = _mul(power, base, mod)
        base = _mul(base, base, mod)
        key >>= 1
    (a, b), (c, d) = power
    P, Q = np.indices((n, n))
    return (((a * P + b * Q) % n) * n + (c * P + d * Q) % n).ravel()


def scramble(bitmap, key):
    """Apply `key` forward cat-map steps."""
    m = _check(bitmap)
    return m.ravel()[_source(m.shape[0], _check_key(key))].reshape(m.shape)


def unscramble(bitmap, key):
    """Apply `key` inverse cat-map steps; unscramble(scramble(m, k), k) == m."""
    m = _check(bitmap)
    out = np.empty(m.size, m.dtype)
    out[_source(m.shape[0], _check_key(key))] = m.ravel()
    return out.reshape(m.shape)


def period(n):
    """Smallest t >= 1 with scramble^t = identity on an n x n grid: the
    order of A mod n, at most 3n (Dyson & Falk, "Period of a discrete cat
    mapping", Amer. Math. Monthly 1992), so at most 3n 2x2 products."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise BadParameterError(f"side must be a positive integer, got {n!r}")
    n = int(n)
    one = _mul(_IDENTITY, _IDENTITY, n)  # the identity mod n
    cur, t = _mul(_FORWARD, one, n), 1
    while cur != one:
        cur, t = _mul(cur, _FORWARD, n), t + 1
    return t
