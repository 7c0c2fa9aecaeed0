"""Similarity and quality metrics: corr2, PSNR, bit error rate."""

import math

import numpy as np

from .errors import DegenerateInputError, DegenerateModelError, DimensionMismatchError
from .model_io import GridModel


def corr2(a, b) -> float:
    """Mean-centered normalized cross-correlation of two equal-size
    matrices; bits are treated as reals.  Constant input is degenerate."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    da = a - a.mean()
    db = b - b.mean()
    ssa = (da * da).sum()
    ssb = (db * db).sum()
    if ssa == 0.0 or ssb == 0.0:
        raise DegenerateInputError("corr2 undefined for a constant matrix")
    return float((da * db).sum() / math.sqrt(ssa * ssb))


def psnr(original: GridModel, modified: GridModel) -> float:
    """10*log10(peak^2 / mse) with mse over all three matrices jointly and
    peak the original's largest per-matrix value range; +inf when equal,
    -inf when the squared error overflows float range.  A ratio peak^2 / mse
    outside float range is taken apart as 20*log10(peak) - 10*log10(mse)."""
    if original.n != modified.n:
        raise DimensionMismatchError(f"model sides differ: {original.n} vs {modified.n}")
    sq = 0.0
    peak = 0.0
    with np.errstate(over="ignore"):  # an overflow to inf is answered below
        for name in ("x1", "x2", "x3"):
            o = original.matrix(name)
            d = modified.matrix(name) - o
            sq += float((d * d).sum())
            peak = max(peak, float(o.max() - o.min()))
    if peak == 0.0:
        raise DegenerateModelError("PSNR undefined for a constant model")
    if math.isinf(sq):
        return -math.inf
    mse = sq / (3 * original.n**2)
    if mse == 0.0:
        return math.inf
    try:
        ratio = peak**2 / mse
    except OverflowError:  # peak past ~1.3e154
        ratio = math.inf
    if 0.0 < ratio < math.inf:
        return 10.0 * math.log10(ratio)
    return 20.0 * math.log10(peak) - 10.0 * math.log10(mse)


def ber(a, b) -> float:
    """Fraction of differing bits between two equal-size bitmaps."""
    abits = np.asarray(getattr(a, "bits", a))
    bbits = np.asarray(getattr(b, "bits", b))
    if abits.shape != bbits.shape:
        raise DimensionMismatchError(f"shape mismatch: {abits.shape} vs {bbits.shape}")
    return float(np.mean(abits != bbits))
