import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmark.errors import (
    DegenerateInputError,
    DegenerateModelError,
    DimensionMismatchError,
)
from gridmark.metrics import ber, corr2, psnr
from gridmark.model_io import GridModel, WatermarkBitmap, generate_model

RNG = np.random.default_rng(77)


def oracle_corr2(a, b):
    am = math.fsum(a.ravel()) / a.size
    bm = math.fsum(b.ravel()) / b.size
    num = math.fsum((x - am) * (y - bm) for x, y in zip(a.ravel(), b.ravel()))
    da = math.fsum((x - am) ** 2 for x in a.ravel())
    db = math.fsum((y - bm) ** 2 for y in b.ravel())
    return num / math.sqrt(da * db)


def test_corr2_matches_oracle():
    worst = 0.0
    for _ in range(100):
        a = RNG.uniform(-5, 5, size=(8, 8))
        b = RNG.uniform(-5, 5, size=(8, 8))
        worst = max(worst, abs(corr2(a, b) - oracle_corr2(a, b)))
    assert worst <= 1e-12


def test_corr2_pins():
    a = RNG.uniform(0, 1, size=(16, 16))
    assert corr2(a, a) == pytest.approx(1.0, abs=1e-12)
    assert corr2(a, -a) == pytest.approx(-1.0, abs=1e-12)
    assert corr2(a, 3.0 * a + 7.0) == pytest.approx(1.0, abs=1e-12)
    b = RNG.uniform(0, 1, size=(16, 16))
    assert corr2(a, b) == corr2(b, a)


def test_corr2_accepts_bitmaps():
    bits = RNG.integers(0, 2, size=(8, 8), dtype=np.uint8)
    flipped = bits ^ 1
    assert corr2(bits, flipped) == pytest.approx(-1.0, abs=1e-12)


def test_corr2_errors():
    with pytest.raises(DimensionMismatchError):
        corr2(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(DegenerateInputError):
        corr2(np.full((4, 4), 2.0), RNG.uniform(0, 1, (4, 4)))
    with pytest.raises(DegenerateInputError):
        corr2(RNG.uniform(0, 1, (4, 4)), np.zeros((4, 4)))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_corr2_bounded(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(6, 6))
    b = rng.uniform(-1, 1, size=(6, 6))
    assert abs(corr2(a, b)) <= 1.0 + 1e-12


def test_psnr_identical_is_infinite(small_model):
    assert psnr(small_model, small_model) == math.inf


def test_psnr_known_value():
    i, j = np.meshgrid(np.arange(8.0), np.arange(8.0), indexing="ij")
    orig = GridModel(i, j, np.zeros((8, 8)))
    # peak = widest per-matrix range of the original = 7; inject known mse
    diff = np.zeros((8, 8))
    diff[0, 0] = 1.0
    mod = GridModel(i + diff, j, np.zeros((8, 8)))
    mse = 1.0 / (3 * 64)
    want = 10.0 * math.log10(49.0 / mse)
    assert psnr(orig, mod) == pytest.approx(want, abs=1e-12)


def test_psnr_halving_adds_6db(small_model):
    noise = RNG.normal(0, 1.0, size=(128, 128))
    m1 = small_model.replace(x3=small_model.x3 + noise)
    m2 = small_model.replace(x3=small_model.x3 + 0.5 * noise)
    gain = psnr(small_model, m2) - psnr(small_model, m1)
    assert gain == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)


def test_psnr_monotone_in_noise(small_model):
    noise = RNG.normal(0, 1.0, size=(128, 128))
    vals = [
        psnr(small_model, small_model.replace(x3=small_model.x3 + k * noise))
        for k in (0.25, 1.0, 4.0)
    ]
    assert vals[0] > vals[1] > vals[2]


def test_psnr_errors():
    with pytest.raises(DimensionMismatchError):
        psnr(generate_model("plane", 8), generate_model("plane", 16))
    flat = GridModel(*(np.full((8, 8), 1.0) for _ in range(3)))
    with pytest.raises(DegenerateModelError):
        psnr(flat, flat)


def test_psnr_out_of_float_range():
    i, j = np.meshgrid(np.arange(8.0), np.arange(8.0), indexing="ij")
    orig = GridModel(i, j, np.zeros((8, 8)))
    # a squared error past float range reads -inf, with no warning
    assert psnr(orig, orig.replace(x3=np.full((8, 8), 1e200))) == -math.inf
    assert psnr(orig, orig.replace(x3=np.full((8, 8), 1.7e308))) == -math.inf
    # a range whose square overflows: 20*log10(peak) - 10*log10(mse)
    big = orig.replace(x1=i * 1e200)
    diff = np.zeros((8, 8))
    diff[0, 0] = 1.0
    want = 20.0 * math.log10(7e200) - 10.0 * math.log10(1.0 / (3 * 64))
    assert psnr(big, big.replace(x2=j + diff)) == pytest.approx(want, rel=1e-12)
    # a ratio that underflows to 0
    tiny = GridModel(i * 1e-200, j * 1e-200, np.zeros((8, 8)))
    got = psnr(tiny, tiny.replace(x3=np.full((8, 8), 1e100)))
    assert got == pytest.approx(20.0 * math.log10(7e-200) - 10.0 * math.log10(1e200 / 3), rel=1e-12)


def test_ber_pins():
    a = WatermarkBitmap(RNG.integers(0, 2, size=(32, 32), dtype=np.uint8))
    assert ber(a, a) == 0.0
    flipped = WatermarkBitmap(a.bits ^ 1)
    assert ber(a, flipped) == 1.0
    one = a.bits.copy()
    one[3, 7] ^= 1
    assert ber(a, WatermarkBitmap(one)) == 1.0 / 1024.0


def test_ber_accepts_arrays_and_bitmaps():
    bits = RNG.integers(0, 2, size=(8, 8), dtype=np.uint8)
    assert ber(bits, WatermarkBitmap(bits)) == 0.0
    with pytest.raises(DimensionMismatchError):
        ber(bits, np.zeros((4, 4), dtype=np.uint8))
