import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridmark.errors import DimensionError, NotSquareError
from gridmark.wavelet import (
    ALL_LEVEL3_BANDS,
    EMBED_ATOMS,
    EMBED_BANDS,
    QuadBands,
    add_atoms,
    decompose3,
    dwt2,
    embed_coefficients,
    idwt2,
    reconstruct3,
    tree_energy,
)

RNG = np.random.default_rng(2024)


def test_dwt2_worked_example():
    bands = dwt2(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert bands.ca == np.array([[5.0]])
    assert bands.ch == np.array([[-2.0]])
    assert bands.cv == np.array([[-1.0]])
    assert bands.cd == np.array([[0.0]])


def test_dwt2_constant_block():
    bands = dwt2(np.full((2, 2), 3.7))
    assert bands.ca == np.array([[7.4]])
    assert bands.ch == 0.0 and bands.cv == 0.0 and bands.cd == 0.0


def test_dwt2_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        dwt2(np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        dwt2(np.zeros((1, 1)))
    with pytest.raises(NotSquareError):
        dwt2(np.zeros((2, 4)))


def test_idwt2_inverts_worked_example():
    bands = QuadBands(
        np.array([[5.0]]), np.array([[-2.0]]), np.array([[-1.0]]), np.array([[0.0]])
    )
    assert np.array_equal(idwt2(bands), np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_idwt2_rejects_mismatched_bands():
    bands = QuadBands(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((1, 1)), np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        idwt2(bands)


def test_single_step_roundtrip():
    m = RNG.standard_normal((64, 64)) * 1e3
    back = idwt2(dwt2(m))
    assert np.abs(back - m).max() <= 1e-9


def test_decompose3_band_counts_and_shapes():
    tree = decompose3(RNG.standard_normal((64, 64)))
    assert tree.n == 64
    level1 = [tree.level1.ca, tree.level1.ch, tree.level1.cv, tree.level1.cd]
    assert len(level1) == 4 and all(b.shape == (32, 32) for b in level1)
    level2 = [q.get(z) for q in tree.level2.values() for z in "AHVD"]
    assert len(level2) == 8 and all(b.shape == (16, 16) for b in level2)
    level3 = [tree.band(p) for p in ALL_LEVEL3_BANDS]
    assert len(level3) == 16 and all(b.shape == (8, 8) for b in level3)
    assert len(ALL_LEVEL3_BANDS) == 16
    assert len(EMBED_BANDS) == 8
    assert all(p.endswith((".H", ".V")) for p in EMBED_BANDS)


def test_decompose3_minimum_side():
    tree = decompose3(np.arange(64.0).reshape(8, 8))
    assert all(tree.band(p).shape == (1, 1) for p in ALL_LEVEL3_BANDS)
    with pytest.raises(DimensionError):
        decompose3(np.zeros((12, 12)))
    with pytest.raises(DimensionError):
        decompose3(np.zeros((4, 4)))
    with pytest.raises(NotSquareError):
        decompose3(np.zeros((8, 16)))


def test_tree_roundtrip_batch():
    worst = 0.0
    for _ in range(100):
        m = RNG.uniform(-1e3, 1e3, size=(64, 64))
        worst = max(worst, np.abs(reconstruct3(decompose3(m)) - m).max())
    assert worst <= 1e-9


def test_parseval_energy():
    for _ in range(20):
        m = RNG.uniform(-1e3, 1e3, size=(64, 64))
        total = float(np.sum(m * m))
        assert abs(tree_energy(decompose3(m)) - total) <= 1e-9 * total


def test_constant_input_has_zero_details():
    tree = decompose3(np.full((16, 16), 4.25))
    for path in ("H", "V", "D"):
        assert np.all(tree.band(path) == 0.0)
    for key in ("H", "V"):
        for z in "AHVD":
            assert np.all(tree.level2[key].get(z) == 0.0)
    for path in ALL_LEVEL3_BANDS:
        assert np.all(tree.band(path) == 0.0)


def test_linearity():
    a = RNG.uniform(-100, 100, size=(32, 32))
    b = RNG.uniform(-100, 100, size=(32, 32))
    combo = decompose3(a + 2.5 * b)
    ta, tb = decompose3(a), decompose3(b)
    for path in ALL_LEVEL3_BANDS:
        want = ta.band(path) + 2.5 * tb.band(path)
        assert np.abs(combo.band(path) - want).max() <= 1e-9


def test_scale_by_two_is_exact():
    m = RNG.uniform(-100, 100, size=(32, 32))
    t1, t2 = decompose3(m), decompose3(2.0 * m)
    for path in ALL_LEVEL3_BANDS:
        assert np.array_equal(t2.band(path), 2.0 * t1.band(path))


def test_constant_shift_leaves_details():
    m = RNG.uniform(-100, 100, size=(32, 32))
    t1, t2 = decompose3(m), decompose3(m + 7.25)
    for path in ALL_LEVEL3_BANDS:
        assert np.abs(t2.band(path) - t1.band(path)).max() <= 1e-9
    assert np.abs(t2.level1.ca - t1.level1.ca).max() > 1.0


def test_level3_coefficient_support_is_8x8():
    # one level-3 coefficient maps to exactly one aligned 8x8 spatial block
    m = RNG.uniform(-100, 100, size=(64, 64))
    tree = decompose3(m)
    base = reconstruct3(tree)
    band = tree.band("H.H.H").copy()
    band[2, 3] = 0.0
    tree.set_band("H.H.H", band)
    out = reconstruct3(tree)
    block = (slice(16, 24), slice(24, 32))
    mask = np.zeros((64, 64), dtype=bool)
    mask[block] = True
    assert np.array_equal(out[~mask], base[~mask])
    assert np.abs(out[block] - base[block]).max() > 0.0


def test_set_band_keeps_other_bands_untouched():
    tree = decompose3(RNG.uniform(-100, 100, size=(64, 64)))
    before = {p: tree.band(p) for p in ALL_LEVEL3_BANDS if p != "V.H.V"}
    tree.set_band("V.H.V", np.zeros((8, 8)))
    for path, arr in before.items():
        assert tree.band(path) is arr


def test_set_band_rejects_wrong_shape():
    tree = decompose3(np.zeros((16, 16)))
    with pytest.raises(DimensionError):
        tree.set_band("H.H.H", np.zeros((3, 3)))


def test_embed_atoms_orthonormal_with_entries_one_eighth():
    assert EMBED_ATOMS.shape == (8, 64)
    assert np.array_equal(np.abs(EMBED_ATOMS), np.full((8, 64), 0.125))
    assert np.array_equal(EMBED_ATOMS @ EMBED_ATOMS.T, np.eye(8))
    # row k, entry 8i+j: band k of the unit impulse at (i, j) of one block
    for e in range(64):
        impulse = np.zeros(64)
        impulse[e] = 1.0
        tree = decompose3(impulse.reshape(8, 8))
        assert [tree.band(p)[0, 0] for p in EMBED_BANDS] == list(EMBED_ATOMS[:, e])


def _tree_bands(m):
    tree = decompose3(m)
    return np.stack([tree.band(p) for p in EMBED_BANDS])


@pytest.mark.parametrize("side", [8, 16, 64, 256])
def test_embed_coefficients_match_tree_bands(side):
    for _ in range(5):
        m = RNG.uniform(-1e3, 1e3, size=(side, side))
        want = _tree_bands(m)
        got = embed_coefficients(m)
        assert got.shape == (8, side // 8, side // 8)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(m).max()


@pytest.mark.parametrize("side", [8, 16, 64, 256])
def test_add_atoms_matches_tree_reconstruction(side):
    for _ in range(5):
        m = RNG.uniform(-1e3, 1e3, size=(side, side))
        delta = RNG.uniform(-10, 10, size=(8, side // 8, side // 8))
        tree = decompose3(m)
        for k, path in enumerate(EMBED_BANDS):
            tree.set_band(path, tree.band(path) + delta[k])
        want = reconstruct3(tree)
        assert np.abs(add_atoms(m, delta) - want).max() <= 1e-9 * np.abs(want).max()


def test_add_atoms_leaves_zero_delta_blocks_exact():
    m = RNG.uniform(-1e3, 1e3, size=(32, 32))
    delta = np.zeros((8, 4, 4))
    delta[:, 1, 2] = RNG.uniform(-1, 1, size=8)
    out = add_atoms(m, delta)
    block = (slice(8, 16), slice(16, 24))
    mask = np.zeros(m.shape, dtype=bool)
    mask[block] = True
    assert np.array_equal(out[~mask], m[~mask])
    assert np.abs(embed_coefficients(out) - embed_coefficients(m) - delta).max() <= 1e-12


def test_atom_helpers_reject_bad_shapes():
    with pytest.raises(DimensionError):
        embed_coefficients(np.zeros((12, 12)))
    with pytest.raises(NotSquareError):
        embed_coefficients(np.zeros((8, 16)))
    with pytest.raises(DimensionError):
        add_atoms(np.zeros((16, 16)), np.zeros((8, 1, 1)))


@settings(max_examples=40, deadline=None)
@given(
    side=st.sampled_from([8, 16, 24]),
    seed=st.integers(0, 2**31),
)
def test_roundtrip_property(side, seed):
    m = np.random.default_rng(seed).uniform(-1e3, 1e3, size=(side, side))
    assert np.abs(reconstruct3(decompose3(m)) - m).max() <= 1e-9


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, (8, 8), elements=st.floats(-1e3, 1e3)))
def test_parseval_property(m):
    total = float(np.sum(m * m))
    assert abs(tree_energy(decompose3(m)) - total) <= 1e-9 * max(total, 1.0)
