import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmark import EmbedConfig, embed, extract, generate_model
from gridmark.arnold import scramble, unscramble
from gridmark.codec import (
    SlotMap,
    config_hash,
    load_config,
    normalization_scale,
    quantize_embed_bit,
    read_bit,
    save_config,
    serialize_config,
)
from gridmark.errors import (
    BadParameterError,
    DegenerateModelError,
    InsufficientCapacityError,
    MalformedFileError,
)
from gridmark.features import compute_weights, reference_surface
from gridmark.fuzzy import default_rules_text
from gridmark.metrics import ber, corr2
from gridmark.model_io import GridModel, MODEL_KINDS, WatermarkBitmap
from gridmark.wavelet import ALL_LEVEL3_BANDS, EMBED_BANDS, decompose3, reconstruct3
from gridmark.attacks import apply, parse_attack, scale, translate

CFG01 = EmbedConfig(q=0.01)


# ---------------------------------------------------------------------------
# Remainder quantization

def test_quantize_pins():
    assert quantize_embed_bit(0.123, 1, CFG01) == pytest.approx(0.1275, abs=1e-15)
    assert quantize_embed_bit(0.123, 0, CFG01) == pytest.approx(0.1225, abs=1e-15)
    assert quantize_embed_bit(-0.004, 0, CFG01) == pytest.approx(-0.0075, abs=1e-15)


def test_quantize_tie_moves_to_base():
    # both 0.375 and -0.125 are 0.25 away from 0.125: no whole-step move
    cfg = EmbedConfig(q=0.5)
    assert quantize_embed_bit(0.125, 1, cfg) == 0.375


def test_quantize_nearest_of_three():
    # 0.991 with target .75q: base 0.9975 beats 1.0075 via the -q candidate
    cfg = EmbedConfig(q=0.01)
    out = quantize_embed_bit(0.9991, 1, cfg)
    assert out == pytest.approx(0.9975, abs=1e-15)
    out = quantize_embed_bit(1.0009, 0, cfg)
    assert out == pytest.approx(1.0025, abs=1e-15)


def test_read_bit_pins():
    assert read_bit(0.1275, CFG01) == 1
    assert read_bit(0.1225, CFG01) == 0
    assert read_bit(-0.0075, CFG01) == 0
    for c in (0.02, -0.03, 0.0):
        assert read_bit(c, CFG01) == 0


def test_read_bit_vectorized():
    out = read_bit(np.array([0.1275, 0.1225, -0.0075]), CFG01)
    assert out.dtype == np.uint8
    assert np.array_equal(out, [1, 0, 0])


def test_quantize_roundtrip_batch(default_cfg):
    rng = np.random.default_rng(8)
    c = rng.uniform(-1.0, 1.0, size=10_000)
    for bit in (0, 1):
        out = quantize_embed_bit(c, np.full(c.shape, bit), default_cfg)
        assert np.all(read_bit(out, default_cfg) == bit)
        assert np.abs(out - c).max() <= default_cfg.q + 1e-15
        r = np.mod(out, default_cfg.q)
        target = default_cfg.r1 if bit else default_cfg.r0
        assert np.abs(r - target).max() <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    c=st.floats(-10.0, 10.0),
    bit=st.sampled_from([0, 1]),
    q=st.sampled_from([0.005, 0.01, 0.123]),
)
def test_quantize_read_property(c, bit, q):
    cfg = EmbedConfig(q=q)
    out = quantize_embed_bit(c, bit, cfg)
    assert read_bit(out, cfg) == bit
    assert abs(out - c) <= q + 1e-12


# ---------------------------------------------------------------------------
# Slot map

def test_slot_map_is_model_independent():
    a = SlotMap(256, 32, ("x1", "x2"))
    b = SlotMap(256, 32, ("x1", "x2"))
    assert np.array_equal(a.bit, b.bit)
    assert a.bit.shape == (2, 8, 32, 32)
    assert a.total_slots == 16384


def test_slot_map_every_bit_in_every_plane():
    smap = SlotMap(256, 32, ("x1", "x2"))
    for di in range(2):
        for bi in range(8):
            plane = smap.bit[di, bi].ravel()
            assert np.array_equal(np.sort(plane), np.arange(1024))


def test_slot_map_covers_all_bits_when_plane_is_small():
    smap = SlotMap(64, 16, ("x1", "x2"))
    assert smap.bit.shape == (2, 8, 8, 8)
    assert np.array_equal(np.unique(smap.bit), np.arange(256))


def test_slot_map_planes_are_offset():
    smap = SlotMap(128, 16, ("x1", "x2"))
    assert not np.array_equal(smap.bit[0, 0], smap.bit[0, 1])
    assert not np.array_equal(smap.bit[0, 0], smap.bit[1, 0])


def _slot_map_loop(n, w, directions):
    nb = n // 8
    pos = np.arange(nb * nb).reshape(nb, nb)
    stride = 5 * nb + 7
    bit = np.empty((len(directions), 8, nb, nb), dtype=np.int64)
    for di in range(len(directions)):
        for bi in range(8):
            bit[di, bi] = (pos + (di * 8 + bi) * stride) % (w**2)
    return bit


@pytest.mark.parametrize(
    "n, w, directions",
    [
        (256, 32, ("x1",)),
        (256, 32, ("x1", "x2")),
        (512, 64, ("x1",)),
        (512, 64, ("x1", "x2")),
        (512, 64, ("x1", "x2", "x3")),
        (64, 16, ("x2",)),
    ],
)
def test_slot_map_equals_plane_loop(n, w, directions):
    bit = SlotMap(n, w, directions).bit
    assert bit.dtype == np.int64
    assert np.array_equal(bit, _slot_map_loop(n, w, directions))


# ---------------------------------------------------------------------------
# Embed / extract

def test_roundtrip_bumps_desk(desk_models, desk_marked, wm32, default_cfg):
    got = extract(desk_marked["bumps"], 32, default_cfg)
    assert np.array_equal(got.bits, wm32.bits)
    assert corr2(wm32.bits, got.bits) == 1.0
    assert ber(wm32, got) == 0.0


@pytest.mark.parametrize("kind", [k for k in MODEL_KINDS if k != "plane"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_roundtrip_all_kinds(kind, seed, wm16, default_cfg):
    m = generate_model(kind, 128, seed)
    got = extract(embed(m, wm16, default_cfg), 16, default_cfg)
    assert np.array_equal(got.bits, wm16.bits)


def test_embed_leaves_x3_and_input_alone(small_model, wm16, default_cfg):
    x1 = small_model.x1.copy()
    marked = embed(small_model, wm16, default_cfg)
    assert np.array_equal(small_model.x1, x1)
    assert np.array_equal(marked.x3, small_model.x3)
    assert not np.array_equal(marked.x1, small_model.x1)


def test_embed_touches_only_embedding_bands(small_model, small_marked):
    scale_ = np.abs(small_model.x1).max()
    for name in ("x1", "x2"):
        t0 = decompose3(small_model.matrix(name))
        t1 = decompose3(small_marked.matrix(name))
        for path in ALL_LEVEL3_BANDS:
            d = np.abs(t1.band(path) - t0.band(path)).max()
            if path in EMBED_BANDS:
                assert d > 1e-6
            else:
                assert d <= 1e-9 * max(scale_, 1.0)


def test_embed_changes_only_eligible_blocks(small_model, small_marked, default_cfg):
    wf = compute_weights(reference_surface(small_model, default_cfg), default_cfg.system())
    mask = np.kron(wf.eligible, np.ones((8, 8), dtype=bool))
    assert np.array_equal(small_marked.x1[~mask], small_model.x1[~mask])
    assert np.abs(small_marked.x1[mask] - small_model.x1[mask]).max() > 1e-3


# The codec as a walk over the three-level tree, one band at a time: the
# definition the block-atom codec must reproduce.

def _tree_state(m, cfg):
    ref = reference_surface(m, cfg)
    return normalization_scale(m, cfg), compute_weights(ref, cfg.system())


def _tree_embed(m, wm, cfg):
    s, wf = _tree_state(m, cfg)
    sbits = scramble(wm.bits, cfg.key).ravel()
    smap = SlotMap(m.n, wm.w, cfg.directions)
    out = {}
    for di, name in enumerate(cfg.directions):
        tree = decompose3(m.matrix(name))
        for bi, path in enumerate(EMBED_BANDS):
            c = tree.band(path)
            written = quantize_embed_bit(c / s, sbits[smap.bit[di, bi]], cfg) * s
            tree.set_band(path, np.where(wf.eligible, written, c))
        out[name] = reconstruct3(tree)
    return m.replace(**out)


def _tree_extract(m, w, cfg):
    s, wf = _tree_state(m, cfg)
    smap = SlotMap(m.n, w, cfg.directions)
    ones = np.zeros(w * w, dtype=np.int64)
    total = np.zeros(w * w, dtype=np.int64)
    el = wf.eligible
    for di, name in enumerate(cfg.directions):
        tree = decompose3(m.matrix(name))
        for bi, path in enumerate(EMBED_BANDS):
            reads = read_bit(tree.band(path) / s, cfg)
            idx = smap.bit[di, bi][el]
            ones += np.bincount(idx, weights=reads[el], minlength=w * w).astype(np.int64)
            total += np.bincount(idx, minlength=w * w)
    bits = ((total > 0) & (2 * ones >= total)).astype(np.uint8)
    return WatermarkBitmap(unscramble(bits.reshape(w, w), cfg.key))


@pytest.mark.parametrize("kind", ["bumps", "harmonic", "meshgrid"])
def test_embed_extract_match_tree_walk(kind, desk_models, desk_marked, wm32, default_cfg):
    m, marked = desk_models[kind], desk_marked[kind]
    want = _tree_embed(m, wm32, default_cfg)
    for name in ("x1", "x2", "x3"):
        ref = want.matrix(name)
        assert np.abs(marked.matrix(name) - ref).max() <= 1e-9 * np.abs(ref).max()
    assert np.array_equal(extract(marked, 32, default_cfg).bits, _tree_extract(want, 32, default_cfg).bits)
    # a damaged model, where the vote is not unanimous
    noisy, _ = apply(marked, parse_attack("randomnoise:a=0.1,seed=103"))
    got = extract(noisy, 32, default_cfg)
    assert ber(wm32, got) > 0.0
    assert np.array_equal(got.bits, _tree_extract(noisy, 32, default_cfg).bits)


def test_embed_insufficient_capacity_on_plane(wm16, default_cfg):
    plane = generate_model("plane", 64)
    with pytest.raises(InsufficientCapacityError) as e:
        embed(plane, wm16, default_cfg)
    assert e.value.eligible == 0 and e.value.needed == 256
    assert "256" in str(e.value)


def test_embed_insufficient_capacity_on_large_payload(small_model, default_cfg):
    big = WatermarkBitmap(np.random.default_rng(0).integers(0, 2, (96, 96), np.uint8))
    with pytest.raises(InsufficientCapacityError) as e:
        embed(small_model, big, default_cfg)
    assert e.value.needed == 96 * 96


def test_extract_validates_side(small_marked, default_cfg):
    with pytest.raises(BadParameterError):
        extract(small_marked, 0, default_cfg)


def test_extract_survives_translation(small_marked, wm16, default_cfg):
    moved, _ = translate(small_marked, 12.5, -7.25, 40.0)
    got = extract(moved, 16, default_cfg)
    assert np.array_equal(got.bits, wm16.bits)


@pytest.mark.parametrize("k", [0.5, 0.9, 2.0, 10.0])
def test_extract_survives_scaling(small_marked, wm16, default_cfg, k):
    got = extract(scale(small_marked, k), 16, default_cfg)
    assert np.array_equal(got.bits, wm16.bits)


def test_wrong_key_destroys_payload(desk_marked, wm32):
    got = extract(desk_marked["bumps"], 32, EmbedConfig(key=6))
    assert corr2(wm32.bits, got.bits) < 0.5


def test_unmarked_model_reads_noise(desk_models, wm32, default_cfg):
    got = extract(desk_models["bumps"], 32, default_cfg)
    assert abs(corr2(wm32.bits, got.bits)) < 0.2


# ---------------------------------------------------------------------------
# Config

def test_config_defaults(default_cfg):
    assert default_cfg.key == 5
    assert default_cfg.q == 0.005
    assert default_cfg.directions == ("x1", "x2")
    assert default_cfg.rules is None
    assert 0.0 <= default_cfg.r0 < default_cfg.t < default_cfg.r1 < default_cfg.q
    assert default_cfg.r1 == 0.75 * default_cfg.q
    assert default_cfg.r0 == 0.25 * default_cfg.q


def test_config_validation():
    with pytest.raises(BadParameterError):
        EmbedConfig(key=-1)
    with pytest.raises(BadParameterError):
        EmbedConfig(key=True)
    with pytest.raises(BadParameterError):
        EmbedConfig(key=1.5)
    with pytest.raises(BadParameterError):
        EmbedConfig(q=0.0)
    with pytest.raises(BadParameterError):
        EmbedConfig(q=-0.01)
    with pytest.raises(BadParameterError):
        EmbedConfig(directions=())
    with pytest.raises(BadParameterError):
        EmbedConfig(directions=("x1", "x1"))
    with pytest.raises(BadParameterError):
        EmbedConfig(directions=("swirl",))


def test_config_direction_order_is_canonical():
    assert EmbedConfig(directions=("x2", "x1")).directions == ("x1", "x2")
    assert EmbedConfig(directions=("x3", "x1")).directions == ("x1", "x3")
    assert EmbedConfig(directions=["x2"]).directions == ("x2",)


def test_config_file_roundtrip(tmp_path):
    cfg = EmbedConfig(key=9, q=0.004, directions=("x2",))
    path = tmp_path / "embed.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg
    text = serialize_config(cfg)
    assert "key=9" in text and "q=0.004" in text and "directions=x2" in text
    assert "rules=" not in text


def test_config_file_tolerates_comments(tmp_path):
    path = tmp_path / "embed.cfg"
    path.write_text("# embedding setup\nkey=3\n\nq=0.01  # fine\ndirections=x1\n")
    cfg = load_config(path)
    assert cfg == EmbedConfig(key=3, q=0.01, directions=("x1",))


@pytest.mark.parametrize(
    "text",
    [
        "key=3\nkey=4\n",
        "key=x\n",
        "q=abc\n",
        "mystery=1\n",
        "just some words\n",
    ],
)
def test_config_file_errors(tmp_path, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(MalformedFileError):
        load_config(path)


def test_config_file_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"key=3\n# caf\xe9\n")
    with pytest.raises(MalformedFileError):
        load_config(path)


def test_config_non_ascii_rules_path_and_non_utf8_rules(tmp_path):
    (tmp_path / "r\u00e8gles.frs").write_text(default_rules_text(), encoding="utf-8")
    (tmp_path / "embed.cfg").write_text("rules=r\u00e8gles.frs\n", encoding="utf-8")
    cfg = load_config(tmp_path / "embed.cfg")
    assert cfg.rules == str(tmp_path / "r\u00e8gles.frs")
    assert cfg.rules_text() == default_rules_text()
    (tmp_path / "r\u00e8gles.frs").write_bytes(b"# \xff\n" + default_rules_text().encode())
    with pytest.raises(MalformedFileError):
        load_config(tmp_path / "embed.cfg").system()


def test_config_relative_rules_path(tmp_path):
    (tmp_path / "custom.frs").write_text(default_rules_text())
    (tmp_path / "embed.cfg").write_text("rules=custom.frs\n")
    cfg = load_config(tmp_path / "embed.cfg")
    assert cfg.rules == str(tmp_path / "custom.frs")
    assert cfg.system() is cfg.system()


def test_config_hash_tracks_parameters_and_rule_text(tmp_path):
    a, b = EmbedConfig(), EmbedConfig()
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64 and set(config_hash(a)) <= set("0123456789abcdef")
    assert config_hash(EmbedConfig(q=0.004)) != config_hash(a)
    assert config_hash(EmbedConfig(key=6)) != config_hash(a)
    custom = tmp_path / "custom.frs"
    custom.write_text(default_rules_text() + "# trailing comment\n")
    assert config_hash(EmbedConfig(rules=str(custom))) != config_hash(a)


# ---------------------------------------------------------------------------
# Normalization scale

def test_normalization_scale_homogeneous(small_model, default_cfg):
    s = normalization_scale(small_model, default_cfg)
    assert s > 0.0
    assert normalization_scale(scale(small_model, 2.0), default_cfg) == 2.0 * s


def test_normalization_scale_translation_invariant(small_model, default_cfg):
    s = normalization_scale(small_model, default_cfg)
    moved, _ = translate(small_model, 100.0, -250.0, 4000.0)
    s2 = normalization_scale(moved, default_cfg)
    assert abs(s2 - s) <= 1e-9 * s


def test_normalization_scale_degenerate():
    flat = GridModel(*(np.full((8, 8), 3.0) for _ in range(3)))
    with pytest.raises(DegenerateModelError):
        normalization_scale(flat, EmbedConfig())
