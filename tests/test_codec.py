import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmark import EmbedConfig, codec, embed, extract, features, fuzzy, generate_model
from gridmark.arnold import period, scramble, unscramble
from gridmark.cli import BENCH_BATTERY
from gridmark.codec import (
    ALPHA_MIN,
    SlotMap,
    _p1_p99,
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
    DimensionError,
    InsufficientCapacityError,
    MalformedFileError,
    NonFiniteValueError,
)
from gridmark.features import compute_weights, reference_surface
from gridmark.fuzzy import OUTPUT_TERMS, default_rules_text, weight_class_many
from gridmark.metrics import ber, corr2, psnr
from gridmark.model_io import GridModel, MODEL_KINDS, WatermarkBitmap
from gridmark.wavelet import (
    ALL_LEVEL3_BANDS,
    EMBED_ATOMS,
    EMBED_BANDS,
    add_atoms,
    decompose3,
    reconstruct3,
    to_block_stack,
)
from gridmark.attacks import apply, apply_registration, parse_attack, scale, translate

CFG01 = EmbedConfig(q=0.01)


def embed_coefficients(m):
    """The 8 embedding bands of decompose3(m), as one (8, nb, nb) array."""
    nb = len(m) // 8
    return (to_block_stack(m) @ EMBED_ATOMS.T).T.reshape(8, nb, nb)


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


def _read_by_mod(c, cfg):
    """read_bit's definition: np.mod's remainder against the threshold."""
    return (np.mod(c, cfg.q) > cfg.t).astype(np.uint8)


def _ulps(x, k):
    """x moved k ulps (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return float(x)


# A normal, a power-of-two, a large and a tiny q; 5e-324 and 1e-310 give a
# subnormal threshold, which q * 0.5 rounds.
READ_QS = (0.005, 0.123, 2.0**-8, 1e300, 1e-300, 1e-310, 5e-324)


@st.composite
def _remainder_edges(draw):
    q = draw(st.sampled_from(READ_QS))
    kind = draw(st.sampled_from(["multiple", "half", "zero", "subnormal", "huge", "normal"]))
    if kind in ("multiple", "half"):  # k q and (k + 1/2) q, 1-2 ulps either side
        k = draw(st.integers(-(10**7), 10**7)) + (0.5 if kind == "half" else 0.0)
        return q, _ulps(k * q, draw(st.integers(-2, 2)))
    if kind == "zero":
        return q, draw(st.sampled_from([0.0, -0.0]))
    if kind == "subnormal":
        return q, draw(st.floats(-2.2e-308, 2.2e-308, allow_subnormal=True))
    if kind == "huge":
        return q, draw(st.sampled_from([1e300, -1e300]))
    return q, draw(st.floats(-1.0, 1.0)) * draw(st.sampled_from([1.0, 1e3, 1e6]))


@settings(max_examples=400, deadline=None)
@given(st.lists(_remainder_edges(), min_size=1, max_size=40))
def test_read_bit_equals_np_mod(pairs):
    by_q = {}
    for q, v in pairs:
        by_q.setdefault(q, []).append(v)
    for q, values in by_q.items():
        cfg = EmbedConfig(q=q)
        v = np.array(values)
        got = read_bit(v, cfg)
        assert got.dtype == np.uint8 and got.shape == v.shape
        assert np.array_equal(got, _read_by_mod(v, cfg)), (q, values)
        one = read_bit(values[0], cfg)
        assert type(one) is int and one == _read_by_mod(values[0], cfg)


@pytest.mark.parametrize("q", [0.005, 0.01, 0.123, 2.0**-8, 3.0])
def test_read_bit_equals_np_mod_at_every_decision_edge(q):
    # k q and (k + 1/2) q for |k| <= 20000, and 1-2 ulps either side, at
    # unit scale and past it: every entry np.mod decides within an ulp
    cfg = EmbedConfig(q=q)
    k = np.arange(-20000, 20001, dtype=float)
    base = np.concatenate([k * q, (k + 0.5) * q, k * q * 1e6])
    down1 = np.nextafter(base, -np.inf)
    up1 = np.nextafter(base, np.inf)
    v = np.concatenate([base, down1, np.nextafter(down1, -np.inf), up1, np.nextafter(up1, np.inf)])
    got = read_bit(v.reshape(5, -1), cfg)
    assert got.dtype == np.uint8 and got.shape == (5, base.size)
    assert np.array_equal(got.ravel(), _read_by_mod(v, cfg))
    assert 0 < got.sum() < got.size


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


# The candidate-stack form quantize_embed_bit replaced, kept as an exact
# reference: argmin over (base, base - q, base + q) takes the first minimum.

def quantize_by_argmin(c, bit, cfg):
    c = np.asarray(c, dtype=float)
    r = np.mod(c, cfg.q)
    base = c - r + np.where(np.asarray(bit) == 1, cfg.r1, cfg.r0)
    cands = np.stack([base, base - cfg.q, base + cfg.q])
    pick = np.argmin(np.abs(cands - c), axis=0)
    return np.take_along_axis(cands, pick[None, ...], axis=0)[0]


@pytest.mark.parametrize("q", [0.5, 2.0**-8, 0.01, 0.005, 0.123])
def test_quantize_equals_argmin_over_candidates(q):
    cfg = EmbedConfig(q=q)
    rng = np.random.default_rng(9)
    k = rng.integers(-4000, 4000, size=2000).astype(float)
    # remainders a quarter and three quarters of a step: halfway between two
    # candidates for one of the bits, exactly so where q is a power of two
    edges = np.concatenate([(k + 0.25) * q, (k + 0.75) * q])
    c = np.concatenate(
        [
            rng.normal(scale=50 * q, size=4000),
            edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
            k * q,
            [0.0, -0.0, 1e20, -1e20],  # at 1e20, q is below an ulp: the candidates all tie
        ]
    )
    for bits in (np.zeros(c.shape, int), np.ones(c.shape, int), rng.integers(0, 2, c.shape)):
        got, want = quantize_embed_bit(c, bits, cfg), quantize_by_argmin(c, bits, cfg)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for x in c[::97]:
        for bit in (0, 1):
            got = quantize_embed_bit(float(x), bit, cfg)
            assert type(got) is float
            assert got.hex() == float(quantize_by_argmin(x, bit, cfg)).hex()


def test_quantize_ties_keep_the_middle_candidate():
    cfg = EmbedConfig(q=0.5)
    # bit 1 at remainder q/4: base and base - q tie; bit 0 at 3q/4: base and base + q
    assert quantize_embed_bit(np.array([0.125, -0.375]), 1, cfg).tolist() == [0.375, -0.125]
    assert quantize_embed_bit(np.array([0.375, -0.125]), 0, cfg).tolist() == [0.125, -0.375]


# ---------------------------------------------------------------------------
# Slot map

def test_slot_map_is_model_independent():
    a = SlotMap(256, 32, ("x1", "x2"))
    b = SlotMap(256, 32, ("x1", "x2"))
    assert np.array_equal(a.bit, b.bit)
    assert a.bit.shape == (2, 8, 32, 32)
    assert a.bit.size == 16384


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
    stride = 5 * nb + 7
    bit = np.empty((len(directions), 8, nb, nb), dtype=np.int64)
    slot = 0
    for di in range(len(directions)):
        for bi in range(8):
            for u in range(nb):
                for v in range(nb):
                    bit[di, bi, u, v] = (slot + (slot // w**2) * stride) % w**2
                    slot += 1
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


def test_slot_map_gives_every_bit_a_slot_when_capacity_allows():
    for n in (8, 16, 24, 32, 64):
        for directions in (("x1",), ("x1", "x2"), ("x1", "x2", "x3")):
            available = len(directions) * 8 * (n // 8) ** 2
            for w in range(1, int(np.sqrt(available)) + 1):
                votes = np.bincount(SlotMap(n, w, directions).bit.ravel(), minlength=w * w)
                assert votes.size == w * w
                assert votes.min() >= 1 and votes.max() - votes.min() <= 1, (n, w, directions)
            with pytest.raises(InsufficientCapacityError):
                SlotMap(n, int(np.sqrt(available)) + 1, directions)


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


def test_roundtrip_huge_key(small_model, wm16):
    # a key far past the scramble period decodes like key mod period
    cfg = EmbedConfig(key=10**12)
    marked = embed(small_model, wm16, cfg)
    got = extract(marked, 16, cfg)
    assert ber(wm16, got) == 0.0
    folded = embed(small_model, wm16, EmbedConfig(key=10**12 % period(16)))
    assert np.array_equal(marked.x1, folded.x1) and np.array_equal(marked.x2, folded.x2)


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


def _alpha(m, cfg):
    return ALPHA_MIN + (1.0 - ALPHA_MIN) * compute_weights(reference_surface(m, cfg.directions), cfg.system()).weight


def test_embed_moves_every_block_within_its_residual_bound(small_model, small_marked, wm16, default_cfg):
    nb = small_model.n // 8
    moved = np.abs(small_marked.x1 - small_model.x1).reshape(nb, 8, nb, 8).max(axis=(1, 3))
    assert (moved > 0.0).all()
    # each slot ends within (1 - alpha) q/2 of its bit's target lattice
    alpha = _alpha(small_model, default_cfg)
    s = normalization_scale(reference_surface(small_marked, default_cfg.directions))
    sbits = scramble(wm16.bits, default_cfg.key).ravel()[SlotMap(small_model.n, 16, default_cfg.directions).bit]
    q = default_cfg.q
    for di, name in enumerate(default_cfg.directions):
        c = embed_coefficients(small_marked.matrix(name)) / s
        r = np.mod(c - np.where(sbits[di] == 1, default_cfg.r1, default_cfg.r0), q)
        residual = np.minimum(r, q - r)
        assert (residual <= (1.0 - alpha) * q / 2 + 1e-9 * q).all()
        assert (residual < q / 4).all()


def _added_reference(m, directions):
    """The reference surface written out with add_atoms: each direction
    minus its embed_coefficients, independent of features.project."""
    return m.replace(**{name: add_atoms(m.matrix(name), -embed_coefficients(m.matrix(name))) for name in directions})


# The codec as a walk over the three-level tree, one band at a time: the
# definition the block-atom codec must reproduce.

def _tree_embed(m, wm, cfg):
    ref = _added_reference(m, cfg.directions)
    s = normalization_scale(ref)
    alpha = ALPHA_MIN + (1.0 - ALPHA_MIN) * compute_weights(ref, cfg.system()).weight
    sbits = scramble(wm.bits, cfg.key).ravel()
    smap = SlotMap(m.n, wm.w, cfg.directions)
    out = {}
    for di, name in enumerate(cfg.directions):
        tree = decompose3(m.matrix(name))
        for bi, path in enumerate(EMBED_BANDS):
            c = tree.band(path)
            written = quantize_embed_bit(c / s, sbits[smap.bit[di, bi]], cfg) * s
            tree.set_band(path, c + alpha * (written - c))
        out[name] = reconstruct3(tree)
    return m.replace(**out)


def _tree_extract(m, w, cfg):
    s = normalization_scale(reference_surface(m, cfg.directions))
    smap = SlotMap(m.n, w, cfg.directions)
    ones = np.zeros(w * w, dtype=np.int64)
    total = np.zeros(w * w, dtype=np.int64)
    for di, name in enumerate(cfg.directions):
        tree = decompose3(m.matrix(name))
        for bi, path in enumerate(EMBED_BANDS):
            reads = read_bit(tree.band(path) / s, cfg)
            for k, r in zip(smap.bit[di, bi].ravel(), reads.ravel()):
                ones[k] += r
                total[k] += 1
    bits = np.array([k % 2 if 2 * o == t else 2 * o > t for k, (o, t) in enumerate(zip(ones, total))], np.uint8)
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
    noisy, _ = apply(marked, parse_attack("randomnoise:a=0.5,seed=103"))
    got = extract(noisy, 32, default_cfg)
    assert ber(wm32, got) > 0.0
    assert np.array_equal(got.bits, _tree_extract(noisy, 32, default_cfg).bits)


# The codec before one projection fed both the reference surface and the
# slots: reference_surface projected each direction, then embed and extract
# projected it again.

def _embed_projecting_twice(m, wm, cfg):
    ref = _added_reference(m, cfg.directions)
    s = normalization_scale(ref)
    alpha = ALPHA_MIN + (1.0 - ALPHA_MIN) * compute_weights(ref, cfg.system()).weight
    sbits = scramble(wm.bits, cfg.key).ravel()
    smap = SlotMap(m.n, wm.w, cfg.directions)
    c = np.stack([embed_coefficients(m.matrix(name)) for name in cfg.directions])
    delta = alpha * (quantize_embed_bit(c / s, sbits[smap.bit], cfg) * s - c)
    return m.replace(**{name: add_atoms(m.matrix(name), delta[di]) for di, name in enumerate(cfg.directions)})


def _extract_projecting_twice(m, w, cfg):
    s = normalization_scale(reference_surface(m, cfg.directions))
    idx = SlotMap(m.n, w, cfg.directions).bit.ravel()
    c = np.stack([embed_coefficients(m.matrix(name)) for name in cfg.directions])
    twice_ones = 2 * np.bincount(idx, weights=read_bit(c / s, cfg).ravel(), minlength=w * w)
    total = np.bincount(idx, minlength=w * w)
    bits = np.where(twice_ones == total, np.arange(w * w) % 2, twice_ones > total).astype(np.uint8)
    return WatermarkBitmap(unscramble(bits.reshape(w, w), cfg.key))


@pytest.mark.parametrize("kind", ["bumps", "harmonic", "meshgrid"])
def test_one_projection_equals_two(kind, desk_models, desk_marked, wm32, default_cfg):
    want = _embed_projecting_twice(desk_models[kind], wm32, default_cfg)
    for name in ("x1", "x2", "x3"):
        assert np.array_equal(desk_marked[kind].matrix(name), want.matrix(name)), name
    noisy, _ = apply(desk_marked[kind], parse_attack("randomnoise:a=0.5,seed=103"))
    for model in (desk_marked[kind], noisy):
        assert np.array_equal(extract(model, 32, default_cfg).bits, _extract_projecting_twice(model, 32, default_cfg).bits)


# embed weights its blocks from project's stacks, without building the
# reference surface; compute_weights cuts the reference surface into the
# same stacks.  Neither classifies the weights.

@pytest.mark.parametrize(
    "n, directions",
    [(64, ("x1", "x2")), (256, ("x1", "x2")), (64, ("x2", "x3")), (64, ("x1", "x2", "x3"))],
    ids=["64", "256", "64-x2x3", "64-x1x2x3"],
)
@pytest.mark.parametrize("kind", ["bumps", "harmonic", "meshgrid"])
def test_embed_weights_equal_compute_weights(kind, n, directions, monkeypatch):
    cfg = EmbedConfig(directions=directions)
    m = generate_model(kind, n, 0)
    wm = WatermarkBitmap(np.random.default_rng(11).integers(0, 2, (n // 8, n // 8), dtype=np.uint8))
    weights, classified = [], []
    block_weights = codec._block_weights

    def weights_spy(blocks, sys):
        norm, w = block_weights(blocks, sys)
        weights.append(w)
        return norm, w

    def class_spy(sys, w):
        classified.append(w)
        return weight_class_many(sys, w)

    monkeypatch.setattr(codec, "_block_weights", weights_spy)
    for module in (fuzzy, features, codec):
        monkeypatch.setattr(module, "weight_class_many", class_spy, raising=False)
    embed(m, wm, cfg)
    assert len(weights) == 1
    want = compute_weights(reference_surface(m, directions), cfg.system())
    assert classified == []
    assert np.array_equal(weights[0], want.weight)


# extract before it read each block stack once: the reference surface as a
# GridModel, np.percentile's scale of it and np.mod's threshold test.

def _extract_via_reference_surface(m, w, cfg):
    if w < 1:
        raise BadParameterError(f"watermark side must be positive, got {w}")
    c = np.stack([embed_coefficients(m.matrix(name)) for name in cfg.directions])
    s = _percentile_scale(_added_reference(m, cfg.directions))
    idx = SlotMap(m.n, w, cfg.directions).bit.ravel()
    twice_ones = 2 * np.bincount(idx, weights=_read_by_mod(c / s, cfg).ravel(), minlength=w * w)
    total = np.bincount(idx, minlength=w * w)
    bits = np.where(twice_ones == total, np.arange(w * w) % 2, twice_ones > total).astype(np.uint8)
    return WatermarkBitmap(unscramble(bits.reshape(w, w), cfg.key))


@pytest.mark.parametrize("n, w", [(64, 16), (256, 32), (512, 64)])
@pytest.mark.parametrize("kind", ["bumps", "harmonic", "meshgrid"])
def test_extract_equals_reference_surface_oracle(kind, n, w, default_cfg, monkeypatch):
    # the clean model, the marked one and every battery row, registered
    # as gridmark bench registers them
    m = generate_model(kind, n, 0)
    wm = WatermarkBitmap(np.random.default_rng(11).integers(0, 2, (w, w), dtype=np.uint8))
    marked = embed(m, wm, default_cfg)
    models = [m, marked]
    for spec in BENCH_BATTERY:
        attacked, reg = apply(marked, parse_attack(spec))
        models.append(attacked if reg is None else apply_registration(attacked, reg))
    sizes = _spy_partitions(monkeypatch)
    for spec, model in zip(["clean", "none", *BENCH_BATTERY], models):
        sizes.clear()
        got = extract(model, w, default_cfg)
        # from n=256 the ~4096-value sample is a fraction of a block stack,
        # and only the tails it bounds were partitioned
        assert n < 256 or max(sizes) < n**2 // 4, spec
        assert np.array_equal(got.bits, _extract_via_reference_surface(model, w, default_cfg).bits), spec


def _overflowing_reference():
    """An 8x8 model whose x1 block has finite coefficients (|c| <= 1.2e308)
    but a reference that passes the float range at (0, 0): x1 is 1.6e308
    there and -1.6e308 times the sign of the projection's weight elsewhere."""
    weight = EMBED_ATOMS.T @ EMBED_ATOMS[:, 0]
    x1 = -1.6e308 * np.sign(weight)
    x1[0] = 1.6e308
    zeros = np.zeros((8, 8))
    return GridModel(x1.reshape(8, 8), zeros, zeros)


@pytest.mark.parametrize(
    "make, w, error",
    [
        (lambda: GridModel(*(np.full((16, 16), 3.0) for _ in range(3))), 2, DegenerateModelError),
        (lambda: scale(generate_model("bumps", 64, 0), 1e160), 8, DegenerateModelError),
        (_overflowing_reference, 1, NonFiniteValueError),
        (lambda: generate_model("bumps", 64, 0), 33, InsufficientCapacityError),
        (lambda: GridModel(*np.random.default_rng(0).normal(size=(3, 12, 12))), 2, DimensionError),
    ],
    ids=["flat", "overflowing-scale", "overflowing-reference", "oversized-w", "side-not-multiple-of-8"],
)
def test_extract_errors_match_the_oracle(make, w, error, default_cfg):
    m = make()
    with pytest.raises(error):
        extract(m, w, default_cfg)
    with np.errstate(all="ignore"), pytest.raises(error):
        _extract_via_reference_surface(m, w, default_cfg)


@pytest.mark.parametrize("w", [8.0, True, "8", np.bool_(True), -1, 0])
def test_extract_refuses_a_side_that_is_not_a_positive_integer(small_marked, default_cfg, w):
    with pytest.raises(BadParameterError):
        extract(small_marked, w, default_cfg)


def test_extract_takes_a_numpy_integer_side(small_marked, wm16, default_cfg):
    assert np.array_equal(extract(small_marked, np.int64(16), default_cfg).bits, wm16.bits)


@pytest.mark.parametrize("n", [8, 64])
def test_extract_leaves_its_input_alone(n, default_cfg):
    # at n=8 the block stack of a matrix is a reshape of it, not a copy
    m = generate_model("bumps", n, 0)
    before = [m.matrix(name).copy() for name in ("x1", "x2", "x3")]
    extract(m, 2, default_cfg)
    for name, x in zip(("x1", "x2", "x3"), before):
        assert np.array_equal(m.matrix(name), x), name


@pytest.mark.parametrize("n", [8, 64])
def test_embed_leaves_its_input_alone(n, default_cfg):
    m = generate_model("bumps", n, 0)
    before = [m.matrix(name).copy() for name in ("x1", "x2", "x3")]
    embed(m, WatermarkBitmap(np.array([[1, 0], [0, 1]], dtype=np.uint8)), default_cfg)
    for name, x in zip(("x1", "x2", "x3"), before):
        assert np.array_equal(m.matrix(name), x), name


def test_embed_refuses_an_overflowing_reference(default_cfg):
    # the reference is refused before any sum passes the float range; the
    # suite turns a RuntimeWarning into an error
    with pytest.raises(NonFiniteValueError):
        embed(_overflowing_reference(), WatermarkBitmap(np.ones((1, 1), dtype=np.uint8)), default_cfg)


# The codec before the weight set the step: only HIGH/HIGHER blocks carry
# payload, at the full step, and extract votes over the blocks that are
# eligible in the model it is given.

def _eligible(ref, cfg):
    """The blocks of ref whose weight classifies as HIGH or HIGHER."""
    classes = weight_class_many(cfg.system(), compute_weights(ref, cfg.system()).weight)
    return np.isin(classes, [OUTPUT_TERMS.index("HIGH"), OUTPUT_TERMS.index("HIGHER")])


def _masked_embed(m, wm, cfg):
    ref = reference_surface(m, cfg.directions)
    s, el = normalization_scale(ref), _eligible(ref, cfg)
    sbits = scramble(wm.bits, cfg.key).ravel()
    smap = SlotMap(m.n, wm.w, cfg.directions)
    c = np.stack([embed_coefficients(m.matrix(name)) for name in cfg.directions])
    delta = np.where(el, quantize_embed_bit(c / s, sbits[smap.bit], cfg) * s - c, 0.0)
    return m.replace(**{name: add_atoms(m.matrix(name), delta[di]) for di, name in enumerate(cfg.directions)})


def _masked_extract(m, w, cfg):
    ref = reference_surface(m, cfg.directions)
    s, el = normalization_scale(ref), _eligible(ref, cfg)
    smap = SlotMap(m.n, w, cfg.directions)
    c = np.stack([embed_coefficients(m.matrix(name)) for name in cfg.directions])
    idx = smap.bit[:, :, el].ravel()
    ones = np.bincount(idx, weights=read_bit(c / s, cfg)[:, :, el].ravel(), minlength=w * w)
    total = np.bincount(idx, minlength=w * w)
    bits = ((total > 0) & (2 * ones >= total)).astype(np.uint8)
    return WatermarkBitmap(unscramble(bits.reshape(w, w), cfg.key))


@pytest.mark.parametrize("kind", ["bumps", "harmonic", "meshgrid"])
def test_weighted_step_beats_the_eligibility_mask(kind, desk_models, desk_marked, wm32, default_cfg):
    masked = _masked_embed(desk_models[kind], wm32, default_cfg)
    for text in ("crop:p=0.16", "saltpepper:d=0.05,seed=7", "randomnoise:a=0.1,seed=7"):
        spec = parse_attack(text)
        new = ber(wm32, extract(apply(desk_marked[kind], spec)[0], 32, default_cfg))
        old = ber(wm32, _masked_extract(apply(masked, spec)[0], 32, default_cfg))
        assert new <= old, (text, new, old)


@pytest.mark.parametrize(
    "kind, n, w",
    [
        ("bumps", 128, 32),
        ("bumps", 64, 16),
        ("harmonic", 64, 16),
        ("meshgrid", 64, 16),
        ("meshgrid", 512, 64),
        ("bumps", 64, 32),
    ],
)
def test_roundtrip_where_the_mask_lost_bits(kind, n, w, default_cfg):
    # the masked codec decoded most of these with errors, because bits
    # whose slots were all ineligible read as 0, and refused the last,
    # which has exactly one slot per bit (2 * 8 * 8**2 = 32**2)
    m = generate_model(kind, n, 0)
    wm = WatermarkBitmap(np.random.default_rng(11).integers(0, 2, (w, w), dtype=np.uint8))
    assert ber(wm, extract(embed(m, wm, default_cfg), w, default_cfg)) == 0.0


def test_plane_carries_a_mark(wm16, default_cfg):
    plane = generate_model("plane", 64)
    marked = embed(plane, wm16, default_cfg)
    assert np.array_equal(extract(marked, 16, default_cfg).bits, wm16.bits)
    assert psnr(plane, marked) >= 60.0


def test_tied_votes_decode_to_bit_parity(desk_marked, wm32, default_cfg):
    # the Laplacian smoothing leaves harmonic's slots reading half ones and
    # half zeros; ties must not collapse the bitmap to a constant
    attacked, _ = apply(desk_marked["harmonic"], parse_attack("laplacian:alpha=1"))
    got = extract(attacked, 32, default_cfg)
    assert 0 < got.bits.sum() < got.bits.size
    assert np.isfinite(corr2(wm32.bits, got.bits))


def test_embed_insufficient_capacity_on_plane(default_cfg):
    plane = generate_model("plane", 64)
    big = WatermarkBitmap(np.random.default_rng(0).integers(0, 2, (33, 33), np.uint8))
    with pytest.raises(InsufficientCapacityError) as e:
        embed(plane, big, default_cfg)
    assert e.value.available == 1024 and e.value.needed == 1089
    assert "1089" in str(e.value) and "1024 available slots" in str(e.value)


def test_embed_insufficient_capacity_on_large_payload(small_model, default_cfg):
    big = WatermarkBitmap(np.random.default_rng(0).integers(0, 2, (96, 96), np.uint8))
    with pytest.raises(InsufficientCapacityError) as e:
        embed(small_model, big, default_cfg)
    assert e.value.needed == 96 * 96


def test_extract_validates_side(small_marked, default_cfg):
    with pytest.raises(BadParameterError):
        extract(small_marked, 0, default_cfg)
    # n=128, two directions: 4096 slots, too few for any side above 64
    with pytest.raises(InsufficientCapacityError):
        extract(small_marked, 65, default_cfg)


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


@pytest.mark.parametrize("kind", ["bumps", "harmonic", "meshgrid"])
def test_key_is_found_by_trying_every_cat_map_power(kind, desk_marked, wm32, default_cfg):
    # the key only scrambles the bitmap, and the cat map on 32 x 32 repeats
    # after 24 steps: extracting with key 0 and unscrambling by each of the
    # 24 powers finds the mark at the embedding key
    assert period(32) == 24
    plain = extract(desk_marked[kind], 32, EmbedConfig(key=0)).bits
    corrs = [corr2(wm32.bits, unscramble(plain, k)) for k in range(period(32))]
    assert [k for k, c in enumerate(corrs) if c == 1.0] == [default_cfg.key]


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
    for q in (math.inf, math.nan):
        with pytest.raises(BadParameterError):
            EmbedConfig(q=q)
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


@pytest.mark.parametrize("q", ["inf", "nan"])
def test_config_file_rejects_non_finite_q(tmp_path, q):
    # an infinite q quantized every coefficient to 0 and extract printed an
    # all-zero bitmap with exit status 0
    path = tmp_path / "bad.cfg"
    path.write_text(f"q={q}\n")
    with pytest.raises(BadParameterError):
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
    s = normalization_scale(reference_surface(small_model, default_cfg.directions))
    assert s > 0.0
    assert normalization_scale(reference_surface(scale(small_model, 2.0), default_cfg.directions)) == 2.0 * s


def test_normalization_scale_translation_invariant(small_model, default_cfg):
    s = normalization_scale(reference_surface(small_model, default_cfg.directions))
    moved, _ = translate(small_model, 100.0, -250.0, 4000.0)
    s2 = normalization_scale(reference_surface(moved, default_cfg.directions))
    assert abs(s2 - s) <= 1e-9 * s


def _percentile_scale(ref):
    """The scale as np.percentile gives it over the stacked surface: the
    exact reference for normalization_scale."""
    lo, hi = np.percentile(np.stack([ref.x1, ref.x2, ref.x3]), [1.0, 99.0], axis=(1, 2))
    s = float(np.linalg.norm(hi - lo))
    if s == 0.0 or not np.isfinite(s):
        raise DegenerateModelError(f"model has robust extent {s}; cannot normalize")
    return s


def test_normalization_scale_degenerate():
    flat = GridModel(*(np.full((8, 8), 3.0) for _ in range(3)))
    with pytest.raises(DegenerateModelError):
        normalization_scale(reference_surface(flat, EmbedConfig().directions))
    # constant coordinates, signed zeros among them, on both paths
    ref = GridModel(*(np.full((64, 64), v) for v in (-0.0, 0.0, 1e300)))
    for scale_of in (normalization_scale, _percentile_scale):
        with pytest.raises(DegenerateModelError):
            scale_of(ref)


def test_normalization_scale_overflow_is_degenerate(wm16):
    # finite coordinates whose p1-p99 ranges square past the float range:
    # an inf scale would divide every coefficient to 0 and read all zeros
    huge = scale(generate_model("bumps", 64, 0), 1e160)
    assert all(np.isfinite(huge.matrix(name)).all() for name in ("x1", "x2", "x3"))
    with pytest.raises(DegenerateModelError):
        normalization_scale(reference_surface(huge, EmbedConfig().directions))
    with pytest.raises(DegenerateModelError):
        extract(huge, 8, EmbedConfig())
    with pytest.raises(DegenerateModelError):
        embed(huge, WatermarkBitmap(wm16.bits[:8, :8]), EmbedConfig())


def test_normalization_scale_of_desk_models_pinned(desk_models, default_cfg):
    want = {"bumps": 204795.89256613216, "harmonic": 204793.28108539036, "meshgrid": 204798.32589503613}
    for kind, m in desk_models.items():
        assert normalization_scale(reference_surface(m, default_cfg.directions)) == want[kind], kind


def _spy_partitions(monkeypatch):
    """Record the size of every array np.partition sees."""
    sizes = []
    partition = np.partition

    def spy(a, kth, *args, **kwargs):
        sizes.append(np.size(a))
        return partition(a, kth, *args, **kwargs)

    monkeypatch.setattr(np, "partition", spy)
    return sizes


MATRIX_KINDS = ("normal", "integers", "signed_zeros", "constant")


def _matrix(kind, n, seed, plateau, outliers):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        x = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(n, n))
    elif kind == "integers":  # heavy ties
        x = rng.integers(-3, 4, size=(n, n)).astype(float)
    elif kind == "signed_zeros":
        x = rng.choice([-0.0, 0.0, 0.0, 1.0, -2.5], size=(n, n))
    else:
        return np.full((n, n), rng.normal())
    if plateau:  # the lowest 3% and the highest 2% flattened onto one value each
        order = np.argsort(x, axis=None)
        k = max(1, 3 * x.size // 100)
        x.flat[order[:k]] = x.flat[order[k]]
        x.flat[order[-k * 2 // 3:]] = x.flat[order[-k]]
    idx = rng.choice(x.size, size=min(outliers, x.size), replace=False)
    x.flat[idx] = rng.choice([-1e300, 1e300], size=idx.size)
    return x


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(8, 128),
    kinds=st.lists(st.sampled_from(MATRIX_KINDS), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    plateau=st.booleans(),
    outliers=st.sampled_from([0, 1, 5, 60, 400]),
)
def test_normalization_scale_equals_percentile(n, kinds, seed, plateau, outliers):
    ref = GridModel(*(_matrix(k, n, seed + i, plateau, outliers) for i, k in enumerate(kinds)))
    for x in (ref.x1, ref.x2, ref.x3):
        assert np.array_equal(_p1_p99(x), np.percentile(x, [1.0, 99.0]))
    with np.errstate(over="ignore"):  # two 1e300 ranges overflow the norm to inf
        try:
            want = _percentile_scale(ref)
        except DegenerateModelError:
            with pytest.raises(DegenerateModelError):
                normalization_scale(ref)
        else:
            assert normalization_scale(ref) == want


def test_p1_p99_half_fraction_takes_the_upper_form():
    # 351 values: (N-1) * 0.01 = 3.5, so g = 0.5 and np.percentile reads
    # b - (b-a)/2, which differs from a + (b-a)/2 for a=0.1, b=0.7
    x = np.arange(351.0) - 3.0
    x[3], x[4] = 0.1, 0.7
    x = np.random.default_rng(0).permutation(x).reshape(9, 39)
    got = _p1_p99(x)
    assert np.array_equal(got, np.percentile(x, [1.0, 99.0]))
    assert got[0] == 0.7 - (0.7 - 0.1) * 0.5 != 0.1 + (0.7 - 0.1) * 0.5


# 128 x 128 = 16384 values are sampled at stride 5 (16384 // 4096 = 4,
# raised to the next side-coprime stride): positions i with i % 5 == 0.
ON_STRIDE = np.arange(128 * 128) % 5 == 0


def test_tails_off_the_sample_stride_fall_back(monkeypatch):
    # every sampled value is 0, so tlo == thi and the whole matrix is
    # partitioned; the extremes sit only between sampled positions
    x = np.zeros(128 * 128)
    off = np.flatnonzero(~ON_STRIDE)
    rng = np.random.default_rng(3)
    x[rng.choice(off, 500, replace=False)] = rng.normal(size=500) * 1e3
    x = x.reshape(128, 128)
    sizes = _spy_partitions(monkeypatch)
    got = _p1_p99(x)
    assert x.size in sizes
    assert np.array_equal(got, np.percentile(x, [1.0, 99.0]))


def test_sample_overweighting_a_tail_fails_the_count(monkeypatch):
    # sampled positions reach down to 0, the rest stay above 0.5: the 2%
    # bound of the sample holds fewer than the p1 rank + 2 values
    rng = np.random.default_rng(4)
    x = np.where(ON_STRIDE, rng.uniform(0.0, 1.0, ON_STRIDE.size), rng.uniform(0.5, 1.0, ON_STRIDE.size))
    x = x.reshape(128, 128)
    sizes = _spy_partitions(monkeypatch)
    got = _p1_p99(x)
    assert x.size in sizes
    assert np.array_equal(got, np.percentile(x, [1.0, 99.0]))


def test_normalization_scale_exact_on_desk_surfaces(desk_models, desk_marked, wm32, default_cfg, monkeypatch):
    # the desk models at n=256 and 512: clean, marked and after every
    # benchmark battery attack, as gridmark bench extracts them
    pairs = [(desk_models[k], desk_marked[k]) for k in desk_models]
    for kind in desk_models:
        m = generate_model(kind, 512, 0)
        pairs.append((m, embed(m, wm32, default_cfg)))
    sizes = _spy_partitions(monkeypatch)
    for clean, marked in pairs:
        models = [clean, marked]
        for spec in BENCH_BATTERY:
            attacked, reg = apply(marked, parse_attack(spec))
            models.append(attacked if reg is None else apply_registration(attacked, reg))
        for m in models:
            ref = reference_surface(m, default_cfg.directions)
            sizes.clear()
            assert normalization_scale(ref) == _percentile_scale(ref)
            # the tails alone were partitioned, never a whole matrix
            assert max(sizes) < m.n**2 // 4
            for x in (ref.x1, ref.x2, ref.x3):
                assert np.array_equal(_p1_p99(x), np.percentile(x, [1.0, 99.0]))
