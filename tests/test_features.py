import functools
import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from gridmark import GridModel, features, generate_model
from gridmark.errors import DegenerateModelError
from gridmark.features import (
    ELIGIBLE_TERMS,
    FeatureField,
    compute_weights,
    normalize_features,
    raw_features,
    reference_surface,
    _block_points,
    _features,
)
from gridmark.fuzzy import OUTPUT_TERMS, make_system, weight_class_many
from gridmark.wavelet import ALL_LEVEL3_BANDS, EMBED_BANDS, decompose3
from gridmark.attacks import apply, parse_attack, scale, translate

DIRS = ("x1", "x2")


@pytest.fixture(scope="module")
def system():
    return make_system()


@pytest.fixture(scope="module")
def harmonic64():
    return generate_model("harmonic", 64, seed=3)


# ---------------------------------------------------------------------------
# Straight-line oracle for the three block features

def oracle_block(m, u, v):
    pts = [
        [
            (m.x1[i, j], m.x2[i, j], m.x3[i, j])
            for j in range(8 * v, 8 * v + 8)
        ]
        for i in range(8 * u, 8 * u + 8)
    ]
    norms = []
    for i in range(1, 7):
        for j in range(1, 7):
            vec = [
                pts[i - 1][j][k]
                + pts[i + 1][j][k]
                + pts[i][j - 1][k]
                + pts[i][j + 1][k]
                - 4.0 * pts[i][j][k]
                for k in range(3)
            ]
            norms.append(math.sqrt(sum(c * c for c in vec)))
    curvature = math.fsum(norms) / 36.0

    def sub(a, b):
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2])

    def cross_norm(a, b):
        c = (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
        return math.sqrt(sum(x * x for x in c))

    area = 0.0
    for i in range(7):
        for j in range(7):
            p00, p01 = pts[i][j], pts[i][j + 1]
            p10, p11 = pts[i + 1][j], pts[i + 1][j + 1]
            area += 0.5 * cross_norm(sub(p10, p00), sub(p11, p00))
            area += 0.5 * cross_norm(sub(p11, p00), sub(p01, p00))

    flat = np.array(pts, dtype=float).reshape(-1, 3)
    centered = flat - flat.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    bumpiness = float(sv[-1]) / math.sqrt(64.0)
    return curvature, area, bumpiness


def test_block_features_match_oracle(harmonic64):
    field = raw_features(harmonic64)
    for u in range(8):
        for v in range(8):
            got = (field.curvature[u, v], field.area[u, v], field.bumpiness[u, v])
            want = oracle_block(harmonic64, u, v)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-9 + 1e-9 * abs(w)


def test_plane_block_features_exact():
    field = raw_features(generate_model("plane", 64))
    assert field.curvature[3, 5] == 0.0
    assert field.area[3, 5] == 49.0
    assert field.bumpiness[3, 5] == 0.0


def test_raw_features_shapes(harmonic64):
    field = raw_features(harmonic64)
    assert field.nb == 8
    for ch in (field.curvature, field.area, field.bumpiness):
        assert ch.shape == (8, 8) and np.isfinite(ch).all()


# ---------------------------------------------------------------------------
# The per-block loop the batched kernel replaced, kept as an exact reference:
# the batched pass must reproduce it bit for bit, not just within a tolerance,
# because one flipped eligibility decision changes the extracted bits.

def loop_block_features(ref, u, v):
    sl = (slice(8 * u, 8 * u + 8), slice(8 * v, 8 * v + 8))
    pts = np.stack([ref.x1[sl], ref.x2[sl], ref.x3[sl]], axis=-1)
    lap = (
        pts[:-2, 1:-1]
        + pts[2:, 1:-1]
        + pts[1:-1, :-2]
        + pts[1:-1, 2:]
        - 4.0 * pts[1:-1, 1:-1]
    )
    curvature = float(np.linalg.norm(lap, axis=-1).mean())

    p00, p01, p10, p11 = pts[:-1, :-1], pts[:-1, 1:], pts[1:, :-1], pts[1:, 1:]
    c1 = np.cross(p10 - p00, p11 - p00)
    c2 = np.cross(p11 - p00, p01 - p00)
    area = float((0.5 * np.linalg.norm(c1, axis=-1) + 0.5 * np.linalg.norm(c2, axis=-1)).sum())

    flat = pts.reshape(-1, 3)
    centered = flat - flat.mean(axis=0)
    spread = float(np.abs(centered).max())
    if spread == 0.0:
        bumpiness = 0.0
    else:
        sv = np.linalg.svd(centered / spread, compute_uv=False)
        bumpiness = spread * float(sv[-1]) / math.sqrt(flat.shape[0])
    return curvature, area, bumpiness


def loop_raw_features(ref):
    nb = ref.n // 8
    c, a, b = (np.empty((nb, nb)) for _ in range(3))
    for u in range(nb):
        for v in range(nb):
            c[u, v], a[u, v], b[u, v] = loop_block_features(ref, u, v)
    return FeatureField(c, a, b)


def block_constant_model(n=256, seed=5):
    """Every other block is a single repeated point (spread 0, bumpiness 0);
    the rest are noise."""
    rng = np.random.default_rng(seed)
    nb = n // 8
    flat = np.kron(np.add.outer(np.arange(nb), np.arange(nb)) % 2 == 0, np.ones((8, 8), dtype=bool))
    mats = []
    for _ in range(3):
        # integer levels, so a block's mean is exactly its level
        level = np.kron(rng.integers(-100, 100, size=(nb, nb)), np.ones((8, 8)))
        mats.append(np.where(flat, level, rng.normal(size=(n, n))))
    return GridModel(*mats)


@pytest.fixture(scope="module")
def exact_surfaces(desk_models):
    surfaces = dict(desk_models)
    surfaces["plane"] = generate_model("plane", 256)
    surfaces["noise"] = apply(desk_models["bumps"], parse_attack("randomnoise:a=0.1,seed=103"))[0]
    surfaces["smoothed"] = apply(desk_models["harmonic"], parse_attack("gaussian:hsize=7,sigma=10"))[0]
    refs = {name: reference_surface(m, DIRS) for name, m in surfaces.items()}
    # taken as is: the reference surface's round trip leaves ulp-level spread
    refs["block-constant"] = block_constant_model()
    return refs


@pytest.mark.parametrize(
    "name", ["bumps", "harmonic", "meshgrid", "plane", "block-constant", "noise", "smoothed"]
)
def test_raw_features_equal_per_block_loop(exact_surfaces, name):
    ref = exact_surfaces[name]
    got, want = raw_features(ref), loop_raw_features(ref)
    for channel in ("curvature", "area", "bumpiness"):
        assert np.array_equal(getattr(got, channel), getattr(want, channel)), channel


def test_block_constant_model_has_zero_spread_blocks(exact_surfaces):
    field = raw_features(exact_surfaces["block-constant"])
    assert (field.bumpiness == 0.0).sum() == field.bumpiness.size // 2
    assert (field.bumpiness > 0.0).any()


def test_block_features_equal_per_block_loop(exact_surfaces):
    # one block evaluated alone, as an 8x8 surface of its own
    ref = exact_surfaces["noise"]
    for u, v in [(0, 0), (5, 17), (31, 31), (31, 0)]:
        sl = (slice(8 * u, 8 * u + 8), slice(8 * v, 8 * v + 8))
        alone = raw_features(GridModel(ref.x1[sl], ref.x2[sl], ref.x3[sl]))
        got = (alone.curvature[0, 0], alone.area[0, 0], alone.bumpiness[0, 0])
        assert got == loop_block_features(ref, u, v)


def test_normalize_channel_pins():
    raw = FeatureField(
        np.arange(101.0).reshape(1, 101).repeat(101, axis=0)[:101, :101],
        np.full((101, 101), 3.0),
        np.linspace(0.0, 1.0, 101 * 101).reshape(101, 101),
    )
    norm = normalize_features(raw)
    # percentiles of 0..100 are 5 and 95: affine map with clipping
    assert norm.curvature.min() == 0.0 and norm.curvature.max() == 1.0
    assert norm.curvature[0, 50] == pytest.approx((50.0 - 5.0) / 90.0, abs=1e-12)
    # constant channel collapses to 0.5 everywhere
    assert np.all(norm.area == 0.5)
    assert norm.bumpiness.min() == 0.0 and norm.bumpiness.max() == 1.0


# ---------------------------------------------------------------------------
# Reference surface

def test_reference_surface_zeroes_embed_bands(small_model):
    ref = reference_surface(small_model, DIRS)
    for name in DIRS:
        tree = decompose3(ref.matrix(name))
        for path in EMBED_BANDS:
            assert np.abs(tree.band(path)).max() <= 1e-9
    assert ref.x3 is small_model.x3


def test_reference_surface_idempotent(small_model):
    once = reference_surface(small_model, DIRS)
    twice = reference_surface(once, DIRS)
    for name in DIRS:
        assert np.abs(twice.matrix(name) - once.matrix(name)).max() <= 1e-9


def test_reference_surface_ignores_embedded_payload(small_model, small_marked):
    before = reference_surface(small_model, DIRS)
    after = reference_surface(small_marked, DIRS)
    for name in DIRS:
        assert np.abs(after.matrix(name) - before.matrix(name)).max() <= 1e-9


def test_reference_surface_keeps_untouched_bands(small_model):
    ref = reference_surface(small_model, DIRS)
    untouched = [p for p in ALL_LEVEL3_BANDS if p not in EMBED_BANDS]
    t0 = decompose3(small_model.x1)
    t1 = decompose3(ref.x1)
    scale_ = np.abs(small_model.x1).max()
    for path in untouched:
        assert np.abs(t1.band(path) - t0.band(path)).max() <= 1e-9 * max(scale_, 1.0)


# ---------------------------------------------------------------------------
# Weight field

def test_weight_field_shapes(small_model, system):
    wf = compute_weights(reference_surface(small_model, DIRS), system)
    assert wf.nb == 16
    assert wf.weight.shape == (16, 16) and wf.eligible.shape == (16, 16)
    assert wf.eligible.dtype == bool
    assert 0 < wf.eligible.sum() < 16 * 16
    assert np.all((wf.weight >= 0.0) & (wf.weight <= 1.0))


def test_eligibility_follows_weight_class(small_model, system):
    wf = compute_weights(reference_surface(small_model, DIRS), system)
    for u in range(wf.nb):
        for v in range(wf.nb):
            name = OUTPUT_TERMS[int(weight_class_many(system, wf.weight[u, v]))]
            assert wf.eligible[u, v] == (name in ELIGIBLE_TERMS)


def test_weight_field_stable_under_embedding(small_model, small_marked, system):
    a = compute_weights(reference_surface(small_model, DIRS), system)
    b = compute_weights(reference_surface(small_marked, DIRS), system)
    assert np.array_equal(a.eligible, b.eligible)
    assert np.abs(a.weight - b.weight).max() <= 1e-9


def test_weight_field_exact_under_doubling(small_model, system):
    a = compute_weights(reference_surface(small_model, DIRS), system)
    doubled = scale(small_model, 2.0)
    b = compute_weights(reference_surface(doubled, DIRS), system)
    assert np.array_equal(a.weight, b.weight)
    assert np.array_equal(a.eligible, b.eligible)


@pytest.mark.parametrize("k", [0.9, 10.0])
def test_weight_field_eligibility_under_scaling(small_model, system, k):
    a = compute_weights(reference_surface(small_model, DIRS), system)
    b = compute_weights(reference_surface(scale(small_model, k), DIRS), system)
    assert np.array_equal(a.eligible, b.eligible)


def test_weight_field_translation_invariant(small_model, system):
    a = compute_weights(reference_surface(small_model, DIRS), system)
    moved, _ = translate(small_model, 12.5, -7.25, 40.0)
    b = compute_weights(reference_surface(moved, DIRS), system)
    assert np.array_equal(a.eligible, b.eligible)
    assert np.abs(a.weight - b.weight).max() <= 1e-9


def test_plane_has_no_eligible_blocks(system):
    plane = generate_model("plane", 64)
    wf = compute_weights(reference_surface(plane, DIRS), system)
    assert not wf.eligible.any()
    # all features identical, so all weights identical
    assert np.unique(wf.weight).size == 1


# ---------------------------------------------------------------------------
# Sliced evaluation: whatever the slice split and the worker count, the
# field has the bits of one whole-stack kernel call

def _spy_kernel(monkeypatch, before=None):
    """Record the block count of every _features call raw_features makes,
    after running before() in the calling thread."""
    sizes, kernel = [], features._features

    def spy(blocks):
        if before is not None:
            before()
        sizes.append(len(blocks[0]))
        return kernel(blocks)

    monkeypatch.setattr(features, "_features", spy)
    return sizes


def test_map_chunks_concatenates_chunks_in_order(chunk_workers, monkeypatch):
    # raw_features maps the kernel over 256-block slices of the stacks and
    # puts the slices' outputs back in row-major block order
    sizes = []

    def kernel(blocks):
        x1, x2, x3 = blocks
        sizes.append(len(x1))
        return x1[:, 0, 0] + x3[:, 0, 0], x1[:, 0, 0] * x3[:, 0, 0], x2[:, 7, 7]

    monkeypatch.setattr(features, "_features", kernel)
    m = generate_model("bumps", 264, 2)  # 1089 blocks: four full slices and a 65-block tail
    got = raw_features(m)
    assert np.array_equal(got.curvature, m.x1[::8, ::8] + m.x3[::8, ::8])
    assert np.array_equal(got.area, m.x1[::8, ::8] * m.x3[::8, ::8])
    assert np.array_equal(got.bumpiness, m.x2[7::8, 7::8])
    assert sorted(sizes) == [65, 256, 256, 256, 256]


@pytest.mark.parametrize("n", [8, 24, 264, 520])  # 1, 9, 1089 (a 65-row tail) and 4225 blocks
def test_raw_features_chunked_equal_whole_stack(chunk_workers, n, monkeypatch):
    ref = reference_surface(generate_model("bumps", n, 2), DIRS)
    want = _features(_block_points(ref))
    sizes = _spy_kernel(monkeypatch)
    got = raw_features(ref)
    for channel, w in zip(("curvature", "area", "bumpiness"), want):
        assert np.array_equal(getattr(got, channel), w.reshape(n // 8, n // 8)), channel
    blocks = (n // 8) ** 2
    assert sorted(sizes) == sorted(min(256, blocks - i) for i in range(0, blocks, 256))


# The kernel before it ran block-minor: every step over (B, 8, 8) stacks,
# every sum over one contiguous per-block row.  The block-minor kernel
# replays those sums' orders, so it must match this one bit for bit.

def _norm3_oracle(a, b, c):
    return np.sqrt(a * a + b * b + c * c)


@np.errstate(over="ignore", invalid="ignore")
def _per_block_row_kernel(blocks):
    count = len(blocks[0])

    def laplacian(x):
        return x[:, :-2, 1:-1] + x[:, 2:, 1:-1] + x[:, 1:-1, :-2] + x[:, 1:-1, 2:] - 4.0 * x[:, 1:-1, 1:-1]

    def cell_edges(x):
        p00 = x[:, :-1, :-1]
        return x[:, 1:, :-1] - p00, x[:, 1:, 1:] - p00, x[:, :-1, 1:] - p00

    curvature = _norm3_oracle(*map(laplacian, blocks)).reshape(count, 36).mean(axis=1)
    (a1, d1, b1), (a2, d2, b2), (a3, d3, b3) = map(cell_edges, blocks)
    lower = _norm3_oracle(a2 * d3 - a3 * d2, a3 * d1 - a1 * d3, a1 * d2 - a2 * d1)
    upper = _norm3_oracle(d2 * b3 - d3 * b2, d3 * b1 - d1 * b3, d1 * b2 - d2 * b1)
    area = (0.5 * lower + 0.5 * upper).reshape(count, 49).sum(axis=1)

    flat = (x.reshape(count, 64) for x in blocks)
    centered = [x - (np.cumsum(x, axis=1)[:, -1] / 64.0)[:, None] for x in flat]
    spread = functools.reduce(np.maximum, (np.abs(x).max(axis=1) for x in centered))
    point = spread == 0.0
    scale_ = np.where(point, 1.0, spread)[:, None]
    scaled = np.stack([x / scale_ for x in centered], axis=-1)
    scaled[~np.isfinite(spread)] = 0.0
    sv = np.linalg.svd(scaled, compute_uv=False)
    bumpiness = np.where(point, 0.0, spread * sv[:, -1] / math.sqrt(64))
    return curvature, area, bumpiness


def _assert_kernel_equals_oracle(blocks):
    got, want = _features(blocks), _per_block_row_kernel(blocks)
    for channel, g, w in zip(("curvature", "area", "bumpiness"), got, want):
        assert g.shape == w.shape and np.array_equal(g, w), channel


@pytest.mark.parametrize("n", [8, 64, 256])
def test_kernel_equals_per_block_row_kernel_on_desk_models(n):
    for kind in ("bumps", "harmonic", "meshgrid"):
        m = generate_model(kind, n, 0)
        for surface in (m, reference_surface(m, DIRS)):
            _assert_kernel_equals_oracle(_block_points(surface))


def test_kernel_equals_per_block_row_kernel_on_random_surfaces():
    rng = np.random.default_rng(23)
    for _ in range(20):
        scales = 10.0 ** rng.uniform(-3.0, 6.0, size=3)
        offsets = scales * rng.uniform(-1e4, 1e4, size=3)
        m = GridModel(*(s * rng.normal(size=(128, 128)) + o for s, o in zip(scales, offsets)))
        _assert_kernel_equals_oracle(_block_points(m))


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8, 9, 256])
def test_kernel_equals_per_block_row_kernel_on_every_slice_size(size):
    # one-block slices are where a sum over a single column changes order
    blocks = _block_points(reference_surface(generate_model("bumps", 64, 0), DIRS))
    for start in range(0, len(blocks[0]), size):
        _assert_kernel_equals_oracle([x[start : start + size] for x in blocks])


def test_raw_features_runs_two_slices_at_once(monkeypatch):
    monkeypatch.setattr(features, "_usable_cpus", lambda: 2)
    barrier = threading.Barrier(2, timeout=20)  # broken unless two threads meet in the kernel
    ref = reference_surface(generate_model("bumps", 136, 2), DIRS)  # 289 blocks: two slices
    want = raw_features(ref)
    sizes = _spy_kernel(monkeypatch, barrier.wait)
    got = raw_features(ref)
    assert sorted(sizes) == [33, 256]
    for channel in ("curvature", "area", "bumpiness"):
        assert np.array_equal(getattr(got, channel), getattr(want, channel)), channel


@pytest.mark.parametrize("far", [1e200, 1e308])
def test_features_past_float_range_are_degenerate(chunk_workers, system, far):
    # Far outliers leave p1-p99 and the scale ordinary.  At 1e200 the
    # block features square them past the float range; at 1e308 the block
    # means overflow too and their points would reach the SVD as NaN.  One
    # outlier block is in the first of the 5 slices, one in the last.
    m = generate_model("bumps", 264, 0)
    x3 = m.x3.copy()
    x3[0, 0] = x3[0, 1] = far
    x3[1, 0] = x3[263, 263] = -far
    ref = reference_surface(m.replace(x3=x3), DIRS)
    got, want = raw_features(ref), raw_features(reference_surface(m, DIRS))
    far_blocks = np.zeros((33, 33), dtype=bool)
    far_blocks[0, 0] = far_blocks[32, 32] = True
    for channel in ("curvature", "area", "bumpiness"):
        a, b = getattr(got, channel), getattr(want, channel)
        assert np.array_equal(a[~far_blocks], b[~far_blocks]), channel
    finite = np.isfinite(got.curvature) & np.isfinite(got.area) & np.isfinite(got.bumpiness)
    assert np.array_equal(finite, ~far_blocks)
    with pytest.raises(DegenerateModelError):
        compute_weights(ref, system)


def test_raw_features_of_desk_models_pinned(desk_models):
    # the kernel's silenced overflow must leave every finite feature's bits alone
    want = {
        "bumps": "0773fb045029bed715f4a204ade9101526ff7c6d7eeee07062dc84d97bac0a1b",
        "harmonic": "b446671e955423399a6f3d466337828df61b6a6d0fef5b38265b82fc44b9eca2",
        "meshgrid": "b2e1d0b74de700c4ba3c9e8b3d5d55101e5aa7f69f3be674578ce70991d11e01",
    }
    for kind, m in desk_models.items():
        f = raw_features(reference_surface(m, DIRS))
        data = b"".join(getattr(f, channel).tobytes() for channel in ("curvature", "area", "bumpiness"))
        assert hashlib.sha256(data).hexdigest() == want[kind], kind


def test_concurrent_compute_weights_get_the_serial_field(monkeypatch, system):
    ref = reference_surface(generate_model("harmonic", 264, 4), DIRS)
    monkeypatch.setattr(features, "_usable_cpus", lambda: 1)
    want = compute_weights(ref, system)
    monkeypatch.setattr(features, "_usable_cpus", lambda: 4)
    results = [None, None]

    def run(i):
        results[i] = compute_weights(ref, system)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to interleave the slices
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert np.array_equal(got.weight, want.weight)
        assert np.array_equal(got.eligible, want.eligible)
        for channel in ("curvature", "area", "bumpiness"):
            assert np.array_equal(getattr(got.features, channel), getattr(want.features, channel))
