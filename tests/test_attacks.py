import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from gridmark import attacks
from gridmark.attacks import (
    AttackSpec,
    Registration,
    _convolve,
    apply,
    apply_registration,
    crop,
    format_attack,
    kernel_gaussian,
    kernel_log,
    load_registration,
    parse_attack,
    random_noise,
    rotate,
    rotation_matrix,
    salt_pepper,
    save_registration,
    scale,
    smooth_gaussian,
    smooth_laplacian,
    smooth_log,
    translate,
)
from gridmark.cli import BENCH_BATTERY
from gridmark.errors import BadParameterError, MalformedFileError, NonFiniteValueError
from gridmark.model_io import GridModel, generate_model

BATTERY_TEXTS = (
    "gaussian:hsize=3,sigma=10",
    "gaussian:hsize=7,sigma=10",
    "laplacian:alpha=1",
    "log:hsize=5,sigma=0.5",
    "saltpepper:d=0.05,seed=101",
    "saltpepper:d=0.1,seed=102",
    "randomnoise:a=0.1,seed=103",
    "crop:p=0.09",
    "crop:p=0.16",
    "translate:dx=12.5,dy=-7.25,dz=40",
    "scale:k=2",
    f"rotate:axis=z,angle={math.pi / 6}",
)


@pytest.fixture(scope="module")
def bumps64():
    return generate_model("bumps", 64, seed=2)


def near_float_limit():
    """bumps-64 scaled to |x| <= 1e307: finite, but x3's sum passes the float range."""
    m = generate_model("bumps", 64, seed=0)
    return scale(m, 1e307 / max(np.abs(m.matrix(name)).max() for name in ("x1", "x2", "x3")))


# ---------------------------------------------------------------------------
# Rigid transforms and registration

def test_rotation_matrix_is_orthonormal():
    for axis, angle in (("x", 0.3), ("y", -1.2), ("z", 2.8), ((1.0, 2.0, 2.0), 0.7)):
        r = rotation_matrix(axis, angle)
        assert np.abs(r @ r.T - np.eye(3)).max() <= 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_rotation_matrix_axis_forms_agree():
    a = rotation_matrix("z", 0.4)
    b = rotation_matrix((0.0, 0.0, 2.0), 0.4)
    assert np.abs(a - b).max() <= 1e-15


def test_rotation_matrix_validation():
    with pytest.raises(BadParameterError):
        rotation_matrix("w", 0.4)
    with pytest.raises(BadParameterError):
        rotation_matrix((0.0, 0.0, 0.0), 0.4)


def test_four_quarter_turns(bumps64):
    out = bumps64
    for _ in range(4):
        out, _ = rotate(out, "z", math.pi / 2)
    for name in ("x1", "x2", "x3"):
        ref = bumps64.matrix(name)
        tol = 1e-9 * max(1.0, np.abs(ref).max())
        assert np.abs(out.matrix(name) - ref).max() <= tol


def test_rotation_registration_undoes(bumps64):
    attacked, reg = rotate(bumps64, (1.0, 2.0, 2.0), 0.7)
    back = apply_registration(attacked, reg)
    for name in ("x1", "x2", "x3"):
        ref = bumps64.matrix(name)
        tol = 1e-9 * max(1.0, np.abs(ref).max())
        assert np.abs(back.matrix(name) - ref).max() <= tol


def test_translate_and_registration(bumps64):
    moved, reg = translate(bumps64, 12.5, -7.25, 40.0)
    assert np.array_equal(moved.x1, bumps64.x1 + 12.5)
    assert np.array_equal(moved.x3, bumps64.x3 + 40.0)
    assert np.array_equal(reg.rotation, np.eye(3))
    assert np.array_equal(reg.translation, [-12.5, 7.25, -40.0])
    back = apply_registration(moved, reg)
    assert np.abs(back.x2 - bumps64.x2).max() <= 1e-9


# apply_registration before it added the translation in place: the
# rotated points and the translated copy as two arrays.
def _register_two_step(m, reg):
    pts = np.stack([m.x1, m.x2, m.x3])
    out = np.einsum("ab,bij->aij", reg.rotation, pts) + reg.translation[:, None, None]
    return GridModel(out[0], out[1], out[2])


@pytest.mark.parametrize("text", [t for t in BATTERY_TEXTS if t.startswith(("rotate", "translate"))])
def test_registration_equals_two_step_form_on_battery(bumps64, text):
    attacked, reg = apply(bumps64, parse_attack(text))
    got, want = apply_registration(attacked, reg), _register_two_step(attacked, reg)
    for name in ("x1", "x2", "x3"):
        assert np.array_equal(got.matrix(name), want.matrix(name)), name


def test_registration_equals_two_step_form_about_a_skew_axis(bumps64):
    attacked, reg = rotate(bumps64, (1.0, 2.0, 3.0), 0.9)
    moved = Registration(reg.rotation, np.array([1.5, -2.25, 3.0]))
    for r in (reg, moved):
        got, want = apply_registration(attacked, r), _register_two_step(attacked, r)
        for name in ("x1", "x2", "x3"):
            assert np.array_equal(got.matrix(name), want.matrix(name)), name


def test_scale_exact(bumps64):
    doubled = scale(bumps64, 2.0)
    for name in ("x1", "x2", "x3"):
        assert np.array_equal(doubled.matrix(name), 2.0 * bumps64.matrix(name))
    with pytest.raises(BadParameterError):
        scale(bumps64, 0.0)
    with pytest.raises(BadParameterError):
        scale(bumps64, -2.0)


def test_registration_roundtrip(tmp_path):
    reg = Registration(rotation_matrix("y", 0.7), np.array([1.5, -2.25, 3.0]))
    path = tmp_path / "attack.reg"
    save_registration(reg, path)
    text = path.read_text()
    assert text.splitlines()[0] == "REG3" and len(text.splitlines()) == 5
    back = load_registration(path)
    assert np.array_equal(back.rotation, reg.rotation)
    assert np.array_equal(back.translation, reg.translation)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "REG3\n1 0 0\n0 1 0\n0 0 1\n",
        "REGX\n1 0 0\n0 1 0\n0 0 1\n0 0 0\n",
        "REG3\n1 0 0\n0 1 zero\n0 0 1\n0 0 0\n",
        "REG3\n1 0\n0 1 0\n0 0 1\n0 0 0\n",
    ],
)
def test_registration_malformed(tmp_path, text):
    path = tmp_path / "bad.reg"
    path.write_text(text)
    with pytest.raises(MalformedFileError):
        load_registration(path)


def test_registration_rejects_non_ascii_bytes(tmp_path):
    path = tmp_path / "bad.reg"
    path.write_bytes(b"REG3\n1 0 0\n0 1 0\n0 0 1\n0 0 \xff0\n")
    with pytest.raises(MalformedFileError):
        load_registration(path)


# ---------------------------------------------------------------------------
# Noise

def test_random_noise_bounds_and_determinism(bumps64):
    a = 0.1
    out = random_noise(bumps64, a, seed=103)
    again = random_noise(bumps64, a, seed=103)
    other = random_noise(bumps64, a, seed=104)
    for name in ("x1", "x2", "x3"):
        mat = bumps64.matrix(name)
        rc = float(mat.max() - mat.min())
        delta = out.matrix(name) - mat
        assert np.abs(delta).max() <= a * rc
        assert abs(delta.mean()) <= 0.01 * rc
        assert np.array_equal(out.matrix(name), again.matrix(name))
    assert not np.array_equal(out.x3, other.x3)


def test_scale_past_the_float_range_is_refused():
    # the suite turns the product's overflow warning into an error
    with pytest.raises(NonFiniteValueError):
        scale(near_float_limit(), 100.0)


def test_random_noise_zero_amplitude(bumps64):
    out = random_noise(bumps64, 0.0, seed=1)
    assert np.array_equal(out.x1, bumps64.x1)
    with pytest.raises(BadParameterError):
        random_noise(bumps64, -0.1)


@pytest.mark.parametrize("a", [1e308, math.inf, math.nan])
def test_random_noise_rejects_an_infinite_draw_range(bumps64, a):
    # numpy's uniform raised OverflowError once 2*a*range was not finite
    with pytest.raises(BadParameterError):
        random_noise(bumps64, a)


def test_salt_pepper_mirrors_selection():
    m = generate_model("bumps", 256, seed=0)
    d, seed = 0.05, 101
    out = salt_pepper(m, d, seed=seed)
    count = int(round(d * 256 * 256))
    assert count == 3277
    rng = np.random.default_rng(seed)
    for name in ("x1", "x2", "x3"):
        mat = m.matrix(name)
        lo, hi = float(mat.min()), float(mat.max())
        pos = rng.choice(256 * 256, size=count, replace=False)
        flat = out.matrix(name).reshape(-1)
        assert np.all(flat[pos[: count // 2]] == lo)
        assert np.all(flat[pos[count // 2 :]] == hi)
        untouched = np.setdiff1d(np.arange(256 * 256), pos)
        assert np.array_equal(flat[untouched], mat.reshape(-1)[untouched])


def test_salt_pepper_density_counts(bumps64):
    out = salt_pepper(bumps64, 0.1, seed=102)
    changed = (out.x1 != bumps64.x1).sum()
    # some selected entries may already equal an extreme; never more changes
    assert changed <= int(round(0.1 * 64 * 64))
    assert changed > 0.8 * int(round(0.1 * 64 * 64))


def test_salt_pepper_edge_densities(bumps64):
    assert np.array_equal(salt_pepper(bumps64, 0.0).x2, bumps64.x2)
    full = salt_pepper(bumps64, 1.0)
    lo, hi = bumps64.x1.min(), bumps64.x1.max()
    assert np.isin(full.x1, (lo, hi)).all()
    with pytest.raises(BadParameterError):
        salt_pepper(bumps64, -0.01)
    with pytest.raises(BadParameterError):
        salt_pepper(bumps64, 1.01)


# ---------------------------------------------------------------------------
# Kernels

def test_gaussian_kernel_pins():
    k = kernel_gaussian(3, 10.0)
    assert k.shape == (3, 3)
    assert k.sum() == pytest.approx(1.0, abs=1e-15)
    assert k[1, 1] / k[0, 0] == pytest.approx(math.exp(1.0 / 100.0), rel=1e-12)
    assert np.array_equal(k, k.T)
    assert np.array_equal(k, k[::-1, ::-1])


def test_gaussian_kernel_validation():
    for hsize in (2, 4, 1, -3):
        with pytest.raises(BadParameterError):
            kernel_gaussian(hsize, 10.0)
    with pytest.raises(BadParameterError):
        kernel_gaussian(3, 0.0)


@pytest.mark.parametrize(
    "kernel, sigma",
    [
        (kernel_gaussian, 1e-300),  # sigma**2 underflows to 0
        (kernel_log, 1e-300),
        (kernel_log, 1e-100),  # sigma**4 underflows to 0
        (kernel_log, 1e200),  # sigma**2 overflows
    ],
)
def test_kernels_reject_sigmas_with_no_finite_kernel(kernel, sigma):
    with pytest.raises(BadParameterError):
        kernel(3, sigma)


def test_kernels_keep_extreme_sigmas_with_finite_kernels():
    assert np.array_equal(kernel_gaussian(3, 1e-160), np.pad([[1.0]], 1))  # sigma**2 subnormal
    assert np.array_equal(kernel_gaussian(3, 1e200), np.full((3, 3), 1.0 / 9.0))


@pytest.mark.parametrize("name", ["gaussian", "log"])
def test_smoothing_rejects_kernels_wider_than_the_model(bumps64, name):
    assert apply(bumps64, AttackSpec(name, {"hsize": 63, "sigma": 1.0}))[0].n == 64
    # a kernel this wide would need ~149 GiB; it must be refused before any allocation
    for hsize in (65, 100001):
        with pytest.raises(BadParameterError, match="wider than the model"):
            apply(bumps64, AttackSpec(name, {"hsize": hsize, "sigma": 1.0}))


def test_log_kernel_zero_sum():
    k = kernel_log(5, 0.5)
    assert k.shape == (5, 5)
    assert abs(k.sum()) <= 1e-12
    assert np.array_equal(k, k[::-1, ::-1])
    with pytest.raises(BadParameterError):
        kernel_log(4, 0.5)


# ---------------------------------------------------------------------------
# Smoothing filters

def test_smoothing_keeps_constants():
    flat = GridModel(*(np.full((8, 8), 3.25) for _ in range(3)))
    for out in (
        smooth_gaussian(flat, 3, 10.0),
        smooth_laplacian(flat, 0.8),
        smooth_log(flat, 5, 0.5),
    ):
        for name in ("x1", "x2", "x3"):
            assert np.abs(out.matrix(name) - 3.25).max() <= 1e-12


def test_laplacian_alpha_zero_is_identity(bumps64):
    out = smooth_laplacian(bumps64, 0.0)
    for name in ("x1", "x2", "x3"):
        assert np.array_equal(out.matrix(name), bumps64.matrix(name))


def test_laplacian_matches_neighbor_mean(bumps64):
    a = 0.6
    out = smooth_laplacian(bumps64, a)
    for name in ("x1", "x2", "x3"):
        mat = bumps64.matrix(name)
        padded = np.pad(mat, 1, mode="edge")
        nbrs = (
            padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
        ) / 4.0
        want = (1.0 - a) * mat + a * nbrs
        tol = 1e-12 * max(1.0, np.abs(mat).max())
        assert np.abs(out.matrix(name) - want).max() <= tol


def test_gaussian_preserves_mean(desk_models):
    m = desk_models["bumps"]
    out = smooth_gaussian(m, 3, 10.0)
    for name in ("x1", "x2", "x3"):
        mat = m.matrix(name)
        rel = abs(out.matrix(name).mean() - mat.mean()) / abs(mat.mean())
        assert rel <= 1e-6


def test_log_smoothing_definition(bumps64):
    # unsharp form: x - conv(x, LoG) with replicate borders
    k = kernel_log(5, 0.5)
    out = smooth_log(bumps64, 5, 0.5)
    want = bumps64.x1 - ndimage.convolve(bumps64.x1, k, mode="nearest")
    assert np.array_equal(out.x1, want)


EPS = np.finfo(float).eps
# weights at and around ndimage's footprint threshold, zeros of both signs
EDGE_WEIGHTS = (0.0, -0.0, EPS, -EPS, EPS * 1.001, -EPS * 1.001, EPS * 0.999, -EPS * 0.999)
EDGE_DATA = (0.0, -0.0, 1e100, -1e100, 1e300, -1e300, 5e-324)


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def ndimage_convolve(mat, kernel):
    return ndimage.convolve(mat, kernel, mode="nearest")


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(3, 20))
    k = draw(st.sampled_from(range(3, n + 1, 2)))
    weight = st.one_of(
        st.sampled_from(EDGE_WEIGHTS),
        st.floats(-1e4, 1e4, allow_nan=False),
        st.floats(1e-20, 1e-12),
        st.floats(-1e-12, -1e-20),
    )
    if draw(st.booleans()):  # few distinct weights, so taps share products
        pool = draw(st.lists(weight, min_size=1, max_size=3))
        weight = st.sampled_from(pool)
    kernel = np.array(draw(st.lists(weight, min_size=k * k, max_size=k * k))).reshape(k, k)
    value = st.one_of(st.sampled_from(EDGE_DATA), st.floats(-1e6, 1e6, allow_nan=False))
    mat = np.array(draw(st.lists(value, min_size=n * n, max_size=n * n))).reshape(n, n)
    return mat, kernel


@settings(max_examples=300, deadline=None)
@given(case=kernel_cases(), budget=st.sampled_from([attacks._PRODUCTS, 1 << 10, 64]))
def test_convolve_matches_ndimage_bit_for_bit(case, budget):
    # small product budgets shorten the bands and cut the taps into runs
    mat, kernel = case
    saved, attacks._PRODUCTS = attacks._PRODUCTS, budget
    try:
        got = _convolve(mat, kernel)
    finally:
        attacks._PRODUCTS = saved
    assert same_bits(got, ndimage_convolve(mat, kernel))


def test_battery_matches_ndimage_byte_for_byte(desk_models, monkeypatch):
    want = {}
    with monkeypatch.context() as m:
        m.setattr(attacks, "_convolve", ndimage_convolve)
        for kind, model in desk_models.items():
            for text in BENCH_BATTERY:
                want[kind, text] = apply(model, parse_attack(text))[0]
    for kind, model in desk_models.items():
        for text in BENCH_BATTERY:
            got = apply(model, parse_attack(text))[0]
            for name in ("x1", "x2", "x3"):
                assert got.matrix(name).tobytes() == want[kind, text].matrix(name).tobytes(), (kind, text)


def test_smoothing_does_not_import_scipy(tmp_path):
    code = (
        "import sys\n"
        "import gridmark.cli\n"
        "from gridmark.attacks import apply, parse_attack\n"
        "from gridmark.model_io import generate_model\n"
        "apply(generate_model('bumps', 32, 0), parse_attack('gaussian:hsize=7,sigma=10'))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    # the child imports the same gridmark as this process
    src = str(Path(attacks.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=tmp_path, env=env,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_smoothing_affects_interior(bumps64):
    out = smooth_gaussian(bumps64, 3, 10.0)
    assert np.abs(out.x3 - bumps64.x3).max() > 1.0


# ---------------------------------------------------------------------------
# Crop

def test_crop_block_sides():
    m = generate_model("bumps", 256, seed=0)
    for p, side in ((0.09, 77), (0.16, 102)):
        out = crop(m, p)
        for name in ("x1", "x2", "x3"):
            mat, att = m.matrix(name), out.matrix(name)
            mean = mat.mean()
            assert np.all(att[:side, :side] == mean)
            assert att[side, side] == mat[side, side]
            assert np.array_equal(att[side:, :], mat[side:, :])
            assert np.array_equal(att[:, side:], mat[:, side:])


def test_crop_near_the_float_range_fills_a_finite_mean():
    m = near_float_limit()
    out = crop(m, 0.5)
    for name in ("x1", "x2", "x3"):
        mat, att = m.matrix(name), out.matrix(name)
        # the mean of the values scaled by a power of two, which cannot overflow
        want = np.mean(mat / 2.0**64) * 2.0**64
        assert np.all(att[:45, :45] == att[0, 0]) and att[0, 0] == pytest.approx(want, rel=1e-12), name
        assert np.array_equal(att[45:, :], mat[45:, :]) and np.array_equal(att[:, 45:], mat[:, 45:])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(m.x3.sum())


def test_crop_validation(bumps64):
    for p in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(BadParameterError):
            crop(bumps64, p)


# ---------------------------------------------------------------------------
# Attack spec language and dispatch

def test_parse_attack_pins():
    spec = parse_attack("gaussian:hsize=3,sigma=10")
    assert spec.name == "gaussian"
    assert spec.params == {"hsize": 3, "sigma": 10.0}
    assert isinstance(spec.params["hsize"], int)
    spec = parse_attack("saltpepper:d=0.05,seed=101")
    assert spec.params == {"d": 0.05, "seed": 101}
    spec = parse_attack("rotate:axis=z,angle=0.5")
    assert spec.params == {"axis": "z", "angle": 0.5}
    assert parse_attack("scale:k=2").params == {"k": 2.0}
    assert parse_attack("crop:p=0.09").name == "crop"
    assert parse_attack("LAPLACIAN:alpha=1").name == "laplacian"


@pytest.mark.parametrize(
    "text",
    [
        "vaporize:x=1",
        "gaussian:hsize=3,hsize=5",
        "gaussian:hsize=three,sigma=10",
        "gaussian:sigma",
        "rotate:axis=w,angle=0.5",
        "crop:p=0.09,extra=1",
    ],
)
def test_parse_attack_rejects(text):
    with pytest.raises(BadParameterError):
        parse_attack(text)


def test_format_attack_roundtrip():
    for text in BATTERY_TEXTS:
        spec = parse_attack(text)
        canon = format_attack(spec)
        again = parse_attack(canon)
        assert again.name == spec.name and again.params == spec.params
        assert format_attack(again) == canon


def test_format_attack_types():
    assert format_attack(parse_attack("gaussian:hsize=3,sigma=10")) == "gaussian:hsize=3,sigma=10.0"
    assert format_attack(parse_attack("saltpepper:d=0.05,seed=7")) == "saltpepper:d=0.05,seed=7"
    assert format_attack(AttackSpec("crop", {})) == "crop"


def test_attack_spec_validation():
    with pytest.raises(BadParameterError):
        AttackSpec("vaporize", {})
    with pytest.raises(BadParameterError):
        AttackSpec("crop", {"q": 1.0})


@pytest.mark.parametrize(
    "name,params",
    [
        ("gaussian", {"hsize": 3.0, "sigma": 10.0}),
        ("log", {"hsize": 5.7, "sigma": 0.5}),
        ("log", {"hsize": "5", "sigma": 0.5}),
        ("randomnoise", {"a": 0.1, "seed": 7.5}),
        ("saltpepper", {"d": 0.1, "seed": -1}),
        ("rotate", {"axis": "z", "angle": math.inf}),
        ("randomnoise", {"a": math.nan}),
        ("scale", {"k": "2"}),
    ],
)
def test_attack_spec_rejects_ill_typed_parameters(name, params):
    # apply passes parameters through unchanged, so a float hsize or seed
    # must stop here rather than be truncated or reach numpy, and so must a
    # number that is not finite or not a number at all
    with pytest.raises(BadParameterError):
        AttackSpec(name, params)


def test_attack_spec_accepts_numpy_integers(bumps64):
    spec = AttackSpec("gaussian", {"hsize": np.int64(3), "sigma": 10.0})
    out, _ = apply(bumps64, spec)
    assert np.array_equal(out.x3, smooth_gaussian(bumps64, 3, 10.0).x3)
    got, _ = apply(bumps64, AttackSpec("randomnoise", {"a": 0.1}))
    assert np.array_equal(got.x3, random_noise(bumps64, 0.1, 0).x3)


def test_apply_dispatch_registration(bumps64):
    attacked, reg = apply(bumps64, parse_attack("rotate:axis=z,angle=0.5"))
    assert reg is not None
    back = apply_registration(attacked, reg)
    assert np.abs(back.x1 - bumps64.x1).max() <= 1e-9 * max(1.0, np.abs(bumps64.x1).max())
    _, reg = apply(bumps64, parse_attack("translate:dx=1,dy=2,dz=3"))
    assert reg is not None
    for text in ("scale:k=2", "crop:p=0.25", "gaussian:hsize=3,sigma=10"):
        _, reg = apply(bumps64, parse_attack(text))
        assert reg is None


def test_apply_missing_params(bumps64):
    with pytest.raises(BadParameterError):
        apply(bumps64, AttackSpec("gaussian", {"hsize": 3}))
    with pytest.raises(BadParameterError):
        apply(bumps64, AttackSpec("rotate", {"angle": 0.5}))


@pytest.mark.parametrize("text", BATTERY_TEXTS)
def test_battery_attacks_keep_shape(bumps64, text):
    out, _ = apply(bumps64, parse_attack(text))
    assert out.n == bumps64.n
    for name in ("x1", "x2", "x3"):
        assert np.isfinite(out.matrix(name)).all()
    again, _ = apply(bumps64, parse_attack(text))
    assert np.array_equal(again.x3, out.x3)
