"""Attack suite for robustness benchmarking.

Every attack is a pure, deterministic function of (model, spec): noise
attacks carry an explicit seed.  Affine attacks (rotate, translate)
return the exact inverse transform as registration metadata so a bench
harness can undo them before extraction; scaling returns none because
the codec normalizes scale away on its own.

Textual encoding, used by the CLI::

    rotate:axis=z,angle=0.5236      translate:dx=1,dy=2,dz=3
    scale:k=2                       randomnoise:a=0.1,seed=7
    saltpepper:d=0.05,seed=42       gaussian:hsize=3,sigma=10
    laplacian:alpha=1               log:hsize=5,sigma=0.5
    crop:p=0.09

Smoothing (gaussian, laplacian, log) convolves each coordinate matrix with
an odd-sided kernel, edges replicated, and gives scipy.ndimage.convolve's
mode="nearest" output bit for bit without importing scipy.  ndimage
correlates with the kernel flipped on both axes; its footprint keeps only
the taps with |w| > machine epsilon (a tap at or under it, or a NaN one, is
left out, not added as a tiny product), and each output value is the sum
from +0.0 of x * w over the kept taps in the flipped kernel's raster order.
_convolve keeps that order, so every value and sign bit matches, and
reaches ndimage's speed by sharing work between taps:

- the matrix is padded once with np.pad(mode="edge") and read as a flat
  buffer of row stride n + 2h, so a tap at (i, j) is one contiguous 1-D
  slice at offset i * stride + j, and the 2h columns past each output row
  are discarded at the end;
- equal weights give equal products, so each distinct weight multiplies
  the padded rows once and every tap with that weight adds a shifted slice
  of the product (a Gaussian kernel of side 7 has 49 taps and 10 weights);
- the output is made in bands of rows whose products fit _PRODUCTS
  elements, so the products stay in cache and no large buffer is freed and
  faulted in again on every call.  When a kernel's distinct weights do not
  fit in one band's buffer, its taps are cut into runs in raster order,
  each with its own products, added one run after the other.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameterError, MalformedFileError
from .model_io import GridModel, read_text

_AXES = ("x1", "x2", "x3")


# ---------------------------------------------------------------------------
# Rigid registration metadata

@dataclass
class Registration:
    """Inverse rigid map p -> rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)


def apply_registration(m: GridModel, reg: Registration) -> GridModel:
    pts = np.stack([m.x1, m.x2, m.x3])
    out = np.einsum("ab,bij->aij", reg.rotation, pts)
    out += reg.translation[:, None, None]
    return GridModel(out[0], out[1], out[2])


def save_registration(reg: Registration, path):
    lines = ["REG3"]
    for row in reg.rotation:
        lines.append(" ".join(repr(float(v)) for v in row))
    lines.append(" ".join(repr(float(v)) for v in reg.translation))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_registration(path) -> Registration:
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if len(lines) != 5 or lines[0].strip() != "REG3":
        raise MalformedFileError("registration file must be 'REG3' plus 4 rows")
    try:
        rows = [[float(t) for t in ln.split()] for ln in lines[1:]]
    except ValueError as e:
        raise MalformedFileError(f"bad registration value: {e}") from None
    if any(len(r) != 3 for r in rows):
        raise MalformedFileError("registration rows must have 3 values")
    return Registration(np.array(rows[:3]), np.array(rows[3]))


# ---------------------------------------------------------------------------
# Attack spec

# Parameters that must be Python or numpy integers; parse_attack reads
# them with int(), and every other one but rotate's axis with float(), which
# AttackSpec requires to be finite.
_INT_PARAMS = ("hsize", "seed")

_AXIS_VECTORS = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
}


@dataclass
class AttackSpec:
    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in _ATTACKS:
            raise BadParameterError(f"unknown attack {self.name!r}")
        unknown = set(self.params) - set(_param_order(self.name))
        if unknown:
            raise BadParameterError(f"{self.name}: unknown parameters {sorted(unknown)}")
        for k, v in self.params.items():
            if k in _INT_PARAMS:
                if not isinstance(v, (int, np.integer)) or (k == "seed" and v < 0):
                    what = "a non-negative integer" if k == "seed" else "an integer"
                    raise BadParameterError(f"{self.name}: {k} must be {what}, got {v!r}")
            elif k != "axis" and not (isinstance(v, numbers.Real) and math.isfinite(v)):
                raise BadParameterError(f"{self.name}: {k} must be a finite number, got {v!r}")


def parse_attack(text: str) -> AttackSpec:
    """Parse the textual attack encoding, e.g. 'gaussian:hsize=3,sigma=10'."""
    name, _, rest = text.strip().partition(":")
    name = name.strip().lower()
    if name not in _ATTACKS:
        raise BadParameterError(f"unknown attack {name!r}")
    params = {}
    if rest.strip():
        for item in rest.split(","):
            if "=" not in item:
                raise BadParameterError(f"{name}: expected key=value, got {item!r}")
            k, v = item.split("=", 1)
            k, v = k.strip(), v.strip()
            if k in params:
                raise BadParameterError(f"{name}: duplicate parameter {k!r}")
            if name == "rotate" and k == "axis":
                if v.lower() not in _AXIS_VECTORS:
                    raise BadParameterError(f"rotate: axis must be x, y or z, got {v!r}")
                params[k] = v.lower()
            elif k in _INT_PARAMS:
                try:
                    params[k] = int(v)
                except ValueError:
                    raise BadParameterError(f"{name}: {k} must be an integer, got {v!r}") from None
            else:
                try:
                    params[k] = float(v)
                except ValueError:
                    raise BadParameterError(f"{name}: {k} must be a number, got {v!r}") from None
    return AttackSpec(name, params)


def format_attack(spec: AttackSpec) -> str:
    parts = []
    for k in _param_order(spec.name):
        if k in spec.params:
            v = spec.params[k]
            parts.append(f"{k}={v}" if isinstance(v, (int, str)) else f"{k}={v!r}")
    return spec.name + (":" + ",".join(parts) if parts else "")


# ---------------------------------------------------------------------------
# Geometric attacks

def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about an arbitrary axis (unit vector or x/y/z)."""
    if isinstance(axis, str):
        try:
            axis = _AXIS_VECTORS[axis.lower()]
        except KeyError:
            raise BadParameterError(f"axis must be x, y or z, got {axis!r}") from None
    k = np.asarray(axis, dtype=float).reshape(3)
    norm = np.linalg.norm(k)
    if norm == 0.0:
        raise BadParameterError("rotation axis must be nonzero")
    k = k / norm
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return math.cos(angle) * np.eye(3) + math.sin(angle) * kx + (1 - math.cos(angle)) * np.outer(k, k)


def rotate(m: GridModel, axis, angle: float):
    r = rotation_matrix(axis, angle)
    pts = np.stack([m.x1, m.x2, m.x3])
    out = np.einsum("ab,bij->aij", r, pts)
    return GridModel(out[0], out[1], out[2]), Registration(r.T, np.zeros(3))


def translate(m: GridModel, dx: float, dy: float, dz: float):
    d = np.array([dx, dy, dz], dtype=float)
    out = GridModel(m.x1 + d[0], m.x2 + d[1], m.x3 + d[2])
    return out, Registration(np.eye(3), -d)


def scale(m: GridModel, k: float) -> GridModel:
    if not k > 0:
        raise BadParameterError(f"scale factor must be positive, got {k}")
    with np.errstate(over="ignore"):  # GridModel refuses a product past the float range
        return GridModel(k * m.x1, k * m.x2, k * m.x3)


# ---------------------------------------------------------------------------
# Noise attacks

def random_noise(m: GridModel, a: float, seed: int = 0) -> GridModel:
    """Uniform noise in [-a*range, +a*range] per matrix (its own range)."""
    if a < 0:
        raise BadParameterError(f"noise amplitude must be >= 0, got {a}")
    rng = np.random.default_rng(seed)
    out = {}
    for name in _AXES:
        mat = m.matrix(name)
        rc = float(mat.max() - mat.min())
        if not math.isfinite(2 * a * rc):
            raise BadParameterError(f"noise amplitude {a} gives an infinite draw range on {name}")
        out[name] = mat + rng.uniform(-a * rc, a * rc, size=mat.shape)
    return GridModel(**out)


def salt_pepper(m: GridModel, d: float, seed: int = 0) -> GridModel:
    """round(d*N^2) distinct entries per matrix forced to that matrix's
    pre-attack extremes: floor(count/2) to the minimum, the rest to the
    maximum."""
    if not 0.0 <= d <= 1.0:
        raise BadParameterError(f"density must be in [0,1], got {d}")
    rng = np.random.default_rng(seed)
    n = m.n
    count = int(round(d * n * n))
    out = {}
    for name in _AXES:
        mat = m.matrix(name).copy()
        lo, hi = float(mat.min()), float(mat.max())
        pos = rng.choice(n * n, size=count, replace=False)
        flat = mat.reshape(-1)
        flat[pos[: count // 2]] = lo
        flat[pos[count // 2 :]] = hi
        out[name] = mat
    return GridModel(**out)


# ---------------------------------------------------------------------------
# Smoothing kernels and filters

def _check_hsize(hsize, side=None):
    """hsize is an odd integer >= 3 and, given the model's side, no wider
    than the model: a wider kernel is useless, and a very wide one would not
    fit in memory, so smoothing checks this before building any kernel."""
    if not isinstance(hsize, (int, np.integer)) or hsize < 3 or hsize % 2 == 0:
        raise BadParameterError(f"hsize must be an odd integer >= 3, got {hsize!r}")
    if side is not None and hsize > side:
        raise BadParameterError(f"hsize {hsize} is wider than the model (side {side})")


def _check_finite(kernel, sigma):
    # sigma**2 or sigma**4 out of float range: an underflow to 0 made an
    # all-NaN kernel, and convolving with it left the model unchanged
    if not np.isfinite(kernel).all():
        raise BadParameterError(f"sigma={sigma!r} gives a non-finite kernel")
    return kernel


def kernel_gaussian(hsize: int, sigma: float) -> np.ndarray:
    _check_hsize(hsize)
    if not sigma > 0:
        raise BadParameterError(f"sigma must be positive, got {sigma}")
    half = hsize // 2
    n1, n2 = np.mgrid[-half : half + 1, -half : half + 1]
    s = np.float64(sigma)  # its powers overflow to inf, where a Python float raises
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = np.exp(-(n1**2 + n2**2) / (2.0 * s**2))
        g = g / g.sum()
    return _check_finite(g, sigma)


def kernel_log(hsize: int, sigma: float) -> np.ndarray:
    g = kernel_gaussian(hsize, sigma)
    half = hsize // 2
    n1, n2 = np.mgrid[-half : half + 1, -half : half + 1]
    s = np.float64(sigma)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h = (n1**2 + n2**2 - 2.0 * s**2) / s**4 * g
    return _check_finite(h - h.mean(), sigma)


# Taps at or under this magnitude are left out, as ndimage's footprint does.
_TAP_EPS = np.finfo(float).eps
# Elements of the product buffer one band of output rows fills.
_PRODUCTS = 1 << 17


def _tap_groups(kernel, stride, rows):
    """Rows per band for a matrix of `rows` rows, and the kept taps of the
    flipped kernel cut, in raster order, into runs whose products over a
    band fit _PRODUCTS elements (a run holds at least one tap).  Each run is
    (its first kernel row, its last kernel row, its distinct weights as a
    column, [(offset into its products, weight index)] per tap)."""
    taps = [
        (i, j, w)
        for i, row in enumerate(kernel[::-1, ::-1].tolist())
        for j, w in enumerate(row)
        if abs(w) > _TAP_EPS
    ]
    # as many rows as let the products of all the weights fit the buffer,
    # but at least 1/16 of it, so that with many weights every add still
    # covers thousands of values
    band = _PRODUCTS // (max(len({w for _, _, w in taps}), 1) * stride) - (len(kernel) - 1)
    band = min(rows, max(band, _PRODUCTS // (16 * stride), 1))
    groups = []
    start = 0
    while start < len(taps):
        first, end, slots = taps[start][0], start, {}
        while end < len(taps):
            i, _, w = taps[end]
            size = (len(slots) + (w not in slots)) * (band + i - first) * stride
            if end > start and size > _PRODUCTS:
                break
            slots.setdefault(w, len(slots))
            end += 1
        offsets = [((i - first) * stride + j, slots[w]) for i, j, w in taps[start:end]]
        groups.append((first, taps[end - 1][0], np.array(list(slots))[:, None], offsets))
        start = end
    return band, groups


def _convolve(mat: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """ndimage.convolve(mat, kernel, mode="nearest") of a float64 matrix
    and an odd-sided kernel, bit for bit; see the module docstring."""
    k0, k1 = kernel.shape
    h0, h1 = k0 // 2, k1 // 2
    n0, n1 = mat.shape
    stride = n1 + 2 * h1
    band, groups = _tap_groups(kernel, stride, n0)
    out = np.zeros((n0, n1))
    if not groups:
        return out
    padded = np.pad(mat, ((h0, h0), (h1, h1)), mode="edge")
    span = max(len(w) * (band + last - first) for first, last, w, _ in groups)
    products = np.empty(span * stride)
    acc = np.empty(band * stride)

    def plan(rows):
        # per group: its products for a band of `rows` rows and the slice
        # of them each tap adds to the band's flat sums, which stop 2h short
        # of the band's end: its last row's discarded columns have no source
        size = rows * stride - 2 * h1
        steps = []
        for first, last, w, taps in groups:
            q = products[: len(w) * (rows + last - first) * stride].reshape(len(w), -1)
            steps.append((first, last, w, q, [q[d, off : off + size] for off, d in taps]))
        return acc[:size], steps

    full = plan(band)
    # ndimage overflows to inf and NaN silently; GridModel refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, n0, band):
            r1 = min(r0 + band, n0)
            a, steps = full if r1 - r0 == band else plan(r1 - r0)
            a.fill(0.0)  # ndimage's sums start from +0.0
            for first, last, w, q, sources in steps:
                np.multiply(w, padded[r0 + first : r1 + last].reshape(1, -1), out=q)
                for src in sources:
                    a += src
            out[r0:r1] = acc[: (r1 - r0) * stride].reshape(r1 - r0, stride)[:, :n1]
    return out


def smooth_gaussian(m: GridModel, hsize: int, sigma: float) -> GridModel:
    _check_hsize(hsize, m.n)
    k = kernel_gaussian(hsize, sigma)
    return GridModel(*(_convolve(m.matrix(n), k) for n in _AXES))


def smooth_laplacian(m: GridModel, alpha: float) -> GridModel:
    """Neighborhood-averaging smoothing: each entry moves a fraction alpha
    toward the mean of its 4 neighbors (replicate at edges)."""
    if not 0.0 <= alpha <= 1.0:
        raise BadParameterError(f"alpha must be in [0,1], got {alpha}")
    a = alpha
    k = np.array([[0, a / 4, 0], [a / 4, 1 - a, a / 4], [0, a / 4, 0]])
    return GridModel(*(_convolve(m.matrix(n), k) for n in _AXES))


def smooth_log(m: GridModel, hsize: int, sigma: float) -> GridModel:
    """Unsharp-style filtering: subtract the LoG response from the surface."""
    _check_hsize(hsize, m.n)
    k = kernel_log(hsize, sigma)
    return GridModel(*(m.matrix(n) - _convolve(m.matrix(n), k) for n in _AXES))


# ---------------------------------------------------------------------------
# Cropping

def crop(m: GridModel, p: float) -> GridModel:
    """Replace the top-left square block of side round(sqrt(p)*N) with each
    matrix's pre-attack mean; dimensions unchanged."""
    if not 0.0 < p < 1.0:
        raise BadParameterError(f"crop fraction must be in (0,1), got {p}")
    side = int(round(math.sqrt(p) * m.n))
    out = {}
    for name in _AXES:
        mat = m.matrix(name).copy()
        with np.errstate(over="ignore", invalid="ignore"):
            mean = mat.mean()
        if not math.isfinite(mean):  # the sum passed the float range, the mean cannot
            mean = (mat / mat.size).sum()
        mat[:side, :side] = mean
        out[name] = mat
    return GridModel(**out)


# ---------------------------------------------------------------------------
# Dispatch

# name -> (function, required parameters, optional parameters).  Parameter
# names are the function's keyword names, listed in textual order; an
# optional one takes the function's default.
_ATTACKS = {
    "rotate": (rotate, ("axis", "angle"), ()),
    "translate": (translate, ("dx", "dy", "dz"), ()),
    "scale": (scale, ("k",), ()),
    "randomnoise": (random_noise, ("a",), ("seed",)),
    "saltpepper": (salt_pepper, ("d",), ("seed",)),
    "gaussian": (smooth_gaussian, ("hsize", "sigma"), ()),
    "laplacian": (smooth_laplacian, ("alpha",), ()),
    "log": (smooth_log, ("hsize", "sigma"), ()),
    "crop": (crop, ("p",), ()),
}


def _param_order(name):
    _, required, optional = _ATTACKS[name]
    return required + optional


def apply(m: GridModel, spec: AttackSpec):
    """Apply an attack; returns (attacked model, registration or None)."""
    fn, required, _ = _ATTACKS[spec.name]
    missing = [k for k in required if k not in spec.params]
    if missing:
        raise BadParameterError(f"{spec.name}: missing parameters {missing}")
    out = fn(m, **spec.params)
    return out if isinstance(out, tuple) else (out, None)
