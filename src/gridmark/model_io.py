"""Grid models, watermark bitmaps, and their file formats.

A grid model is three N x N matrices x1, x2, x3 giving the coordinates of
a regularly sampled surface point (i, j).  N must be a multiple of 8 for
every codec-facing operation so the three-level detail tree lines up with
8 x 8 spatial blocks.

Formats:
  GRID3  ASCII model format; values are printed with repr so that
         save -> load -> save is byte-identical.
  PBM P1 canonical watermark bitmap format (also written), ASCII.
  PGM P2 accepted on input only; gray >= 128 maps to bit 1.
  OBJ    export-only triangulation for external viewers.

GRID3 and OBJ files are written one row at a time.  A GRID3 file is read
one line (at most 64 KiB) at a time, and only the rows of the matrix being
parsed are held until that matrix is converted: the whole file text is
never built.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameterError,
    DimensionError,
    MalformedFileError,
    NonFiniteValueError,
    NotSquareError,
)
from .wavelet import decompose3, reconstruct3

MODEL_KINDS = ("plane", "harmonic", "meshgrid", "bumps")

_AXES = ("x1", "x2", "x3")


@dataclass
class GridModel:
    """Three square coordinate matrices of one regularly sampled surface."""

    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray

    def __post_init__(self):
        mats = []
        for name in _AXES:
            m = np.asarray(getattr(self, name), dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise NotSquareError(f"{name} must be square, got shape {m.shape}")
            mats.append(m)
        if not (mats[0].shape == mats[1].shape == mats[2].shape):
            raise DimensionError("x1, x2, x3 must share one shape")
        if not all(np.isfinite(m).all() for m in mats):
            raise NonFiniteValueError("model coordinates must be finite")
        self.x1, self.x2, self.x3 = mats

    @property
    def n(self):
        return self.x1.shape[0]

    def matrix(self, name):
        if name not in _AXES:
            raise BadParameterError(f"no such coordinate matrix: {name!r}")
        return getattr(self, name)

    def replace(self, **mats):
        new = {name: mats.get(name, getattr(self, name)) for name in _AXES}
        return GridModel(**new)

    def copy(self):
        return GridModel(self.x1.copy(), self.x2.copy(), self.x3.copy())


def validate_model(m: GridModel):
    """Reject grids the codec cannot handle (side not a positive multiple of 8)."""
    if m.n < 8 or m.n % 8 != 0:
        raise DimensionError(f"grid side must be a positive multiple of 8, got {m.n}")
    return m


@dataclass
class WatermarkBitmap:
    """Square binary image; bits are uint8 zeros and ones."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise NotSquareError(f"watermark must be square, got shape {b.shape}")
        if b.size == 0:
            raise DimensionError("watermark must have at least one pixel")
        if not ((b == 0) | (b == 1)).all():
            raise MalformedFileError("watermark bits must be 0 or 1")
        self.bits = b.astype(np.uint8)

    @property
    def w(self):
        return self.bits.shape[0]


def read_text(path, encoding="ascii"):
    """Read a whole text file; bytes that do not decode are a MalformedFileError."""
    try:
        with open(path, encoding=encoding) as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise MalformedFileError(f"{path}: byte {e.start} is not {encoding}") from None


_READ_BLOCK = 1 << 16

# The ASCII line breaks of str.splitlines but "\r", which may be the first
# half of a "\r\n".
_FINAL_BREAKS = "\n\v\f\x1c\x1d\x1e"


def _ascii_lines(fh, path):
    """The lines of a binary file, as read_text(path).splitlines() gives them.

    Reads up to the next b"\\n", but never more than _READ_BLOCK bytes, at
    a time, so whichever line breaks the file uses (a bare "\\r" too), it
    holds one such piece and the line being read.  Unless a piece ends in
    one of _FINAL_BREAKS, its last line may go on in the next piece, so it
    is split again with that piece (a final "\\r" with it, in case the
    next piece starts with "\\n").
    """
    offset = 0
    tail = ""
    while chunk := fh.readline(_READ_BLOCK):
        try:
            text = tail + chunk.decode("ascii")
        except UnicodeDecodeError as e:
            raise MalformedFileError(f"{path}: byte {offset + e.start} is not ascii") from None
        offset += len(chunk)
        lines = text.splitlines()
        if text[-1] in _FINAL_BREAKS:
            tail = ""
        elif text[-1] == "\r":
            tail = lines.pop() + "\r"
        else:
            tail = lines.pop()
        yield from lines
    yield from tail.splitlines()


def _decimal(token, what):
    """A non-negative decimal integer token: ASCII digits and nothing else
    (int() also takes a sign, '_' between digits and non-ASCII digits)."""
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise MalformedFileError(f"bad {what} {token!r}")


# ---------------------------------------------------------------------------
# GRID3

def save_model(m: GridModel, path):
    validate_model(m)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"GRID3 {m.n}\n")
        for name in _AXES:
            fh.write(f"MATRIX {name}\n")
            for row in m.matrix(name):
                # tolist() yields Python floats, whose repr is the shortest round trip.
                fh.write(" ".join(map(repr, row.tolist())) + "\n")


def load_model(path) -> GridModel:
    with open(path, "rb") as fh:
        lines = enumerate(_ascii_lines(fh, path), start=1)
        try:
            mats = _parse_grid3(lines)
        except (DimensionError, NonFiniteValueError):
            # a byte that is not ascii anywhere in the file is reported
            # first, as it is when the file is read whole
            for _ in lines:
                pass
            raise
        for lineno, line in lines:
            if line.strip() != "":
                raise MalformedFileError(f"trailing content at line {lineno}")
    return GridModel(**mats)


def _parse_grid3(lines):
    """The three matrices from the numbered lines of a GRID3 file, reading
    no further than the last row of x3."""

    def next_line():
        for _, line in lines:
            if line.strip() != "":
                return line
        raise MalformedFileError("unexpected end of file")

    header = next_line().split()
    if len(header) != 2 or header[0] != "GRID3":
        raise MalformedFileError("first line must be 'GRID3 <N>'")
    n = _decimal(header[1], "grid side")
    if n < 8 or n % 8 != 0:
        raise DimensionError(f"grid side must be a positive multiple of 8, got {n}")

    mats = {}
    for name in _AXES:
        tag = next_line().split()
        if tag != ["MATRIX", name]:
            raise MalformedFileError(f"expected 'MATRIX {name}', got {' '.join(tag)!r}")
        rows = [next_line() for _ in range(n)]
        # comments=None: a '#' is a bad token, not the start of a comment.
        try:
            mat = np.loadtxt(rows, dtype=float, comments=None, ndmin=2)
        except ValueError as e:
            raise MalformedFileError(f"matrix {name}: {e}") from None
        del rows  # so the next matrix's rows never sit beside these
        if mat.shape != (n, n):
            raise MalformedFileError(f"matrix {name}: expected {n} values per row, got {mat.shape[1]}")
        if not np.isfinite(mat).all():
            raise NonFiniteValueError(f"matrix {name} contains non-finite values")
        mats[name] = mat
    return mats


# ---------------------------------------------------------------------------
# Watermark bitmaps

def save_watermark(wm: WatermarkBitmap, path):
    """Write canonical PBM P1."""
    lines = ["P1", f"{wm.w} {wm.w}"]
    for row in wm.bits:
        lines.append(" ".join(str(int(v)) for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _pnm_tokens(text):
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        yield from body.split()


def load_watermark(path) -> WatermarkBitmap:
    """Read PBM P1, or PGM P2 thresholded at gray >= 128."""
    toks = list(_pnm_tokens(read_text(path)))
    if not toks:
        raise MalformedFileError("empty image file")
    magic = toks[0]
    if magic not in ("P1", "P2"):
        raise MalformedFileError(f"unsupported image magic {magic!r}")
    try:
        w, h = _decimal(toks[1], "image size"), _decimal(toks[2], "image size")
        if magic == "P1":
            data = toks[3:]
            # P1 allows packed digit runs like "0101".
            if len(data) != w * h:
                data = [ch for tok in data for ch in tok]
            vals = [_decimal(t, "pixel") for t in data]
        else:
            maxval = _decimal(toks[3], "maxval")
            if maxval <= 0:
                raise MalformedFileError(f"bad maxval {maxval}")
            vals = [_decimal(t, "pixel") for t in toks[4:]]
    except IndexError:
        raise MalformedFileError("malformed image header or data") from None
    if w != h:
        raise NotSquareError(f"watermark must be square, got {w}x{h}")
    if len(vals) != w * h:
        raise MalformedFileError(f"expected {w * h} pixels, got {len(vals)}")
    arr = np.array(vals).reshape(h, w)
    if magic == "P1":
        if not np.isin(arr, (0, 1)).all():
            raise MalformedFileError("PBM pixels must be 0 or 1")
        bits = arr
    else:
        if arr.min() < 0 or arr.max() > maxval:
            raise MalformedFileError("PGM pixel out of range")
        bits = (arr >= 128).astype(np.uint8)
    return WatermarkBitmap(bits)


# ---------------------------------------------------------------------------
# OBJ export

def export_obj(m: GridModel, path):
    """Triangulate the grid (each cell split along its main diagonal) and
    write a 1-based OBJ mesh: N^2 vertices, 2(N-1)^2 faces."""
    n = m.n
    with open(path, "w") as fh:
        for a, b, c in zip(m.x1, m.x2, m.x3):
            fh.write("".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in zip(a.tolist(), b.tolist(), c.tolist())))
        # the two faces of each cell of grid row i; p is the 1-based index
        # of the cell's corner (i, j)
        for i in range(n - 1):
            fh.write("".join(f"f {p} {p + n} {p + n + 1}\nf {p} {p + n + 1} {p + 1}\n"
                             for p in range(i * n + 1, i * n + n)))


# ---------------------------------------------------------------------------
# Synthetic models
#
# All kinds are deterministic in (kind, n, seed).  The non-plane surfaces
# put a tall, feature-rich elevation into x3 and keep x1/x2 at (or near)
# the regular grid ramp.  x3 combines a low-frequency macro shape with a
# medium-wavelength modulated ripple (~11-13 grid steps): the envelope
# makes the 8x8-block features bimodal (clearly busy patches on clearly
# quiet background, so the fuzzy weights tolerate percentile drift),
# the ripple scale keeps genuine block curvature comparable to what point
# outliers inject, and the elevation range is normalized to 800*n so the
# detail-domain quantization step stays large against perturbations of
# the in-plane coordinates, whose own range is only ~n.  The elevation's
# sub-percentile tails are flattened onto the percentile anchors (mesa
# peaks): attacks that force entries to a matrix's extremes then cannot
# stretch the percentile-derived normalization scale, which would shift
# every multi-step detail coefficient off its quantizer level.
#
# The bumps kind is the robustness workhorse: its x1/x2 additionally get
# a faint white dither plus a mixed-axis detail texture.  The dither
# keeps carrier coefficients nonzero (sign-readable) without moving them
# off the quantizer's zero step; the texture seeds the four mixed-axis
# subbands (first two path letters different) with coefficients one to
# two embedding steps tall.  Smoothing kernels transfer those bands with
# a negative gain, so anything written there would be read back inverted;
# multi-step content turns those reads into coin flips instead while the
# same-axis bands, left quiet, keep their written sign.  Amplitudes scale
# with n so grids of different sizes behave alike.

def _envelope(u, v, freqs, phases):
    # Positive modulation field in [0, 1].  Two incommensurate wave
    # products so the field is never constant along any row or column (a
    # single product is, wherever one factor crosses zero).
    f1, f2, f3, f4 = freqs
    p1, p2, p3, p4 = phases
    mix = 0.5
    mix = mix + 0.25 * np.sin(2 * math.pi * f1 * u + p1) * np.sin(2 * math.pi * f2 * v + p2)
    mix = mix + 0.25 * np.sin(2 * math.pi * f3 * u + p3) * np.sin(2 * math.pi * f4 * v + p4)
    return mix


def _ripple(rng, i, j, envelope, amplitude):
    lam1 = rng.uniform(10.5, 13.5) * i.shape[0] / 256.0
    lam2 = rng.uniform(10.5, 13.5) * i.shape[0] / 256.0
    p1, p2 = rng.uniform(0, 2 * math.pi, size=2)
    carrier = np.sin(2 * math.pi * i / lam1 + p1) * np.sin(2 * math.pi * j / lam2 + p2)
    return amplitude * envelope * carrier


def _spread(x3, n):
    """Normalize elevation so its robust range (p1..p99) is 800*n, with the
    tails beyond the anchors flattened so min/max coincide with p1/p99."""
    lo, hi = np.percentile(x3, [1.0, 99.0])
    if hi <= lo:
        return x3
    return np.clip(x3, lo, hi) * (800.0 * n / (hi - lo))


def _mixed_band_texture(rng, n, step):
    """Surface whose only detail content is one coefficient per slot of
    the four mixed-axis level-3 subbands, each one to two steps tall with
    a random sign."""
    tree = decompose3(np.zeros((n, n)))
    nb = n // 8
    for path in ("H.V.H", "H.V.V", "V.H.H", "V.H.V"):
        mag = rng.uniform(0.9, 1.25, size=(nb, nb)) * step
        sgn = rng.choice((-1.0, 1.0), size=(nb, nb))
        tree.set_band(path, mag * sgn)
    return reconstruct3(tree)


def generate_model(kind, n, seed=0) -> GridModel:
    if kind not in MODEL_KINDS:
        raise BadParameterError(f"unknown model kind {kind!r}")
    if n < 8 or n % 8 != 0:
        raise DimensionError(f"grid side must be a positive multiple of 8, got {n}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise BadParameterError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(
        np.random.SeedSequence([0x67726964, MODEL_KINDS.index(kind), int(seed)])
    )
    i, j = np.indices((n, n), dtype=float)
    u = i / (n - 1)
    v = j / (n - 1)

    if kind == "plane":
        return GridModel(i, j, np.zeros((n, n)))

    if kind == "harmonic":
        p = rng.uniform(0, 2 * math.pi, size=8)
        macro = np.sin(2 * math.pi * 3 * u + p[0]) * np.sin(2 * math.pi * 4 * v + p[1])
        macro += 0.45 * np.sin(2 * math.pi * 2 * u + p[2]) * np.cos(2 * math.pi * 5 * v + p[3])
        env = _envelope(u, v, (3.0, 2.2, 1.7, 1.3), p[4:8])
        x3 = _spread(macro + _ripple(rng, i, j, env, 0.40), n)
        return GridModel(i, j, x3)

    if kind == "meshgrid":
        p = rng.uniform(0, 2 * math.pi, size=4)
        c = 1.0 + 0.1 * rng.standard_normal(6)
        xi = 2 * u - 1
        eta = 2 * v - 1
        macro = (
            c[0] * xi**4 + c[1] * eta**4
            - 1.1 * c[2] * (xi * eta) ** 2
            + 0.4 * c[3] * xi * eta
            - 0.3 * c[4] * xi**2
            + 0.25 * c[5] * eta**2
        )
        env = _envelope(u, v, (2.4, 2.8, 1.5, 1.9), p[0:4])
        x3 = _spread(macro + _ripple(rng, i, j, env, 0.35), n)
        return GridModel(i, j, x3)

    # bumps: a tall random landscape, with textured in-plane carriers.
    k = 42
    amp = rng.uniform(0.3, 1.0, size=k) * rng.choice((-1.0, 1.0), size=k)
    ci = rng.uniform(0, n, size=k)
    cj = rng.uniform(0, n, size=k)
    sig = rng.uniform(0.04 * n, 0.16 * n, size=k)
    x3 = np.zeros((n, n))
    for t in range(k):
        x3 += amp[t] * np.exp(-((i - ci[t]) ** 2 + (j - cj[t]) ** 2) / (2 * sig[t] ** 2))
    pe = rng.uniform(0, 2 * math.pi, size=4)
    env = _envelope(u, v, (2.2, 3.1, 1.4, 1.8), pe)
    x3 = _spread(x3 + _ripple(rng, i, j, env, 0.55), n)

    # One embedding step at the default q, estimated from the ranges the
    # normalization scale will see (the texture itself is invisible to
    # it: the reference surface zeroes exactly those subbands).
    lo, hi = np.percentile(x3, [1.0, 99.0])
    step = 0.005 * math.sqrt((hi - lo) ** 2 + 2 * (0.98 * (n - 1)) ** 2)
    x1 = i + rng.normal(0.0, 0.8, size=(n, n)) + _mixed_band_texture(rng, n, step)
    x2 = j + rng.normal(0.0, 0.8, size=(n, n)) + _mixed_band_texture(rng, n, step)
    return GridModel(x1, x2, x3)
