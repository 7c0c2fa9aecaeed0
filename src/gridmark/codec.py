"""Embedding and blind extraction.

Pipeline (embed): scramble the watermark, project each 8x8 block of each
embedding direction matrix onto the 8 embedding atoms (its 8 level-3
detail coefficients; the same projection, subtracted, gives the reference
surface), divide by the model's normalization scale, and move every slot
a fraction alpha of the way to the nearest value whose remainder mod q is
the bit's target (distortion-compensated QIM).  Each block's alpha rises
from ALPHA_MIN to 1 with its crisp fuzzy weight, so curved, bumpy blocks
take close to the full step and flat ones little more than half of it;
the change goes back along the atoms.  Extraction recomputes the
reference surface and scale from the watermarked model alone, thresholds
the remainder of every slot, majority-votes them per payload bit and
unscrambles.  It needs no weights: since alpha > 1/2, every clean slot
stays within q/4 of its target and reads back its bit.

Slots form a (direction, subband, u, v) array.  Bit assignment shifts each
(direction, subband) plane by a fixed stride before reducing mod W^2, so
a payload bit gets slots in many planes at spatially scattered
positions.  Losing a region to cropping, or a filter that hits one
subband family harder than another, then costs each bit a few votes
instead of wiping out entire bits.

Models marked before the weight became the step size (when only HIGH and
HIGHER blocks carried payload) do not decode under this extractor.
"""

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .arnold import scramble, unscramble
from .errors import (
    BadParameterError,
    DegenerateModelError,
    InsufficientCapacityError,
    MalformedFileError,
)
from .features import compute_weights, reference_surface
from .fuzzy import default_rules_text, make_system, validate_watermark_system
from .model_io import GridModel, WatermarkBitmap, read_text
from .wavelet import EMBED_ATOMS, add_atoms, embed_coefficients

DIRECTION_ORDER = ("x1", "x2", "x3")

# Smallest fraction of the quantization step a slot takes (a zero-weight
# block); 1/2 < ALPHA_MIN keeps every clean residual below q/4.  Chosen on
# the three desk models (n=256, W=32): 0.55 leaves clean slots 0.025q of
# margin and keeps the lowest PSNR at 70.05 dB; larger values buy at most
# +0.02 battery correlation for up to 1.7 dB (see README).
ALPHA_MIN = 0.55


@dataclass
class EmbedConfig:
    """Embedding parameters; the identical config must be used to extract.

    The remainder targets and threshold derive from q: bit 1 aims at
    0.75q, bit 0 at 0.25q, and the decision threshold is 0.5q, keeping
    0 <= r0 < t < r1 < q.
    """

    key: int = 5
    q: float = 0.005
    directions: tuple = ("x1", "x2")
    rules: str = None  # path to a rule source file; None = packaged default

    def __post_init__(self):
        if not isinstance(self.key, int) or isinstance(self.key, bool) or self.key < 0:
            raise BadParameterError(f"key must be a non-negative integer, got {self.key!r}")
        self.q = float(self.q)
        if not 0 < self.q < math.inf:
            raise BadParameterError(f"q must be positive and finite, got {self.q}")
        dirs = tuple(self.directions)
        if len(dirs) != len(set(dirs)) or not dirs:
            raise BadParameterError(f"directions must be a nonempty set, got {dirs}")
        for d in dirs:
            if d not in DIRECTION_ORDER:
                raise BadParameterError(f"unknown direction {d!r}")
        self.directions = tuple(d for d in DIRECTION_ORDER if d in dirs)
        self._system = None

    @property
    def r1(self):
        return 0.75 * self.q

    @property
    def r0(self):
        return 0.25 * self.q

    @property
    def t(self):
        return 0.5 * self.q

    def rules_text(self) -> str:
        if self.rules is None:
            return default_rules_text()
        return read_text(self.rules, "utf-8")

    def system(self):
        if self._system is None:
            self._system = validate_watermark_system(make_system(self.rules_text()))
        return self._system


def serialize_config(cfg: EmbedConfig) -> str:
    lines = [f"key={cfg.key}", f"q={cfg.q!r}", f"directions={','.join(cfg.directions)}"]
    if cfg.rules is not None:
        lines.append(f"rules={cfg.rules}")
    return "\n".join(lines) + "\n"


def save_config(cfg: EmbedConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))


def load_config(path) -> EmbedConfig:
    """Parse a flat key=value config file.  A relative rules path is
    resolved against the config file's directory."""
    fields = {}
    for lineno, line in enumerate(read_text(path, "utf-8").split("\n"), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise MalformedFileError(f"line {lineno}: expected key=value, got {body!r}")
        k, v = body.split("=", 1)
        k, v = k.strip(), v.strip()
        if k in fields:
            raise MalformedFileError(f"line {lineno}: duplicate key {k!r}")
        fields[k] = v
    kwargs = {}
    for k, v in fields.items():
        if k == "key":
            try:
                kwargs["key"] = int(v)
            except ValueError:
                raise MalformedFileError(f"key must be an integer, got {v!r}") from None
        elif k == "q":
            try:
                kwargs["q"] = float(v)
            except ValueError:
                raise MalformedFileError(f"q must be a number, got {v!r}") from None
        elif k == "directions":
            kwargs["directions"] = tuple(s.strip() for s in v.split(",") if s.strip())
        elif k == "rules":
            p = Path(v)
            if not p.is_absolute():
                p = Path(path).parent / p
            kwargs["rules"] = str(p)
        else:
            raise MalformedFileError(f"unknown config key {k!r}")
    return EmbedConfig(**kwargs)


def config_hash(cfg: EmbedConfig) -> str:
    """sha256 over the canonical parameters plus the full rule source, so
    the hash pins the semantics rather than a file path."""
    h = hashlib.sha256()
    core = f"key={cfg.key}\nq={cfg.q!r}\ndirections={','.join(cfg.directions)}\n"
    h.update(core.encode())
    h.update(b"[rules]\n")
    h.update(cfg.rules_text().encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Slot map

@dataclass
class SlotMap:
    """Deterministic slot ordering for (n, w, directions); model-independent.

    bit[d, b, u, v] = assigned payload bit index of the slot in direction
    d, embedding subband b, block position (u, v).  Number the slots
    plane by plane in raster order; every pass of W^2 consecutive slots
    holds each bit once, shifted by pass_index * stride.  So every bit
    has a slot, the vote counts of two bits differ by at most one, and
    one bit never sits in a single subband: with N=256, W=32 and two
    directions every bit owns exactly one slot in each of the 16 planes,
    16 scattered positions.  Fewer than W^2 slots raise
    InsufficientCapacityError.
    """

    n: int
    w: int
    directions: tuple
    bit: np.ndarray = field(init=False)

    def __post_init__(self):
        nb = self.n // 8
        slot = np.arange(len(self.directions) * len(EMBED_ATOMS) * nb * nb, dtype=np.int64)
        if slot.size < self.w**2:
            raise InsufficientCapacityError(slot.size, self.w**2)
        # stride odd and ~5 rows + a few columns per pass: consecutive
        # passes land far apart in both grid axes and in row parity
        stride = 5 * nb + 7
        bit = (slot + (slot // self.w**2) * stride) % self.w**2
        self.bit = bit.reshape(len(self.directions), len(EMBED_ATOMS), nb, nb)


# ---------------------------------------------------------------------------
# Remainder quantization

def quantize_embed_bit(c, bit, cfg: EmbedConfig):
    """Move each normalized coefficient to the nearest value whose
    remainder mod q is the target for its bit (ties toward the middle
    candidate, i.e. no whole-step move)."""
    c = np.asarray(c, dtype=float)
    bit = np.asarray(bit)
    r = np.mod(c, cfg.q)
    rt = np.where(bit == 1, cfg.r1, cfg.r0)
    base = c - r + rt
    down, up = base - cfg.q, base + cfg.q
    d_base, d_down, d_up = np.abs(base - c), np.abs(down - c), np.abs(up - c)
    # strict comparisons: a tie keeps the earlier of base, down, up
    out = np.where(d_down < d_base, down, base)
    out = np.where(d_up < np.minimum(d_base, d_down), up, out)
    return float(out) if out.ndim == 0 else out


def read_bit(c, cfg: EmbedConfig):
    """1 iff the normalized coefficient's remainder mod q exceeds the
    threshold 0.5q."""
    c = np.asarray(c, dtype=float)
    bits = (np.mod(c, cfg.q) > cfg.t).astype(np.uint8)
    return int(bits) if bits.ndim == 0 else bits


# ---------------------------------------------------------------------------
# Normalization scale

# The quantiles of np.percentile(x, [1, 99]), computed as it computes them.
_PERCENTILE_Q = np.true_divide([1.0, 99.0], 100)
# Size of the strided sample that bounds the two tails.
_TAIL_SAMPLE = 4096


def _p1_p99(x):
    """np.percentile(x, [1, 99]) (linear method), bit for bit, from the
    two tails of x; see normalization_scale."""
    flat = x.reshape(-1)
    n = flat.size
    virtual = (n - 1) * _PERCENTILE_Q
    below = np.floor(virtual)
    gamma = virtual - below
    k = below.astype(np.intp)
    ranks = np.minimum(np.concatenate([k, k + 1]), n - 1)  # lo, hi, lo + 1, hi + 1
    stride = max(1, n // _TAIL_SAMPLE)
    while math.gcd(stride, x.shape[-1]) != 1:  # sample every column
        stride += 1
    sample = flat[::stride]
    j = sample.size // 50  # bounds at 2% and 98% of the sample
    tlo, thi = np.partition(sample, [j, sample.size - 1 - j])[[j, sample.size - 1 - j]]
    cand = flat
    if tlo < thi:
        kept = flat[(flat <= tlo) | (flat >= thi)]
        n_lo = np.count_nonzero(kept <= tlo)
        if n_lo >= k[0] + 2 and kept.size - n_lo >= n - k[1]:
            cand = kept
            ranks[[1, 3]] -= n - kept.size
    v = np.partition(cand, ranks)[ranks]
    a, b = v[:2], v[2:]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def normalization_scale(ref: GridModel) -> float:
    """Euclidean norm of the robust (p99 - p1) per-coordinate ranges of the
    reference surface; positively homogeneous and translation-invariant.

    p1 and p99 are np.percentile's: for N values and q = 0.01 or 0.99,
    the order statistics at ranks r = floor((N-1)q) and r + 1, mixed by
    the fraction g = (N-1)q - r as a + (b-a)g, or b - (b-a)(1-g) when
    g >= 0.5.  The four order statistics of a coordinate come from its
    tails alone (sample-based selection, Floyd & Rivest 1975): bounds
    tlo and thi at 2% and 98% of a strided sample of about 4096 values,
    one pass keeping the values <= tlo or >= thi.  If at least r_lo + 2
    values are <= tlo, the smallest r_lo + 2 values of the matrix are
    the smallest of the kept set; if at least N - r_hi values are >= thi,
    its largest N - r_hi are the largest of the kept set, at ranks
    N - size lower.  Checked by those two counts, partitioning the kept
    set gives the same order statistics as partitioning all N values;
    where a count fails (ties, plateaus, a sample that missed a tail)
    or tlo >= thi, all N values are partitioned.  Either way the scale
    has the bits of np.percentile over the whole surface.

    A scale of 0 (a flat surface) or one that overflows to inf (ranges
    past ~1e154) raises DegenerateModelError: dividing by it would read
    every coefficient as 0."""
    lo, hi = np.array([_p1_p99(x) for x in (ref.x1, ref.x2, ref.x3)]).T
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        s = float(np.linalg.norm(hi - lo))
    if s == 0.0 or not math.isfinite(s):
        raise DegenerateModelError(f"model has robust extent {s}; cannot normalize")
    return s


# ---------------------------------------------------------------------------
# Embed / extract

def embed(m: GridModel, wm: WatermarkBitmap, cfg: EmbedConfig) -> GridModel:
    """Move every slot a block-dependent fraction alpha of the way to its
    quantized value: alpha = ALPHA_MIN + (1 - ALPHA_MIN) * w for the
    block's crisp fuzzy weight w."""
    c = np.stack([embed_coefficients(m.matrix(name)) for name in cfg.directions])
    ref = reference_surface(m, cfg.directions, c)
    smap = SlotMap(m.n, wm.w, cfg.directions)
    s = normalization_scale(ref)
    alpha = ALPHA_MIN + (1.0 - ALPHA_MIN) * compute_weights(ref, cfg.system()).weight

    sbits = scramble(wm.bits, cfg.key).ravel()
    delta = alpha * (quantize_embed_bit(c / s, sbits[smap.bit], cfg) * s - c)
    out = {name: add_atoms(m.matrix(name), delta[di]) for di, name in enumerate(cfg.directions)}
    return m.replace(**out)


def extract(m: GridModel, w: int, cfg: EmbedConfig) -> WatermarkBitmap:
    """Blind extraction: per payload bit, majority vote of the thresholded
    remainders over every slot assigned to it, then unscramble.  A tied
    vote decodes as the parity of the scrambled bit index.  A side no
    embed could have used (fewer than w^2 slots) raises
    InsufficientCapacityError."""
    if w < 1:
        raise BadParameterError(f"watermark side must be positive, got {w}")
    c = np.stack([embed_coefficients(m.matrix(name)) for name in cfg.directions])
    s = normalization_scale(reference_surface(m, cfg.directions, c))
    idx = SlotMap(m.n, w, cfg.directions).bit.ravel()
    twice_ones = 2 * np.bincount(idx, weights=read_bit(c / s, cfg).ravel(), minlength=w * w)
    total = np.bincount(idx, minlength=w * w)
    bits = np.where(twice_ones == total, np.arange(w * w) % 2, twice_ones > total).astype(np.uint8)
    return WatermarkBitmap(unscramble(bits.reshape(w, w), cfg.key))
