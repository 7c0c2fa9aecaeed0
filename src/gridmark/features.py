"""Perceptual block features and the per-block weight field.

Every level-3 detail coefficient at position (u, v) is supported by the
8x8 spatial block rows 8u..8u+7, cols 8v..8v+7, so one feature triple per
block position feeds all 8 embedding subbands that share it.  Features
are computed on a reference surface with each block's projection onto the
8 embedding atoms removed, which makes the weights independent of the
payload.  project computes both, as block stacks, for embed, extract and
reference_surface.

Features per block of the surface S(i,j) = (x1, x2, x3):
  curvature  mean Euclidean norm of the 5-point discrete Laplacian of S
             over the 6x6 interior points of the block
  area       sum of the areas of the block's 98 triangles (each grid cell
             split along its main diagonal; half cross-product norm)
  bumpiness  RMS orthogonal distance of the 64 points to their total
             least-squares plane (sqrt of the smallest scatter eigenvalue
             over the point count)

The kernel takes three (B, 8, 8) stacks of the surface's blocks, one per
coordinate, and copies them once into one block-minor (8, 8, 3, B)
array: each point's coordinate is a row of B values, one per block, so
every step below is an elementwise pass whose inner loop runs over the
blocks.  The Laplacian, the edge vectors and the cross products are
written out per coordinate, and a 3-vector norm is sqrt(a*a + b*b +
c*c).  A block's features keep the bits of a block-by-block loop:
  - the 36 Laplacian norms and the 49 cell areas are added in numpy's
    pairwise order for a contiguous run of values (_pairwise_rows);
  - the mean of the 64 points is a sum over the leading axis of the
    (64, 3B) view, which numpy adds row after row, as it does the (64, 3)
    points of one block;
  - the one batched SVD reads a (B, 64, 3) view of the centered points.
So a block's features do not depend on whether it is evaluated alone, in
a slice or with the rest of the surface.  raw_features and the weights
map the kernel over 256-block slices on a thread pool with one thread
per usable CPU; numpy's SVD, elementwise arithmetic and reductions
release the GIL, and the features do not depend on the thread count.

embed weights its blocks straight from project's reference stacks, with
_block_weights; raw_features and compute_weights cut a reference
surface into the same stacks and call the same path.

Raw features are normalized per channel to [0,1] by a robust percentile
map; the fuzzy system turns them into a crisp weight, which sets the
fraction of the quantization step the block's slots take at embedding.
Extraction does not use the weights.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError, NonFiniteValueError
from .fuzzy import FuzzySystem, evaluate_many
from .model_io import GridModel, validate_model
from .wavelet import EMBED_ATOMS, from_block_stack, to_block_stack


def project(m: GridModel, directions):
    """Split each direction named in directions (as in EmbedConfig.directions)
    into its projection onto the 8 embedding atoms and the rest.  Returns two
    lists in the order of directions: the (B, 8) coefficients of each
    direction's block stack, and the (B, 64) block stack of its reference
    surface, a fresh array the caller may keep.  A reference that passes the
    float range raises NonFiniteValueError."""
    validate_model(m)
    coefficients, stacks = [], []
    for name in directions:
        x = to_block_stack(m.matrix(name))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            c = x @ EMBED_ATOMS.T
            x += (-c) @ EMBED_ATOMS
        if not np.isfinite(x).all():
            raise NonFiniteValueError(f"the reference surface of {name} is not finite")
        coefficients.append(c)
        stacks.append(x)
    return coefficients, stacks


def reference_surface(m: GridModel, directions) -> GridModel:
    """Each embedding direction, named in directions, minus its projection
    onto the 8 embedding atoms (its 8 embedding subbands zeroed); other
    directions unchanged."""
    _, stacks = project(m, directions)
    return m.replace(**{name: from_block_stack(x) for name, x in zip(directions, stacks)})


# ---------------------------------------------------------------------------
# Raw block features

def _block_points(ref: GridModel):
    """The 8x8 blocks of ref as three contiguous (B, 8, 8) stacks, one per
    coordinate (x1, x2, x3), row-major over block positions."""
    return tuple(to_block_stack(x).reshape(-1, 8, 8) for x in (ref.x1, ref.x2, ref.x3))


def _norm3(a, b, c):
    """Euclidean norm of the 3-vectors (a, b, c), summed as (a² + b²) + c²,
    the order np.linalg.norm sums a last axis of length 3 in."""
    return np.sqrt(a * a + b * b + c * c)


def _pairwise_rows(x):
    """The sum of the n >= 8 rows of x, added as numpy's pairwise sum adds
    a contiguous run of n <= 128 values: eight running sums of rows j,
    j + 8, ..., combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 +
    r7)), then the n % 8 leftover rows one by one."""
    n = len(x)
    r = x[:8].copy()
    for i in range(8, n - n % 8, 8):
        r += x[i : i + 8]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in x[n - n % 8 :]:
        total += row
    return total


def _laplacian(x):
    return x[:-2, 1:-1] + x[2:, 1:-1] + x[1:-1, :-2] + x[1:-1, 2:] - 4.0 * x[1:-1, 1:-1]


def _cell_edges(x):
    """Per cell, the edges from its top-left corner p00 to p10, p11 and p01."""
    p00 = x[:-1, :-1]
    return x[1:, :-1] - p00, x[1:, 1:] - p00, x[:-1, 1:] - p00


@np.errstate(over="ignore", invalid="ignore")
def _features(blocks):
    """Raw (curvature, area, bumpiness), each of shape (B,), of the three
    (B, 8, 8) coordinate stacks of _block_points.  Each block's features
    are computed from its own values in a fixed order, so they do not
    depend on how many blocks share the call.

    A block whose squares or sums pass the float range gets inf or NaN
    features, without a RuntimeWarning, and the weights refuse them.
    numpy's error state is per thread, so it is set here, on the thread that
    runs the kernel, not around the pool."""
    count = len(blocks[0])
    pts = np.empty((8, 8, 3, count))
    for k, x in enumerate(blocks):
        pts[:, :, k] = x.transpose(1, 2, 0)
    coords = [pts[:, :, k] for k in range(3)]

    curvature = _pairwise_rows(_norm3(*map(_laplacian, coords)).reshape(36, count)) / 36.0

    # cells split along the main diagonal into (p00, p10, p11) and
    # (p00, p11, p01); half the norms of the cross products of their edges
    (a1, d1, b1), (a2, d2, b2), (a3, d3, b3) = map(_cell_edges, coords)
    lower = _norm3(a2 * d3 - a3 * d2, a3 * d1 - a1 * d3, a1 * d2 - a2 * d1)
    upper = _norm3(d2 * b3 - d3 * b2, d3 * b1 - d1 * b3, d1 * b2 - d2 * b1)
    area = _pairwise_rows((0.5 * lower + 0.5 * upper).reshape(49, count))

    # RMS orthogonal distance to the best-fit plane = smallest singular
    # value of the centered points / sqrt(count).  Steep blocks make the
    # spread ratio along the principal axes enormous, so normalize before
    # the SVD and scale back; going through the squared scatter matrix
    # instead would double that ratio and lose the small end entirely.
    # The sum runs over the leading axis of a (64, 3B) array, which numpy
    # adds row after row; a single (64, 1) column it would add pairwise.
    flat = pts.reshape(64, 3 * count)
    centered = (flat - flat.sum(axis=0) / 64.0).reshape(64, 3, count)
    spread = np.abs(centered).max(axis=(0, 1))
    point = spread == 0.0  # the block is a single point: bumpiness 0
    centered /= np.where(point, 1.0, spread)
    centered[:, :, ~np.isfinite(spread)] = 0.0  # NaN would stop the SVD; the bumpiness stays non-finite
    sv = np.linalg.svd(centered.transpose(2, 0, 1), compute_uv=False)
    bumpiness = np.where(point, 0.0, spread * sv[:, -1] / math.sqrt(64))

    return curvature, area, bumpiness


# ---------------------------------------------------------------------------
# Fields

@dataclass
class FeatureField:
    """Per block position (shared by all 8 subbands at that (u,v)):
    curvature, area, bumpiness as (N/8, N/8) arrays."""

    curvature: np.ndarray
    area: np.ndarray
    bumpiness: np.ndarray

    @property
    def nb(self):
        return self.curvature.shape[0]


@dataclass
class WeightField:
    """Crisp weight per block position, plus the normalized features that
    produced it."""

    features: FeatureField
    weight: np.ndarray

    @property
    def nb(self):
        return self.weight.shape[0]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _block_features(blocks) -> FeatureField:
    """Raw features of the blocks of a square surface, given as three
    (B, 8, 8) coordinate stacks (x1, x2, x3) in row-major block order, as
    (N/8, N/8) arrays."""
    nb = math.isqrt(len(blocks[0]))
    slices = [slice(i, i + 256) for i in range(0, nb * nb, 256)]
    with ThreadPoolExecutor(_usable_cpus()) as pool:
        parts = list(pool.map(lambda rows: _features([x[rows] for x in blocks]), slices))
    return FeatureField(*(np.concatenate(channel).reshape(nb, nb) for channel in zip(*parts)))


def raw_features(ref: GridModel) -> FeatureField:
    """Raw features of every block position, as (N/8, N/8) arrays."""
    return _block_features(_block_points(ref))


def _normalize_channel(x: np.ndarray) -> np.ndarray:
    p5, p95 = np.percentile(x, [5.0, 95.0])
    if p95 == p5:
        return np.full_like(x, 0.5)
    return np.clip((x - p5) / (p95 - p5), 0.0, 1.0)


def normalize_features(raw: FeatureField) -> FeatureField:
    return FeatureField(
        _normalize_channel(raw.curvature),
        _normalize_channel(raw.area),
        _normalize_channel(raw.bumpiness),
    )


def _block_weights(blocks, sys: FuzzySystem):
    """The normalized features and the (N/8, N/8) crisp fuzzy weight of the
    blocks given as _block_features takes them.

    Blocks whose features leave the float range (finite coordinates far
    past the surface's robust extent, squared or summed) raise
    DegenerateModelError."""
    raw = _block_features(blocks)
    if not all(np.isfinite(x).all() for x in (raw.curvature, raw.area, raw.bumpiness)):
        raise DegenerateModelError("block features of the model are not finite; cannot weight its blocks")
    norm = normalize_features(raw)
    nb = norm.nb
    return norm, evaluate_many(sys, norm.curvature, norm.bumpiness, norm.area).reshape(nb, nb)


def compute_weights(ref: GridModel, sys: FuzzySystem) -> WeightField:
    """Raw features -> percentile normalization -> fuzzy weight, for the
    blocks of the reference surface ref.

    The weight has the bits of the one embed uses, which takes the same
    block stacks from project without building ref.  A model whose block
    features leave the float range (finite coordinates far past its robust
    extent, squared or summed) raises DegenerateModelError."""
    return WeightField(*_block_weights(_block_points(ref), sys))
