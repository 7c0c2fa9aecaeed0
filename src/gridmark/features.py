"""Perceptual block features and the per-slot weight/eligibility field.

Every level-3 detail coefficient at position (u, v) is supported by the
8x8 spatial block rows 8u..8u+7, cols 8v..8v+7, so one feature triple per
block position feeds all 8 embedding subbands that share it.  Features
are computed on a reference surface with each block's projection onto the
8 embedding atoms removed, which makes the weights independent of the
payload.

Features per block of the surface S(i,j) = (x1, x2, x3):
  curvature  mean Euclidean norm of the 5-point discrete Laplacian of S
             over the 6x6 interior points of the block
  area       sum of the areas of the block's 98 triangles (each grid cell
             split along its main diagonal; half cross-product norm)
  bumpiness  RMS orthogonal distance of the 64 points to their total
             least-squares plane (sqrt of the smallest scatter eigenvalue
             over the point count)

The blocks are evaluated in batched passes over a (B, 8, 8, 3) stack of
the surface's blocks: one Laplacian, one batched cross product and one
stacked SVD per pass.  raw_features cuts the stack into 256-block chunks
(a multiple of 64, see chunks.py) and runs them across the usable CPUs.
Each reduction runs over one contiguous per-block row (36 Laplacian
norms, 49 cell areas, 64 points) in the order a block-by-block loop sums
it, so the features are bit-identical to that loop's, and a block's
features do not depend on whether it is evaluated alone (block_features),
in a chunk or with the rest of the surface, nor on the thread count.

Raw features are normalized per channel to [0,1] by a robust percentile
map; the fuzzy system turns them into a crisp weight, which sets the
fraction of the quantization step the block's slots take at embedding.
Extraction does not use the weights.  The field also marks a block
eligible iff its weight classifies as HIGH or HIGHER, a diagnostic the
codec does not read.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chunks import map_chunks
from .errors import DimensionError
from .fuzzy import FuzzySystem, OUTPUT_TERMS, evaluate_many, weight_class_many
from .model_io import GridModel, validate_model
from .wavelet import add_atoms, embed_coefficients

ELIGIBLE_TERMS = ("HIGH", "HIGHER")

_ELIGIBLE_INDICES = tuple(OUTPUT_TERMS.index(t) for t in ELIGIBLE_TERMS)


def _direction_names(directions):
    if hasattr(directions, "directions"):
        directions = directions.directions
    return tuple(directions)


def reference_surface(m: GridModel, directions) -> GridModel:
    """Each embedding direction minus its projection onto the 8 embedding
    atoms (its 8 embedding subbands zeroed); other directions unchanged."""
    validate_model(m)
    out = {}
    for name in _direction_names(directions):
        x = m.matrix(name)
        out[name] = add_atoms(x, -embed_coefficients(x))
    return m.replace(**out)


# ---------------------------------------------------------------------------
# Raw block features

def _block_points(ref: GridModel, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """(B, 8, 8, 3) contiguous stack of the 8x8 blocks of ref[rows, cols],
    row-major over block positions; the last axis is (x1, x2, x3)."""
    pts = np.stack([ref.x1[rows, cols], ref.x2[rows, cols], ref.x3[rows, cols]], axis=-1)
    nr, nc = pts.shape[0] // 8, pts.shape[1] // 8
    pts = pts[: 8 * nr, : 8 * nc]
    return pts.reshape(nr, 8, nc, 8, 3).swapaxes(1, 2).reshape(nr * nc, 8, 8, 3)


def _features(pts: np.ndarray):
    """Raw (curvature, area, bumpiness), each of shape (B,), of a (B, 8, 8, 3)
    block stack.  Every reduction runs over one contiguous per-block row, so
    a block's features do not depend on how many blocks share the call."""
    count = pts.shape[0]

    lap = (
        pts[:, :-2, 1:-1]
        + pts[:, 2:, 1:-1]
        + pts[:, 1:-1, :-2]
        + pts[:, 1:-1, 2:]
        - 4.0 * pts[:, 1:-1, 1:-1]
    )
    curvature = np.linalg.norm(lap, axis=-1).reshape(count, 36).mean(axis=1)

    # cells split along the main diagonal; half cross-product norms
    p00 = pts[:, :-1, :-1]
    p01 = pts[:, :-1, 1:]
    p10 = pts[:, 1:, :-1]
    p11 = pts[:, 1:, 1:]
    c1 = np.cross(p10 - p00, p11 - p00)
    c2 = np.cross(p11 - p00, p01 - p00)
    areas = 0.5 * np.linalg.norm(c1, axis=-1) + 0.5 * np.linalg.norm(c2, axis=-1)
    area = areas.reshape(count, 49).sum(axis=1)

    # RMS orthogonal distance to the best-fit plane = smallest singular
    # value of the centered points / sqrt(count).  Steep blocks make the
    # spread ratio along the principal axes enormous, so normalize before
    # the SVD and scale back; going through the squared scatter matrix
    # instead would double that ratio and lose the small end entirely.
    flat = pts.reshape(count, 64, 3)
    centered = flat - flat.mean(axis=1)[:, None, :]
    spread = np.abs(centered).max(axis=(1, 2))
    point = spread == 0.0  # the block is a single point: bumpiness 0
    sv = np.linalg.svd(centered / np.where(point, 1.0, spread)[:, None, None], compute_uv=False)
    bumpiness = np.where(point, 0.0, spread * sv[:, -1] / math.sqrt(64))

    return curvature, area, bumpiness


def block_features(ref: GridModel, u: int, v: int):
    """Raw (curvature, area, bumpiness) of spatial block (u, v)."""
    nb = ref.n // 8
    if not (0 <= u < nb and 0 <= v < nb):
        raise DimensionError(f"block ({u},{v}) out of range for side {ref.n}")
    pts = _block_points(ref, slice(8 * u, 8 * u + 8), slice(8 * v, 8 * v + 8))
    return tuple(float(x[0]) for x in _features(pts))


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
    """Crisp weight and eligibility per block position, plus the normalized
    features that produced them."""

    features: FeatureField
    weight: np.ndarray
    eligible: np.ndarray

    @property
    def nb(self):
        return self.weight.shape[0]


def raw_features(ref: GridModel) -> FeatureField:
    """Raw features of every block position, as (N/8, N/8) arrays."""
    nb = ref.n // 8
    return FeatureField(*(x.reshape(nb, nb) for x in map_chunks(_features, _block_points(ref))))


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


def compute_weights(ref: GridModel, sys: FuzzySystem) -> WeightField:
    """Raw features -> percentile normalization -> fuzzy weight -> eligibility."""
    norm = normalize_features(raw_features(ref))
    nb = norm.nb
    w = evaluate_many(sys, norm.curvature, norm.bumpiness, norm.area).reshape(nb, nb)
    cls = weight_class_many(sys, w)
    eligible = np.isin(cls, _ELIGIBLE_INDICES)
    return WeightField(norm, w, eligible)
