"""Three-level Haar detail decomposition for square matrices.

One dwt2 step maps each disjoint 2x2 block [[a, b], [c, d]] to

    ca = (a + b + c + d) / 2      cv = (a - b + c - d) / 2
    ch = (a + b - c - d) / 2      cd = (a - b - c + d) / 2

which is the orthonormal 2D Haar transform (the four analysis vectors have
unit norm), so energy is conserved at every level.

The three-level tree re-decomposes detail bands, not the approximation:
level 2 decomposes the level-1 ch and cv bands, and level 3 decomposes the
ch and cv bands of both level-2 decompositions.  Bands are addressed by
path strings over {A, H, V, D} (ca, ch, cv, cd): "H.V.D" is the level-3 cd
band of the level-2 cv band of the level-1 ch band.  The eight level-3
ch/cv bands, in canonical order, are the embedding target of the codec.

Each of those coefficients at (u, v) is the inner product of the 8x8 block
at rows 8u.., cols 8v.. with one fixed atom (EMBED_ATOMS, entries +-1/8),
which is all the codec uses; the tree is the definition the atoms come from.
to_block_stack and from_block_stack hold that 8x8 block layout: a matrix
as one (B, 64) stack of its blocks, and back.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotSquareError

# Canonical order of the four level-3 decompositions and of the 16 bands.
LEVEL2_KEYS = ("H", "V")
LEVEL3_KEYS = ("H.H", "H.V", "V.H", "V.V")
BAND_LETTERS = ("A", "H", "V", "D")

#: The 16 level-3 band paths in canonical order.
ALL_LEVEL3_BANDS = tuple(
    f"{k}.{z}" for k in LEVEL3_KEYS for z in BAND_LETTERS
)

#: The 8 level-3 detail bands (ch and cv of each level-3 decomposition)
#: that carry the watermark, in canonical order.
EMBED_BANDS = tuple(f"{k}.{z}" for k in LEVEL3_KEYS for z in ("H", "V"))


def _check_square_even(m, min_side=2):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n < min_side or n % 2 != 0:
        raise DimensionError(f"side must be even and >= {min_side}, got {n}")
    return m


@dataclass
class QuadBands:
    """The four subbands of one dwt2 step."""

    ca: np.ndarray
    ch: np.ndarray
    cv: np.ndarray
    cd: np.ndarray

    def get(self, letter):
        return getattr(self, "c" + letter.lower())

    def set(self, letter, values):
        setattr(self, "c" + letter.lower(), values)


def dwt2(m):
    """One orthonormal Haar step.  Requires an even-sided square matrix."""
    m = _check_square_even(m)
    a = m[0::2, 0::2]
    b = m[0::2, 1::2]
    c = m[1::2, 0::2]
    d = m[1::2, 1::2]
    return QuadBands(
        ca=(a + b + c + d) / 2,
        ch=(a + b - c - d) / 2,
        cv=(a - b + c - d) / 2,
        cd=(a - b - c + d) / 2,
    )


def idwt2(bands):
    """Exact inverse of dwt2."""
    ca, ch, cv, cd = bands.ca, bands.ch, bands.cv, bands.cd
    if not (ca.shape == ch.shape == cv.shape == cd.shape):
        raise DimensionError("subbands must share one shape")
    k = ca.shape[0]
    out = np.empty((2 * k, 2 * k), dtype=float)
    out[0::2, 0::2] = (ca + ch + cv + cd) / 2
    out[0::2, 1::2] = (ca + ch - cv - cd) / 2
    out[1::2, 0::2] = (ca - ch + cv - cd) / 2
    out[1::2, 1::2] = (ca - ch - cv + cd) / 2
    return out


@dataclass
class DetailTree:
    """Detail tree of decompose3.

    level1 holds the four level-1 bands; level2 maps "H"/"V" (the level-1
    band that was decomposed) to its QuadBands; level3 does the same for
    the four level-2 detail bands keyed "H.H", "H.V", "V.H", "V.V".
    """

    n: int
    level1: QuadBands
    level2: dict
    level3: dict

    def band(self, path):
        """Return the band array for a path like "H", "H.V" or "V.H.D"."""
        parts = path.split(".")
        if len(parts) == 1:
            return self.level1.get(parts[0])
        if len(parts) == 2:
            return self.level2[parts[0]].get(parts[1])
        if len(parts) == 3:
            return self.level3[parts[0] + "." + parts[1]].get(parts[2])
        raise KeyError(path)

    def set_band(self, path, values):
        parts = path.split(".")
        values = np.asarray(values, dtype=float)
        if values.shape != self.band(path).shape:
            raise DimensionError(
                f"band {path} has shape {self.band(path).shape}, got {values.shape}"
            )
        if len(parts) == 1:
            self.level1.set(parts[0], values)
        elif len(parts) == 2:
            self.level2[parts[0]].set(parts[1], values)
        else:
            self.level3[parts[0] + "." + parts[1]].set(parts[2], values)


def _check_blocked(m):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n % 8 != 0 or n < 8:
        raise DimensionError(f"side must be a positive multiple of 8, got {n}")
    return m


def decompose3(m):
    """Build the three-level detail tree of a square matrix (side % 8 == 0)."""
    m = _check_blocked(m)
    n = m.shape[0]
    level1 = dwt2(m)
    level2 = {"H": dwt2(level1.ch), "V": dwt2(level1.cv)}
    level3 = {}
    for k1 in LEVEL2_KEYS:
        for k2 in ("H", "V"):
            level3[f"{k1}.{k2}"] = dwt2(level2[k1].get(k2))
    return DetailTree(n=n, level1=level1, level2=level2, level3=level3)


def reconstruct3(tree):
    """Invert decompose3.  Untouched band arrays are reused verbatim."""
    level2 = {}
    for k1 in LEVEL2_KEYS:
        t = tree.level2[k1]
        level2[k1] = QuadBands(
            ca=t.ca,
            ch=idwt2(tree.level3[f"{k1}.H"]),
            cv=idwt2(tree.level3[f"{k1}.V"]),
            cd=t.cd,
        )
    level1 = QuadBands(
        ca=tree.level1.ca,
        ch=idwt2(level2["H"]),
        cv=idwt2(level2["V"]),
        cd=tree.level1.cd,
    )
    return idwt2(level1)


def tree_energy(tree):
    """Sum of squares over the leaf bands (the coefficients that fully
    represent the input: level-1 ca/cd, level-2 ca/cd of H and V, and all
    16 level-3 bands)."""
    total = 0.0
    for band in (tree.level1.ca, tree.level1.cd):
        total += float(np.sum(band * band))
    for k in LEVEL2_KEYS:
        for z in ("A", "D"):
            band = tree.level2[k].get(z)
            total += float(np.sum(band * band))
    for path in ALL_LEVEL3_BANDS:
        band = tree.band(path)
        total += float(np.sum(band * band))
    return total


def _impulse_responses():
    # block (u, v) of this 64x64 matrix is the unit impulse at (u, v) of an
    # 8x8 block, so entry (u, v) of each embedding band is its response to it
    tree = decompose3(np.outer(np.eye(8).ravel(), np.eye(8).ravel()))
    return np.array([tree.band(p).ravel() for p in EMBED_BANDS])


#: (8, 64): row k is the atom of EMBED_BANDS[k] over a row-major 8x8 block;
#: orthonormal, entries +-1/8.
EMBED_ATOMS = _impulse_responses()


def to_block_stack(m):
    """The 8x8 blocks of a square matrix (side a positive multiple of 8) as a
    fresh C-contiguous (nb*nb, 64) array: row u*nb + v is the block at rows
    8u.., cols 8v.., read row-major.  A copy even at side 8, where the
    reshape alone would be a view of m."""
    m = _check_blocked(m)
    nb = m.shape[0] // 8
    return m.reshape(nb, 8, nb, 8).swapaxes(1, 2).copy().reshape(nb * nb, 64)


def from_block_stack(stack):
    """The (8nb, 8nb) matrix whose to_block_stack is the (nb*nb, 64) stack."""
    nb = math.isqrt(len(stack))
    return np.reshape(stack, (nb, nb, 8, 8)).swapaxes(1, 2).reshape(8 * nb, 8 * nb)


def embed_coefficients(m):
    """The 8 embedding bands of decompose3(m), as one (8, nb, nb) array."""
    m = _check_blocked(m)
    nb = m.shape[0] // 8
    return (to_block_stack(m) @ EMBED_ATOMS.T).T.reshape(8, nb, nb)


def add_atoms(m, delta):
    """m + sum_k delta[k, u, v] * atom_k on block (u, v): the matrix whose
    embedding bands moved by the (8, nb, nb) delta.  Blocks whose delta is
    all zero come back bit-exact."""
    m = _check_blocked(m)
    nb = m.shape[0] // 8
    if np.shape(delta) != (8, nb, nb):
        raise DimensionError(f"delta must have shape {(8, nb, nb)}, got {np.shape(delta)}")
    return m + from_block_stack(np.reshape(delta, (8, nb * nb)).T @ EMBED_ATOMS)
