"""Patch extraction, mask tokenization, patch embedding and reassembly.

One patch cut, img2col, takes P x P patches into a PatchGrid, and
pixel_shuffle inverts any grid.  The HR composition does not build an HR
PatchGrid: upscale.compose_hr cuts only the patches it reads, straight from
the image, in the same channel-major layout.  block_any reduces a mask over
blocks: the pipeline's HR mask to LR once per request, and that LR mask to
the patch mask here, whose corrupted patches the masked attention map then
carries to the HR composition.

Patches are cut by one strided copy.  Rows of the result are channel-major
flattened patches (all R pixels row-major, then G, then B): bit-identical to
direct non-overlapping slicing and to the paper's strided-convolution
construction, P*P identity indicator kernels (w(i,j) = 1 iff i == j)
duplicated per input channel and applied as a grouped convolution with
stride P, which the tests keep as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import DTYPE, require_binary


@dataclass(frozen=True)
class PatchGrid:
    """Non-overlapping patch_h x patch_w patches of an RGB image: one
    channel-major flattened row per patch, grid cells in row-major order."""

    patches: np.ndarray
    rows: int
    cols: int
    patch_h: int
    patch_w: int

    def __post_init__(self):
        n, d = self.patches.shape
        if n != self.rows * self.cols:
            raise ValueError(f"{n} patches do not fill a {self.rows}x{self.cols} grid")
        if d != 3 * self.patch_h * self.patch_w:
            raise ValueError(f"patch width {d} != 3*{self.patch_h}*{self.patch_w}")

    @property
    def count(self) -> int:
        return self.patches.shape[0]


@dataclass(frozen=True)
class TokenMatrix:
    """Per-patch tokens: learned embedding columns [0, d_k) followed by
    conditioning feature columns [d_k, d_k + C)."""

    x: np.ndarray
    rows: int
    cols: int
    d_k: int


def img2col(image: np.ndarray, patch_size: int) -> PatchGrid:
    """Split a [3, H, W] image into non-overlapping P x P patches, as one
    copy into a new float32 array."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected [3, H, W] image, got shape {image.shape}")
    _, h, w = image.shape
    p = patch_size
    if h % p or w % p:
        raise ValueError(f"image {h}x{w} not divisible by patch {p}x{p}")
    rows, cols = h // p, w // p
    patches = np.empty((rows * cols, 3 * p * p), dtype=DTYPE)
    patches.reshape(rows, cols, 3, p, p)[...] = (
        image.reshape(3, rows, p, cols, p).transpose(1, 3, 0, 2, 4))
    return PatchGrid(patches, rows, cols, p, p)


def pixel_shuffle(grid: PatchGrid) -> np.ndarray:
    """Exact inverse of img2col, on any grid: reassemble [3, H, W]."""
    ph, pw = grid.patch_h, grid.patch_w
    arr = grid.patches.reshape(grid.rows, grid.cols, 3, ph, pw)
    img = arr.transpose(2, 0, 3, 1, 4).reshape(3, grid.rows * ph, grid.cols * pw)
    return np.ascontiguousarray(img)


def block_any(mask: np.ndarray, block_h: int, block_w: int) -> np.ndarray:
    """Per-block maximum of a [H, W] mask over block_h x block_w blocks; on a
    0/1 mask, 1 iff any pixel of the block is 1.

    Reduces each block's rows first, over contiguous memory, then the column
    blocks as block_w strided maxima: several times faster than reducing
    both block axes of a 4-d view at once.
    """
    h, w = mask.shape
    rows = mask.reshape(h // block_h, block_h, w).max(axis=1)
    out = rows[:, ::block_w].copy()
    for j in range(1, block_w):
        np.maximum(out, rows[:, j::block_w], out=out)
    return out


def tokenize_mask(mask: np.ndarray, patch_size: int) -> np.ndarray:
    """Per-patch OR-reduction of a binary pixel mask (1 = corrupted).

    Returns a length-N float vector with m_i == 1 iff any pixel of patch i is
    corrupted.
    """
    if mask.ndim != 3 or mask.shape[0] != 1:
        raise ValueError(f"expected [1, H, W] mask, got shape {mask.shape}")
    _, h, w = mask.shape
    if h % patch_size or w % patch_size:
        raise ValueError(f"mask {h}x{w} not divisible by patch size {patch_size}")
    require_binary(mask)
    return block_any(mask[0], patch_size, patch_size).reshape(-1).astype(DTYPE)


def embed_and_condition(seq: PatchGrid, features: np.ndarray, embed: np.ndarray) -> TokenMatrix:
    """Project patches through the embedding matrix and concatenate the
    conditioning features of each patch's grid cell.

    X[i] = concat(p_i @ E, F[:, r_i, c_i]) with E of shape [3P^2, d_k] and
    F of shape [C, rows, cols] (C may be 0 for no conditioning).
    """
    if features.ndim != 3:
        raise ValueError(f"expected [C, rows, cols] features, got shape {features.shape}")
    if features.shape[1:] != (seq.rows, seq.cols):
        raise ValueError(
            f"feature grid {features.shape[1:]} does not match patch grid "
            f"({seq.rows}, {seq.cols})"
        )
    if embed.ndim != 2 or embed.shape[0] != seq.patches.shape[1]:
        raise ValueError(
            f"embedding shape {embed.shape} does not accept {seq.patches.shape[1]}-wide patches"
        )
    tokens = seq.patches @ embed
    c = features.shape[0]
    if c:
        cond = features.reshape(c, -1).T
        tokens = np.concatenate([tokens, cond], axis=1)
    return TokenMatrix(np.ascontiguousarray(tokens, dtype=DTYPE), seq.rows, seq.cols, embed.shape[1])
