"""Patch extraction, mask tokenization, patch embedding and reassembly.

One patch-grid type, PatchGrid, serves both resolutions: img2col cuts square
LR patches, hr_patches cuts the matching rectangular HR patches, and
pixel_shuffle inverts either.

img2col follows the strided-convolution construction: P*P identity indicator
kernels (w(i,j) = 1 iff i == j), duplicated per input channel and applied as a
grouped convolution with stride P and no padding.  Rows of the result are
channel-major flattened patches (all R pixels row-major, then G, then B),
bit-identical to direct non-overlapping slicing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import DTYPE, ConvSpec, conv2d


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

    @property
    def count(self) -> int:
        return self.x.shape[0]


def img2col_weights(patch_size: int, channels: int = 3) -> np.ndarray:
    """Identity-selector kernels [channels*P^2, 1, P, P] for the patching conv."""
    p2 = patch_size * patch_size
    eye = np.eye(p2, dtype=DTYPE).reshape(p2, 1, patch_size, patch_size)
    return np.tile(eye, (channels, 1, 1, 1))


def img2col(image: np.ndarray, patch_size: int) -> PatchGrid:
    """Split a [3, H, W] image into non-overlapping P x P patches via a
    grouped convolution with stride P."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected [3, H, W] image, got shape {image.shape}")
    _, h, w = image.shape
    if h % patch_size or w % patch_size:
        raise ValueError(f"image {h}x{w} not divisible by patch size {patch_size}")
    spec = ConvSpec(img2col_weights(patch_size), stride=patch_size, padding=0, groups=3)
    out = conv2d(image, spec)
    rows, cols = out.shape[1], out.shape[2]
    patches = np.ascontiguousarray(out.reshape(out.shape[0], rows * cols).T)
    return PatchGrid(patches, rows, cols, patch_size, patch_size)


def hr_patches(image: np.ndarray, patch_h: int, patch_w: int) -> PatchGrid:
    """Split a [3, H, W] image into patch_h x patch_w patches by reshaping.

    Same layout as img2col; used at HR, where the patches are rectangular
    whenever the two axes are downsampled by different factors.
    """
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected [3, H, W] image, got shape {image.shape}")
    _, h, w = image.shape
    if h % patch_h or w % patch_w:
        raise ValueError(f"image {h}x{w} not divisible by patch {patch_h}x{patch_w}")
    rows, cols = h // patch_h, w // patch_w
    arr = image.reshape(3, rows, patch_h, cols, patch_w)
    arr = arr.transpose(1, 3, 0, 2, 4).reshape(rows * cols, 3 * patch_h * patch_w)
    return PatchGrid(np.ascontiguousarray(arr, dtype=DTYPE), rows, cols, patch_h, patch_w)


def pixel_shuffle(grid: PatchGrid) -> np.ndarray:
    """Exact inverse of img2col and hr_patches: reassemble [3, H, W]."""
    ph, pw = grid.patch_h, grid.patch_w
    arr = grid.patches.reshape(grid.rows, grid.cols, 3, ph, pw)
    img = arr.transpose(2, 0, 3, 1, 4).reshape(3, grid.rows * ph, grid.cols * pw)
    return np.ascontiguousarray(img)


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
    if not np.isin(mask, (0, 1)).all():
        raise ValueError("mask values must be binary {0, 1}")
    rows, cols = h // patch_size, w // patch_size
    blocks = mask[0].reshape(rows, patch_size, cols, patch_size)
    return blocks.max(axis=(1, 3)).reshape(-1).astype(DTYPE)


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
