"""Masked patch self-attention: Q/K projection, score computation, attention
masking, token mixing and the patch-boundary coherence filter.

Masking keeps uncorrupted rows as exact one-hots and forces corrupted rows to
attend only uncorrupted columns; corrupted rows are renormalized to sum 1 so
output brightness does not depend on mask density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .patches import PatchGrid, TokenMatrix, img2col, pixel_shuffle, tokenize_mask, embed_and_condition
from .tensor_ops import DTYPE, _blur_axis, softmax_rows


class AllPatchesCorruptedError(ValueError):
    """Raised when a mask leaves no uncorrupted patch to attend to."""


@dataclass(frozen=True)
class ProjectionWeights:
    """Token projections onto the d_k-dimensional query/key space."""

    m_q: np.ndarray
    m_k: np.ndarray

    def __post_init__(self):
        if self.m_q.ndim != 2 or self.m_q.shape != self.m_k.shape:
            raise ValueError("M_Q and M_K must be 2-d matrices of identical shape")
        if not (np.isfinite(self.m_q).all() and np.isfinite(self.m_k).all()):
            raise ValueError("projection weights must be finite")

    @property
    def d_k(self) -> int:
        return self.m_q.shape[1]


@dataclass(frozen=True)
class NpmWeights:
    """Learned parameters of the matching module: patch embedding plus Q/K
    projections."""

    embed: np.ndarray
    proj: ProjectionWeights


@dataclass(frozen=True)
class AttentionMap:
    """Row-stochastic N x N patch affinity matrix and its grid geometry."""

    a: np.ndarray
    masked: bool
    rows: int
    cols: int

    def __post_init__(self):
        n = self.rows * self.cols
        if self.a.shape != (n, n):
            raise ValueError(f"attention map shape {self.a.shape} does not match grid N={n}")

    @property
    def count(self) -> int:
        return self.a.shape[0]


def attention_scores(tokens: TokenMatrix, weights: ProjectionWeights) -> AttentionMap:
    """Scaled dot-product affinities A = softmax(Q K^T / sqrt(d_k))."""
    if weights.m_q.shape[0] != tokens.x.shape[1]:
        raise ValueError(
            f"projection takes {weights.m_q.shape[0]}-wide tokens, got {tokens.x.shape[1]}"
        )
    q = tokens.x @ weights.m_q
    k = tokens.x @ weights.m_k
    logits = (q @ k.T) / np.float32(math.sqrt(weights.d_k))
    return AttentionMap(softmax_rows(logits), False, tokens.rows, tokens.cols)


def mask_attention(amap: AttentionMap, mask_vec: np.ndarray) -> AttentionMap:
    """Apply the self-attention mask M_D and renormalize corrupted rows.

    Uncorrupted rows become exact one-hots; corrupted rows carry zero mass on
    corrupted columns and sum to 1.
    """
    if amap.masked:
        raise ValueError("attention map is already masked")
    m = np.asarray(mask_vec).reshape(-1)
    if m.shape[0] != amap.count:
        raise ValueError(f"mask length {m.shape[0]} != N={amap.count}")
    if not np.isin(m, (0, 1)).all():
        raise ValueError("patch mask must be binary {0, 1}")
    keep = m == 0
    if not keep.any():
        raise AllPatchesCorruptedError("every patch is corrupted; nothing to attend to")

    mt = amap.a * keep[None, :].astype(DTYPE)
    sums = mt.sum(axis=1, keepdims=True)
    dead = sums[:, 0] == 0.0  # total underflow under extreme logits
    if dead.any():
        mt[dead] = keep.astype(DTYPE) / np.float32(keep.sum())
        sums = mt.sum(axis=1, keepdims=True)
    mt = mt / sums
    idx = np.nonzero(keep)[0]
    mt[keep, :] = 0.0
    mt[idx, idx] = 1.0
    return AttentionMap(mt.astype(DTYPE, copy=False), True, amap.rows, amap.cols)


def mix_rows(a: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Weighted row mixing out[i] = sum_j a[i, j] * values[j].

    One-hot rows are copied outright so untouched patches stay bit-identical
    to their sources; the remaining rows go through a matmul restricted to
    columns that actually carry weight (masked maps zero whole columns).
    """
    onehot = (a.max(axis=1) == 1.0) & (a.sum(axis=1) == 1.0)
    if onehot.all():
        return values[a.argmax(axis=1)].copy()
    out = np.empty((a.shape[0], values.shape[1]), dtype=values.dtype)
    if onehot.any():
        out[onehot] = values[a[onehot].argmax(axis=1)]
        dense = a[~onehot].astype(values.dtype)
        cols = np.abs(dense).max(axis=0) > 0
        if cols.sum() < 0.95 * a.shape[1]:
            out[~onehot] = dense[:, cols] @ values[cols]
        else:
            out[~onehot] = dense @ values
    else:
        out[:] = a.astype(values.dtype) @ values
    return out


def token_mix(amap: AttentionMap, values: PatchGrid) -> PatchGrid:
    """Mix value patches with a masked attention map (weighted patch sums).

    The patches may be of any extent on the map's grid: LR values in the
    refinement, HR high frequencies in the upscale.
    """
    if not amap.masked:
        raise ValueError("token mixing requires a masked attention map")
    if amap.count != values.count or (amap.rows, amap.cols) != (values.rows, values.cols):
        raise ValueError("attention grid does not match the value patch grid")
    mixed = mix_rows(amap.a, values.patches)
    return PatchGrid(mixed, values.rows, values.cols, values.patch_h, values.patch_w)


# 3-tap Gaussian, sigma = 0.8, used by the coherence layer
_COHERENCE_TAPS = None


def _coherence_taps() -> np.ndarray:
    global _COHERENCE_TAPS
    if _COHERENCE_TAPS is None:
        t = np.exp(-np.array([1.0, 0.0, 1.0]) / (2.0 * 0.8 * 0.8))
        _COHERENCE_TAPS = (t / t.sum()).astype(DTYPE)
    return _COHERENCE_TAPS


def _boundary_band(mask_vec: np.ndarray, rows: int, cols: int, patch_size: int) -> np.ndarray:
    """Pixels within 2 px of an interior grid edge that borders a corrupted patch."""
    corr = mask_vec.reshape(rows, cols) == 1
    p = patch_size
    h, w = rows * p, cols * p
    ry = np.arange(h) // p
    cx = np.arange(w) // p
    py = np.arange(h) % p
    px = np.arange(w) % p

    padded = np.zeros((rows + 2, cols + 2), dtype=bool)
    padded[1:-1, 1:-1] = corr
    here = padded[np.ix_(ry + 1, cx + 1)]
    up = padded[np.ix_(ry, cx + 1)]
    down = padded[np.ix_(ry + 2, cx + 1)]
    left = padded[np.ix_(ry + 1, cx)]
    right = padded[np.ix_(ry + 1, cx + 2)]

    near_top = (py < 2)[:, None] & (ry > 0)[:, None]
    near_bot = (py >= p - 2)[:, None] & (ry < rows - 1)[:, None]
    near_left = (px < 2)[None, :] & (cx > 0)[None, :]
    near_right = (px >= p - 2)[None, :] & (cx < cols - 1)[None, :]

    band = near_top & (here | up)
    band |= near_bot & (here | down)
    band |= near_left & (here | left)
    band |= near_right & (here | right)
    return band


def coherence(image: np.ndarray, mask_vec: np.ndarray, patch_size: int) -> np.ndarray:
    """Smooth 2-px bands around corrupted-patch boundaries with a 3x3
    Gaussian (sigma 0.8); all other pixels pass through bit-unchanged."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected [3, H, W] image, got shape {image.shape}")
    _, h, w = image.shape
    if h % patch_size or w % patch_size:
        raise ValueError(f"image {h}x{w} not divisible by patch size {patch_size}")
    rows, cols = h // patch_size, w // patch_size
    m = np.asarray(mask_vec).reshape(-1)
    if m.shape[0] != rows * cols:
        raise ValueError(f"mask length {m.shape[0]} != N={rows * cols}")
    out = image.copy()
    if not (m == 1).any():
        return out
    band = _boundary_band(m, rows, cols, patch_size)
    if not band.any():
        return out
    taps = _coherence_taps()
    blurred = _blur_axis(_blur_axis(image, taps, axis=2), taps, axis=1)
    out[:, band] = blurred[:, band]
    return out


def npm_refine(coarse: np.ndarray, x_lr: np.ndarray, features: np.ndarray,
               weights: NpmWeights, mask_pixels: np.ndarray, patch_size: int,
               d_k: int):
    """Full matching pass over a coarse completion.

    Tokenizes the coarse image, computes masked attention conditioned on the
    coarse features, mixes value patches (originals for uncorrupted patches,
    coarse content for corrupted ones), reassembles and smooths patch seams.
    Returns the refined LR image and the masked attention map for reuse at
    high resolution.
    """
    if coarse.shape != x_lr.shape:
        raise ValueError(f"coarse shape {coarse.shape} != input shape {x_lr.shape}")
    if weights.embed.shape != (3 * patch_size * patch_size, d_k):
        raise ValueError(
            f"embedding shape {weights.embed.shape} != (3P^2={3 * patch_size ** 2}, d_k={d_k})"
        )
    seq = img2col(coarse, patch_size)
    tokens = embed_and_condition(seq, features, weights.embed)
    m = tokenize_mask(mask_pixels, patch_size)
    amap = attention_scores(tokens, weights.proj)
    masked = mask_attention(amap, m)

    lr_seq = img2col(x_lr, patch_size)
    values = np.where((m == 1)[:, None], seq.patches, lr_seq.patches)
    value_seq = PatchGrid(values, seq.rows, seq.cols, patch_size, patch_size)
    mixed = token_mix(masked, value_seq)
    refined = pixel_shuffle(mixed)
    return coherence(refined, m, patch_size), masked
