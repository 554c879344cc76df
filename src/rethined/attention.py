"""Masked patch self-attention: Q/K projection, the masked attention map,
token mixing and the patch-boundary coherence filter.

Masking has a fixed form: clean patches keep themselves, and each corrupted
patch draws from the clean patches only, with weights that sum to 1 so
output brightness does not depend on mask density.  The masked map is built
in that form.  attention_scores computes only the projections Q and K;
mask_attention computes softmax(Q[corrupt] K[clean]^T / sqrt(d_k)) over the
clean columns, and token_mix copies the clean patches and runs one matmul
for the corrupted ones.  No N x N matrix is formed on the request path, and
no corrupted row can lose all its weight: a max-subtracted softmax always
holds an exp(0) term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .patches import PatchGrid, TokenMatrix, img2col, pixel_shuffle, tokenize_mask, embed_and_condition
from .tensor_ops import (DTYPE, _one_blas_thread, _reflect_indices, _scratch, require_binary,
                         softmax_rows)


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
    projections.  The embedding's rows are the 3P^2 pixels of a patch, which
    fixes the patch size P."""

    embed: np.ndarray
    proj: ProjectionWeights

    def __post_init__(self):
        rows = self.embed.shape[0] if self.embed.ndim == 2 else 0
        if not rows or rows != 3 * self.patch_size ** 2:
            raise ValueError(f"embedding has {rows} rows, not 3P^2 for an integer patch size P")

    @property
    def patch_size(self) -> int:
        return math.isqrt(self.embed.shape[0] // 3)


@dataclass(frozen=True)
class AttentionMap:
    """Patch affinities of a rows x cols grid of N patches.

    Unmasked, the map is a row-stochastic N x N matrix: `dense`, as a caller
    builds it, or softmax(q k^T / sqrt(d_k)) of the projections `q` and `k`
    that attention_scores computes.  Masked, it holds what masking defines:
    the `clean` patches keep themselves, and the `corrupt` ones draw from the
    clean ones with the float32 `weights` [len(corrupt), len(clean)], whose
    rows sum to 1.
    """

    dense: np.ndarray | None
    masked: bool
    rows: int
    cols: int
    q: np.ndarray | None = None
    k: np.ndarray | None = None
    corrupt: np.ndarray | None = None
    clean: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        n = self.count
        if self.masked and (self.dense is not None or self.weights is None):
            raise ValueError("a masked map holds corrupt, clean and weights; "
                             "mask_attention builds one")
        if self.masked and (
                self.weights.shape != (len(self.corrupt), len(self.clean))
                or not np.array_equal(np.sort(np.r_[self.corrupt, self.clean]), np.arange(n))):
            raise ValueError(f"corrupt and clean patches must partition the N={n} grid, "
                             "with weights of shape [corrupt, clean]")
        if self.dense is not None and self.dense.shape != (n, n):
            raise ValueError(f"attention map shape {self.dense.shape} does not match grid N={n}")

    @property
    def count(self) -> int:
        return self.rows * self.cols

    @cached_property
    def a(self) -> np.ndarray:
        """The dense N x N matrix, built on first read, for tests and oracles;
        the request path never reads it."""
        if self.dense is not None:
            return self.dense
        if not self.masked:
            return softmax_rows((self.q @ self.k.T) / np.float32(math.sqrt(self.q.shape[1])))
        a = np.zeros((self.count, self.count), dtype=DTYPE)
        a[self.clean, self.clean] = 1.0
        a[np.ix_(self.corrupt, self.clean)] = self.weights
        return a


def attention_scores(tokens: TokenMatrix, weights: ProjectionWeights) -> AttentionMap:
    """Scaled dot-product affinities A = softmax(Q K^T / sqrt(d_k)), held as
    the projections Q and K: mask_attention computes the entries it keeps.
    The projections run holding OpenBLAS at one thread."""
    if weights.m_q.shape[0] != tokens.x.shape[1]:
        raise ValueError(
            f"projection takes {weights.m_q.shape[0]}-wide tokens, got {tokens.x.shape[1]}"
        )
    with _one_blas_thread():
        q = tokens.x @ weights.m_q
        k = tokens.x @ weights.m_k
    return AttentionMap(None, False, tokens.rows, tokens.cols, q=q, k=k)


def mask_attention(amap: AttentionMap, mask_vec: np.ndarray) -> AttentionMap:
    """Apply the self-attention mask M_D: clean patches keep themselves, and
    each corrupted patch draws from the clean patches only.

    A map from attention_scores gets the max-subtracted float32 softmax of
    Q[corrupt] K[clean]^T / sqrt(d_k), over the clean columns only, its
    product run holding OpenBLAS at one thread.  A caller's dense map gets
    the clean columns of its corrupted rows, renormalised to sum 1; such a
    row with no weight on any clean column raises ValueError.
    """
    if amap.masked:
        raise ValueError("attention map is already masked")
    m = np.asarray(mask_vec).reshape(-1)
    if m.shape[0] != amap.count:
        raise ValueError(f"mask length {m.shape[0]} != N={amap.count}")
    require_binary(m, "patch mask")
    corrupt, clean = np.flatnonzero(m), np.flatnonzero(m == 0)
    if not clean.size:
        raise AllPatchesCorruptedError("every patch is corrupted; nothing to attend to")

    if amap.dense is None:
        with _one_blas_thread():
            w = amap.q[corrupt] @ amap.k[clean].T
        w /= np.float32(math.sqrt(amap.q.shape[1]))
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
    else:
        w = amap.dense[np.ix_(corrupt, clean)].astype(DTYPE)
        if not (w.sum(axis=1) > 0).all():
            raise ValueError("a corrupted row of the attention map has no weight "
                             "on any clean patch")
    w /= w.sum(axis=1, keepdims=True)
    return AttentionMap(None, True, amap.rows, amap.cols,
                        corrupt=corrupt, clean=clean, weights=w)


def token_mix(amap: AttentionMap, values: PatchGrid) -> PatchGrid:
    """Mix value patches with a masked attention map: clean patches are
    copied, and each corrupted one becomes the weighted sum of the clean
    ones, in one matmul `weights @ values[clean]`.  Corrupted value patches
    are never read.

    The patches may be of any extent on the map's grid.  The refinement
    mixes its LR values here; the HR composer runs the same matmul itself.
    """
    if not amap.masked:
        raise ValueError("token mixing requires a masked attention map")
    if amap.count != values.count or (amap.rows, amap.cols) != (values.rows, values.cols):
        raise ValueError("attention grid does not match the value patch grid")
    v = values.patches
    src = v[amap.clean]
    mixed = np.empty_like(v)
    mixed[amap.clean] = src
    mixed[amap.corrupt] = amap.weights.astype(v.dtype, copy=False) @ src
    return PatchGrid(mixed, values.rows, values.cols, values.patch_h, values.patch_w)


# 3-tap Gaussian, sigma = 0.8, of the coherence layer
_COHERENCE_TAPS = np.exp(-np.array([1.0, 0.0, 1.0]) / (2.0 * 0.8 * 0.8))
_COHERENCE_TAPS = (_COHERENCE_TAPS / _COHERENCE_TAPS.sum()).astype(DTYPE)


def _boundary_band(mask_vec: np.ndarray, rows: int, cols: int, patch_size: int) -> np.ndarray:
    """Pixels within 2 px of an interior grid edge that borders a corrupted patch."""
    corr = mask_vec.reshape(rows, cols) == 1
    p = patch_size
    # per patch: does each of its four edges border a corrupted patch?
    top = np.zeros_like(corr)
    top[1:] = corr[1:] | corr[:-1]
    bot = np.zeros_like(corr)
    bot[:-1] = corr[:-1] | corr[1:]
    left = np.zeros_like(corr)
    left[:, 1:] = corr[:, 1:] | corr[:, :-1]
    right = np.zeros_like(corr)
    right[:, :-1] = corr[:, :-1] | corr[:, 1:]

    lo, hi = np.arange(p) < 2, np.arange(p) >= p - 2
    # band[r, y, c, x] is pixel (y, x) of patch (r, c)
    band = ((top[:, None, :, None] & lo[:, None, None])
            | (bot[:, None, :, None] & hi[:, None, None])
            | (left[:, None, :, None] & lo)
            | (right[:, None, :, None] & hi))
    return band.reshape(rows * p, cols * p)


def coherence(image: np.ndarray, mask_vec: np.ndarray, patch_size: int) -> np.ndarray:
    """Smooth 2-px bands around corrupted-patch boundaries with a 3x3
    Gaussian (sigma 0.8); all other pixels pass through bit-unchanged.  It
    filters the whole image at once, in the coarse CNN's workspace roles,
    whose lifetimes end when coarse_forward returns: "dw.phases", "cnn.x"
    and "dw.acc".

    Both 1-D passes run on each channel of the reflect-padded image as one
    flat run, as _depthwise3x3's taps do: a pixel's W neighbours are the
    elements beside it and its H neighbours one padded row away, so every
    step is a contiguous 1-D loop.  The values computed at padding
    positions are dropped.
    """
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
    band = _boundary_band(m, rows, cols, patch_size)
    if not band.any():
        return out
    # separable, W then H, in residual form x + k1 * ((x_+1 + x_-1) - 2x),
    # so constant data pass through exactly, on the image reflect-padded by 1
    k1 = _COHERENCE_TAPS[2]
    dtype = np.result_type(image, k1)
    pad = _scratch("dw.phases", (3, h + 2, w + 2), dtype)
    pad[:, 1:-1, 1:-1] = image
    top, bottom = 1 + _reflect_indices(h, 1)[[0, -1]]
    pad[:, 0], pad[:, -1] = pad[:, top], pad[:, bottom]
    left, right = 1 + _reflect_indices(w, 1)[[0, -1]]
    pad[:, :, 0], pad[:, :, -1] = pad[:, :, left], pad[:, :, right]
    # per channel plane, whose arrays then share a core's L2: the W pass
    # into `low`, low[i] the filtered padded pixel i + 1, then the H pass
    # into `sm`, sm[k] the filtered pixel k + s + 1 of the plane, so pixel
    # (y, x) is sm[y * s + x], the last (h - 1, w - 1) at k = n - 1; `d`
    # takes the plane's pad, which is free by then
    size, s = (h + 2) * (w + 2), w + 2
    n = size - 2 * s - 2
    low = _scratch("cnn.x", (size - 2,), dtype)
    two = _scratch("dw.acc", (3, size), dtype)
    for flat, plane in zip(pad.reshape(3, size), two):
        x, mid, sm, d = flat[1:-1], low[s:s + n], plane[:n], flat[:n]
        np.add(flat[2:], flat[:-2], out=low)
        np.add(x, x, out=plane[:-2])
        low -= plane[:-2]
        np.multiply(k1, low, out=low)
        np.add(x, low, out=low)
        np.add(low[2 * s:], low[:n], out=sm)
        np.add(mid, mid, out=d)
        sm -= d
        np.multiply(k1, sm, out=sm)
        np.add(mid, sm, out=sm)
    np.copyto(out, two.reshape(3, h + 2, s)[:, :h, :w], where=band)
    return out


def npm_refine(coarse: np.ndarray, x_lr: np.ndarray, features: np.ndarray,
               weights: NpmWeights, mask_pixels: np.ndarray):
    """Full matching pass over a coarse completion.

    Tokenizes the coarse image, computes masked attention conditioned on the
    coarse features, mixes the patches of the LR input (clean ones are kept,
    corrupted ones become convex combinations of clean ones), reassembles
    and smooths patch seams, in patches of the embedding's size P.
    Returns the refined LR image and the masked attention map for reuse at
    high resolution.
    """
    if coarse.shape != x_lr.shape:
        raise ValueError(f"coarse shape {coarse.shape} != input shape {x_lr.shape}")
    p = weights.patch_size
    # nested calls, so each LR-sized intermediate is freed once it is read
    tokens = embed_and_condition(img2col(coarse, p), features, weights.embed)
    m = tokenize_mask(mask_pixels, p)
    masked = mask_attention(attention_scores(tokens, weights.proj), m)
    del tokens
    refined = pixel_shuffle(token_mix(masked, img2col(x_lr, p)))
    return coherence(refined, m, p), masked
