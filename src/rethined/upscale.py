"""Attention upscaling transfer: high-frequency token mixing with the
LR-learned attention map and the final HR composition, plus the Gaussian
frequency decomposition of an HR image (frequency_split).

Only the high-frequency residual is mixed at high resolution; the
low-frequency carrier comes from bilinearly upsampling the refined LR result.
The attention map itself is never recomputed, so the quadratic attention cost
stays at LR regardless of output resolution.  The residual is taken against
the same up-sampler the carrier uses, as in Contextual Residual Aggregation
(Yi et al., CVPR 2020): it is x - up(x_lr), where x_lr is the LR input, so a
clean patch whose LR pixels the refinement leaves unchanged comes out as x.
The pipeline computes up(x_lr) once, with the LR input, and hands it to
_compose_hr as `low`.  No full-resolution Gaussian runs.  Nor are the
corrupted patches recomputed: the masked map already lists them, so the
composer does not reduce the HR mask over patches.

The composition works patch-major and only where output can change: it cuts
the residual of the patches the mix reads straight into one patch-major
buffer, runs one matmul for the mixed rows into the same buffer, and then
makes one pass over the output, a cache-sized strip at a time (bilinear,
high frequencies of the patches that can change, composite, clip).  No
full-resolution residual, patch grid or high-frequency image is built.
Each of the three steps is split across CPUs by tensor_ops._split: the cut
by clean patches, the matmul by row blocks of the weights and the pass by
strips; one BLAS thread runs each row block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttentionMap
from .tensor_ops import DTYPE, _STRIP_BYTES, _bilinear_plan, _split, gaussian_blur

SIGMA_SCALE = 0.8   # scale-space anti-aliasing rule sigma = 0.8*sqrt(r^2 - 1)
SIGMA_FLOOR = 1e-3


def sigma_for_factor(r: float) -> float:
    """Anti-aliasing standard deviation for a downsampling factor r >= 1."""
    if r < 1:
        raise ValueError(f"downsample factor must be >= 1, got {r}")
    return max(SIGMA_SCALE * math.sqrt(r * r - 1.0), SIGMA_FLOOR)


@dataclass(frozen=True)
class FrequencySplit:
    """Low-pass / high-frequency decomposition with low + high == x bit-exact.

    Stored in float64: the subtraction x - low is then exact for image-range
    data, which float32 storage cannot guarantee.
    """

    low: np.ndarray
    high: np.ndarray
    sigma: float


def frequency_split(x_hr: np.ndarray, r: float) -> FrequencySplit:
    """Split an HR image into Gaussian low-pass and residual high frequencies."""
    if x_hr.ndim != 3:
        raise ValueError(f"expected [C, H, W] input, got shape {x_hr.shape}")
    sigma = sigma_for_factor(r)
    low = gaussian_blur(x_hr, sigma).astype(np.float64)
    high = x_hr.astype(np.float64) - low
    return FrequencySplit(low, high, sigma)


def _runs(patches: np.ndarray, rows: np.ndarray, grid_rows: int, grid_cols: int) -> list:
    """Cut patch indices with their buffer rows into runs of patches that sit
    side by side in one grid row and in the buffer.

    Returns, for each grid row, a list of (first grid column, first buffer
    row, length) tuples.
    """
    brk = np.ones(len(patches), dtype=bool)
    brk[1:] = (np.diff(patches) != 1) | (patches[1:] % grid_cols == 0) | (np.diff(rows) != 1)
    starts = np.flatnonzero(brk)
    first = patches[starts]
    by_row = [[] for _ in range(grid_rows)]
    for pr, pc, r0, k in zip((first // grid_cols).tolist(), (first % grid_cols).tolist(),
                             rows[starts].tolist(), np.diff(starts, append=len(patches)).tolist()):
        by_row[pr].append((pc, r0, k))
    return by_row


def _compose_hr(x_hr_masked: np.ndarray, low: np.ndarray, x_lr_refined: np.ndarray,
                amap: AttentionMap, m_hr: np.ndarray, patch_size: int,
                composite: bool, out: np.ndarray | None = None) -> np.ndarray:
    """Assemble the final HR result.

    `low` is up(x_lr) as downsample_to_lr returns it: the LR input of
    `x_hr_masked` bilinearly resized to the HR extent, the up-sampling the
    carrier applies to `x_lr_refined`.  The high-frequency residual
    x_hr_masked - low is taken in float32, mixed with the attention map and
    added to the bilinearly upsampled refined LR image; known pixels are
    then optionally overwritten with the originals and the result clamped
    to [0, 1].  So a patch that keeps its own residual comes out as
    x_hr_masked + up(x_lr_refined) - up(x_lr), up to float32 rounding.

    The inputs are the ones run_pipeline has checked at its boundary: HR
    extents are integer multiples of the LR extents, `m_hr` is a binary
    [1, H_HR, W_HR] mask and `x_lr_refined` is float32.  `amap` is the
    masked map of `m_hr`'s patch mask, as npm_refine returns it, so
    `amap.corrupt` lists, in ascending order, the patches that hold a
    corrupted pixel; the composer takes the patches it writes from it and
    does not read the mask again for them.  The result goes to `out` if
    given, a C-contiguous float32 array of the image's shape; it may be
    `low`, which is read only before `out` is written.

    Each output element gets the ops of the unfused form, bilinear + mixed
    high frequencies, composite, clip, so results are bit-identical to it.
    When `low` is `x_hr_masked` itself, as downsample_to_lr returns it at
    r = 1, the residual is exactly zero and only the strip pass runs; a
    -0.0 carrier value then stays -0.0, where the unfused form's + 0.0
    makes it +0.0.
    """
    _, h_hr, w_hr = x_hr_masked.shape
    _, h, w = x_lr_refined.shape
    ph, pw = patch_size * (h_hr // h), patch_size * (w_hr // w)
    n, grid_rows, grid_cols = amap.count, amap.rows, amap.cols

    # [3, grid row, patch y, grid col, patch x] views make a run of patches
    # one basic slice of an image
    def grid(img):
        return img.reshape(3, grid_rows, ph, grid_cols, pw)

    # Patches whose output can change: every one, or with composite only the
    # corrupted ones; all other pixels become x_hr_masked.
    written = amap.corrupt if composite else np.arange(n)
    if low is x_hr_masked or not written.size:
        # downsample_to_lr hands the image back as its own low-pass at r = 1,
        # so the residual is exactly zero, or no patch reads it: nothing is
        # cut, mixed or added
        adds = [[] for _ in range(grid_rows)]
    else:
        clean, corrupt = amap.clean, amap.corrupt
        # hf holds the residual of the clean patches, the matmul's value rows,
        # as one contiguous operand, then the mixed rows of the corrupted ones.
        hf = np.empty((n, 3, ph, pw), dtype=DTYPE)
        # the hf row that holds a written patch's high frequencies: a clean
        # patch's own residual, or a corrupted patch's mixed row
        hf_row = np.empty(n, dtype=np.intp)
        hf_row[clean] = np.arange(len(clean))
        hf_row[corrupt] = len(clean) + np.arange(len(corrupt))
        adds = _runs(written, hf_row[written], grid_rows, grid_cols)
        # [3, patch y, buffer row, patch x]: a run of patches is one basic
        # slice of hf
        hf_t = hf.transpose(1, 2, 0, 3)
        x_grid, low_grid = grid(x_hr_masked), grid(low)

        # 1. residual x - low of the clean patches, cut straight into hf, in
        # image order (3x faster than in patch order at 2048), by slices of
        # the clean patches
        def cut(part):
            for pr, runs in enumerate(_runs(clean[part], np.asarray(part), grid_rows, grid_cols)):
                for pc, r0, k in runs:
                    np.subtract(x_grid[:, pr, :, pc:pc + k], low_grid[:, pr, :, pc:pc + k],
                                out=hf_t[:, :, r0:r0 + k])

        _split(cut, range(len(clean)), 3 * hf[:len(clean)].nbytes)

        # 2. one matmul for the mixed rows, into hf, by row blocks of the
        # weights
        if corrupt.size:
            k, d = len(clean), 3 * ph * pw
            values, mixed = hf[:k].reshape(k, d), hf[k:].reshape(len(corrupt), d)

            def mix(part):
                rows = slice(part.start, part.stop)
                np.matmul(amap.weights[rows], values, out=mixed[rows])

            _split(mix, range(len(corrupt)), values.nbytes + mixed.nbytes)

    # 3. bilinear carrier, high frequencies of the written patches,
    # composite and clip, one strip at a time: a run of whole patch rows of
    # about _STRIP_BYTES per channel, or part of one patch row when patches
    # are large, so the strip's scratch stays cache-sized
    row_bytes = w_hr * np.dtype(DTYPE).itemsize
    per = _STRIP_BYTES // (ph * row_bytes)
    if per:
        strips = [(p, min(p + per, grid_rows), 0, ph) for p in range(0, grid_rows, per)]
    else:
        parts = -(-ph * row_bytes // _STRIP_BYTES)
        strips = [(p, p + 1, ph * j // parts, ph * (j + 1) // parts)
                  for p in range(grid_rows) for j in range(parts)]
    carrier = _bilinear_plan(x_lr_refined, h_hr, w_hr)
    if out is None:
        out = np.empty((3, h_hr, w_hr), dtype=DTYPE)
    out_grid = grid(out)
    cap = max((p1 - p0 - 1) * ph + b - a for p0, p1, a, b in strips)

    def compose(part, bufs):
        top, keep = bufs
        for p0, p1, a, b in part:
            y0, y1 = p0 * ph + a, (p1 - 1) * ph + b
            seg = out[:, y0:y1]
            carrier.lerp_rows(y0, y1, seg, top[:, :y1 - y0])
            for pr in range(p0, p1):
                for pc, r0, k in adds[pr]:
                    dst = out_grid[:, pr, a:b, pc:pc + k]
                    dst += hf_t[:, a:b, r0:r0 + k]
            if composite:
                known = keep[:y1 - y0]
                np.equal(m_hr[0, y0:y1], 0, out=known)
                np.copyto(seg, x_hr_masked[:, y0:y1], where=known)
            np.clip(seg, 0.0, 1.0, out=seg)

    _split(compose, strips, 3 * out.nbytes,
           lambda: (np.empty((3, cap, w_hr), dtype=DTYPE), np.empty((cap, w_hr), dtype=bool)))
    return out
