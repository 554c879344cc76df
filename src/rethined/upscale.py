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
The pipeline hands compose_hr the resize plan of up(x_lr), not the image:
no full-resolution up(x_lr), Gaussian or residual image is built.  Nor are
the corrupted patches recomputed: the masked map already lists them, so the
composer does not reduce the HR mask over patches.

The composition works patch-major and only where output can change, in two
passes over the same strips of whole image rows, each cache-sized.  The cut
pass lerps a strip's rows of up(x_lr) and cuts the residual of the clean
patches, which the mix reads, straight into one patch-major buffer; one
matmul writes the mixed rows of the corrupted patches into another; the
compose pass then lerps the carrier and adds the high frequencies of the
patches that can change, composites and clips.  Each of the three steps is
split across CPUs by tensor_ops._split: the passes by strips and the matmul
by row blocks of the weights; one BLAS thread runs each row block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttentionMap
from .tensor_ops import DTYPE, _BilinearPlan, _bilinear_plan, _split, _strip_rows, gaussian_blur

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


def _runs(patches: np.ndarray, grid_rows: int, grid_cols: int) -> list:
    """Cut ascending patch indices into runs of patches that sit side by side
    in one grid row: for each grid row, a list of (first grid column, first
    position in `patches`, which is the row in a buffer of them, length).
    """
    brk = np.ones(len(patches), dtype=bool)
    brk[1:] = (np.diff(patches) != 1) | (patches[1:] % grid_cols == 0)
    starts = np.flatnonzero(brk)
    first = patches[starts]
    by_row = [[] for _ in range(grid_rows)]
    for pr, pc, i, k in zip((first // grid_cols).tolist(), (first % grid_cols).tolist(),
                            starts.tolist(), np.diff(starts, append=len(patches)).tolist()):
        by_row[pr].append((pc, i, k))
    return by_row


def compose_hr(x_hr_masked: np.ndarray, up: _BilinearPlan, x_lr_refined: np.ndarray,
               amap: AttentionMap, m_hr: np.ndarray, patch_size: int,
               composite: bool) -> np.ndarray:
    """Assemble the final HR result.

    `up` is the resize plan of up(x_lr) as downsample_to_lr returns it: the
    LR input of `x_hr_masked` bilinearly resized to the HR extent, the
    up-sampling the carrier applies to `x_lr_refined`.  The high-frequency
    residual x_hr_masked - up(x_lr) is taken in float32, mixed with the
    attention map and added to the bilinearly upsampled refined LR image;
    known pixels are then optionally overwritten with the originals and the
    result clamped to [0, 1].  So a patch that keeps its own residual comes
    out as x_hr_masked + up(x_lr_refined) - up(x_lr), up to float32 rounding.

    The inputs are the ones run_pipeline has checked at its boundary: HR
    extents are integer multiples of the LR extents, `m_hr` is a binary
    [1, H_HR, W_HR] mask and `x_lr_refined` is float32.  `amap` is the
    masked map of `m_hr`'s patch mask, as npm_refine returns it, so
    `amap.corrupt` lists, in ascending order, the patches that hold a
    corrupted pixel, so the composer does not read the mask for them.

    Each output element gets the ops of the unfused form, bilinear + mixed
    high frequencies, composite, clip, so results are bit-identical to it.
    When the HR extent is the LR one (r = 1), the image is its own LR input
    and the residual is exactly zero: `up` is not read and only the compose
    pass runs; a -0.0 carrier value then stays -0.0, where the unfused
    form's + 0.0 makes it +0.0.
    """
    _, h_hr, w_hr = x_hr_masked.shape
    _, h, w = x_lr_refined.shape
    ph, pw = patch_size * (h_hr // h), patch_size * (w_hr // w)
    grid_rows, grid_cols = amap.rows, amap.cols
    clean, corrupt = amap.clean, amap.corrupt
    # both passes walk the same strips of whole image rows, of about
    # _STRIP_BYTES per channel, so a strip's scratch stays cache-sized
    step = _strip_rows(w_hr * np.dtype(DTYPE).itemsize)
    strips = [(y0, min(y0 + step, h_hr)) for y0 in range(0, h_hr, step)]
    cap = min(step, h_hr)

    def crossed(y0, y1):
        """(grid row, patch rows, strip rows) of each row of patches that the
        strip of image rows y0:y1 crosses; the rows as slices."""
        for pr in range(y0 // ph, (y1 - 1) // ph + 1):
            a, b = max(y0 - pr * ph, 0), min(y1 - pr * ph, ph)
            yield pr, slice(a, b), slice(pr * ph + a - y0, pr * ph + b - y0)

    # (buffer as [3, patch y, buffer row, patch x], runs of its patches) of
    # the high frequencies the compose pass adds: those of every patch, or
    # with composite of the corrupted ones; all other pixels are x_hr_masked
    adds = []
    if (h_hr, w_hr) != (h, w) and (corrupt.size or not composite):
        # values holds the residual of the clean patches, the matmul's value
        # rows, as one contiguous operand, and mixed the rows of the
        # corrupted ones: a run of patches is one basic slice of either
        values = np.empty((len(clean), 3, ph, pw), dtype=DTYPE)
        values_t = values.transpose(1, 2, 0, 3)
        clean_runs = _runs(clean, grid_rows, grid_cols)
        x_grid = x_hr_masked.reshape(3, grid_rows, ph, grid_cols, pw)

        # 1. residual x - up(x_lr) of the clean patches, cut straight into
        # values: each strip that holds one lerps its rows of up(x_lr)
        def cut(part, bufs):
            for y0, y1 in part:
                bands = [band for band in crossed(y0, y1) if clean_runs[band[0]]]
                if not bands:
                    continue
                low, top = (buf[:, :y1 - y0] for buf in bufs)
                up.lerp_rows(y0, y1, low, top)
                low_grid = low.reshape(3, y1 - y0, grid_cols, pw)
                for pr, rows, strip in bands:
                    for pc, i, k in clean_runs[pr]:
                        np.subtract(x_grid[:, pr, rows, pc:pc + k], low_grid[:, strip, pc:pc + k],
                                    out=values_t[:, rows, i:i + k])

        _split(cut, strips, 3 * values.nbytes,
               lambda: (np.empty((3, cap, w_hr), dtype=DTYPE), np.empty((3, cap, w_hr), dtype=DTYPE)))
        if not composite:
            adds.append((values_t, clean_runs))

        # 2. one matmul for the mixed rows, by row blocks of the weights
        if corrupt.size:
            d = 3 * ph * pw
            mixed = np.empty((len(corrupt), 3, ph, pw), dtype=DTYPE)
            flat_values, flat_mixed = values.reshape(len(clean), d), mixed.reshape(len(corrupt), d)

            def mix(part):
                rows = slice(part.start, part.stop)
                np.matmul(amap.weights[rows], flat_values, out=flat_mixed[rows])

            _split(mix, range(len(corrupt)), values.nbytes + mixed.nbytes)
            adds.append((mixed.transpose(1, 2, 0, 3), _runs(corrupt, grid_rows, grid_cols)))
            if composite:
                # no clean patch is written, so the residual is dead once mixed
                del values, values_t, flat_values

    # 3. bilinear carrier, high frequencies of the written patches,
    # composite and clip, one strip at a time
    carrier = _bilinear_plan(x_lr_refined, h_hr, w_hr)
    out = np.empty((3, h_hr, w_hr), dtype=DTYPE)

    def compose(part, bufs):
        top, keep = bufs
        for y0, y1 in part:
            seg = out[:, y0:y1]
            carrier.lerp_rows(y0, y1, seg, top[:, :y1 - y0])
            seg_grid = seg.reshape(3, y1 - y0, grid_cols, pw)
            for pr, rows, strip in crossed(y0, y1):
                for buf_t, runs in adds:
                    for pc, i, k in runs[pr]:
                        dst = seg_grid[:, strip, pc:pc + k]
                        dst += buf_t[:, rows, i:i + k]
            if composite:
                known = keep[:y1 - y0]
                np.equal(m_hr[0, y0:y1], 0, out=known)
                np.copyto(seg, x_hr_masked[:, y0:y1], where=known)
            np.clip(seg, 0.0, 1.0, out=seg)

    _split(compose, strips, 3 * out.nbytes,
           lambda: (np.empty((3, cap, w_hr), dtype=DTYPE), np.empty((cap, w_hr), dtype=bool)))
    return out
