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
Up-sampling is linear and, at an integer factor, local to a patch's LR
window, so compose_hr mixes x itself and up-samples one LR difference per
written patch instead: no full-resolution up(x_lr), carrier, Gaussian or
residual image is built.  Nor are the corrupted patches recomputed: the
masked map already lists them, so the composer does not reduce the HR mask
over patches.

The composition works patch-major in two phases.  The preparation reads
only x, x_lr and the clean patches, so run_pipeline runs it beside the LR
core: it gathers x - m at the clean patches, which the mix reads, into one
patch-major buffer and, with composite, writes the clean runs of the output,
x clipped, one row of patches per unit (tensor_ops._shared).  The finish
needs the attention map: one matmul writes the mixed rows of the corrupted
patches, split by row blocks of the weights; the compose pass then writes
each run of written patches, split by rows of patches, as the bilinear
up-sampling of its LR difference plus its mixed rows (or x), composites and
clips it.  One BLAS thread runs each piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .attention import AttentionMap
from .tensor_ops import DTYPE, _sample_taps, _shared, _split, gaussian_blur

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


def _patch_upsampler(p: int, r: int) -> np.ndarray:
    """B along one axis, (p r) x (p + 2) in float32: the bilinear up-sampling
    by an integer r of one patch's p LR samples and the edge-padded
    neighbour on each side, which its outer rows read.  Every patch reads
    its window the same way, so B is rows r : r + p r of the up-sampling of
    p + 2 samples (tensor_ops._sample_taps), which its edge clip never
    reaches."""
    lo, hi, frac = (t[r:r + p * r] for t in _sample_taps(p + 2, (p + 2) * r))
    b = np.zeros((p * r, p + 2))
    y = np.arange(p * r)
    b[y, lo], b[y, hi] = 1.0 - frac, frac
    return b.astype(DTYPE)


class _Preparation:
    """compose_hr's passes that read only x, x_lr and the clean patches, so
    they can run before the refinement returns: the gather of x - m at the
    clean patches for the mix, if any patch is corrupted, and, once `out`
    exists, its clean runs as composite writes them, x clipped.  A unit is
    one row of patches, whose writes no other row touches."""

    def __init__(self, x_hr: np.ndarray, x_lr: np.ndarray, clean: np.ndarray, grid: tuple,
                 write_clean: bool):
        (_, h_hr, w_hr), (_, h, w) = x_hr.shape, x_lr.shape
        self.x_hr, self.clean, (self.rows, self.cols) = x_hr, clean, grid
        self.p = p = h // self.rows
        self.ph, self.pw = ph, pw = p * (h_hr // h), p * (w_hr // w)
        self.clean_runs = _runs(clean, self.rows, self.cols)
        self.out = np.empty((3, h_hr, w_hr), dtype=DTYPE) if write_clean else None
        self.values = self.m = None
        if len(clean) < self.rows * self.cols:
            # values holds x - m at the clean patches, the matmul's value
            # rows, as one contiguous operand: a run of patches is one basic
            # slice of it.  m, each clean patch's LR mean per channel, comes
            # off its window L too; B maps it to itself, so it cancels, and
            # the float32 matmul rounds at the texture's scale, not at x's
            # (on perfbench's hr1024-object inputs, 5.8e-7 from a float64
            # reference, and 1.6e-6 mixing x itself)
            m = x_lr.reshape(3, self.rows, p, self.cols, p).mean(axis=(2, 4), dtype=np.float64)
            self.m = m.astype(DTYPE).reshape(3, -1)[:, clean]
            self.values = np.empty((len(clean), 3, ph, pw), dtype=DTYPE)

    def unit(self, pr: int) -> None:
        ph, pw, rows = self.ph, self.pw, slice(pr * self.ph, (pr + 1) * self.ph)
        for pc, i, k in self.clean_runs[pr]:
            src = self.x_hr[:, rows, pc * pw:(pc + k) * pw]
            if self.values is not None:
                np.subtract(src.reshape(3, ph, k, pw), self.m[:, None, i:i + k, None],
                            out=self.values.transpose(1, 2, 0, 3)[:, :, i:i + k])
            if self.out is not None:
                np.clip(src, 0.0, 1.0, out=self.out[:, rows, pc * pw:(pc + k) * pw])

    def beside(self):
        """tensor_ops._shared over the rows of patches: done at its exit."""
        passes = (self.values is not None) + (self.out is not None)
        nbytes = 2 * passes * len(self.clean) * 3 * self.ph * self.pw * np.dtype(DTYPE).itemsize
        return _shared(self.unit, range(self.rows), nbytes)


def compose_hr(x_hr_masked: np.ndarray, x_lr: np.ndarray, x_lr_refined: np.ndarray,
               amap: AttentionMap, m_hr: np.ndarray, composite: bool,
               _prepared: _Preparation | None = None) -> np.ndarray:
    """Assemble the final HR result.

    `x_lr` is the LR input of `x_hr_masked` as downsample_to_lr returns it.
    A written patch i comes out as up(x_lr_refined)_i + sum_j w_ij (x_j -
    up(x_lr)_j), the refined LR image's bilinear up-sampling plus the mixed
    high-frequency residual, with j over the clean patches (a clean patch
    keeps itself, w = e_j).  Up-sampling is linear, and at an integer factor
    patch i's HR pixels read only its (P+2) x (P+2) window L_i of the
    edge-padded LR image, through the same B = b_h (x) b_w for every patch;
    so the composer writes sum_j w_ij x_j + B (L^_i - sum_j w_ij L_j), and
    no full-resolution up-sampling exists.  Known pixels are then optionally
    overwritten with the originals and the result clamped to [0, 1].  A
    clean patch with composite off comes out as x + B (L^ - L), so exactly
    x where the refinement leaves its window unchanged; with composite on
    it is x, clamped.

    The inputs are the ones run_pipeline has checked at its boundary: HR
    extents are integer multiples of the LR extents, `m_hr` is a binary
    [1, H_HR, W_HR] mask and `x_lr_refined` is float32.  `amap` is the
    masked map of `m_hr`'s patch mask, as npm_refine returns it, so
    `amap.corrupt` lists, in ascending order, the patches that hold a
    corrupted pixel, so the composer does not read the mask for them; its
    grid fixes the LR patch size P, x_lr_refined's height over amap.rows.
    `_prepared` is run_pipeline's _Preparation of these inputs, whose units
    are done; without it the composer prepares for itself, before the mix.

    The result is within float32 rounding of the up-sample-then-mix form
    (tests/test_upscale.py states the bound), with known pixels bit-exact.
    When the HR extent is the LR one (r = 1), the image is its own LR input
    and the residual is zero: the output is x_lr_refined, composited and
    clipped, and `x_lr` is not read.
    """
    _, h_hr, w_hr = x_hr_masked.shape
    _, h, w = x_lr_refined.shape
    if (h_hr, w_hr) == (h, w):
        out = x_lr_refined.astype(DTYPE)
        if composite:
            np.copyto(out, x_hr_masked, where=m_hr == 0)
        return np.clip(out, 0.0, 1.0, out=out)
    prep = _prepared
    if prep is None:
        prep = _Preparation(x_hr_masked, x_lr, amap.clean, (amap.rows, amap.cols), False)
        with prep.beside():
            pass
    p, ph, pw = prep.p, prep.ph, prep.pw
    q = p + 2
    b_h, b_w = _patch_upsampler(p, h_hr // h), _patch_upsampler(p, w_hr // w)
    clean, corrupt = amap.clean, amap.corrupt

    def windows(img, patches):
        """The windows L of `patches` in img, edge-padded by one pixel, as
        [len(patches), 3 q^2]."""
        padded = np.pad(img, ((0, 0), (1, 1), (1, 1)), mode="edge")
        win = sliding_window_view(padded, (q, q), axis=(1, 2))[:, ::p, ::p].transpose(1, 2, 0, 3, 4)
        return win[patches // amap.cols, patches % amap.cols].reshape(len(patches), 3 * q * q)

    def correction(lr_diff):
        """LR differences D [n, 3 q^2] through b_w, as [3, q, n pw]: the
        columns of patch i are i pw : (i + 1) pw, and b_h of patch rows
        times them is B D_i on those rows."""
        d = lr_diff.reshape(-1, 3, q, q).transpose(1, 2, 0, 3)
        return np.matmul(d, b_w.T).reshape(3, q, -1)

    # (runs of a buffer's patches, their correction, their mixed rows as
    # [3, patch y, buffer row, patch x], or None where the patch is x
    # itself); with composite the clean runs are x, clipped
    writes = [] if composite else [
        (prep.clean_runs, correction(windows(x_lr_refined, clean) - windows(x_lr, clean)), None)]
    if corrupt.size:
        # one matmul for the mixed rows, by row blocks of the weights
        d = 3 * ph * pw
        mixed = np.empty((len(corrupt), 3, ph, pw), dtype=DTYPE)
        flat_values, flat_mixed = prep.values.reshape(len(clean), d), mixed.reshape(len(corrupt), d)

        def mix(part):
            rows = slice(part.start, part.stop)
            np.matmul(amap.weights[rows], flat_values, out=flat_mixed[rows])

        _split(mix, range(len(corrupt)), prep.values.nbytes + mixed.nbytes)
        prep.values = flat_values = None  # the compose pass reads x itself
        lr_clean = windows(x_lr, clean) - prep.m.T.repeat(q * q, axis=1)
        lr_diff = windows(x_lr_refined, corrupt) - amap.weights @ lr_clean
        writes.append((_runs(corrupt, amap.rows, amap.cols), correction(lr_diff),
                       mixed.transpose(1, 2, 0, 3)))

    if prep.out is None:
        # the clean runs of a composition on its own wait for its output,
        # allocated once the gathered values are freed
        prep.out = np.empty((3, h_hr, w_hr), dtype=DTYPE)
        if composite:
            with prep.beside():
                pass
    out = prep.out

    # one row of patches at a time: (mixed or x) + B D, the composite and
    # the clip at each written run
    def compose(part):
        keep = np.empty((ph, w_hr), dtype=bool)
        for pr in part:
            rows = slice(pr * ph, (pr + 1) * ph)
            seg, xs = out[:, rows], x_hr_masked[:, rows]
            for runs, corr, mixed_t in writes:
                for pc, i, k in runs[pr]:
                    cols = slice(pc * pw, (pc + k) * pw)
                    dst, x_run = seg[:, :, cols], xs[:, :, cols]
                    np.matmul(b_h, corr[:, :, i * pw:(i + k) * pw], out=dst)
                    if mixed_t is None:
                        dst += x_run
                    else:
                        dst_grid = dst.reshape(3, ph, k, pw)
                        dst_grid += mixed_t[:, :, i:i + k]
                    if composite:
                        known = keep[:, :k * pw]
                        np.equal(m_hr[0, rows, cols], 0, out=known)
                        np.copyto(dst, x_run, where=known)
                    np.clip(dst, 0.0, 1.0, out=dst)

    _split(compose, range(amap.rows), 3 * out.nbytes)
    return out
