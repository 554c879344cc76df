"""Attention upscaling transfer: Gaussian frequency decomposition of the HR
image, high-frequency token mixing with the LR-learned attention map, and the
final HR composition.

Only the high-frequency residual is mixed at high resolution; the
low-frequency carrier comes from bilinearly upsampling the refined LR result.
The attention map itself is never recomputed, so the quadratic attention cost
stays at LR regardless of output resolution.  The HR low-pass is not
recomputed either: the pipeline blurs the HR image once, decimates that
low-pass to get the LR input, and hands it to compose_hr for the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttentionMap, token_mix
from .patches import hr_patches, pixel_shuffle
from .tensor_ops import bilinear_resize, gaussian_blur

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


def compose_hr(x_hr_masked: np.ndarray, low: np.ndarray, x_lr_refined: np.ndarray,
               amap: AttentionMap, m_hr: np.ndarray, patch_size: int,
               composite: bool = True) -> np.ndarray:
    """Assemble the final HR result.

    `low` is the Gaussian low-pass of `x_hr_masked` at sigma_for_factor of
    each axis's HR/LR ratio, the one downsample_to_lr computes.  The
    high-frequency residual x_hr_masked - low is taken in float32, mixed
    with the attention map and added to the bilinearly upsampled refined LR
    image; known pixels are then optionally overwritten with the originals
    and the result clamped to [0, 1].  HR extents must be integer multiples
    of the LR extents.
    """
    if x_hr_masked.ndim != 3 or x_hr_masked.shape[0] != 3:
        raise ValueError(f"expected [3, H_HR, W_HR] image, got shape {x_hr_masked.shape}")
    if low.shape != x_hr_masked.shape:
        raise ValueError(f"low-pass shape {low.shape} does not match image {x_hr_masked.shape}")
    if x_lr_refined.ndim != 3 or x_lr_refined.shape[0] != 3:
        raise ValueError(f"expected [3, H, W] LR image, got shape {x_lr_refined.shape}")
    _, h_hr, w_hr = x_hr_masked.shape
    _, h, w = x_lr_refined.shape
    if h_hr % h or w_hr % w:
        raise ValueError(
            f"HR extents {h_hr}x{w_hr} must be integer multiples of LR extents {h}x{w}"
        )
    if m_hr.shape != (1, h_hr, w_hr):
        raise ValueError(f"mask shape {m_hr.shape} does not match image {x_hr_masked.shape}")
    if not np.isin(m_hr, (0, 1)).all():
        raise ValueError("mask values must be binary {0, 1}")
    if (amap.rows, amap.cols) != (h // patch_size, w // patch_size):
        raise ValueError("attention grid does not match the LR patch grid")
    return _compose_hr(x_hr_masked, low, x_lr_refined, amap, m_hr, patch_size, composite)


def _compose_hr(x_hr_masked: np.ndarray, low: np.ndarray, x_lr_refined: np.ndarray,
                amap: AttentionMap, m_hr: np.ndarray, patch_size: int,
                composite: bool) -> np.ndarray:
    """compose_hr on inputs already validated, as run_pipeline's are: the
    full-resolution mask check runs once per request, at the boundary."""
    _, h_hr, w_hr = x_hr_masked.shape
    _, h, w = x_lr_refined.shape
    r_h, r_w = h_hr // h, w_hr // w
    grid = hr_patches(x_hr_masked - low, patch_size * r_h, patch_size * r_w)
    hf_img = pixel_shuffle(token_mix(amap, grid))
    out = bilinear_resize(x_lr_refined, h_hr, w_hr)
    out += hf_img
    if composite:
        np.copyto(out, x_hr_masked, where=m_hr == 0)
    np.clip(out, 0.0, 1.0, out=out)
    return out
