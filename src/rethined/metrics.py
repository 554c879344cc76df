"""Quantitative image metrics: mean absolute error, single-scale SSIM with an
11x11 Gaussian window (sigma 1.5, C1 = 0.01^2, C2 = 0.03^2 on unit range) and
PSNR."""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor_ops import gaussian_kernel_1d

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


def l1(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute difference."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).mean())


def _ssim_taps() -> np.ndarray:
    """The window's 1-D taps: radius ceil(3 * SSIM_SIGMA) gives SSIM_WINDOW."""
    return gaussian_kernel_1d(SSIM_SIGMA)


def _ssim_window() -> np.ndarray:
    """The 11x11 Gaussian window, outer(g, g) of the normalised taps."""
    g = _ssim_taps()
    return np.outer(g, g)


def _filter_valid(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Valid-mode correlation of a 2-D float64 image with the window
    outer(taps, taps), as two 1-D passes (W, then H): 2k multiply-adds per
    pixel instead of k^2.  Within a few float64 ulp of the dense window."""
    k = len(taps)
    rows = np.einsum("hwk,k->hw", sliding_window_view(img, k, axis=1), taps)
    return np.einsum("hwk,k->hw", sliding_window_view(rows, k, axis=0), taps)


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Single-scale SSIM averaged over channels and valid window positions."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.ndim != 3:
        raise ValueError(f"expected [C, H, W] tensors, got shape {a.shape}")
    _, h, w = a.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValueError(f"image {h}x{w} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    taps = _ssim_taps()
    total = 0.0
    for c in range(a.shape[0]):
        x = a[c].astype(np.float64)
        y = b[c].astype(np.float64)
        mu_x = _filter_valid(x, taps)
        mu_y = _filter_valid(y, taps)
        var_x = _filter_valid(x * x, taps) - mu_x * mu_x
        var_y = _filter_valid(y * y, taps) - mu_y * mu_y
        cov = _filter_valid(x * y, taps) - mu_x * mu_y
        num = (2 * mu_x * mu_y + SSIM_C1) * (2 * cov + SSIM_C2)
        den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (var_x + var_y + SSIM_C2)
        total += float((num / den).mean())
    return total / a.shape[0]


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio on unit range; inf for identical inputs."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float((diff * diff).mean())
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)
