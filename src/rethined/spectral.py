"""1-D and 2-D FFT over power-of-two extents, and the focal frequency loss.

The transforms are numpy's FFT, always in complex128: inputs are cast first,
since np.fft keeps float32 input in complex64.  Forward is unnormalized with
the e^{-2*pi*i} sign convention; the inverse carries the 1/(H*W) factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import DTYPE


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ComplexGrid:
    """Frequency-domain grid with power-of-two extents, stored as flat
    row-major real and imaginary parts."""

    height: int
    width: int
    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        if not (_is_pow2(self.height) and _is_pow2(self.width)):
            raise ValueError(f"extents {self.height}x{self.width} must be powers of two")
        if self.re.shape != (self.height * self.width,) or self.im.shape != self.re.shape:
            raise ValueError("re/im must be flat arrays of length height*width")

    def to_complex(self) -> np.ndarray:
        return (self.re + 1j * self.im).reshape(self.height, self.width)


def fft1d(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """FFT of a complex (or real) 1-D array of power-of-two length."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("fft1d expects a 1-d array")
    if not _is_pow2(x.shape[0]):
        raise ValueError(f"length {x.shape[0]} is not a power of two")
    x = x.astype(np.complex128)
    return np.fft.ifft(x) if inverse else np.fft.fft(x)


def fft2d(x: np.ndarray) -> ComplexGrid:
    """Unnormalized forward 2-D DFT of a [1, H, W] tensor (H, W powers of two)."""
    if x.ndim != 3 or x.shape[0] != 1:
        raise ValueError(f"expected [1, H, W] input, got shape {x.shape}")
    _, h, w = x.shape
    if not (_is_pow2(h) and _is_pow2(w)):
        raise ValueError(f"extents {h}x{w} must be powers of two")
    flat = np.fft.fft2(x[0].astype(np.complex128)).reshape(-1)
    return ComplexGrid(h, w, np.ascontiguousarray(flat.real), np.ascontiguousarray(flat.imag))


def ifft2d(grid: ComplexGrid) -> np.ndarray:
    """Inverse 2-D DFT with 1/(H*W) scaling; returns the real part as [1, H, W]."""
    return np.fft.ifft2(grid.to_complex()).real[None].astype(DTYPE)


def focal_frequency_loss(pred: np.ndarray, target: np.ndarray, alpha: float = 1.0) -> float:
    """Spectral-weighted frequency loss between two [C, H, W] tensors.

    Per channel: d = |F_pred - F_target|, weights w = d^alpha normalized to a
    max of 1 (all-zero when the spectra agree), loss = mean(w * d^2) averaged
    over channels.  Extents must be powers of two; use
    focal_frequency_loss_padded for arbitrary sizes.
    """
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    if pred.ndim != 3:
        raise ValueError(f"expected [C, H, W] tensors, got shape {pred.shape}")
    _, h, w = pred.shape
    if not (_is_pow2(h) and _is_pow2(w)):
        raise ValueError(f"extents {h}x{w} must be powers of two")
    total = 0.0
    for c in range(pred.shape[0]):
        d = np.abs(np.fft.fft2(pred[c].astype(np.complex128))
                   - np.fft.fft2(target[c].astype(np.complex128)))
        mx = d.max()
        if mx == 0.0:
            continue
        wgt = (d ** alpha) / (mx ** alpha)
        total += float((wgt * d * d).mean())
    return total / pred.shape[0]


def pad_to_pow2(x: np.ndarray) -> np.ndarray:
    """Center-pad a [C, H, W] tensor with zeros to the next power-of-two extents."""
    _, h, w = x.shape
    h2 = 1 << (h - 1).bit_length()
    w2 = 1 << (w - 1).bit_length()
    if h2 == h and w2 == w:
        return x
    top = (h2 - h) // 2
    left = (w2 - w) // 2
    return np.pad(x, ((0, 0), (top, h2 - h - top), (left, w2 - w - left)))


def focal_frequency_loss_padded(pred: np.ndarray, target: np.ndarray, alpha: float = 1.0):
    """Focal frequency loss after center zero-padding to power-of-two extents.

    Returns (loss, padded_shape); padded_shape is None when no padding was
    needed.
    """
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    p2 = pad_to_pow2(pred)
    t2 = pad_to_pow2(target)
    padded = p2.shape[1:] if p2.shape != pred.shape else None
    return focal_frequency_loss(p2, t2, alpha), padded
