"""2-D DFT and the focal frequency loss, at any extent.

The transforms are numpy's FFT, always in complex128: inputs are cast first,
since np.fft keeps float32 input in complex64.  Forward is unnormalized with
the e^{-2*pi*i} sign convention.  The loss is taken on each image's own DFT,
unpadded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ComplexGrid:
    """Frequency-domain grid of height x width, stored as flat row-major
    real and imaginary parts."""

    height: int
    width: int
    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        if self.re.shape != (self.height * self.width,) or self.im.shape != self.re.shape:
            raise ValueError("re/im must be flat arrays of length height*width")

    def to_complex(self) -> np.ndarray:
        return (self.re + 1j * self.im).reshape(self.height, self.width)


def fft2d(x: np.ndarray) -> ComplexGrid:
    """Unnormalized forward 2-D DFT of a [1, H, W] tensor."""
    if x.ndim != 3 or x.shape[0] != 1:
        raise ValueError(f"expected [1, H, W] input, got shape {x.shape}")
    _, h, w = x.shape
    flat = np.fft.fft2(x[0].astype(np.complex128)).reshape(-1)
    return ComplexGrid(h, w, np.ascontiguousarray(flat.real), np.ascontiguousarray(flat.imag))


def focal_frequency_loss(pred: np.ndarray, target: np.ndarray, alpha: float = 1.0) -> float:
    """Spectral-weighted frequency loss between two [C, H, W] tensors.

    Per channel: d = |F_pred - F_target|, weights w = d^alpha normalized to a
    max of 1 (all-zero when the spectra agree), loss = mean(w * d^2) averaged
    over channels.
    """
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    if pred.ndim != 3:
        raise ValueError(f"expected [C, H, W] tensors, got shape {pred.shape}")
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
