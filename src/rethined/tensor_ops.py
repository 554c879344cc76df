"""Dense tensor kernels: grouped 2-D convolution, batch normalization,
activations, row softmax, bilinear resize and Gaussian filtering.

Tensors are numpy float32 arrays laid out [C, H, W] (convolution weights are
[C_out, C_in/groups, S, S]).  Every function here is pure: inputs are never
mutated and results are deterministic for fixed inputs.  Reductions may use
wider accumulators internally.

The full-resolution strip loops (both blur passes, both lerps of the
bilinear resize, PPM quantisation, the passes of the HR composition) run on
every CPU of the process affinity through one strip executor, `_run_strips`.
Each output element gets the same ops in the same order whatever the thread
count, so results are bit-identical to a serial run.  The bilinear resize
and the HR composition share one resize plan, `_bilinear_plan`.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DTYPE = np.float32

# Bytes per array of one strip of a full-resolution pass.  The few arrays of
# a strip (input, halo, accumulator, temporaries) then share a core's L2.
_STRIP_BYTES = 256 * 1024


def _strip_rows(row_bytes: int) -> int:
    return max(1, _STRIP_BYTES // row_bytes)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _strip_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_cpu_count(), thread_name_prefix="rethined-strips")
        return _pool


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads, so
    # work submitted to it would never run; the child makes its own pool.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_strips(n_strips: int, strip: Callable[..., None],
                scratch: Callable[[], tuple]) -> None:
    """Call strip(s, *buffers) for s in range(n_strips), split into one
    contiguous chunk of strips per CPU; the first chunk runs on the calling
    thread, the others on the shared pool.

    `scratch()` runs here, once per chunk, so a strip's arrays come from
    the calling thread, not from pool threads (glibc gives each thread its
    own malloc arena, which would raise peak RSS).  Strips must write
    disjoint outputs and never call _run_strips themselves, so concurrent
    callers cannot deadlock the pool.
    """
    k = max(1, min(n_strips, _cpu_count()))
    bounds = [n_strips * i // k for i in range(k + 1)]
    chunks = [(range(bounds[i], bounds[i + 1]), scratch()) for i in range(k)]

    def run(chunk, buffers):
        for s in chunk:
            strip(s, *buffers)

    futures = [_strip_pool().submit(run, *c) for c in chunks[1:]]
    try:
        run(*chunks[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


@dataclass(frozen=True)
class ConvSpec:
    """Weights and geometry of one grouped 2-D convolution.

    Kernels must be square and odd-sized, except patching convolutions where
    the kernel equals the stride (S == stride).
    """

    weights: np.ndarray
    bias: Optional[np.ndarray] = None
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self):
        w = self.weights
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ValueError(f"conv weights must be [C_out, C_in/g, S, S], got {w.shape}")
        c_out, _, s, _ = w.shape
        if self.stride < 1 or self.padding < 0 or self.groups < 1:
            raise ValueError("stride must be >= 1, padding >= 0, groups >= 1")
        if c_out % self.groups:
            raise ValueError(f"C_out={c_out} not divisible by groups={self.groups}")
        if s % 2 == 0 and self.stride != s:
            raise ValueError("even kernel size is only valid for patching convs (stride == S)")
        if self.bias is not None and self.bias.shape != (c_out,):
            raise ValueError(f"bias shape {self.bias.shape} does not match C_out={c_out}")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1] * self.groups

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]


@dataclass(frozen=True)
class BatchNormParams:
    """Inference-time batch normalization: running mean, running std (eps
    already folded in), scale and bias, all per channel."""

    mu: np.ndarray
    sigma: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        shapes = {self.mu.shape, self.sigma.shape, self.gamma.shape, self.beta.shape}
        if len(shapes) != 1 or self.mu.ndim != 1:
            raise ValueError("batchnorm parameters must share a single [C] shape")
        if not np.all(self.sigma > 0):
            raise ValueError("batchnorm sigma must be strictly positive")

    @property
    def channels(self) -> int:
        return self.mu.shape[0]


def conv2d(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Grouped cross-correlation (no kernel flip) with zero padding.

    Output spatial extent (H + 2*padding - S) / stride + 1 must be integral.
    """
    if x.ndim != 3:
        raise ValueError(f"expected [C, H, W] input, got shape {x.shape}")
    c_in, h, w = x.shape
    if c_in != spec.in_channels:
        raise ValueError(f"input has {c_in} channels, conv expects {spec.in_channels}")
    s, pad, stride, g = spec.kernel_size, spec.padding, spec.stride, spec.groups
    h_num = h + 2 * pad - s
    w_num = w + 2 * pad - s
    if h_num < 0 or w_num < 0 or h_num % stride or w_num % stride:
        raise ValueError(
            f"kernel {s}, stride {stride}, padding {pad} do not tile input {h}x{w}"
        )
    h_out = h_num // stride + 1
    w_out = w_num // stride + 1
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(x, (s, s), axis=(1, 2))[:, ::stride, ::stride]
    cpg = spec.in_channels // g
    opg = spec.out_channels // g
    win = win.reshape(g, cpg, h_out, w_out, s, s)
    wts = spec.weights.reshape(g, opg, cpg, s, s)
    out = np.einsum("gihwst,goist->gohw", win, wts, optimize=True)
    out = np.ascontiguousarray(out.reshape(spec.out_channels, h_out, w_out), dtype=DTYPE)
    if spec.bias is not None:
        out += spec.bias[:, None, None]
    return out


def batchnorm(x: np.ndarray, p: BatchNormParams) -> np.ndarray:
    """Per-channel affine normalization gamma*(x - mu)/sigma + beta."""
    if x.ndim != 3 or x.shape[0] != p.channels:
        raise ValueError(f"input shape {x.shape} does not match {p.channels} channels")
    out = p.gamma[:, None, None] * (x - p.mu[:, None, None]) / p.sigma[:, None, None]
    out += p.beta[:, None, None]
    return out.astype(DTYPE, copy=False)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def require_binary(x: np.ndarray, what: str = "mask values") -> None:
    """Raise ValueError unless every element of `x` is 0 or 1 (NaN is
    neither), by two counts: about half the time of np.isin on large masks."""
    if np.count_nonzero(x == 0) + np.count_nonzero(x == 1) != np.size(x):
        raise ValueError(f"{what} must be binary {{0, 1}}")


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for stability."""
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {x.shape}")
    if np.isnan(x).any():
        raise ValueError("softmax input contains NaN")
    z = x.astype(np.float64)
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    e /= e.sum(axis=1, keepdims=True)
    return e.astype(DTYPE)


class _BilinearPlan(NamedTuple):
    """Index/weight plan of one bilinear resize.

    `lerp_w` holds the W lerp of every source row that is read; output row y
    is the H lerp of its rows i0[y] and i1[y] by fy[y].  At the source size
    the plan is the identity: fy is None and rows are copied.
    """

    lerp_w: np.ndarray
    i0: np.ndarray
    i1: np.ndarray
    fy: Optional[np.ndarray]

    def lerp_rows(self, r0: int, r1: int, seg: np.ndarray, top: np.ndarray) -> None:
        """Write output rows r0:r1 of every channel into `seg` ([C, r1 - r0, W]);
        `top` is scratch of seg's shape.  Allocates nothing."""
        for c in range(len(seg)):
            # mode="clip" (indices are in range) lets take fill `out` unbuffered
            np.take(self.lerp_w[c], self.i1[r0:r1], axis=0, out=seg[c], mode="clip")
            if self.fy is not None:
                np.take(self.lerp_w[c], self.i0[r0:r1], axis=0, out=top[c], mode="clip")
        if self.fy is not None:
            seg -= top
            seg *= self.fy[r0:r1, None]
            seg += top


def _bilinear_plan(x: np.ndarray, out_h: int, out_w: int) -> _BilinearPlan:
    """Plan a resize of [C, H, W] `x` to out_h x out_w (align-corners-false,
    edge-replicated).  lerp_w is float32 at the source size and of dtype
    np.result_type(x, float32) otherwise."""
    c, h, w = x.shape
    if out_h == h and out_w == w:
        rows = np.arange(h)
        return _BilinearPlan(x.astype(DTYPE, copy=False), rows, rows, None)
    x = x.astype(np.result_type(x.dtype, DTYPE), copy=False)
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    y0f = np.floor(ys)
    x0f = np.floor(xs)
    fy = (ys - y0f).astype(DTYPE)
    fx = (xs - x0f).astype(DTYPE)
    y0 = np.clip(y0f.astype(np.int64), 0, h - 1)
    y1 = np.clip(y0f.astype(np.int64) + 1, 0, h - 1)
    x0 = np.clip(x0f.astype(np.int64), 0, w - 1)
    x1 = np.clip(x0f.astype(np.int64) + 1, 0, w - 1)
    # Separable: the W lerp of a source row is the same for every output row
    # that reads it, so it runs once per source row that is read, and the H
    # lerp combines those rows.  The ops and their order per output pixel
    # are those of the 2-D form (W first, then H), so results are bit-equal.
    rows, inv = np.unique(np.concatenate([y0, y1]), return_inverse=True)
    lerp_w = np.empty((c, len(rows), out_w), dtype=x.dtype)
    step = _strip_rows(max(w, out_w) * x.itemsize)
    per_ch = -(-len(rows) // step)

    def lerp(s, src, a):
        ch, r0 = s // per_ch, s % per_ch * step
        r1 = min(r0 + step, len(rows))
        src, a, seg = src[:r1 - r0], a[:r1 - r0], lerp_w[ch, r0:r1]
        np.take(x[ch], rows[r0:r1], axis=0, out=src, mode="clip")
        np.take(src, x0, axis=1, out=a, mode="clip")
        np.take(src, x1, axis=1, out=seg, mode="clip")
        # lerp form keeps constant regions exact: a + t*(b - a) == a when a == b
        seg -= a
        seg *= fx
        seg += a

    cap = min(step, len(rows))
    _run_strips(c * per_ch, lerp, lambda: (np.empty((cap, w), dtype=x.dtype),
                                           np.empty((cap, out_w), dtype=x.dtype)))
    return _BilinearPlan(lerp_w, inv[:out_h], inv[out_h:], fy)


def bilinear_resize(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling, align-corners-false, edge-replicated.

    Resizing to the source size returns the input unchanged.
    """
    if x.ndim != 3:
        raise ValueError(f"expected [C, H, W] input, got shape {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ValueError("output extents must be >= 1")
    plan = _bilinear_plan(x, out_h, out_w)
    c = x.shape[0]
    out = np.empty((c, out_h, out_w), dtype=plan.lerp_w.dtype)
    step = _strip_rows(c * out_w * out.itemsize)

    def lerp(s, top):
        r0 = s * step
        r1 = min(r0 + step, out_h)
        plan.lerp_rows(r0, r1, out[:, r0:r1], top[:, :r1 - r0])

    _run_strips(-(-out_h // step), lerp,
                lambda: (np.empty((c, min(step, out_h), out_w), dtype=out.dtype),))
    return out.astype(DTYPE, copy=False)


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps at integer offsets, radius ceil(3*sigma)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    radius = int(math.ceil(3.0 * sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(t * t) / (2.0 * sigma * sigma))
    return g / g.sum()


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Discrete 2-D Gaussian of size k = 2*ceil(3*sigma) + 1, normalized to sum 1,
    shaped [1, 1, k, k]."""
    g = gaussian_kernel_1d(sigma)
    k2 = np.outer(g, g)
    k2 /= k2.sum()
    return k2.astype(DTYPE)[None, None]


def _reflect_indices(n: int, radius: int) -> np.ndarray:
    # mirror reflection without edge duplication, valid for any radius
    idx = np.arange(-radius, n + radius)
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * (n - 1)
    idx = np.mod(idx, period)
    return np.where(idx >= n, period - idx, idx)


def _residual_sum(flat: np.ndarray, taps: np.ndarray, unit: int, acc: np.ndarray,
                  tmp: np.ndarray, x2: np.ndarray) -> None:
    """acc = sum_d k_d * (x_{+d} + x_{-d} - 2x) for the len(acc) samples x of
    1-D `flat` that start radius*unit in, whose d-th neighbours sit d*unit
    away; `tmp` and `x2` are scratch of acc's length.  Every operand is a
    contiguous 1-D slice, numpy's fastest loop."""
    n = len(acc)
    radius = len(taps) // 2
    c0 = radius * unit
    x = flat[c0:c0 + n]
    acc[...] = 0
    np.add(x, x, out=x2)
    for d in range(1, radius + 1):
        kv = taps[radius + d]
        off = d * unit
        np.add(flat[c0 + off:c0 + off + n], flat[c0 - off:c0 - off + n], out=tmp)
        tmp -= x2
        tmp *= kv
        acc += tmp


def _blur_axis(x: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """One separable pass of a [C, H, W] array in residual form,
    x + sum_t k_t * (x_t - x), along W (axis 2) or H (axis 1).

    The residual form makes locally constant data pass through bit-exactly,
    which the frequency decomposition depends on.  Taps must be symmetric
    (Gaussian kernels are); symmetric offsets are paired so each pair costs
    one fused (x_plus + x_minus - 2x) update.  The pass runs over row strips
    of a C-contiguous copy so that its working set stays in cache; every
    element gets the same ops in the same order as an untiled pass.
    """
    if x.ndim != 3 or axis not in (1, 2):
        raise ValueError(f"expected a [C, H, W] input and axis 1 or 2, got {x.shape}, {axis}")
    x = np.ascontiguousarray(x)
    out = np.empty_like(x)
    c, h, w = x.shape
    radius = len(taps) // 2
    step = _strip_rows(w * x.itemsize)
    if axis == 2:
        # Rows of the padded strip run on in one flat array: each sample's
        # neighbours along W are +-d away and never leave its own row, so
        # the pass also computes the 2*radius pad columns and drops them.
        reflect = _reflect_indices(w, radius)
        rows, dst = x.reshape(c * h, w), out.reshape(c * h, w)
        wp = w + 2 * radius
        cap = min(step, c * h)

        def w_strip(s, padded, acc, tmp, x2):
            r0 = s * step
            strip = rows[r0:r0 + step]
            padded = padded[:len(strip)]
            np.take(strip, reflect, axis=1, out=padded, mode="clip")
            n = padded.size - 2 * radius
            _residual_sum(padded.reshape(-1), taps, 1, acc[:n], tmp[:n], x2[:n])
            np.add(strip, acc[:padded.size].reshape(-1, wp)[:, :w], out=dst[r0:r0 + step])

        _run_strips(-(-c * h // step), w_strip, lambda: (
            np.empty((cap, wp), dtype=x.dtype),
            *(np.empty(cap * wp, dtype=x.dtype) for _ in range(3))))
        return out
    reflect = _reflect_indices(h, radius)
    per_ch = -(-h // step)
    cap = min(step, h)

    def h_strip(s, halo, acc, tmp, x2):
        ch, r0 = s // per_ch, s % per_ch * step
        r1 = min(r0 + step, h)
        halo = halo[:r1 - r0 + 2 * radius]
        np.take(x[ch], reflect[r0:r1 + 2 * radius], axis=0, out=halo, mode="clip")
        n = (r1 - r0) * w
        _residual_sum(halo.reshape(-1), taps, w, acc[:n], tmp[:n], x2[:n])
        np.add(x[ch, r0:r1], acc[:n].reshape(r1 - r0, w), out=out[ch, r0:r1])

    _run_strips(c * per_ch, h_strip, lambda: (
        np.empty((cap + 2 * radius, w), dtype=x.dtype),
        *(np.empty(cap * w, dtype=x.dtype) for _ in range(3))))
    return out


def gaussian_blur(x: np.ndarray, sigma: float, sigma_x: Optional[float] = None) -> np.ndarray:
    """Separable Gaussian smoothing with reflect padding.

    `sigma` applies along H; `sigma_x` (defaults to `sigma`) along W.
    """
    if x.ndim != 3:
        raise ValueError(f"expected [C, H, W] input, got shape {x.shape}")
    if sigma <= 0 or (sigma_x is not None and sigma_x <= 0):
        raise ValueError("sigma must be positive")
    taps_y = gaussian_kernel_1d(sigma).astype(DTYPE)
    taps_x = taps_y if sigma_x is None or sigma_x == sigma else gaussian_kernel_1d(sigma_x).astype(DTYPE)
    out = _blur_axis(x.astype(DTYPE, copy=False), taps_x, axis=2)
    out = _blur_axis(out, taps_y, axis=1)
    return out


def upsample_nearest(x: np.ndarray, factor: int) -> np.ndarray:
    """Exact nearest-neighbor upsampling by an integer factor."""
    if x.ndim != 3:
        raise ValueError(f"expected [C, H, W] input, got shape {x.shape}")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return x.copy()
    return np.repeat(np.repeat(x, factor, axis=1), factor, axis=2)
