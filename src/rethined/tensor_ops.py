"""Dense tensor kernels: grouped 2-D convolution, batch normalization,
activations, row softmax, bilinear resize and Gaussian filtering.

Tensors are numpy float32 arrays laid out [C, H, W] (convolution weights are
[C_out, C_in/groups, S, S]).  Every function here is pure: inputs are never
mutated and results are deterministic for fixed inputs.  Reductions may use
wider accumulators internally.

The full-resolution strip loops (the difference and add steps of both blur
passes, both lerps of the bilinear resize, PPM quantisation, the passes of
the HR composition, the finiteness check) run on every CPU of the process
affinity through one strip executor, `_run_strips`.  Each output element
gets the same ops in the same order whatever the thread count, so results
are bit-identical to a serial run.  The bilinear resize and the HR
composition share one resize plan, `_bilinear_plan`.

The Gaussian blur is the exact truncated Gaussian, computed as a banded
GEMM on first differences (`_blur_axis`).  It differs from the direct sum of
taps by a few float32 ulp of the input's largest magnitude (the tests bound
it at 8; 2 measured at the radii of the HR path, 3.5 at radius 45), is
bit-exact wherever a pixel's whole window is constant, and does not depend
on the CPU or BLAS thread counts.  A non-finite or overflowing input can
turn a whole GEMM tile to NaN (0 * inf).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

DTYPE = np.float32

# Bytes per array of one strip of a full-resolution pass.  The few arrays of
# a strip (input, halo, accumulator, temporaries) then share a core's L2.
_STRIP_BYTES = 256 * 1024


# Outputs per band GEMM tile of a blur pass, and bytes of one chunk of its
# first differences; a pass holds one such chunk, and the W pass a second one
# of GEMM results.  Tiles of 32-96 and chunks of 4-16 MiB timed alike at
# 1024-4096 on 2 CPUs with OpenBLAS; larger tiles waste band multiplies,
# smaller chunks add GEMM calls.
_BAND_TILE = 64
_CHUNK_BYTES = 8 * 1024 * 1024


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


def all_finite(x: np.ndarray) -> bool:
    """np.isfinite(x).all() for a [C, H, W] array, checked strip by strip
    into a strip-sized buffer instead of one boolean array of x's size."""
    c, h, w = x.shape
    step = _strip_rows(w * x.itemsize)
    per_ch = -(-h // step)
    finite = np.zeros(c * per_ch, dtype=bool)

    def check(s, buf):
        ch, r0 = divmod(s, per_ch)
        seg = x[ch, r0 * step:(r0 + 1) * step]
        buf = buf[:len(seg)]
        np.isfinite(seg, out=buf)
        finite[s] = buf.all()

    _run_strips(c * per_ch, check, lambda: (np.empty((min(step, h), w), dtype=bool),))
    return bool(finite.all())


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


def _diff_band(taps: np.ndarray, tile: int, dtype) -> np.ndarray:
    """The (tile + 2r - 1) x tile Toeplitz band that maps the first
    differences D_t = x_{t+1} - x_t of a tile's reflect-padded window to the
    tile's low-pass minus x: column j holds c_s at row j + r + s, where
    c_s = tail(s + 1) for s >= 0, c_s = -tail(-s) for s < 0 and
    tail(m) = sum_{d >= m} k_d, summed in float64."""
    radius = len(taps) // 2
    tail = np.cumsum(taps[:radius:-1].astype(np.float64))[::-1]  # tail(1..r)
    c = np.concatenate([-tail[::-1], tail]).astype(dtype)         # s = -r .. r-1
    band = np.zeros((tile + 2 * radius - 1, tile), dtype=dtype)
    cols = np.arange(tile)
    for s in range(2 * radius):
        band[cols + s, cols] = c[s]
    return band


def _reflect_diff(src: np.ndarray, reflect: np.ndarray, t0: int, t1: int,
                  out: np.ndarray, axis: int) -> None:
    """out = D_t for t in [t0, t1) along `axis` of 2-D `src`, where
    D_t = src[reflect[t + 1]] - src[reflect[t]] are the first differences of
    the reflect-padded axis.  Away from the edges these are differences of
    neighbouring slices; only the 2r edge differences gather."""
    radius = (len(reflect) - src.shape[axis]) // 2
    inner = radius + src.shape[axis] - 1           # D_t is interior for radius <= t < inner

    def cut(a, lo, hi):
        return a[(slice(None),) * axis + (slice(lo, hi),)]

    a, b = max(t0, radius), min(t1, inner)
    if a < b:
        np.subtract(cut(src, a - radius + 1, b - radius + 1), cut(src, a - radius, b - radius),
                    out=cut(out, a - t0, b - t0))
    for lo, hi in ((t0, min(t1, a)), (max(t0, inner), t1)):
        if lo < hi:
            np.subtract(np.take(src, reflect[lo + 1:hi + 1], axis=axis),
                        np.take(src, reflect[lo:hi], axis=axis), out=cut(out, lo - t0, hi - t0))


def _blur_axis(x: np.ndarray, taps: np.ndarray, axis: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """One separable pass of a [C, H, W] array along W (axis 2) or H (axis 1),
    in first-difference form: low_i = x_i + sum_{s=-r}^{r-1} c_s D_{i+s}
    over the differences D of the reflect-padded axis (see _diff_band).
    Writes into and returns `out` (new if None; C-contiguous, of x's shape
    and dtype), which may be `x` itself for the W pass only.

    Each tile of _BAND_TILE outputs is one GEMM of its differences with the
    same band, issued from the calling thread so that the BLAS threads it.
    Differences are built, and x added, one chunk of rows at a time on the
    strip executor; the scratch is a chunk of differences (and, for the W
    pass, of GEMM results).  Taps must be symmetric (Gaussian kernels are).

    Where the whole window of a sample is constant its differences are all
    0, so it passes through bit-exactly, which the frequency decomposition
    depends on.  Elsewhere the result is within a few float32 ulp of the
    direct sum of taps.  A non-finite or overflowing difference makes its
    whole tile NaN (0 * inf in the GEMM).  Results do not depend on the
    number of CPUs or BLAS threads: chunks and tiles have fixed sizes.
    """
    if x.ndim != 3 or axis not in (1, 2):
        raise ValueError(f"expected a [C, H, W] input and axis 1 or 2, got {x.shape}, {axis}")
    x = np.ascontiguousarray(x)
    if out is None:
        out = np.empty_like(x)
    c, h, w = x.shape
    radius = len(taps) // 2
    band = _diff_band(taps, _BAND_TILE, x.dtype)
    size = x.itemsize
    if axis == 2:
        reflect = _reflect_indices(w, radius)
        rows, dst = x.reshape(c * h, w), out.reshape(c * h, w)
        n_diff = w + 2 * radius - 1
        chunk = max(1, _CHUNK_BYTES // (n_diff * size))
        diff = np.empty((min(chunk, c * h), n_diff), dtype=x.dtype)
        prod = np.empty((len(diff), w), dtype=x.dtype)
        step = _strip_rows(n_diff * size)
        full, rem = divmod(w, _BAND_TILE)
        for r0 in range(0, c * h, chunk):
            src, o = rows[r0:r0 + chunk], dst[r0:r0 + chunk]
            d, res = diff[:len(src)], prod[:len(src)]

            def w_diff(s):
                sl = slice(s * step, (s + 1) * step)
                _reflect_diff(src[sl], reflect, 0, n_diff, d[sl], axis=1)

            strips = -(-len(src) // step)
            _run_strips(strips, w_diff, lambda: ())
            if full:
                k = band.shape[0]
                tiles = (full, len(d), _BAND_TILE), (_BAND_TILE * size, res.strides[0], size)
                np.matmul(as_strided(d, (full, len(d), k), (_BAND_TILE * size, d.strides[0], size)),
                          band, out=as_strided(res, *tiles))
            if rem:
                a = full * _BAND_TILE
                np.matmul(d[:, a:], band[:rem + 2 * radius - 1, :rem], out=res[:, a:])

            def w_add(s):
                sl = slice(s * step, (s + 1) * step)
                np.add(src[sl], res[sl], out=o[sl])

            _run_strips(strips, w_add, lambda: ())
        return out
    reflect = _reflect_indices(h, radius)
    chunk = max(_BAND_TILE, _CHUNK_BYTES // (w * size) // _BAND_TILE * _BAND_TILE)
    diff = np.empty((min(chunk, h) + 2 * radius - 1, w), dtype=x.dtype)
    step = _strip_rows(w * size)
    bt = np.ascontiguousarray(band.T)
    for ch in range(c):
        src = x[ch]
        for r0 in range(0, h, chunk):
            r1 = min(r0 + chunk, h)
            n_d = r1 - r0 + 2 * radius - 1
            d, o = diff[:n_d], out[ch, r0:r1]

            def h_diff(s):
                a, b = s * step, min((s + 1) * step, n_d)
                _reflect_diff(src, reflect, r0 + a, r0 + b, d[a:b], axis=0)

            _run_strips(-(-n_d // step), h_diff, lambda: ())
            full, rem = divmod(r1 - r0, _BAND_TILE)
            if full:
                k = bt.shape[1]
                np.matmul(bt, as_strided(d, (full, k, w), (_BAND_TILE * d.strides[0], d.strides[0], size)),
                          out=o[:full * _BAND_TILE].reshape(full, _BAND_TILE, w))
            if rem:
                a = full * _BAND_TILE
                np.matmul(bt[:rem, :rem + 2 * radius - 1], d[a:], out=o[a:])

            def h_add(s):
                a, b = s * step, min((s + 1) * step, r1 - r0)
                o[a:b] += src[r0 + a:r0 + b]

            _run_strips(-(-(r1 - r0) // step), h_add, lambda: ())
    return out


def gaussian_blur(x: np.ndarray, sigma: float, sigma_x: Optional[float] = None) -> np.ndarray:
    """Separable Gaussian smoothing with reflect padding.

    `sigma` applies along H; `sigma_x` (defaults to `sigma`) along W.  Each
    pass is a banded GEMM on first differences (see _blur_axis).  The result
    is within 8 float32 ulp of the input's largest magnitude of the direct
    sum of taps, and bit-exact at every pixel whose whole (2r+1)^2 window is
    constant, so constant images pass through unchanged.  A non-finite or
    overflowing input can turn whole tiles of the result to NaN (0 * inf).
    """
    if x.ndim != 3:
        raise ValueError(f"expected [C, H, W] input, got shape {x.shape}")
    if sigma <= 0 or (sigma_x is not None and sigma_x <= 0):
        raise ValueError("sigma must be positive")
    taps_y = gaussian_kernel_1d(sigma).astype(DTYPE)
    taps_x = taps_y if sigma_x is None or sigma_x == sigma else gaussian_kernel_1d(sigma_x).astype(DTYPE)
    # H first: the W pass then runs in place, so no intermediate image exists
    out = _blur_axis(x.astype(DTYPE, copy=False), taps_y, axis=1)
    return _blur_axis(out, taps_x, axis=2, out=out)


def upsample_nearest(x: np.ndarray, factor: int) -> np.ndarray:
    """Exact nearest-neighbor upsampling by an integer factor."""
    if x.ndim != 3:
        raise ValueError(f"expected [C, H, W] input, got shape {x.shape}")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return x.copy()
    return np.repeat(np.repeat(x, factor, axis=1), factor, axis=2)
