"""Dense tensor kernels: grouped 2-D convolution, batch normalization,
activations, row softmax, bilinear resize, Gaussian filtering and the
blur-and-decimate of the HR image to the LR input.

Tensors are numpy float32 arrays laid out [C, H, W] (convolution weights are
[C_out, C_in/groups, S, S]).  Every function here is pure: inputs are never
mutated and results are deterministic for fixed inputs.  Reductions may use
wider accumulators internally.  No request up-samples a full-resolution
image: upscale.compose_hr applies the bilinear up-sampling to LR windows of
its patches, and `bilinear_resize` only resizes the coarse features.

`_one_blas_thread` holds numpy's OpenBLAS at one thread, and `_split` runs a
full-resolution loop as contiguous slices of its rows, blocks or elements,
one slice per CPU of the process affinity: the first on the caller, the
others on long-lived peers, one thread per further CPU, created on first use
and claimed without waiting, so a busy peer's slice runs on the caller.
`_shared` gives the same peers units taken from one iterator while the
caller runs a block beside them, as run_pipeline runs the LR core beside the
composer's preparation.  While a chain (`run_pipeline`), an LR kernel that calls BLAS
(`coarse_forward`, `attention_scores`, `mask_attention`) or a split kernel
runs, every BLAS call in the process uses one thread, so none wakes
OpenBLAS's idle workers, which would spin on the CPU a slice needs.  Every
element goes through the same operations whatever slice holds it, so results
do not depend on the number of slices; the input checks (`require_binary`,
`value_range`) reduce each slice whole.  `run_pipeline`'s bytes do not
depend on the BLAS thread count either; that is an empirical property of
numpy's bundled OpenBLAS, which the tests check.  On other BLAS builds there
is no hold and no split: every loop runs on the calling thread.

`_downsample` applies A = S G per axis, a Gaussian and a bilinear sampling
(`_lr_blocks`), to take the HR image to the LR input; `gaussian_blur` is the
same operator at the input's own size (S = I), applied in float64.  S,
`bilinear_resize` and the composer's patch up-sampler place their samples
by one rule, `_sample_taps`.

The LR core's kernels (the coarse CNN's depthwise and pointwise stages, the
coherence filter) take their intermediates from `_scratch`, one store per
thread that persists across calls, instead of allocating them per request.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DTYPE = np.float32

@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or
    None when no OpenBLAS is mapped into the process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


# The thread count is one value per process, so the hold's state is too.
_hold_lock = threading.Lock()
_holders = 0
_saved_threads = 0


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread; yields whether the hold is in
    effect (False on other BLAS builds, where it does nothing).

    Holds nest and overlap across threads: the first holder saves the thread
    count and the last one to leave restores it.  Workers that an earlier
    threaded GEMM left spinning are not stopped, but no BLAS call wakes them
    while the hold lasts.
    """
    global _holders, _saved_threads
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, put = blas
    with _hold_lock:
        if _holders == 0:
            _saved_threads = get()
            put(1)
        _holders += 1
    try:
        yield True
    finally:
        with _hold_lock:
            _holders -= 1
            if _holders == 0:
                put(_saved_threads)


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Least bytes a slice of a split loop must stream.  On 2 CPUs a split
# finiteness check of 3 MiB took 0.67 ms against 0.31 ms inline, while every
# split kernel of a 1024^2 or 2048^2 image ran 20-45% faster than inline.
_PART_BYTES = 2 * 1024 * 1024


class _Peer:
    """A long-lived thread that runs the jobs of whoever holds `claim` under
    _one_blas_thread, putting each one's exception, or None, on `done`."""

    def __init__(self, name: str):
        self.claim, self.jobs, self.done = threading.Lock(), queue.SimpleQueue(), queue.SimpleQueue()
        threading.Thread(target=self._serve, name=name, daemon=True).start()

    def _serve(self):
        while True:
            job, error = self.jobs.get(), None
            try:
                with _one_blas_thread():
                    job()
            except BaseException as exc:  # re-raised by the claimer
                error = exc
            self.done.put(error)


_peers, _peers_lock = [], threading.Lock()


def _forget_peers():
    # a forked child has none of the parent's threads, nor their locks
    global _peers, _peers_lock, _hold_lock
    _peers, _peers_lock, _hold_lock = [], threading.Lock(), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_peers)


@contextmanager
def _claimed(n: int):
    """Up to n idle peers, claimed without waiting, so concurrent and nested
    callers never wait on each other; the first claim starts one peer per
    further CPU.  The exit waits for their jobs and re-raises the first
    error of one."""
    if n > 0 and len(_peers) < _cpu_count() - 1:
        with _peers_lock:
            while len(_peers) < _cpu_count() - 1:
                _peers.append(_Peer(f"rethined-split-{len(_peers) + 1}"))
    got = []
    for peer in _peers:
        if len(got) < n and peer.claim.acquire(blocking=False):
            got.append(peer)
    try:
        yield got
    finally:
        errors = [peer.done.get() for peer in got]
        for peer in got:
            peer.claim.release()
    for exc in errors:
        if exc is not None:
            raise exc


def _parts(n_items: int, nbytes: int, held: bool) -> int:
    return max(1, min(_cpu_count(), n_items, nbytes // _PART_BYTES)) if held else 1


def _split(job, items, nbytes: int) -> list:
    """Run `job` over contiguous slices of `items`, one slice per CPU of the
    process affinity, under `_one_blas_thread`, and return the results of
    job(slice) in slice order.

    `nbytes` is what the whole loop streams; a slice gets at least
    _PART_BYTES of it.  The first slice runs on the caller and each later
    one on an idle peer (`_claimed`), or after the first where none is free;
    all have run before the first error is re-raised.  With one CPU, too
    little work or no hold, job(items) runs on the calling thread.  Jobs
    must write disjoint outputs.
    """
    with _one_blas_thread() as held:
        parts = _parts(len(items), nbytes, held)
        if parts < 2:
            return [job(items)]
        bounds = [len(items) * i // parts for i in range(parts + 1)]
        results, errors = [None] * parts, [None] * parts

        def run(i):
            try:
                results[i] = job(items[bounds[i]:bounds[i + 1]])
            except BaseException as exc:  # re-raised on the caller below
                errors[i] = exc

        with _claimed(parts - 1) as peers:
            for i, peer in enumerate(peers, 1):
                peer.jobs.put(functools.partial(run, i))
            for i in (0, *range(len(peers) + 1, parts)):
                run(i)
        for exc in errors:
            if exc is not None:
                raise exc
        return results


@contextmanager
def _shared(unit, items, nbytes: int):
    """Run unit(item) for every item of the sequence `items`, taken from one
    iterator by idle peers from entry on and by the caller at the exit, so
    the units run beside the block.  The exit waits for the peers and
    re-raises the first error; a raise drops the items no one has taken.
    Peers are claimed by _split's rule for `nbytes`."""
    with _one_blas_thread() as held:
        todo = iter(items)  # next() on a sequence's iterator is atomic

        def drain():
            for item in todo:
                unit(item)

        with _claimed(_parts(len(items), nbytes, held) - 1) as peers:
            for peer in peers:
                peer.jobs.put(drain)
            try:
                yield
                drain()
            except BaseException:
                for _ in todo:
                    pass
                raise


# Per-thread store of the LR core's intermediates: role -> uint8 buffer.
# Allocated per call, they were page-faulted in anew on every request: glibc
# returns the heap top to the kernel once a request's arrays are freed.
_workspace = threading.local()


def _scratch(role: str, shape: tuple, dtype=DTYPE) -> np.ndarray:
    """An uninitialised C-contiguous array of `shape` and `dtype` in this
    thread's buffer for `role`.

    Each role's buffer grows to its largest use and is kept, so repeated
    calls reuse memory that is already mapped.  A role names a lifetime, not
    a shape: stages whose intermediates are never live at once share one, as
    the coherence filter takes the coarse CNN's "dw.phases", "cnn.x" and
    "dw.acc" once coarse_forward has returned.
    The array is valid until the next _scratch call for its role on the same
    thread, so no public function returns one.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buf = getattr(_workspace, role, None)
    if buf is None or buf.nbytes < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
        setattr(_workspace, role, buf)
    return buf[:nbytes].view(dtype).reshape(shape)


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
    neither): two counts over each slice of the flat array, split across
    CPUs (see _split), summed."""
    flat = np.asarray(x).reshape(-1)

    def count(part):
        seg = flat[part.start:part.stop]
        return np.count_nonzero(seg == 0) + np.count_nonzero(seg == 1)

    if sum(_split(count, range(flat.size), flat.nbytes)) != flat.size:
        raise ValueError(f"{what} must be binary {{0, 1}}")


def value_range(x: np.ndarray) -> tuple[float, float]:
    """(min, max) of a non-empty [C, H, W] array, both NaN if it holds a NaN:
    a min and then, unless it is NaN, a max over each slice of rows, split
    across CPUs (see _split)."""

    def bounds(rows):
        seg = x[:, rows.start:rows.stop]
        low = float(seg.min())
        return (low, low) if math.isnan(low) else (low, float(seg.max()))

    found = _split(bounds, range(x.shape[1]), x.nbytes)
    return float(np.min([f[0] for f in found])), float(np.max([f[1] for f in found]))


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


def _sample_taps(n: int, out_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two samples of n that each of out_n outputs reads and the weight
    of the second, in float64: align-corners-false positions
    (y + 0.5) * n / out_n - 0.5, edge-replicated."""
    pos = (np.arange(out_n) + 0.5) * (n / out_n) - 0.5
    first = np.floor(pos)
    lo = first.astype(np.intp)
    return np.clip(lo, 0, n - 1), np.clip(lo + 1, 0, n - 1), pos - first


def bilinear_resize(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling, align-corners-false, edge-replicated.

    Resizing to the source size returns a float32 copy of the input.
    """
    if x.ndim != 3:
        raise ValueError(f"expected [C, H, W] input, got shape {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ValueError("output extents must be >= 1")
    _, h, w = x.shape
    if (out_h, out_w) == (h, w):
        return x.astype(DTYPE)
    x = x.astype(np.result_type(x.dtype, DTYPE), copy=False)
    y0, y1, fy = _sample_taps(h, out_h)
    x0, x1, fx = _sample_taps(w, out_w)
    # Separable, W lerp then H lerp, with the ops and their order per output
    # pixel of the 2-D form, so results are bit-equal to it; the lerp form
    # keeps constant regions exact: a + t*(b - a) == a when a == b.
    left, lerp_w = np.take(x, x0, axis=2), np.take(x, x1, axis=2)
    lerp_w -= left
    lerp_w *= fx.astype(DTYPE)
    lerp_w += left
    out, top = np.take(lerp_w, y1, axis=1), np.take(lerp_w, y0, axis=1)
    out -= top
    out *= fy.astype(DTYPE)[:, None]
    out += top
    return out.astype(DTYPE, copy=False)


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps at integer offsets, radius ceil(3*sigma)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    radius = int(math.ceil(3.0 * sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(t * t) / (2.0 * sigma * sigma))
    return g / g.sum()


def _reflect_indices(n: int, radius: int) -> np.ndarray:
    # mirror reflection without edge duplication, valid for any radius
    idx = np.arange(-radius, n + radius)
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * (n - 1)
    idx = np.mod(idx, period)
    return np.where(idx >= n, period - idx, idx)


def _lr_band_width(n: int, sigma: float) -> int:
    """Columns of a row of A = S G (_lr_blocks), min(n, 2R + 2) for tap radius
    R: the Gaussian rows of both samples the row reads, reflections included."""
    return min(n, len(gaussian_kernel_1d(sigma)) + 1)


# LR rows (or columns) per GEMM of _downsample: a fixed block keeps x_lr's
# bytes independent of how many slices run.
_LR_BLOCK = 8


def _lr_blocks(n: int, out_n: int, sigma: float, dtype=DTYPE) -> list:
    """A = S G along one axis of n samples, built in float64, in blocks of
    _LR_BLOCK outputs: (output slice, input slice, dense block of A in
    `dtype`) each.  G is the reflect-padded Gaussian at `sigma`, S the
    bilinear sampling to out_n (_sample_taps).  A block's input slice spans
    the bands (_lr_band_width) of its rows; an entry sums the weighted taps
    of an output's first sample, then of its second, in tap order.
    """
    taps = gaussian_kernel_1d(sigma)
    radius = len(taps) // 2
    width = _lr_band_width(n, sigma)
    lo, hi, frac = _sample_taps(n, out_n)
    starts = np.clip(lo - radius, 0, n - width)
    y0 = np.arange(0, out_n, _LR_BLOCK)
    y1 = np.minimum(y0 + _LR_BLOCK, out_n)
    s0, s1 = starts[y0], starts[y1 - 1] + width
    cols = (s1 - s0).max()
    # the taps of both samples of every output, reflected, as flat indices
    # into [block, row, column], where output y is row y of all blocks
    y = np.arange(out_n)
    src = _reflect_indices(n, radius)[np.concatenate([lo, hi])[:, None] + np.arange(len(taps))]
    flat = src + np.tile(y * cols - s0[y // _LR_BLOCK], 2)[:, None]
    weights = np.concatenate([1.0 - frac, frac])[:, None] * taps
    dense = np.bincount(flat.ravel(), weights.ravel(), len(y0) * _LR_BLOCK * cols)
    dense = dense.reshape(len(y0), _LR_BLOCK, cols).astype(dtype, copy=False)
    return [(slice(a, b), slice(c, d), dense[k, :b - a, :d - c])
            for k, (a, b, c, d) in enumerate(zip(y0.tolist(), y1.tolist(), s0.tolist(), s1.tolist()))]


def _downsample(x: np.ndarray, out_h: int, out_w: int, sigma_h: float, sigma_w: float,
                dtype=DTYPE) -> np.ndarray:
    """bilinear_resize(gaussian_blur(x, sigma_h, sigma_w), out_h, out_w) as
    one banded operator per axis: out[c] = A_h x[c] A_w^T, with each A = S G
    built in float64 and applied in `dtype` (see _lr_blocks).  Each pass
    is rounded to float32.  No full-resolution intermediate exists.

    The H pass is one GEMM per block of _LR_BLOCK output rows and channel,
    over the input rows the block reads, split across CPUs (see _split); the
    W pass runs the same way on the [C, out_h, W] result, on the calling
    thread.  In float32 the result is within a few float32 ulp of the
    blur-then-resize form.  It does not depend on the number of slices.
    """
    c, h, w = x.shape
    x = np.ascontiguousarray(x, dtype=DTYPE)
    mid = np.empty((c, out_h, w), dtype=DTYPE)

    def pass_h(part):
        for ch, (rows, src, a) in part:
            np.matmul(a, x[ch, src], out=mid[ch, rows])

    _split(pass_h, [(ch, blk) for ch in range(c) for blk in _lr_blocks(h, out_h, sigma_h, dtype)],
           x.nbytes)
    out = np.empty((c, out_h, out_w), dtype=DTYPE)
    flat, dst = mid.reshape(c * out_h, w), out.reshape(c * out_h, out_w)
    for cols, src, a in _lr_blocks(w, out_w, sigma_w, dtype):
        np.matmul(flat[:, src], a.T, out=dst[:, cols])
    return out


def gaussian_blur(x: np.ndarray, sigma: float, sigma_x: Optional[float] = None) -> np.ndarray:
    """Separable Gaussian smoothing with reflect padding, as float32.

    `sigma` applies along H; `sigma_x` (defaults to `sigma`) along W.  This
    is _downsample at the input's own size, where S is the identity and each
    axis is the reflect-padded Gaussian G alone, applied in float64.  Rows
    of G sum to 1 within ~1e-16, so every pixel whose whole (2r+1)^2 window
    is constant passes through bit-exactly, and constant images unchanged;
    elsewhere the result is within 1 float32 ulp of the input's
    largest magnitude of the direct sum of taps.  A non-finite input spreads
    over the 8-row and 8-column operator blocks (_LR_BLOCK) that read it
    (0 * inf).
    """
    if x.ndim != 3:
        raise ValueError(f"expected [C, H, W] input, got shape {x.shape}")
    if sigma <= 0 or (sigma_x is not None and sigma_x <= 0):
        raise ValueError("sigma must be positive")
    _, h, w = x.shape
    return _downsample(x, h, w, sigma, sigma if sigma_x is None else sigma_x, np.float64)
