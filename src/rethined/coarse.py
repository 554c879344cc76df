"""Coarse completion network: five reparametrizable depthwise/pointwise
blocks in a small encoder-decoder, plus inference-time conv+BN+skip fusion.

Each block runs a 3x3 depthwise convolution (with an optional identity+BN
skip summed onto that stage when stride is 1) followed by a 1x1 pointwise
convolution, both batch-normalized and ReLU-activated.  Fusion folds every
BN into its convolution (W_hat = W * gamma/sigma, b_hat = beta - gamma*mu/sigma
+ gamma/sigma * b) and materializes the skip as a center-one kernel padded by
S - 1 zeros, leaving a single convolution per stage.

The forward computes only the pixels it keeps.  The depthwise stage runs as
nine shifted multiply-adds that read every `step`-th row and column, so an
encoder block evaluates its 3x3 only at the positions its 2x decimation
keeps; BN, ReLU, the skip and the 1x1 are per-pixel, so they commute with the
decimation.  Every 1x1 is one sgemm, run while the forward holds OpenBLAS at
one thread (tensor_ops._one_blas_thread), and the final 1x1 runs at 1/4 LR
before the 4x nearest upsample.  tensor_ops.conv2d is the oracle for both
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .tensor_ops import (
    DTYPE,
    BatchNormParams,
    ConvSpec,
    batchnorm,
    conv2d,
    _one_blas_thread,
    _scratch,
    relu,
    require_binary,
)

# (C_in, C_out) per block, each stride 1 with a depthwise-stage identity skip;
# dec1 (index 3) is the feature tap.  coarse_forward evaluates the three
# encoder blocks at every 2nd row and column (step 2), halving each extent.
BLOCK_PLAN = ((4, 16), (16, 32), (32, 64), (64, 32), (32, 16))
FEATURE_TAP = 3
FEATURE_CHANNELS = BLOCK_PLAN[FEATURE_TAP][1]
ENCODER_FACTOR = 8  # three 2x decimations


@dataclass(frozen=True)
class RepBlock:
    """One depthwise+pointwise stage pair; fused exactly when it holds no batchnorm."""

    main: ConvSpec
    main_bn: Optional[BatchNormParams]
    point: ConvSpec
    point_bn: Optional[BatchNormParams]
    skip_bn: Optional[BatchNormParams]

    def __post_init__(self):
        if self.skip_bn is not None and self.main.stride != 1:
            raise ValueError("identity skip requires stride 1")
        if (self.point_bn is None) != self.fused or (self.fused and self.skip_bn is not None):
            raise ValueError("partial batchnorm set: main_bn and point_bn come "
                             "both or neither, and skip_bn only with both")

    @property
    def fused(self) -> bool:
        return self.main_bn is None


@dataclass(frozen=True)
class CoarseModel:
    blocks: tuple
    final: ConvSpec

    @property
    def fused(self) -> bool:
        return all(b.fused for b in self.blocks)


def _depthwise3x3(x: np.ndarray, spec: ConvSpec, step: int) -> np.ndarray:
    """3x3 depthwise cross-correlation, zero padding 1, at every `step`-th
    row and column: conv2d(x, spec)[:, ::step, ::step] up to float rounding.

    Nine shifted multiply-adds, the first written straight into the
    accumulator.  The step x step polyphase components of the zero-padded
    input are written straight from `x`, each flattened per channel, so
    every tap reads one contiguous run; only their padding frame is zeroed.
    The `halo` spare columns of each row are computed and dropped.  Returns
    a workspace array (role "dw.tmp"), valid until the next call on this
    thread.
    """
    c, h, w = x.shape
    if (spec.kernel_size, spec.padding, spec.stride, spec.groups, spec.in_channels,
            spec.out_channels) != (3, 1, 1, c, c, c):
        raise ValueError(f"expected a stride-1 3x3 depthwise conv over {c} channels")
    h_out, w_out = -(-h // step), -(-w // step)
    halo = -(-2 // step)  # how far, in phase pixels, a tap reaches past its output
    rows, cols = h_out + halo + 1, w_out + halo  # +1 row: the last run overruns a row
    k = min(step, 3)
    phases = _scratch("dw.phases", (k, k, c, rows * cols))
    for a in range(k):
        for b in range(k):
            # phase (a, b) holds padded pixel (a + step*i, b + step*j), which
            # is x[a + step*i - 1, b + step*j - 1]; i starts at 1 when a == 0
            src = x[:, (a - 1) % step::step, (b - 1) % step::step]
            i0, j0 = int(a == 0), int(b == 0)
            i1, j1 = i0 + src.shape[1], j0 + src.shape[2]
            dst = phases[a, b].reshape(c, rows, cols)
            dst[:, i0:i1, j0:j1] = src
            dst[:, :i0] = dst[:, i1:] = dst[:, i0:i1, :j0] = dst[:, i0:i1, j1:] = 0
    taps = spec.weights.reshape(c, 9, 1)
    n = h_out * cols
    acc = _scratch("dw.acc", (c, n))
    tmp = _scratch("dw.tmp", (c, n))
    for t in range(9):
        dy, dx = divmod(t, 3)
        start = (dy // step) * cols + dx // step
        np.multiply(taps[:, t], phases[dy % step, dx % step][:, start:start + n],
                    out=tmp if t else acc)
        if t:
            acc += tmp
    kept = acc.reshape(c, h_out, cols)[:, :, :w_out]
    out = _scratch("dw.tmp", (c, h_out, w_out))  # tmp is dead; n >= h_out * w_out
    if spec.bias is None:
        np.copyto(out, kept)
    else:
        np.add(kept, spec.bias[:, None, None], out=out)
    return out


def _pointwise(x: np.ndarray, spec: ConvSpec, out: Optional[np.ndarray] = None) -> np.ndarray:
    """1x1 convolution W[C_out, C_in] . x[C_in, H*W] as one sgemm, into
    `out` ([C_out, H, W] float32, not overlapping x) if given.

    coarse_forward runs it holding OpenBLAS at one thread
    (tensor_ops._one_blas_thread): at LR 256 these products are at most
    2 M multiply-adds, too small for a second BLAS thread to pay, and a
    threaded GEMM that waits for a descheduled worker makes the forward's
    time follow the load of the machine.  The hold also keeps the forward's
    bytes independent of the thread count.
    """
    c, h, w = x.shape
    if spec.kernel_size != 1 or spec.groups != 1 or spec.in_channels != c:
        raise ValueError(f"expected a 1x1 conv over {c} channels")
    if out is None:
        out = np.empty((spec.out_channels, h, w), DTYPE)
    flat = out.reshape(spec.out_channels, h * w)
    np.matmul(spec.weights.reshape(spec.out_channels, c), x.reshape(c, h * w), out=flat)
    if spec.bias is not None:
        flat += spec.bias[:, None]
    return out


def _rep_block(block: RepBlock, x: np.ndarray, step: int, out: np.ndarray) -> np.ndarray:
    """rep_block_forward into `out` ([C_out, H', W'] float32), which may
    share memory with `x`: x is read in full before out is written."""
    if block.fused:
        y = _depthwise3x3(x, block.main, step)
        np.maximum(y, 0, out=y)
        _pointwise(y, block.point, out)
        return np.maximum(out, 0, out=out)
    y = batchnorm(_depthwise3x3(x, block.main, step), block.main_bn)
    if block.skip_bn is not None:
        y = y + batchnorm(x[:, ::step, ::step], block.skip_bn)
    y = relu(y)
    np.copyto(out, relu(batchnorm(_pointwise(y, block.point), block.point_bn)))
    return out


def rep_block_forward(block: RepBlock, x: np.ndarray, step: int = 1) -> np.ndarray:
    """One block on [C_in, H, W], evaluated at every `step`-th row and column:
    rep_block_forward(block, x)[:, ::step, ::step] up to float rounding."""
    _, h, w = x.shape
    out = np.empty((block.point.out_channels, -(-h // step), -(-w // step)), DTYPE)
    return _rep_block(block, x, step, out)


def coarse_forward(model: CoarseModel, x_lr: np.ndarray, mask_lr: np.ndarray):
    """Run the coarse network on a masked LR image.

    Returns (coarse, features): the [3, H, W] completion (residual applied
    only inside corrupted pixels) and the tapped [32, H/8, W/8] feature map.
    Both are new arrays; every other intermediate lives in this thread's
    workspace.  Holds OpenBLAS at one thread while it runs.
    """
    if x_lr.ndim != 3 or x_lr.shape[0] != 3:
        raise ValueError(f"expected [3, H, W] image, got shape {x_lr.shape}")
    if mask_lr.shape != (1,) + x_lr.shape[1:]:
        raise ValueError(f"mask shape {mask_lr.shape} does not match image {x_lr.shape}")
    _, h, w = x_lr.shape
    if h % ENCODER_FACTOR or w % ENCODER_FACTOR:
        raise ValueError(f"input {h}x{w} not divisible by encoder factor {ENCODER_FACTOR}")
    require_binary(mask_lr)

    # one BLAS thread for the 1x1s' sgemms (see _pointwise)
    with _one_blas_thread():
        # every block reads its input from "cnn.x" in full before it writes
        # its output there; only the tapped features get their own array
        x = _scratch("cnn.x", (4, h, w))
        x[:3], x[3:] = x_lr, mask_lr
        features = None
        for i, block in enumerate(model.blocks):
            c, hx, wx = x.shape
            if i == 4:
                # nearest 2x upsample as one broadcast copy (numpy buffers it
                # if x is in "cnn.x" too)
                up = _scratch("cnn.x", (c, 2 * hx, 2 * wx))
                np.copyto(up.reshape(c, hx, 2, wx, 2), x[:, :, None, :, None])
                x, hx, wx = up, 2 * hx, 2 * wx
            step = 2 if i < 3 else 1  # the encoder decimates
            shape = (block.point.out_channels, -(-hx // step), -(-wx // step))
            out = np.empty(shape, DTYPE) if i == FEATURE_TAP else _scratch("cnn.x", shape)
            x = _rep_block(block, x, step, out)
            if i == FEATURE_TAP:
                features = x
        # the 1x1 is per-pixel, so it runs before the nearest 4x upsample,
        # which is a broadcast view: coarse = x_lr + up4(residual) * mask_lr
        _, hr, wr = x.shape
        residual = _pointwise(x, model.final, _scratch("coarse.residual", (3, hr, wr)))
    coarse = np.empty((3, h, w), DTYPE)
    np.multiply(residual[:, :, None, :, None], mask_lr.reshape(1, hr, 4, wr, 4),
                out=coarse.reshape(3, hr, 4, wr, 4))
    np.add(x_lr, coarse, out=coarse)
    return coarse, features


def _fuse_conv_bn(spec: ConvSpec, bn: BatchNormParams):
    # fold in float64, round once at the end
    factor = bn.gamma.astype(np.float64) / bn.sigma.astype(np.float64)
    w = spec.weights.astype(np.float64) * factor[:, None, None, None]
    b = bn.beta.astype(np.float64) - bn.mu.astype(np.float64) * factor
    if spec.bias is not None:
        b = b + spec.bias.astype(np.float64) * factor
    return w.astype(DTYPE), b.astype(DTYPE)


def fuse_block(block: RepBlock) -> RepBlock:
    """Fold batchnorms (and the identity skip, if any) into plain convolutions."""
    if block.fused:
        raise ValueError("block is already fused")
    w_main, b_main = _fuse_conv_bn(block.main, block.main_bn)
    if block.skip_bn is not None:
        s = block.main.kernel_size
        factor = block.skip_bn.gamma.astype(np.float64) / block.skip_bn.sigma.astype(np.float64)
        # 1x1 identity conv padded by S - 1 zeros: one center tap per channel
        w64 = w_main.astype(np.float64)
        w64[:, 0, s // 2, s // 2] += factor
        w_main = w64.astype(DTYPE)
        b_main = (b_main.astype(np.float64) + block.skip_bn.beta.astype(np.float64)
                  - block.skip_bn.mu.astype(np.float64) * factor).astype(DTYPE)
    w_pt, b_pt = _fuse_conv_bn(block.point, block.point_bn)
    return RepBlock(replace(block.main, weights=w_main, bias=b_main), None,
                    replace(block.point, weights=w_pt, bias=b_pt), None, None)


def fuse_model(model: CoarseModel) -> CoarseModel:
    """Return a forward-equivalent model with every block fused; fuse_block
    rejects a block that already is."""
    return replace(model, blocks=tuple(fuse_block(b) for b in model.blocks))


def _he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(DTYPE)


def _random_bn(rng: np.random.Generator, channels: int) -> BatchNormParams:
    # near-neutral scales keep activations O(1) through chained blocks
    return BatchNormParams(
        mu=rng.uniform(-0.1, 0.1, channels).astype(DTYPE),
        sigma=rng.uniform(0.8, 1.25, channels).astype(DTYPE),
        gamma=rng.uniform(0.8, 1.25, channels).astype(DTYPE),
        beta=rng.uniform(-0.1, 0.1, channels).astype(DTYPE),
    )


def random_rep_block(rng: np.random.Generator, c_in: int, c_out: int, stride: int,
                     skip: bool, conv_bias: bool = False) -> RepBlock:
    main = ConvSpec(
        _he_uniform(rng, (c_in, 1, 3, 3), 9),
        _he_uniform(rng, (c_in,), 9) if conv_bias else None,
        stride=stride, padding=1, groups=c_in,
    )
    point = ConvSpec(
        _he_uniform(rng, (c_out, c_in, 1, 1), c_in),
        _he_uniform(rng, (c_out,), c_in) if conv_bias else None,
        stride=1, padding=0, groups=1,
    )
    return RepBlock(
        main=main,
        main_bn=_random_bn(rng, c_in),
        point=point,
        point_bn=_random_bn(rng, c_out),
        skip_bn=_random_bn(rng, c_in) if skip else None,
    )


def _calibrated_bn(rng: np.random.Generator, pre: np.ndarray) -> BatchNormParams:
    # running stats taken from the probe activations, as training would leave them
    return BatchNormParams(
        mu=pre.mean(axis=(1, 2)).astype(DTYPE),
        sigma=np.maximum(pre.std(axis=(1, 2)), 0.05).astype(DTYPE),
        gamma=rng.uniform(0.85, 1.15, pre.shape[0]).astype(DTYPE),
        beta=rng.uniform(-0.05, 0.05, pre.shape[0]).astype(DTYPE),
    )


def random_coarse_model(rng: np.random.Generator) -> CoarseModel:
    """He-uniform weights with BN running stats calibrated on a seeded probe,
    so chained activations stay O(1) and fusion noise stays well under 1e-5."""
    stages = []
    for ci, co in BLOCK_PLAN:
        main = ConvSpec(_he_uniform(rng, (ci, 1, 3, 3), 9), None, padding=1, groups=ci)
        stages.append((main, ConvSpec(_he_uniform(rng, (co, ci, 1, 1), ci))))
    # damped final projection keeps the residual near image range
    final = ConvSpec(
        _he_uniform(rng, (3, BLOCK_PLAN[-1][1], 1, 1), BLOCK_PLAN[-1][1]) * DTYPE(0.25),
        _he_uniform(rng, (3,), BLOCK_PLAN[-1][1]) * DTYPE(0.25),
    )
    probe_img = rng.random((3, 128, 128)).astype(DTYPE)
    probe_mask = (rng.random((1, 128, 128)) < 0.4).astype(DTYPE)
    x = np.concatenate([probe_img * (1.0 - probe_mask), probe_mask], axis=0)
    blocks = []
    for i, (main, point) in enumerate(stages):
        if i == 4:
            x = x.repeat(2, axis=1).repeat(2, axis=2)
        pre = conv2d(x, main)
        main_bn = _calibrated_bn(rng, pre)
        skip_bn = _calibrated_bn(rng, x)
        y = relu(batchnorm(pre, main_bn) + batchnorm(x, skip_bn))
        pre2 = conv2d(y, point)
        point_bn = _calibrated_bn(rng, pre2)
        x = relu(batchnorm(pre2, point_bn))
        if i < 3:
            x = np.ascontiguousarray(x[:, ::2, ::2])
        blocks.append(RepBlock(main, main_bn, point, point_bn, skip_bn))
    return CoarseModel(blocks=tuple(blocks), final=final)
