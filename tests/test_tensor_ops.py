"""Tensor kernel tests: convolution, batchnorm, softmax, resize, Gaussian."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rethined import tensor_ops
from rethined.tensor_ops import (
    BatchNormParams,
    ConvSpec,
    batchnorm,
    bilinear_resize,
    conv2d,
    gaussian_blur,
    gaussian_kernel_1d,
    relu,
    softmax_rows,
)

F32 = np.float32


def conv2d_oracle(x, weights, bias, stride, padding, groups):
    """Naive triple-loop grouped cross-correlation."""
    c_in, h, w = x.shape
    c_out, cpg, s, _ = weights.shape
    xp = np.zeros((c_in, h + 2 * padding, w + 2 * padding), np.float64)
    xp[:, padding:padding + h, padding:padding + w] = x
    h_out = (h + 2 * padding - s) // stride + 1
    w_out = (w + 2 * padding - s) // stride + 1
    out = np.zeros((c_out, h_out, w_out), np.float64)
    opg = c_out // groups
    for oc in range(c_out):
        g = oc // opg
        for oy in range(h_out):
            for ox in range(w_out):
                acc = 0.0
                for ic in range(cpg):
                    for ky in range(s):
                        for kx in range(s):
                            acc += (weights[oc, ic, ky, kx]
                                    * xp[g * cpg + ic, oy * stride + ky, ox * stride + kx])
                out[oc, oy, ox] = acc + (bias[oc] if bias is not None else 0.0)
    return out


class TestConv2d:
    def test_identity_1x1(self):
        rng = np.random.default_rng(0)
        x = rng.random((2, 5, 5)).astype(F32)
        spec = ConvSpec(np.eye(2, dtype=F32).reshape(2, 2, 1, 1))
        assert np.array_equal(conv2d(x, spec), x)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.random((1, 4, 4)).astype(F32)
        w = rng.standard_normal((1, 1, 3, 3)).astype(F32)
        spec = ConvSpec(w, stride=1, padding=0)
        got = conv2d(x, spec)
        want = conv2d_oracle(x, w, None, 1, 0, 1)
        assert got.shape == (1, 2, 2)
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_sweep_grouped(self, seed):
        rng = np.random.default_rng(seed)
        groups = int(rng.choice([1, 2, 4]))
        cpg_in = int(rng.integers(1, 3))
        opg = int(rng.integers(1, 3))
        c_in, c_out = groups * cpg_in, groups * opg
        s = int(rng.choice([1, 3]))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.integers(0, 2))
        h = stride * int(rng.integers(2, 5)) + s - 2 * pad
        x = rng.standard_normal((c_in, h, h)).astype(F32)
        w = rng.standard_normal((c_out, cpg_in, s, s)).astype(F32)
        b = rng.standard_normal(c_out).astype(F32)
        spec = ConvSpec(w, b, stride=stride, padding=pad, groups=groups)
        got = conv2d(x, spec)
        want = conv2d_oracle(x, w, b, stride, pad, groups)
        assert np.abs(got - want).max() < 1e-5

    def test_zero_weights_annihilate(self):
        x = np.random.default_rng(2).random((3, 6, 6)).astype(F32)
        spec = ConvSpec(np.zeros((4, 3, 3, 3), F32), stride=1, padding=1)
        out = conv2d(x, spec)
        assert out.shape == (4, 6, 6)
        assert np.array_equal(out, np.zeros_like(out))

    def test_depthwise_identity_exact(self):
        rng = np.random.default_rng(3)
        x = rng.random((5, 7, 9)).astype(F32)
        w = np.zeros((5, 1, 3, 3), F32)
        w[:, 0, 1, 1] = 1.0
        out = conv2d(x, ConvSpec(w, stride=1, padding=1, groups=5))
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("seed", range(4))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 6, 6)).astype(F32)
        y = rng.standard_normal((2, 6, 6)).astype(F32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(F32)
        spec = ConvSpec(w, stride=1, padding=1)
        a, b = F32(rng.uniform(-2, 2)), F32(rng.uniform(-2, 2))
        lhs = conv2d(a * x + b * y, spec)
        rhs = a * conv2d(x, spec) + b * conv2d(y, spec)
        assert np.abs(lhs - rhs).max() < 1e-5

    def test_channel_mismatch_rejected(self):
        x = np.zeros((2, 4, 4), F32)
        spec = ConvSpec(np.zeros((1, 3, 1, 1), F32))
        with pytest.raises(ValueError):
            conv2d(x, spec)

    def test_non_integral_output_rejected(self):
        x = np.zeros((1, 6, 6), F32)
        spec = ConvSpec(np.zeros((1, 1, 3, 3), F32), stride=2, padding=1)
        with pytest.raises(ValueError):
            conv2d(x, spec)

    def test_even_kernel_requires_matching_stride(self):
        with pytest.raises(ValueError):
            ConvSpec(np.zeros((1, 1, 2, 2), F32), stride=1)
        ConvSpec(np.zeros((1, 1, 2, 2), F32), stride=2)  # patching conv is fine


class TestBatchNorm:
    def test_identity_params(self):
        x = np.random.default_rng(0).standard_normal((3, 4, 4)).astype(F32)
        p = BatchNormParams(np.zeros(3, F32), np.ones(3, F32), np.ones(3, F32), np.zeros(3, F32))
        assert np.array_equal(batchnorm(x, p), x)

    def test_zero_gamma_gives_bias(self):
        x = np.random.default_rng(1).standard_normal((2, 3, 3)).astype(F32)
        p = BatchNormParams(np.zeros(2, F32), np.ones(2, F32), np.zeros(2, F32),
                            np.full(2, 5.0, F32))
        assert np.array_equal(batchnorm(x, p), np.full_like(x, 5.0))

    def test_matches_scalar_formula(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 3)).astype(F32)
        p = BatchNormParams(
            rng.standard_normal(2).astype(F32),
            rng.uniform(0.5, 2.0, 2).astype(F32),
            rng.standard_normal(2).astype(F32),
            rng.standard_normal(2).astype(F32),
        )
        got = batchnorm(x, p)
        for c in range(2):
            for i in range(3):
                for j in range(3):
                    want = p.gamma[c] * (x[c, i, j] - p.mu[c]) / p.sigma[c] + p.beta[c]
                    assert abs(got[c, i, j] - want) < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_analytic_inverse_recovers_input(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 5, 5)).astype(F32)
        p = BatchNormParams(
            rng.standard_normal(3).astype(F32),
            rng.uniform(0.5, 2.0, 3).astype(F32),
            rng.uniform(0.5, 2.0, 3).astype(F32),  # gamma != 0
            rng.standard_normal(3).astype(F32),
        )
        y = batchnorm(x, p)
        back = (y - p.beta[:, None, None]) / p.gamma[:, None, None] * p.sigma[:, None, None] \
            + p.mu[:, None, None]
        assert np.abs(back - x).max() < 1e-5

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            BatchNormParams(np.zeros(1, F32), np.zeros(1, F32), np.ones(1, F32), np.zeros(1, F32))


class TestRelu:
    def test_all_negative(self):
        assert np.array_equal(relu(np.array([-3.0, -0.5], F32)), np.zeros(2, F32))

    def test_all_positive_identity(self):
        x = np.array([0.5, 2.0], F32)
        assert np.array_equal(relu(x), x)

    def test_mixed(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0], F32)),
                              np.array([0.0, 0.0, 2.0], F32))


class TestSoftmaxRows:
    def test_uniform_rows(self):
        out = softmax_rows(np.full((3, 4), 2.5, F32))
        assert np.abs(out - 0.25).max() < 1e-6

    def test_analytic_log2_row(self):
        out = softmax_rows(np.array([[0.0, np.log(2.0)]], F32))
        assert np.abs(out - np.array([[1 / 3, 2 / 3]])).max() < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6)).astype(F32)
        shifted = x + rng.standard_normal((4, 1)).astype(F32)
        assert np.abs(softmax_rows(x) - softmax_rows(shifted)).max() < 1e-6

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_rows_sum_to_one(self, scale):
        rng = np.random.default_rng(1)
        x = (rng.standard_normal((8, 32)) * scale).astype(F32)
        out = softmax_rows(x)
        assert (out >= 0).all()
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6

    def test_nan_rejected(self):
        x = np.array([[0.0, np.nan]], F32)
        with pytest.raises(ValueError):
            softmax_rows(x)


def bilinear_oracle(x, out_h, out_w):
    """Per-pixel align-corners-false sampling formula."""
    c, h, w = x.shape
    out = np.zeros((c, out_h, out_w), np.float64)
    for i in range(out_h):
        for j in range(out_w):
            sy = (i + 0.5) * h / out_h - 0.5
            sx = (j + 0.5) * w / out_w - 0.5
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            fy, fx = sy - y0, sx - x0
            y0c, y1c = np.clip([y0, y0 + 1], 0, h - 1)
            x0c, x1c = np.clip([x0, x0 + 1], 0, w - 1)
            for ch in range(c):
                top = x[ch, y0c, x0c] * (1 - fx) + x[ch, y0c, x1c] * fx
                bot = x[ch, y1c, x0c] * (1 - fx) + x[ch, y1c, x1c] * fx
                out[ch, i, j] = top * (1 - fy) + bot * fy
    return out


class TestBilinearResize:
    def test_same_size_identity(self):
        x = np.random.default_rng(0).random((3, 5, 7)).astype(F32)
        assert np.array_equal(bilinear_resize(x, 5, 7), x)

    @pytest.mark.parametrize("out_h,out_w", [(3, 3), (8, 8), (2, 9)])
    def test_constant_preserved(self, out_h, out_w):
        x = np.full((2, 4, 6), 0.37, F32)
        out = bilinear_resize(x, out_h, out_w)
        assert np.array_equal(out, np.full((2, out_h, out_w), F32(0.37)))

    def test_2x2_to_4x4_matches_formula(self):
        x = np.array([[[0.0, 1.0], [2.0, 3.0]]], F32)
        got = bilinear_resize(x, 4, 4)
        want = bilinear_oracle(x, 4, 4)
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_random_resize_matches_formula(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((2, 5, 4)).astype(F32)
        out_h, out_w = int(rng.integers(1, 11)), int(rng.integers(1, 11))
        got = bilinear_resize(x, out_h, out_w)
        want = bilinear_oracle(x, out_h, out_w)
        assert np.abs(got - want).max() < 1e-6


def blur_oracle_2d(x, kernel2d):
    """Direct 2-D correlation with reflect padding."""
    c, h, w = x.shape
    k = kernel2d.shape[0]
    r = k // 2

    def refl(i, n):
        period = 2 * (n - 1)
        i = i % period
        return period - i if i >= n else i

    out = np.zeros_like(x, dtype=np.float64)
    for ch in range(c):
        for y in range(h):
            for xx in range(w):
                acc = 0.0
                for dy in range(-r, r + 1):
                    for dx in range(-r, r + 1):
                        acc += kernel2d[dy + r, dx + r] * x[ch, refl(y + dy, h), refl(xx + dx, w)]
                out[ch, y, xx] = acc
    return out


def gaussian_kernel_2d(sigma):
    g = gaussian_kernel_1d(sigma)
    return np.outer(g, g)


class TestGaussian:
    @pytest.mark.parametrize("sigma", [0.3, 0.8, 1.5, 3.0])
    def test_kernel_sums_to_one(self, sigma):
        k = gaussian_kernel_2d(sigma)
        assert k.shape[0] == 2 * int(np.ceil(3 * sigma)) + 1
        assert abs(float(k.sum()) - 1.0) < 1e-6

    def test_sigma_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            gaussian_kernel_1d(0.0)
        with pytest.raises(ValueError):
            gaussian_blur(np.zeros((1, 4, 4), F32), -1.0)
        with pytest.raises(ValueError):
            gaussian_blur(np.zeros((4, 4), F32), 1.0)

    def test_near_delta_small_sigma(self):
        rng = np.random.default_rng(0)
        x = rng.random((3, 8, 8)).astype(F32)
        blurred = gaussian_blur(x, 0.3)
        assert np.abs(blurred - x).max() < 0.05
        oracle = blur_oracle_2d(x, gaussian_kernel_2d(0.3))
        assert np.abs(blurred - oracle).max() < 1e-5

    @pytest.mark.parametrize("sigma", [0.5, 1.2])
    def test_constant_image_bit_exact(self, sigma):
        x = np.full((3, 10, 12), 0.61, F32)
        assert np.array_equal(gaussian_blur(x, sigma), x)

    @pytest.mark.parametrize("seed,sigma", [(0, 0.7), (1, 1.4), (2, 2.2)])
    def test_matches_direct_2d_oracle(self, seed, sigma):
        rng = np.random.default_rng(seed)
        x = rng.random((1, 9, 9)).astype(F32)
        got = gaussian_blur(x, sigma)
        want = blur_oracle_2d(x, gaussian_kernel_2d(sigma))
        assert np.abs(got - want).max() < 1e-5

    @pytest.mark.parametrize("sigma", [0.6, 1.8])
    def test_blur_respects_range(self, sigma):
        rng = np.random.default_rng(4)
        x = rng.random((3, 16, 16)).astype(F32)
        out = gaussian_blur(x, sigma)
        assert out.max() <= x.max() + 1e-6
        assert out.min() >= x.min() - 1e-6


# --- full-resolution kernels against their untiled forms ---------------------

def _reflect_oracle(n, radius):
    idx = np.arange(-radius, n + radius)
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * (n - 1)
    idx = np.mod(idx, period)
    return np.where(idx >= n, period - idx, idx)


def untiled_blur_axis(x, taps, axis):
    """Whole-array residual-form pass, x + sum_d k_d (x_{+d} + x_{-d} - 2x),
    in the input's dtype."""
    n = x.shape[axis]
    radius = len(taps) // 2
    padded = np.take(x, _reflect_oracle(n, radius), axis=axis)
    acc = np.zeros_like(x)
    tmp = np.empty_like(x)
    x2 = x + x
    sel = [slice(None)] * x.ndim
    for d in range(1, radius + 1):
        kv = taps[radius + d]
        sel[axis] = slice(radius + d, radius + d + n)
        plus = padded[tuple(sel)]
        sel[axis] = slice(radius - d, radius - d + n)
        minus = padded[tuple(sel)]
        np.add(plus, minus, out=tmp)
        tmp -= x2
        tmp *= kv
        acc += tmp
    return x + acc


def direct_blur_f64(x, sigma, sigma_x=None):
    """The direct sum of taps over the reflect-padded axes, H then W, in
    float64."""
    out = x.astype(np.float64)
    for axis, s in ((1, sigma), (2, sigma if sigma_x is None else sigma_x)):
        taps = gaussian_kernel_1d(s)
        n = out.shape[axis]
        padded = np.take(out, _reflect_oracle(n, len(taps) // 2), axis=axis)
        out = sum(t * np.take(padded, np.arange(k, k + n), axis=axis) for k, t in enumerate(taps))
    return out


def untiled_gaussian_blur(x, sigma, sigma_x=None):
    taps_y = gaussian_kernel_1d(sigma).astype(F32)
    taps_x = gaussian_kernel_1d(sigma if sigma_x is None else sigma_x).astype(F32)
    out = untiled_blur_axis(x.astype(F32, copy=False), taps_x, axis=2)
    return untiled_blur_axis(out, taps_y, axis=1)


def four_gather_bilinear(x, out_h, out_w):
    """2-D bilinear with four full-size gathers, W lerp then H lerp: the
    reference the separable bilinear_resize must equal bit for bit."""
    c, h, w = x.shape
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    y0f = np.floor(ys)
    x0f = np.floor(xs)
    fy = (ys - y0f).astype(F32)
    fx = (xs - x0f).astype(F32)
    y0 = np.clip(y0f.astype(np.int64), 0, h - 1)
    y1 = np.clip(y0f.astype(np.int64) + 1, 0, h - 1)
    x0 = np.clip(x0f.astype(np.int64), 0, w - 1)
    x1 = np.clip(x0f.astype(np.int64) + 1, 0, w - 1)
    rows0 = x[:, y0, :]
    rows1 = x[:, y1, :]
    v00 = rows0[:, :, x0]
    v01 = rows0[:, :, x1]
    v10 = rows1[:, :, x0]
    v11 = rows1[:, :, x1]
    top = v00 + fx * (v01 - v00)
    bot = v10 + fx * (v11 - v10)
    out = top + fy[None, :, None] * (bot - top)
    return out.astype(F32, copy=False)


def assert_bit_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


# The blur sums the same taps as the residual-form oracle in another order
# (a float64 GEMM per pass, rounded to float32) and the oracle rounds in
# float32 at every tap, so the two may differ by a few ulp of the input's
# largest magnitude.
BLUR_ULPS = 8

# Each pass rounds a float64 GEMM to float32 once, so the blur is within two
# half-ulp roundings, 1 ulp of the input's largest magnitude, of the float64
# direct sum; 0.49 measured over 3,000 random cases of the Hypothesis shapes
# and sigmas of TestGemmBlur.
DIRECT_ULPS = 1


def assert_blur_close(got, want, x):
    assert got.shape == want.shape and got.dtype == want.dtype
    bound = BLUR_ULPS * np.finfo(want.dtype).eps * np.abs(x).max()
    assert np.abs(got.astype(np.float64) - want).max() <= bound


def _input(shape, layout, seed=0):
    x = np.random.default_rng(seed).random(shape).astype(F32)
    if layout == "f64":
        return x.astype(np.float64)
    if layout == "i64":
        return (x * 1000).astype(np.int64)
    if layout == "hwc":  # channels-last strides, as a transposed HWC decode has
        return np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)
    return x


# the blur's operator blocks are _LR_BLOCK = 8 rows or columns
BLUR_CASES = [
    ((1, 37, 4100), 40.0, None),   # radius 120 > the 8-row block and > H
    ((1, 1, 1), 2.0, None),        # radius > extent on both axes
    ((1, 1, 7), 2.0, None),
    ((3, 3, 5), 2.0, None),
    ((3, 70, 2048), 6.35, None),   # H not a multiple of the 8-row block
    ((3, 50, 1500), 2.0, 5.0),     # anisotropic
]


class TestStripTiledKernels:
    def test_cases_cross_strips(self):
        # the blur's strips are its operator blocks of _LR_BLOCK outputs
        block = tensor_ops._LR_BLOCK
        assert len(gaussian_kernel_1d(40.0)) // 2 == 120 > 37 > block
        assert 37 % block and 70 % block

    @pytest.mark.parametrize("layout", ["f32", "f64", "hwc"])
    @pytest.mark.parametrize("shape,sigma,sigma_x", BLUR_CASES)
    def test_blur_equals_untiled(self, shape, sigma, sigma_x, layout):
        x = _input(shape, layout)
        assert_blur_close(gaussian_blur(x, sigma, sigma_x),
                          untiled_gaussian_blur(x, sigma, sigma_x), x)

    @pytest.mark.parametrize("layout", ["f32", "f64", "hwc"])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_blur_axis_equals_untiled(self, axis, layout):
        # an extent of 1 makes the other axis's pass the exact identity
        shape = (3, 2100, 1) if axis == 1 else (3, 1, 2100)
        x = _input(shape, layout, seed=1)
        taps = gaussian_kernel_1d(3.0).astype(F32)
        assert_blur_close(gaussian_blur(x, 3.0), untiled_blur_axis(x.astype(F32), taps, axis), x)

    def test_blur_keeps_signed_zeros(self):
        x = np.zeros((2, 40, 3000), F32)
        x[:, ::2] = -0.0
        assert_bit_equal(gaussian_blur(x, 1.5), untiled_gaussian_blur(x, 1.5))

    @pytest.mark.parametrize("layout", ["f32", "f64", "hwc", "i64"])
    @pytest.mark.parametrize("shape,out_h,out_w", [
        ((3, 1, 1), 1, 1),
        ((3, 1, 1), 5, 3),
        ((2, 7, 9), 13, 4),          # non-integer ratios
        ((3, 30, 20), 7, 51),
        ((3, 64, 64), 8, 8),         # downscale
        ((3, 200, 96), 17, 700),
        ((3, 64, 48), 512, 384),     # upscale
    ])
    def test_bilinear_equals_four_gather(self, shape, out_h, out_w, layout):
        x = _input(shape, layout, seed=2)
        assert_bit_equal(bilinear_resize(x, out_h, out_w), four_gather_bilinear(x, out_h, out_w))


def _blockwise_constant(shape, block, seed):
    """Random levels on block x block tiles."""
    c, h, w = shape
    levels = np.random.default_rng(seed).random((c, -(-h // block), -(-w // block))).astype(F32)
    return np.repeat(np.repeat(levels, block, axis=1), block, axis=2)[:, :h, :w].copy()


_BLUR_CHILD = """
import hashlib, sys
import numpy as np
from rethined.tensor_ops import gaussian_blur
x = np.random.default_rng(5).random((3, 300, 700)).astype(np.float32)
sys.stdout.write(hashlib.sha256(gaussian_blur(x, 6.35, 2.0).tobytes()).hexdigest())
"""


class TestGemmBlur:
    """The blur as banded float64 GEMMs: exactness where data are locally
    constant, independence from thread counts, and property checks against
    the residual-form and direct-sum oracles."""

    @pytest.mark.parametrize("sigma,sigma_x", [(1.5, None), (2.0, 5.0), (6.35, None)])
    def test_constant_windows_bit_exact(self, sigma, sigma_x):
        x = _blockwise_constant((3, 192, 260), 64, seed=4)
        ry = len(gaussian_kernel_1d(sigma)) // 2
        rx = len(gaussian_kernel_1d(sigma if sigma_x is None else sigma_x)) // 2
        padded = np.pad(x, ((0, 0), (ry, ry), (rx, rx)), mode="reflect")
        win = np.lib.stride_tricks.sliding_window_view(padded, (2 * ry + 1, 2 * rx + 1), axis=(1, 2))
        flat = win.max(axis=(3, 4)) == win.min(axis=(3, 4))
        assert 0.1 < flat.mean() < 0.9
        out = gaussian_blur(x, sigma, sigma_x)
        assert_bit_equal(out[flat], x[flat])

    def test_same_bytes_with_one_blas_thread(self):
        import rethined

        x = np.random.default_rng(5).random((3, 300, 700)).astype(F32)
        want = hashlib.sha256(gaussian_blur(x, 6.35, 2.0).tobytes()).hexdigest()
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(rethined.__file__).resolve().parents[1]))
        child = subprocess.run([sys.executable, "-c", _BLUR_CHILD], env=env, capture_output=True,
                               text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stdout == want

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(1, 3), h=st.integers(1, 40), w=st.integers(1, 300),
           sigma=st.floats(0.3, 15.0), sigma_x=st.none() | st.floats(0.3, 15.0),
           seed=st.integers(0, 2 ** 16))
    def test_matches_residual_oracle(self, c, h, w, sigma, sigma_x, seed):
        # radii run to 45, past the extent of most generated axes
        x = np.random.default_rng(seed).random((c, h, w)).astype(F32)
        assert_blur_close(gaussian_blur(x, sigma, sigma_x), untiled_gaussian_blur(x, sigma, sigma_x), x)

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(1, 3), h=st.integers(1, 40), w=st.integers(1, 300),
           sigma=st.floats(0.3, 15.0), sigma_x=st.none() | st.floats(0.3, 15.0),
           seed=st.integers(0, 2 ** 16))
    def test_matches_float64_direct_sum(self, c, h, w, sigma, sigma_x, seed):
        x = np.random.default_rng(seed).random((c, h, w)).astype(F32)
        err = np.abs(gaussian_blur(x, sigma, sigma_x) - direct_blur_f64(x, sigma, sigma_x)).max()
        assert err <= DIRECT_ULPS * np.finfo(F32).eps * np.abs(x).max()


def _blur_in_child(x, want):
    assert_bit_equal(gaussian_blur(x, 2.0), want)


class TestStripExecutor:
    """The full-resolution kernels cut into _split's slices."""

    # `split` cuts the blur's (channel, 8-row block) items into that many
    # slices, or as many as there are items; the blur keeps its one-slice
    # bytes, and the resize, which has no slices, its four-gather form
    @pytest.mark.parametrize("split", [1, 2, 3, 5])
    @pytest.mark.parametrize("shape", [(2, 5, 2048), (1, 33, 2048), (3, 70, 2048)])
    def test_every_split_equals_untiled(self, monkeypatch, split, shape):
        x = _input(shape, "f32", seed=3)
        c, h, w = shape
        want = gaussian_blur(x, 2.0, 3.0)
        assert_blur_close(want, untiled_gaussian_blur(x, 2.0, 3.0), x)
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: split)
        monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)
        assert_bit_equal(gaussian_blur(x, 2.0, 3.0), want)
        small = np.ascontiguousarray(x[:, ::2, ::8])
        assert_bit_equal(bilinear_resize(small, h, w), four_gather_bilinear(small, h, w))

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_forked_child_blurs(self):
        # a child forked after the parent has blurred blurs to the same bytes
        x = _input((3, 70, 2048), "f32")
        want = gaussian_blur(x, 2.0)
        child = multiprocessing.get_context("fork").Process(target=_blur_in_child, args=(x, want))
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


def _peak_alloc(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    def test_blur_peak_below_3x_input(self):
        x = np.random.default_rng(0).random((3, 1024, 1024)).astype(F32)
        assert _peak_alloc(gaussian_blur, x, 3.1) < 3 * x.nbytes

    def test_bilinear_upsample_peak_below_6x_output(self):
        x = np.random.default_rng(0).random((3, 256, 256)).astype(F32)
        out_bytes = 3 * 1024 * 1024 * 4
        assert _peak_alloc(bilinear_resize, x, 1024, 1024) < 6 * out_bytes


class TestScratch:
    def test_role_reuses_and_grows(self):
        a = tensor_ops._scratch("test.role", (4, 5))
        assert a.shape == (4, 5) and a.dtype == F32 and a.flags.c_contiguous
        b = tensor_ops._scratch("test.role", (2, 3), np.float64)
        assert b.dtype == np.float64 and np.shares_memory(a, b)
        c = tensor_ops._scratch("test.role", (100, 100))
        assert c.shape == (100, 100) and not np.shares_memory(a, c)
        assert np.shares_memory(c, tensor_ops._scratch("test.role", (7,)))
        assert not np.shares_memory(c, tensor_ops._scratch("test.other", (100, 100)))

    def test_threads_get_their_own_buffers(self):
        mine = tensor_ops._scratch("test.thread", (64,))
        theirs = []
        t = threading.Thread(target=lambda: theirs.append(tensor_ops._scratch("test.thread", (64,))))
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
        assert not np.shares_memory(mine, theirs[0])


def _blas_threads():
    get, _ = tensor_ops._openblas()
    return get()


needs_openblas = pytest.mark.skipif(tensor_ops._openblas() is None,
                                    reason="numpy's BLAS is not an OpenBLAS")


class TestBlasHold:
    """_one_blas_thread: one BLAS thread while any holder is inside, the
    saved count back when the last one leaves, nothing on other BLAS."""

    @needs_openblas
    def test_nested_and_overlapping_holds_restore_the_count(self):
        before = _blas_threads()
        inside, release, seen = threading.Event(), threading.Event(), []

        def other():
            with tensor_ops._one_blas_thread():
                inside.set()
                release.wait(timeout=30)

        t = threading.Thread(target=other)
        t.start()
        assert inside.wait(timeout=30)
        with tensor_ops._one_blas_thread() as held:
            with tensor_ops._one_blas_thread():
                seen.append(_blas_threads())
            seen.append(_blas_threads())
        # the other thread still holds: the count stays at one
        seen.append(_blas_threads())
        release.set()
        t.join(timeout=30)
        assert held and seen == [1, 1, 1]
        assert _blas_threads() == before

    @needs_openblas
    def test_count_restored_after_an_error(self):
        before = _blas_threads()
        with pytest.raises(KeyError):
            with tensor_ops._one_blas_thread():
                raise KeyError("boom")
        assert _blas_threads() == before

    def test_no_hold_and_no_split_without_openblas(self, monkeypatch):
        monkeypatch.setattr(tensor_ops, "_openblas", lambda: None)
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: 4)
        monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)
        with tensor_ops._one_blas_thread() as held:
            assert held is False
        callers = []
        out = tensor_ops._split(lambda part: callers.append(threading.current_thread()) or len(part),
                                range(10), 1 << 30)
        assert out == [10] and callers == [threading.current_thread()]


class TestSplit:
    """_split: contiguous slices, one per CPU, all done before it returns."""

    @needs_openblas
    @pytest.mark.parametrize("cpus,n,want", [(3, 10, [3, 3, 4]), (2, 1, [1]), (4, 3, [1, 1, 1])])
    def test_slices_are_contiguous_and_in_order(self, monkeypatch, cpus, n, want):
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)
        parts = tensor_ops._split(lambda part: (list(part), _blas_threads()), range(n), 1 << 30)
        assert [len(p) for p, _ in parts] == want
        assert [i for p, _ in parts for i in p] == list(range(n))
        assert {threads for _, threads in parts} == {1}

    @needs_openblas
    def test_small_work_and_one_cpu_run_inline(self, monkeypatch):
        me = threading.current_thread()
        job = lambda part: threading.current_thread() is me  # noqa: E731
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: 2)
        assert tensor_ops._split(job, range(8), 2 * tensor_ops._PART_BYTES - 1) == [True]
        assert tensor_ops._split(job, range(8), 2 * tensor_ops._PART_BYTES) == [True, False]
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: 1)
        assert tensor_ops._split(job, range(8), 1 << 30) == [True]

    @needs_openblas
    def test_first_error_raised_after_every_slice_ran(self, monkeypatch):
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: 3)
        monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)
        before, ran = _blas_threads(), []

        def job(part):
            ran.append(part[0])
            if part[0] > 0:
                raise ValueError(f"slice {part[0]}")

        monkeypatch.setattr(tensor_ops, "_peers", [])
        with pytest.raises(ValueError, match="^slice 2$"):
            tensor_ops._split(job, range(6), 1 << 30)
        assert sorted(ran) == [0, 2, 4]
        assert _blas_threads() == before
        # both peers are idle again, and the next split runs on them
        peers = tensor_ops._peers
        assert len(peers) == 2 and not any(p.claim.locked() for p in peers)
        names = tensor_ops._split(lambda part: threading.current_thread().name, range(6), 1 << 30)
        assert names == [threading.current_thread().name, "rethined-split-1", "rethined-split-2"]
        assert len(tensor_ops._peers) == 2 and not any(p.claim.locked() for p in peers)

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_whole_slice_reads_and_checks_keep_their_bytes(self, monkeypatch, parts, tmp_path):
        # read_image, value_range and require_binary make one numpy call per
        # channel or per slice; a 0.5 at the end of the first slice and a NaN
        # at the start of the last one are caught, and the rest equals one
        # whole-array call
        from rethined.image_io import read_image

        raw = np.random.default_rng(8).integers(0, 256, (131, 517, 3), dtype=np.uint8)
        (tmp_path / "img.ppm").write_bytes(b"P6\n517 131\n255\n" + raw.tobytes())
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: parts)
        monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)
        x = read_image(tmp_path / "img.ppm")
        assert x.tobytes() == (raw.transpose(2, 0, 1).astype(F32) / F32(255.0)).tobytes()
        assert tensor_ops.value_range(x) == (float(x.min()), float(x.max()))
        rows = [131 * i // parts for i in range(parts + 1)]
        for value, where in ((0.5, (2, rows[1] - 1, 516)), (np.nan, (0, rows[-2], 0))):
            bad = x.copy()
            bad[where] = value
            want = (np.nan, np.nan) if np.isnan(value) else (float(x.min()), float(x.max()))
            np.testing.assert_equal(tensor_ops.value_range(bad), want)
        mask = (x[:1] > 0.5).astype(F32)
        tensor_ops.require_binary(mask)
        flat = [mask.size * i // parts for i in range(parts + 1)]
        for value, index in ((0.5, flat[1] - 1), (np.nan, flat[-2])):
            bad = mask.copy()
            bad.reshape(-1)[index] = value
            with pytest.raises(ValueError, match="mask values must be binary"):
                tensor_ops.require_binary(bad)

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_kernels_give_the_same_bytes_in_any_number_of_slices(self, monkeypatch, parts, tmp_path):
        from rethined.image_io import read_image, write_image

        x = _input((3, 130, 2048), "f32", seed=6)
        write_image(x, tmp_path / "want.ppm")
        want = [gaussian_blur(x, 2.0, 3.0), read_image(tmp_path / "want.ppm")]
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: parts)
        monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)
        assert_bit_equal(gaussian_blur(x, 2.0, 3.0), want[0])
        write_image(x, tmp_path / "got.ppm")
        assert (tmp_path / "got.ppm").read_bytes() == (tmp_path / "want.ppm").read_bytes()
        assert_bit_equal(read_image(tmp_path / "got.ppm"), want[1])
        assert tensor_ops.value_range(x) == (float(x.min()), float(x.max()))
        for where in ((0, 0, 0), (2, 129, 2047), (1, 64, 5)):
            bad = x.copy()
            bad[where] = np.nan
            assert np.isnan(tensor_ops.value_range(bad)).all()
            bad[where] = -np.inf
            assert tensor_ops.value_range(bad) == (-np.inf, float(x.max()))
        mask = (x[:1] > 0.5).astype(F32)
        tensor_ops.require_binary(mask)
        for where in ((0, 0, 0), (0, 129, 2047), (0, 64, 5)):
            for value in (0.5, np.nan, -1.0):
                bad = mask.copy()
                bad[where] = value
                with pytest.raises(ValueError, match="mask values must be binary"):
                    tensor_ops.require_binary(bad)


def _split_in_child(parent_names):
    names = tensor_ops._split(lambda part: threading.current_thread().name, range(4), 1 << 30)
    alive = {t.name for t in threading.enumerate()}
    sys.exit(0 if names[1] == "rethined-split-1" and names[1] in alive else 1)


@needs_openblas
class TestPeers:
    """The long-lived peers that run _split's slices and _shared's units:
    claimed without waiting, idle at every exit, re-created after a fork."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(tensor_ops, "_peers", [])
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: 2)
        monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)

    @staticmethod
    def _bounded(fn):
        """fn() on a thread that must finish within 60 s, so a deadlock fails
        the test instead of hanging it; fn's result."""
        box = []
        t = threading.Thread(target=lambda: box.append(fn()), daemon=True)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive(), "deadlocked"
        return box[0]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_forked_child_splits_on_a_peer_of_its_own(self):
        names = tensor_ops._split(lambda part: threading.current_thread().name, range(4), 1 << 30)
        assert names[1] == "rethined-split-1"
        child = multiprocessing.get_context("fork").Process(target=_split_in_child, args=(names,))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0

    def test_split_nested_in_a_peer_job_runs_inline(self):
        def outer(part):
            me = threading.current_thread().name
            inner = tensor_ops._split(lambda p: threading.current_thread().name, range(4), 1 << 30)
            return me, inner

        got = self._bounded(lambda: tensor_ops._split(outer, range(4), 1 << 30))
        assert got[1][0] == "rethined-split-1"
        # the only peer is busy with the outer slices, so each inner split
        # runs on the thread of its outer slice
        assert all(inner == [me, me] for me, inner in got)
        assert not tensor_ops._peers[0].claim.locked()

    def test_split_during_the_overlap_runs_inline(self):
        started, release, ran = threading.Event(), threading.Event(), []

        def unit(item):
            started.set()
            release.wait(timeout=30)
            ran.append((item, threading.current_thread().name))

        def overlap():
            with tensor_ops._shared(unit, range(3), 1 << 30):
                # only the peer takes units before the block ends
                assert started.wait(timeout=30)
                me = threading.current_thread().name
                inner = tensor_ops._split(lambda p: threading.current_thread().name, range(4), 1 << 30)
                release.set()
            return me, inner

        me, inner = self._bounded(overlap)
        assert inner == [me, me]
        assert sorted(i for i, _ in ran) == [0, 1, 2] and dict(ran)[0] == "rethined-split-1"
        assert not tensor_ops._peers[0].claim.locked()

    def test_raise_in_the_overlap_waits_for_the_peer(self):
        started, ran = threading.Event(), []

        def unit(item):
            started.set()
            ran.append(item)

        with pytest.raises(KeyError):
            with tensor_ops._shared(unit, range(1000), 1 << 30):
                assert started.wait(timeout=30)
                raise KeyError("block")
        # the peer stopped at the first unit it took after the raise; the
        # rest were dropped, and none ran twice
        assert not tensor_ops._peers[0].claim.locked()
        assert len(ran) == len(set(ran)) and set(ran) == set(range(len(ran)))

    def test_unit_error_raised_after_the_peer_finished(self):
        def unit(item):
            if item == 3:
                raise ValueError("unit 3")

        with pytest.raises(ValueError, match="^unit 3$"):
            with tensor_ops._shared(unit, range(8), 1 << 30):
                pass
        assert not tensor_ops._peers[0].claim.locked()
