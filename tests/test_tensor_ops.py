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
    _STRIP_BYTES,
    BatchNormParams,
    ConvSpec,
    _blur_axis,
    batchnorm,
    bilinear_resize,
    conv2d,
    gaussian_blur,
    gaussian_kernel,
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


class TestGaussian:
    @pytest.mark.parametrize("sigma", [0.3, 0.8, 1.5, 3.0])
    def test_kernel_sums_to_one(self, sigma):
        k = gaussian_kernel(sigma)
        assert k.shape[2] == 2 * int(np.ceil(3 * sigma)) + 1
        assert abs(float(k.sum()) - 1.0) < 1e-6

    def test_sigma_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            gaussian_kernel(0.0)
        with pytest.raises(ValueError):
            gaussian_blur(np.zeros((1, 4, 4), F32), -1.0)

    def test_near_delta_small_sigma(self):
        rng = np.random.default_rng(0)
        x = rng.random((3, 8, 8)).astype(F32)
        blurred = gaussian_blur(x, 0.3)
        assert np.abs(blurred - x).max() < 0.05
        oracle = blur_oracle_2d(x, gaussian_kernel(0.3)[0, 0].astype(np.float64))
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
        want = blur_oracle_2d(x, gaussian_kernel(sigma)[0, 0].astype(np.float64))
        assert np.abs(got - want).max() < 1e-5

    @pytest.mark.parametrize("sigma", [0.6, 1.8])
    def test_blur_respects_range(self, sigma):
        rng = np.random.default_rng(4)
        x = rng.random((3, 16, 16)).astype(F32)
        out = gaussian_blur(x, sigma)
        assert out.max() <= x.max() + 1e-6
        assert out.min() >= x.min() - 1e-6

    def test_separable_matches_1d_composition(self):
        g = gaussian_kernel_1d(1.1)
        k2 = gaussian_kernel(1.1)[0, 0]
        assert np.abs(np.outer(g, g) - k2).max() < 1e-7


# --- full-resolution kernels against their untiled forms ---------------------

def _reflect_oracle(n, radius):
    idx = np.arange(-radius, n + radius)
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * (n - 1)
    idx = np.mod(idx, period)
    return np.where(idx >= n, period - idx, idx)


def untiled_blur_axis(x, taps, axis):
    """Whole-array residual-form pass, x + sum_d k_d (x_{+d} + x_{-d} - 2x):
    the reference the first-difference GEMM _blur_axis is held to."""
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


# The GEMM blur sums the same taps as the residual-form oracle in another
# order (first differences, then a BLAS dot per output), so the two may
# differ by a few ulp of the input's largest magnitude: at most 2 on the
# fixed cases here, 3.5 over 1,500 random shapes with radii up to 45.
BLUR_ULPS = 8


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


# strip height of an f32 row of width w is _STRIP_BYTES // (4 * w)
BLUR_CASES = [
    ((1, 37, 4100), 40.0, None),   # radius 120 > strip height 15 and > H
    ((1, 1, 1), 2.0, None),        # radius > extent on both axes
    ((1, 1, 7), 2.0, None),
    ((3, 3, 5), 2.0, None),
    ((3, 70, 2048), 6.35, None),   # H not a multiple of the 32-row strip
    ((3, 50, 1500), 2.0, 5.0),     # anisotropic
]


class TestStripTiledKernels:
    def test_cases_cross_strips(self):
        assert _STRIP_BYTES // (4 * 4100) < 120
        assert 70 % (_STRIP_BYTES // (4 * 2048))

    @pytest.mark.parametrize("layout", ["f32", "f64", "hwc"])
    @pytest.mark.parametrize("shape,sigma,sigma_x", BLUR_CASES)
    def test_blur_equals_untiled(self, shape, sigma, sigma_x, layout):
        x = _input(shape, layout)
        assert_blur_close(gaussian_blur(x, sigma, sigma_x),
                          untiled_gaussian_blur(x, sigma, sigma_x), x)

    @pytest.mark.parametrize("layout", ["f32", "f64", "hwc"])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_blur_axis_equals_untiled(self, axis, layout):
        x = _input((3, 45, 2100), layout, seed=1)
        taps = gaussian_kernel_1d(3.0).astype(F32)
        assert_blur_close(_blur_axis(x, taps, axis), untiled_blur_axis(x, taps, axis), x)

    def test_blur_keeps_signed_zeros(self):
        x = np.zeros((2, 40, 3000), F32)
        x[:, ::2] = -0.0
        assert_bit_equal(gaussian_blur(x, 1.5), untiled_gaussian_blur(x, 1.5))

    def test_w_pass_runs_in_place(self):
        x = _input((3, 45, 2100), "f32", seed=1)
        taps = gaussian_kernel_1d(3.0).astype(F32)
        want = _blur_axis(x, taps, 2)
        assert _blur_axis(x, taps, 2, out=x) is x
        assert_bit_equal(x, want)

    def test_blur_axis_rejects_other_layouts(self):
        taps = gaussian_kernel_1d(1.0).astype(F32)
        with pytest.raises(ValueError):
            _blur_axis(np.zeros((4, 4), F32), taps, 1)
        with pytest.raises(ValueError):
            _blur_axis(np.zeros((1, 4, 4), F32), taps, 0)

    @pytest.mark.parametrize("layout", ["f32", "f64", "hwc", "i64"])
    @pytest.mark.parametrize("shape,out_h,out_w", [
        ((3, 1, 1), 1, 1),
        ((3, 1, 1), 5, 3),
        ((2, 7, 9), 13, 4),          # non-integer ratios
        ((3, 30, 20), 7, 51),
        ((3, 64, 64), 8, 8),         # downscale
        ((3, 200, 96), 17, 700),
        ((3, 64, 48), 512, 384),     # upscale, strips cross channels
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
    """The first-difference GEMM blur: exactness where data are locally
    constant, independence from thread counts, and a property check
    against the residual-form oracle."""

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


def _blur_in_child(x, want):
    assert_bit_equal(gaussian_blur(x, 2.0), want)


class TestStripExecutor:
    @pytest.fixture
    def threads_seen(self, monkeypatch):
        """Idents of the threads that build the blur's first differences."""
        seen = set()
        inner = tensor_ops._reflect_diff

        def recording(*args, **kwargs):
            seen.add(threading.get_ident())
            inner(*args, **kwargs)

        monkeypatch.setattr(tensor_ops, "_reflect_diff", recording)
        return seen

    @pytest.mark.skipif(tensor_ops._cpu_count() < 2, reason="one CPU in the process affinity")
    def test_multi_strip_blur_uses_several_threads(self, threads_seen):
        x = _input((3, 70, 2048), "f32")
        assert_blur_close(gaussian_blur(x, 2.0), untiled_gaussian_blur(x, 2.0), x)
        assert len(threads_seen) > 1

    def test_single_strip_runs_on_calling_thread(self, threads_seen):
        x = _input((1, 4, 16), "f32")
        assert_blur_close(gaussian_blur(x, 2.0), untiled_gaussian_blur(x, 2.0), x)
        assert threads_seen == {threading.get_ident()}

    # w = 2048 gives 32-row strips: 1, 2, 7 and 9 strips per pass, the last
    # one partial, against 1 to 5 workers; the blur must give the bytes of a
    # one-CPU run whatever the split
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("shape", [(2, 5, 2048), (1, 33, 2048), (3, 70, 2048)])
    def test_every_split_equals_untiled(self, monkeypatch, cpus, shape):
        x = _input(shape, "f32", seed=3)
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: 1)
        serial = gaussian_blur(x, 2.0, 3.0)
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: cpus)
        assert_bit_equal(gaussian_blur(x, 2.0, 3.0), serial)
        assert_blur_close(serial, untiled_gaussian_blur(x, 2.0, 3.0), x)
        small = np.ascontiguousarray(x[:, ::2, ::8])
        _, h, w = shape
        assert_bit_equal(bilinear_resize(small, h, w), four_gather_bilinear(small, h, w))

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_forked_child_blurs(self, monkeypatch):
        # the parent's pool threads do not exist in a forked child; a child
        # that submitted to the inherited pool would wait forever
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: 2)
        x = _input((3, 70, 2048), "f32")
        want = gaussian_blur(x, 2.0)
        assert tensor_ops._pool is not None
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
