"""Frequency decomposition, the shared HR low-pass, HR patch grids and HR
composition tests."""

import math

import numpy as np
import pytest

from rethined.attention import AttentionMap, mask_attention, token_mix
from rethined.patches import hr_patches, pixel_shuffle
from rethined.pipeline import PipelineConfig, downsample_to_lr
from rethined.tensor_ops import bilinear_resize, gaussian_blur, gaussian_kernel_1d, softmax_rows
from rethined.upscale import compose_hr, frequency_split, sigma_for_factor

F32 = np.float32


def separable_blur_oracle(x, sigma):
    """Reflect-padded separable Gaussian in float64."""
    taps = gaussian_kernel_1d(sigma)
    r = len(taps) // 2

    def refl(i, n):
        period = 2 * (n - 1)
        i = i % period
        return period - i if i >= n else i

    def pass_axis(img, axis):
        out = np.zeros_like(img, dtype=np.float64)
        n = img.shape[axis]
        for t, k in enumerate(taps):
            idx = np.array([refl(i + t - r, n) for i in range(n)])
            out += k * np.take(img, idx, axis=axis)
        return out

    return pass_axis(pass_axis(x.astype(np.float64), 2), 1)


def bilinear_oracle(x, out_h, out_w):
    """Align-corners-false, edge-replicated bilinear resize in float64."""

    def weights(n, out_n):
        m = np.zeros((out_n, n))
        for i in range(out_n):
            s = (i + 0.5) * n / out_n - 0.5
            i0 = math.floor(s)
            m[i, min(max(i0, 0), n - 1)] += 1.0 - (s - i0)
            m[i, min(max(i0 + 1, 0), n - 1)] += s - i0
        return m

    _, h, w = x.shape
    return np.einsum("yh,chw,xw->cyx", weights(h, out_h), x, weights(w, out_w))


def low_pass(x_hr, x_lr):
    """The HR low-pass downsample_to_lr hands to compose_hr."""
    (_, h_hr, w_hr), (_, h, w) = x_hr.shape, x_lr.shape
    return gaussian_blur(x_hr, sigma_for_factor(h_hr // h), sigma_for_factor(w_hr // w))


def identity_masked_map(n, rows, cols):
    a = softmax_rows(np.zeros((n, n), F32))
    return mask_attention(AttentionMap(a, False, rows, cols), np.zeros(n, F32))


class TestFrequencySplit:
    def test_sigma_rule(self):
        assert sigma_for_factor(1.0) == 1e-3
        assert abs(sigma_for_factor(4.0) - 0.8 * np.sqrt(15.0)) < 1e-12
        with pytest.raises(ValueError):
            sigma_for_factor(0.5)

    def test_no_downsampling_limit(self):
        rng = np.random.default_rng(0)
        x = rng.random((3, 16, 16)).astype(F32)
        split = frequency_split(x, 1.0)
        assert np.abs(split.high).max() < 1e-3
        assert np.abs(split.low - x).max() < 1e-3

    def test_constant_gives_zero_high(self):
        x = np.full((3, 16, 16), 0.77, F32)
        split = frequency_split(x, 4.0)
        assert np.array_equal(split.high, np.zeros_like(split.high))

    def test_exact_reconstruction(self):
        rng = np.random.default_rng(1)
        x = rng.random((3, 32, 32)).astype(F32)
        split = frequency_split(x, 4.0)
        assert np.array_equal(split.low + split.high, x.astype(np.float64))

    def test_quantized_exact_reconstruction(self):
        rng = np.random.default_rng(2)
        x = (rng.integers(0, 256, (3, 24, 24)) / 255.0).astype(F32)
        split = frequency_split(x, 2.0)
        assert np.array_equal(split.low + split.high, x.astype(np.float64))

    def test_low_matches_separable_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.random((3, 16, 16)).astype(F32)
        split = frequency_split(x, 4.0)
        want = separable_blur_oracle(x, sigma_for_factor(4.0))
        assert np.abs(split.low - want).max() < 1e-5


class TestHrPatches:
    """hr_patches and pixel_shuffle on rectangular HR patches."""

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.random((3, 24, 16)).astype(F32)
        grid = hr_patches(x, 6, 8)
        assert grid.count == 8
        assert np.array_equal(pixel_shuffle(grid), x)

    def test_layout_matches_slicing(self):
        rng = np.random.default_rng(1)
        x = rng.random((3, 8, 8)).astype(F32)
        grid = hr_patches(x, 4, 4)
        assert np.array_equal(grid.patches[3], x[:, 4:, 4:].reshape(-1))

    def test_divisibility(self):
        with pytest.raises(ValueError):
            hr_patches(np.zeros((3, 10, 8), F32), 4, 4)


class TestHfTokenMix:
    """token_mix on HR high-frequency patch grids."""

    def test_identity_map_bit_exact(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 16, 16)).astype(F32)
        grid = hr_patches(x, 8, 8)
        amap = identity_masked_map(4, 2, 2)
        out = token_mix(amap, grid)
        assert np.array_equal(out.patches, grid.patches)

    def test_one_hot_copy(self):
        rng = np.random.default_rng(1)
        grid = hr_patches(rng.standard_normal((3, 16, 16)).astype(F32), 8, 8)
        a = np.eye(4, dtype=F32)
        a[2] = 0
        a[2, 1] = 1
        amap = AttentionMap(a, True, 2, 2)
        out = token_mix(amap, grid)
        assert np.array_equal(out.patches[2], grid.patches[1])

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(2)
        grid = hr_patches(rng.standard_normal((3, 16, 16)).astype(F32), 8, 8)
        a = softmax_rows(rng.standard_normal((4, 4)).astype(F32))
        amap = mask_attention(AttentionMap(a, False, 2, 2), np.array([1, 0, 0, 1], F32))
        out = token_mix(amap, grid)
        for i in range(4):
            want = sum(amap.a[i, j] * grid.patches[j].astype(np.float64) for j in range(4))
            assert np.abs(out.patches[i] - want).max() < 1e-6

    def test_mixed_patch_mean_bounded_by_convexity(self):
        rng = np.random.default_rng(3)
        x = rng.random((3, 32, 32)).astype(F32)
        split = frequency_split(x, 2.0)
        grid = hr_patches(split.high.astype(F32), 16, 16)
        a = softmax_rows(rng.standard_normal((4, 4)).astype(F32))
        amap = mask_attention(AttentionMap(a, False, 2, 2), np.array([1, 0, 1, 0], F32))
        out = token_mix(amap, grid)
        in_means = np.abs(grid.patches.mean(axis=1))
        out_means = np.abs(out.patches.mean(axis=1))
        assert out_means.max() <= in_means.max() + 1e-6

    def test_requires_masked_map(self):
        grid = hr_patches(np.zeros((3, 16, 16), F32), 8, 8)
        amap = AttentionMap(np.full((4, 4), 0.25, F32), False, 2, 2)
        with pytest.raises(ValueError):
            token_mix(amap, grid)


class TestSharedLowPass:
    """downsample_to_lr blurs once; x_lr and compose_hr's residual share it."""

    def test_x_lr_matches_blur_then_bilinear_oracle(self):
        config = PipelineConfig(lr_size=16, patch_size=8, d_k=8)
        rng = np.random.default_rng(4)
        for x in (rng.random((3, 64, 64)).astype(F32),
                  (rng.integers(0, 256, (3, 64, 64)) / 255.0).astype(F32)):
            x_lr, _, low = downsample_to_lr(config, x, np.zeros((1, 64, 64), F32))
            blurred = separable_blur_oracle(x, sigma_for_factor(4.0))
            assert np.abs(low - blurred).max() < 1e-6
            assert np.abs(x_lr - bilinear_oracle(blurred, 16, 16)).max() < 1e-6

    def test_no_downsampling_keeps_image_bit_exact(self):
        # at r == 1 the taps are exactly [0, 1, 0]
        config = PipelineConfig(lr_size=16, patch_size=8, d_k=8)
        x = np.random.default_rng(5).random((3, 16, 16)).astype(F32)
        x_lr, _, low = downsample_to_lr(config, x, np.zeros((1, 16, 16), F32))
        assert np.array_equal(low, x)
        assert np.array_equal(x_lr, x)


class TestComposeHr:
    def _inputs(self, seed, h_hr=32, lr=16, p=8):
        rng = np.random.default_rng(seed)
        x_hr = rng.random((3, h_hr, h_hr)).astype(F32)
        x_lr = rng.random((3, lr, lr)).astype(F32)
        n = (lr // p) ** 2
        amap = identity_masked_map(n, lr // p, lr // p)
        return rng, x_hr, x_lr, amap

    def test_zero_mask_composite_is_passthrough(self):
        _, x_hr, x_lr, amap = self._inputs(0)
        mask = np.zeros((1, 32, 32), F32)
        out = compose_hr(x_hr, low_pass(x_hr, x_lr), x_lr, amap, mask, 8, composite=True)
        assert np.array_equal(out, x_hr)

    def test_zero_mask_no_composite_reconstruction_gap(self):
        # identity map mixes nothing, so the float32 residual must equal the
        # float64 one of frequency_split rounded once, on float, 8-bit and
        # anisotropic (r_h = 2, r_w = 4) input
        rng, x_hr, x_lr, amap = self._inputs(1)
        quantized = (rng.integers(0, 256, (3, 32, 32)) / 255.0).astype(F32)
        for x in (x_hr, quantized, rng.random((3, 32, 64)).astype(F32)):
            _, h, w = x.shape
            low = low_pass(x, x_lr)
            out = compose_hr(x, low, x_lr, amap, np.zeros((1, h, w), F32), 8, composite=False)
            high = (x.astype(np.float64) - low.astype(np.float64)).astype(F32)
            if w == h:
                assert np.array_equal(high, frequency_split(x, 2.0).high.astype(F32))
            assert np.array_equal(out, np.clip(bilinear_resize(x_lr, h, w) + high, 0, 1))

    def test_r1_degenerate_resolution(self):
        rng = np.random.default_rng(2)
        x_lr = rng.random((3, 16, 16)).astype(F32)
        x_hr = rng.random((3, 16, 16)).astype(F32)
        amap = identity_masked_map(4, 2, 2)
        mask = np.zeros((1, 16, 16), F32)
        out = compose_hr(x_hr, low_pass(x_hr, x_lr), x_lr, amap, mask, 8, composite=False)
        assert np.abs(out - np.clip(x_lr + frequency_split(x_hr, 1.0).high.astype(F32),
                                    0, 1)).max() < 1e-3

    def test_known_pixel_fidelity(self):
        rng, x_hr, x_lr, amap = self._inputs(3)
        mask = np.zeros((1, 32, 32), F32)
        mask[0, 8:24, 8:16] = 1
        out = compose_hr(x_hr, low_pass(x_hr, x_lr), x_lr, amap, mask, 8, composite=True)
        known = mask[0] == 0
        assert np.array_equal(out[:, known], x_hr[:, known])

    def test_output_clamped(self):
        _, x_hr, x_lr, amap = self._inputs(4)
        mask = np.ones((1, 32, 32), F32)
        mask[0, 0, 0] = 0
        out = compose_hr(x_hr, low_pass(x_hr, x_lr), 3.0 * x_lr, amap, mask, 8, composite=True)
        assert out.max() <= 1.0
        assert out.min() >= 0.0

    def test_fractional_ratio_rejected(self):
        rng = np.random.default_rng(5)
        x_hr = rng.random((3, 24, 24)).astype(F32)
        x_lr = rng.random((3, 16, 16)).astype(F32)
        amap = identity_masked_map(4, 2, 2)
        with pytest.raises(ValueError):
            compose_hr(x_hr, low_pass(x_hr, x_lr), x_lr, amap, np.zeros((1, 24, 24), F32), 8)

    def test_low_pass_shape_mismatch_rejected(self):
        _, x_hr, x_lr, amap = self._inputs(6)
        with pytest.raises(ValueError, match="low-pass shape"):
            compose_hr(x_hr, x_hr[:, :16], x_lr, amap, np.zeros((1, 32, 32), F32), 8)

    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_resolution_agnostic_shapes(self, factor):
        rng = np.random.default_rng(factor)
        lr = 16
        h_hr = lr * factor
        x_hr = rng.random((3, h_hr, h_hr)).astype(F32)
        x_lr = rng.random((3, lr, lr)).astype(F32)
        amap = identity_masked_map(4, 2, 2)
        mask = np.zeros((1, h_hr, h_hr), F32)
        mask[0, : h_hr // 2] = 1
        out = compose_hr(x_hr, low_pass(x_hr, x_lr), x_lr, amap, mask, 8, composite=True)
        assert out.shape == (3, h_hr, h_hr)

    def test_anisotropic_ratio(self):
        rng = np.random.default_rng(9)
        x_hr = rng.random((3, 32, 64)).astype(F32)
        x_lr = rng.random((3, 16, 16)).astype(F32)
        amap = identity_masked_map(4, 2, 2)
        mask = np.zeros((1, 32, 64), F32)
        out = compose_hr(x_hr, low_pass(x_hr, x_lr), x_lr, amap, mask, 8, composite=True)
        assert np.array_equal(out, x_hr)
