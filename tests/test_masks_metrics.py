"""Mask generation protocol and metric correctness tests."""

import numpy as np
import pytest

from rethined.masks import MaskCoverageError, MaskSpec, generate_mask, mask_coverage
from rethined.metrics import SSIM_C1, SSIM_C2, l1, psnr, ssim
from rethined.metrics import _filter_valid, _ssim_taps, _ssim_window

F32 = np.float32


class TestGenerateMask:
    def test_deterministic_for_fixed_seed(self):
        a = generate_mask(MaskSpec(seed=42), 128, 128)
        b = generate_mask(MaskSpec(seed=42), 128, 128)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = generate_mask(MaskSpec(seed=1), 128, 128)
        b = generate_mask(MaskSpec(seed=2), 128, 128)
        assert not np.array_equal(a, b)

    def test_binary_output(self):
        m = generate_mask(MaskSpec(seed=3), 96, 160)
        assert m.shape == (1, 96, 160)
        assert np.isin(m, (0, 1)).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_coverage_band(self, seed):
        m = generate_mask(MaskSpec(seed=seed), 256, 256)
        assert 0.30 <= mask_coverage(m) <= 0.50

    def test_small_extent_rejected(self):
        with pytest.raises(ValueError):
            generate_mask(MaskSpec(seed=0), 32, 128)

    def test_unreachable_coverage_raises(self):
        # the smallest brush stroke covers more than 0.2% of 64x64
        with pytest.raises(MaskCoverageError, match=r"coverage \[0\.001, 0\.002\] at 64x64"):
            generate_mask(MaskSpec(seed=0, target_coverage=(0.001, 0.002)), 64, 64)

    def test_coverage_band_other_sizes(self):
        for seed, (h, w) in enumerate([(64, 64), (128, 256), (320, 192)]):
            cov = mask_coverage(generate_mask(MaskSpec(seed=seed), h, w))
            assert 0.30 <= cov <= 0.50


class TestL1:
    def test_identical_zero(self):
        x = np.random.default_rng(0).random((3, 8, 8)).astype(F32)
        assert l1(x, x) == 0.0

    def test_zero_vs_one(self):
        assert l1(np.zeros((1, 4, 4), F32), np.ones((1, 4, 4), F32)) == 1.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.random((2, 5, 5)).astype(F32)
        b = rng.random((2, 5, 5)).astype(F32)
        want = sum(abs(float(x) - float(y)) for x, y in zip(a.ravel(), b.ravel())) / a.size
        assert abs(l1(a, b) - want) < 1e-7

    def test_metric_properties(self):
        rng = np.random.default_rng(2)
        a, b, c = (rng.random((1, 6, 6)).astype(F32) for _ in range(3))
        assert l1(a, b) >= 0
        assert abs(l1(a, b) - l1(b, a)) < 1e-12
        assert l1(a, c) <= l1(a, b) + l1(b, c) + 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            l1(np.zeros((1, 4, 4), F32), np.zeros((1, 4, 5), F32))


def ssim_oracle(a, b):
    """Windowed direct-formula SSIM, scalar loops."""
    window = _ssim_window()
    c, h, w = a.shape
    vals = []
    for ch in range(c):
        x = a[ch].astype(np.float64)
        y = b[ch].astype(np.float64)
        for i in range(h - 10):
            for j in range(w - 10):
                wx = x[i:i + 11, j:j + 11]
                wy = y[i:i + 11, j:j + 11]
                mx = (window * wx).sum()
                my = (window * wy).sum()
                vx = (window * wx * wx).sum() - mx * mx
                vy = (window * wy * wy).sum() - my * my
                vxy = (window * wx * wy).sum() - mx * my
                num = (2 * mx * my + SSIM_C1) * (2 * vxy + SSIM_C2)
                den = (mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)
                vals.append(num / den)
    return float(np.mean(vals))


def dense_filter_valid(img, window):
    """The 11x11 window applied densely: 121 multiply-adds per pixel."""
    win = np.lib.stride_tricks.sliding_window_view(img, window.shape)
    return np.einsum("hwst,st->hw", win, window, optimize=True)


def dense_ssim(a, b):
    """ssim with every window filter run in the dense form."""
    window, total = _ssim_window(), 0.0
    for ch in range(a.shape[0]):
        x, y = a[ch].astype(np.float64), b[ch].astype(np.float64)
        mu_x, mu_y = dense_filter_valid(x, window), dense_filter_valid(y, window)
        var_x = dense_filter_valid(x * x, window) - mu_x * mu_x
        var_y = dense_filter_valid(y * y, window) - mu_y * mu_y
        cov = dense_filter_valid(x * y, window) - mu_x * mu_y
        num = (2 * mu_x * mu_y + SSIM_C1) * (2 * cov + SSIM_C2)
        den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (var_x + var_y + SSIM_C2)
        total += float((num / den).mean())
    return total / a.shape[0]


class TestSsim:
    def test_window_is_outer_product_of_taps(self):
        g = _ssim_taps()
        assert g.shape == (11,) and abs(g.sum() - 1.0) < 1e-15
        assert np.array_equal(_ssim_window(), np.outer(g, g))

    @pytest.mark.parametrize("shape", [(11, 11), (40, 57), (203, 130)])
    def test_separable_filter_matches_dense_window(self, shape):
        # measured: at most 7 float64 ulp apart on a 2048^2 image in [0, 1)
        img = np.random.default_rng(shape[0]).random(shape)
        got, want = _filter_valid(img, _ssim_taps()), dense_filter_valid(img, _ssim_window())
        assert got.shape == want.shape == (shape[0] - 10, shape[1] - 10)
        assert np.abs(got - want).max() <= 16 * np.spacing(1.0)

    def test_matches_dense_form(self):
        rng = np.random.default_rng(3)
        a = rng.random((3, 96, 80)).astype(F32)
        b = np.clip(a + 0.2 * rng.standard_normal(a.shape), 0, 1).astype(F32)
        assert abs(ssim(a, b) - dense_ssim(a, b)) < 1e-12

    def test_self_similarity_is_one(self):
        x = np.random.default_rng(0).random((3, 16, 16)).astype(F32)
        assert abs(ssim(x, x) - 1.0) < 1e-9

    def test_black_vs_white_floor(self):
        a = np.zeros((3, 16, 16), F32)
        b = np.ones((3, 16, 16), F32)
        v = ssim(a, b)
        assert v < 0.05
        assert abs(v - SSIM_C1 / (1 + SSIM_C1)) < 1e-6

    def test_matches_windowed_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.random((2, 13, 14)).astype(F32)
        b = rng.random((2, 13, 14)).astype(F32)
        assert abs(ssim(a, b) - ssim_oracle(a, b)) < 1e-6

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(2)
        a = rng.random((1, 12, 12)).astype(F32)
        b = rng.random((1, 12, 12)).astype(F32)
        assert abs(ssim(a, b) - ssim(b, a)) < 1e-9
        assert -1 < ssim(a, b) <= 1

    def test_window_too_small_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((3, 8, 8), F32), np.zeros((3, 8, 8), F32))


class TestPsnr:
    def test_identical_sentinel(self):
        x = np.random.default_rng(0).random((1, 4, 4)).astype(F32)
        assert psnr(x, x) == float("inf")

    def test_known_mse(self):
        a = np.zeros((1, 10, 10), F32)
        b = np.full((1, 10, 10), 0.1, F32)
        assert abs(psnr(a, b) - 20.0) < 1e-5

    def test_matches_formula(self):
        rng = np.random.default_rng(1)
        a = rng.random((3, 6, 6)).astype(F32)
        b = rng.random((3, 6, 6)).astype(F32)
        mse = float(((a.astype(np.float64) - b.astype(np.float64)) ** 2).mean())
        assert abs(psnr(a, b) - 10 * np.log10(1 / mse)) < 1e-6
