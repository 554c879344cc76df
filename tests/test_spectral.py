"""FFT and focal frequency loss tests against a naive O(n^2) DFT oracle."""

import numpy as np
import pytest

from rethined.spectral import ComplexGrid, fft2d, focal_frequency_loss

F32 = np.float32

# extents that are not powers of two, including a single row
ANY_EXTENTS = [(6, 10), (5, 7), (1, 9), (12, 8)]


def dft2d_oracle(img):
    """Double-sum unnormalized forward DFT."""
    h, w = img.shape
    out = np.zeros((h, w), np.complex128)
    for u in range(h):
        for v in range(w):
            acc = 0.0 + 0.0j
            for y in range(h):
                for x in range(w):
                    acc += img[y, x] * np.exp(-2j * np.pi * (u * y / h + v * x / w))
            out[u, v] = acc
    return out


def ffl_oracle(pred, target, alpha):
    """Direct per-channel formula on naive DFT spectra."""
    total = 0.0
    for c in range(pred.shape[0]):
        d = np.abs(dft2d_oracle(pred[c].astype(np.float64))
                   - dft2d_oracle(target[c].astype(np.float64)))
        mx = d.max()
        if mx == 0:
            continue
        w = (d ** alpha) / (mx ** alpha)
        total += float((w * d * d).mean())
    return total / pred.shape[0]


class TestFft2d:
    def test_delta_gives_flat_spectrum(self):
        x = np.zeros((1, 8, 8), F32)
        x[0, 0, 0] = 1.0
        grid = fft2d(x)
        assert np.abs(grid.re - 1.0).max() < 1e-12
        assert np.abs(grid.im).max() < 1e-12

    def test_constant_gives_dc_spike(self):
        x = np.full((1, 4, 8), 0.5, F32)
        grid = fft2d(x)
        spec = grid.to_complex()
        assert abs(spec[0, 0] - 4 * 8 * 0.5) < 1e-10
        spec[0, 0] = 0
        assert np.abs(spec).max() < 1e-10

    def test_matches_naive_dft_8x8(self):
        rng = np.random.default_rng(0)
        x = rng.random((1, 8, 8)).astype(F32)
        got = fft2d(x).to_complex()
        want = dft2d_oracle(x[0].astype(np.float64))
        assert np.abs(got - want).max() < 1e-4

    def test_matches_naive_dft_16x16(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 16, 16)).astype(F32)
        got = fft2d(x).to_complex()
        want = dft2d_oracle(x[0].astype(np.float64))
        assert np.abs(got - want).max() < 1e-4

    def test_matches_naive_dft_any_extent(self):
        rng = np.random.default_rng(2)
        for h, w in ANY_EXTENTS:
            x = rng.standard_normal((1, h, w)).astype(F32)
            grid = fft2d(x)
            assert (grid.height, grid.width) == (h, w)
            want = dft2d_oracle(x[0].astype(np.float64))
            assert np.abs(grid.to_complex() - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("seed", range(3))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((1, 8, 8)).astype(F32)
        y = rng.random((1, 8, 8)).astype(F32)
        a, b = 1.7, -0.4
        lhs = fft2d((a * x + b * y).astype(F32)).to_complex()
        rhs = a * fft2d(x).to_complex() + b * fft2d(y).to_complex()
        assert np.abs(lhs - rhs).max() < 1e-5

    @pytest.mark.parametrize("seed", range(3))
    def test_parseval(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 16, 16)).astype(F32)
        spec = fft2d(x).to_complex()
        space = float((x.astype(np.float64) ** 2).sum())
        freq = float((np.abs(spec) ** 2).sum()) / (16 * 16)
        assert abs(space - freq) / space < 1e-4


class TestComplexGrid:
    def test_accepts_any_extent_checks_length(self):
        grid = ComplexGrid(6, 8, np.arange(48.0), np.zeros(48))
        assert grid.to_complex().shape == (6, 8)
        assert grid.to_complex()[1, 0] == 8.0
        with pytest.raises(ValueError):
            ComplexGrid(6, 8, np.zeros(47), np.zeros(47))
        with pytest.raises(ValueError):
            ComplexGrid(6, 8, np.zeros(48), np.zeros(47))


class TestFocalFrequencyLoss:
    def test_identical_inputs_zero(self):
        rng = np.random.default_rng(0)
        x = rng.random((3, 8, 8)).astype(F32)
        assert focal_frequency_loss(x, x.copy()) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        x = rng.random((2, 8, 8)).astype(F32)
        y = rng.random((2, 8, 8)).astype(F32)
        assert abs(focal_frequency_loss(x, y) - focal_frequency_loss(y, x)) < 1e-12

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.random((1, 8, 8)).astype(F32)
        y = rng.random((1, 8, 8)).astype(F32)
        got = focal_frequency_loss(x, y, alpha=1.0)
        want = ffl_oracle(x, y, 1.0)
        assert abs(got - want) / want < 1e-5

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal((1, 8, 8)).astype(F32)
            y = rng.standard_normal((1, 8, 8)).astype(F32)
            assert focal_frequency_loss(x, y) >= 0.0

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(4)
        x = rng.random((1, 8, 8)).astype(F32)
        y = x.copy()
        y[0, 3, 3] += 1e-3
        assert focal_frequency_loss(x, x) == 0.0
        assert focal_frequency_loss(x, y) > 1e-7

    def test_submax_increase_never_decreases_loss(self):
        # two cosine modes: bumping the weaker one (below the max discrepancy)
        # must not lower the loss
        n = 8
        yy, xx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        weak = np.cos(2 * np.pi * xx / n)
        strong = np.cos(2 * np.pi * (2 * yy) / n)
        target = np.zeros((1, n, n), F32)
        prev = None
        for amp in [0.1, 0.2, 0.4, 0.8]:
            pred = (amp * weak + 2.0 * strong)[None].astype(F32)
            loss = focal_frequency_loss(pred, target, alpha=1.0)
            if prev is not None:
                assert loss >= prev - 1e-12
            prev = loss

    def test_global_scaling_grows_quadratically(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 8, 8)).astype(F32)
        zero = np.zeros_like(x)
        base = focal_frequency_loss(x, zero, alpha=1.0)
        scaled = focal_frequency_loss((2 * x).astype(F32), zero, alpha=1.0)
        assert abs(scaled - 4.0 * base) / scaled < 1e-5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            focal_frequency_loss(np.zeros((1, 8, 8), F32), np.zeros((1, 8, 4), F32))

    def test_matches_direct_oracle_any_extent(self):
        rng = np.random.default_rng(6)
        for h, w in ANY_EXTENTS:
            x = rng.random((2, h, w)).astype(F32)
            y = rng.random((2, h, w)).astype(F32)
            for alpha in (1.0, 0.5):
                want = ffl_oracle(x, y, alpha)
                assert abs(focal_frequency_loss(x, y, alpha=alpha) - want) <= 1e-9 * want


class TestFloat32InputKeepsFloat64Precision:
    """float32 input is transformed in complex128: a complex64 transform
    would be off by ~1e-7 relative, far outside these 1e-9 bounds."""

    def test_fft2d(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 16, 16)).astype(F32)
        grid = fft2d(x)
        assert grid.re.dtype == np.float64 and grid.im.dtype == np.float64
        want = dft2d_oracle(x[0].astype(np.float64))
        assert np.abs(grid.to_complex() - want).max() <= 1e-9 * np.abs(want).max()

    def test_focal_frequency_loss(self):
        rng = np.random.default_rng(7)
        x = rng.random((2, 16, 16)).astype(F32)
        y = rng.random((2, 16, 16)).astype(F32)
        for alpha in (1.0, 0.5):
            want = ffl_oracle(x, y, alpha)
            assert abs(focal_frequency_loss(x, y, alpha=alpha) - want) <= 1e-9 * want

