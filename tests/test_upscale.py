"""Frequency decomposition, the LR input and its up-sampling, HR patch grids
and HR composition tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rethined import upscale
from rethined.attention import (AllPatchesCorruptedError, AttentionMap, ProjectionWeights,
                                attention_scores, mask_attention, token_mix)
from rethined.patches import PatchGrid, TokenMatrix, block_any, img2col, pixel_shuffle, tokenize_mask
from rethined.pipeline import PipelineConfig, downsample_to_lr
from rethined import tensor_ops
from rethined.tensor_ops import (_downsample, _lr_blocks, bilinear_resize, gaussian_kernel_1d,
                                 softmax_rows)
from rethined.upscale import frequency_split, sigma_for_factor

F32 = np.float32


def separable_blur_oracle(x, sigma, sigma_x=None):
    """Reflect-padded separable Gaussian in float64, `sigma` along H and
    `sigma_x` (default `sigma`) along W."""

    def refl(i, n):
        period = 2 * (n - 1)
        i = i % period
        return period - i if i >= n else i

    def pass_axis(img, axis, s):
        taps = gaussian_kernel_1d(s)
        r = len(taps) // 2
        out = np.zeros_like(img, dtype=np.float64)
        n = img.shape[axis]
        for t, k in enumerate(taps):
            idx = np.array([refl(i + t - r, n) for i in range(n)])
            out += k * np.take(img, idx, axis=axis)
        return out

    return pass_axis(pass_axis(x.astype(np.float64), 2, sigma if sigma_x is None else sigma_x), 1, sigma)


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
    return np.einsum("yh,chw,xw->cyx", weights(h, out_h), x, weights(w, out_w), optimize=True)


def lr_input(x_hr, h, w):
    """The LR input downsample_to_lr takes from x_hr at h x w: x_hr itself
    at r = 1."""
    _, h_hr, w_hr = x_hr.shape
    if (h_hr, w_hr) == (h, w):
        return x_hr
    return _downsample(x_hr, h, w, sigma_for_factor(h_hr // h), sigma_for_factor(w_hr // w))


def lr_like(x_hr, x_lr):
    """The LR input downsample_to_lr hands to the composer with x_hr: the LR
    input of x_hr at x_lr's extent."""
    return lr_input(x_hr, *x_lr.shape[1:])


def masked_map(corrupt, weights, rows, cols):
    """A masked map built by hand: the `corrupt` patches draw from the
    others, in ascending order, with the rows of `weights`."""
    corrupt = np.asarray(corrupt, dtype=np.intp)
    clean = np.setdiff1d(np.arange(rows * cols), corrupt)
    weights = np.asarray(weights, F32).reshape(len(corrupt), len(clean))
    return AttentionMap(None, True, rows, cols, corrupt=corrupt, clean=clean, weights=weights)


def identity_masked_map(n, rows, cols):
    a = softmax_rows(np.zeros((n, n), F32))
    return mask_attention(AttentionMap(a, False, rows, cols), np.zeros(n, F32))


def mask_map(m_hr, lr, p):
    """The masked map of m_hr's patch mask, reduced as the pipeline reduces
    it (HR to LR, then LR to patches), on uniform scores: the map the
    composer takes its corrupted patches from."""
    (_, h_hr, w_hr), (h, w) = m_hr.shape, lr
    vec = tokenize_mask(block_any(m_hr[0], h_hr // h, w_hr // w)[None], p)
    rows, cols = h // p, w // p
    a = softmax_rows(np.zeros((rows * cols, rows * cols), F32))
    return mask_attention(AttentionMap(a, False, rows, cols), vec)


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


class TestImg2colCut:
    """img2col, the one patch cut, on the P x P patches of a mix."""

    def test_layout_matches_slicing(self):
        rng = np.random.default_rng(1)
        x = rng.random((3, 8, 8)).astype(F32)
        grid = img2col(x, 4)
        assert (grid.patch_h, grid.patch_w) == (4, 4)
        assert np.array_equal(grid.patches[3], x[:, 4:, 4:].reshape(-1))

    def test_divisibility(self):
        with pytest.raises(ValueError):
            img2col(np.zeros((3, 10, 8), F32), 4)


class TestHfTokenMix:
    """token_mix on HR high-frequency patch grids."""

    def test_identity_map_bit_exact(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 16, 16)).astype(F32)
        grid = img2col(x, 8)
        amap = identity_masked_map(4, 2, 2)
        out = token_mix(amap, grid)
        assert np.array_equal(out.patches, grid.patches)

    def test_one_hot_copy(self):
        rng = np.random.default_rng(1)
        grid = img2col(rng.standard_normal((3, 16, 16)).astype(F32), 8)
        # patch 2 draws only from patch 1
        amap = masked_map([2], [[0, 1, 0]], 2, 2)
        out = token_mix(amap, grid)
        assert out.patches[2].tobytes() == grid.patches[1].tobytes()

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(2)
        grid = img2col(rng.standard_normal((3, 16, 16)).astype(F32), 8)
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
        grid = img2col(split.high.astype(F32), 16)
        a = softmax_rows(rng.standard_normal((4, 4)).astype(F32))
        amap = mask_attention(AttentionMap(a, False, 2, 2), np.array([1, 0, 1, 0], F32))
        out = token_mix(amap, grid)
        in_means = np.abs(grid.patches.mean(axis=1))
        out_means = np.abs(out.patches.mean(axis=1))
        assert out_means.max() <= in_means.max() + 1e-6

    def test_requires_masked_map(self):
        grid = img2col(np.zeros((3, 16, 16), F32), 8)
        amap = AttentionMap(np.full((4, 4), 0.25, F32), False, 2, 2)
        with pytest.raises(ValueError):
            token_mix(amap, grid)


class TestSharedLowPass:
    """downsample_to_lr's x_lr is the blur-then-bilinear oracle through one
    banded operator per axis, and the composer's patch up-sampler is
    bilinear_resize on a patch's edge-padded LR window."""

    def test_x_lr_matches_blur_then_bilinear_oracle(self):
        # r = 2, 4 and 8, and r_h = 2 with r_w = 4; float and 8-bit data.
        # Measured max error 2.3e-7 against the float64 oracle.
        rng = np.random.default_rng(4)
        for (h, w), lr in (((32, 32), 16), ((64, 64), 16), ((128, 128), 16), ((512, 1024), 256)):
            config = PipelineConfig(lr_size=lr, patch_size=8, d_k=8)
            for x in (rng.random((3, h, w)).astype(F32),
                      (rng.integers(0, 256, (3, h, w)) / 255.0).astype(F32)):
                x_lr, _ = downsample_to_lr(config, x, np.zeros((1, h, w), F32))
                blurred = separable_blur_oracle(x, sigma_for_factor(h // lr), sigma_for_factor(w // lr))
                assert np.abs(x_lr - bilinear_oracle(blurred, lr, lr)).max() < 1e-6

    @pytest.mark.parametrize("n,out_n,sigma", [(256, 32, sigma_for_factor(8)), (512, 256, 0.5),
                                               (1024, 256, sigma_for_factor(4)), (20, 2, 3.0),
                                               (7, 3, 1.0), (5, 5, 0.8)])
    def test_operator_rows_sum_to_one(self, n, out_n, sigma):
        # A = S G in float64: its rows sum to 1, and the blocks hold all of
        # each row of the oracles' product (G is the oracle blur of the
        # identity along H; sigma 1e-9 has the taps [0, 1, 0])
        dense = np.zeros((out_n, n))
        for rows, cols, a in _lr_blocks(n, out_n, sigma, np.float64):
            dense[rows, cols] = a
        assert np.abs(dense.sum(axis=1) - 1.0).max() < 1e-12
        g = separable_blur_oracle(np.eye(n)[None], sigma, 1e-9)
        assert np.abs(dense - bilinear_oracle(g, out_n, n)[0]).max() < 1e-12

    def test_x_lr_bytes_do_not_depend_on_slices(self, monkeypatch):
        x = np.random.default_rng(6).random((3, 512, 512)).astype(F32)
        want = _downsample(x, 64, 64, sigma_for_factor(8), sigma_for_factor(8)).tobytes()
        monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)
        for parts in (1, 2, 3):
            monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: parts)
            got = _downsample(x, 64, 64, sigma_for_factor(8), sigma_for_factor(8))
            assert got.tobytes() == want

    def test_no_downsampling_keeps_image_bit_exact(self):
        # at r == 1 x_lr is the image
        config = PipelineConfig(lr_size=16, patch_size=8, d_k=8)
        x = np.random.default_rng(5).random((3, 16, 16)).astype(F32)
        x_lr, _ = downsample_to_lr(config, x, np.zeros((1, 16, 16), F32))
        assert np.array_equal(x_lr, x)

    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("r_h,r_w", [(1, 1), (2, 2), (3, 5), (4, 2), (8, 8)])
    def test_patch_upsampler_is_bilinear_on_windows(self, p, r_h, r_w):
        # b_h L_i b_w^T, on patch i's window of the edge-padded LR image, is
        # bilinear_resize of the whole LR image at patch i's HR pixels, for
        # every patch of a 3 x 2 grid, so at every edge; its rows sum to 1
        # and at power-of-two r its taps are exact in float32.  Measured max
        # error 1.2e-7.
        x = np.random.default_rng(p * r_h + r_w).random((3, 3 * p, 2 * p)).astype(F32)
        up = bilinear_resize(x, 3 * p * r_h, 2 * p * r_w)
        b_h, b_w = upscale._patch_upsampler(p, r_h), upscale._patch_upsampler(p, r_w)
        assert b_h.shape == (p * r_h, p + 2) and b_w.shape == (p * r_w, p + 2)
        assert np.abs(b_h.sum(axis=1) - 1.0).max() <= 1e-7
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1)), mode="edge")
        for pr in range(3):
            for pc in range(2):
                window = padded[:, pr * p:pr * p + p + 2, pc * p:pc * p + p + 2]
                got = b_h @ window @ b_w.T
                want = up[:, pr * p * r_h:(pr + 1) * p * r_h, pc * p * r_w:(pc + 1) * p * r_w]
                assert np.abs(got - want).max() <= 2.5e-7
        if r_h in (1, 2, 4, 8):
            taps = np.unique(b_h)
            assert np.array_equal(taps * (2 * r_h), np.round(taps * (2 * r_h)))


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
        out = upscale.compose_hr(x_hr, lr_like(x_hr, x_lr), x_lr, amap, mask, composite=True)
        assert np.array_equal(out, x_hr)

    def test_zero_mask_no_composite_reconstruction_gap(self):
        # identity map mixes nothing, so every patch gets x plus the
        # up-sampled LR change, up(x_lr) - up(own LR input), within
        # LR_CORRECTION_BOUND of the float32 residual form, on float, 8-bit
        # and anisotropic (r_h = 2, r_w = 4) input; with x's own LR image as
        # the refined one the LR change is exactly zero and the output is x
        rng, x_hr, x_lr, amap = self._inputs(1)
        quantized = (rng.integers(0, 256, (3, 32, 32)) / 255.0).astype(F32)
        for x in (x_hr, quantized, rng.random((3, 32, 64)).astype(F32)):
            _, h, w = x.shape
            own = lr_input(x, 16, 16)
            out = upscale.compose_hr(x, own, x_lr, amap, np.zeros((1, h, w), F32),
                                     composite=False)
            low = bilinear_resize(own, h, w)
            high = (x.astype(np.float64) - low.astype(np.float64)).astype(F32)
            want = np.clip(bilinear_resize(x_lr, h, w) + high, 0, 1)
            assert np.abs(out - want).max() <= LR_CORRECTION_BOUND
            out = upscale.compose_hr(x, own, own, amap, np.zeros((1, h, w), F32),
                                     composite=False)
            assert_bytes_equal(out, x)

    def test_r1_degenerate_resolution(self):
        rng = np.random.default_rng(2)
        x_lr = rng.random((3, 16, 16)).astype(F32)
        x_hr = rng.random((3, 16, 16)).astype(F32)
        amap = identity_masked_map(4, 2, 2)
        mask = np.zeros((1, 16, 16), F32)
        out = upscale.compose_hr(x_hr, lr_like(x_hr, x_lr), x_lr, amap, mask, composite=False)
        assert np.abs(out - np.clip(x_lr + frequency_split(x_hr, 1.0).high.astype(F32),
                                    0, 1)).max() < 1e-3

    def test_known_pixel_fidelity(self):
        _, x_hr, x_lr, _ = self._inputs(3)
        mask = np.zeros((1, 32, 32), F32)
        mask[0, 8:24, 8:16] = 1
        amap = mask_map(mask, (16, 16), 8)
        assert amap.corrupt.tolist() == [0, 2]
        out = upscale.compose_hr(x_hr, lr_like(x_hr, x_lr), x_lr, amap, mask, composite=True)
        known = mask[0] == 0
        assert np.array_equal(out[:, known], x_hr[:, known])

    def test_output_clamped(self):
        # every patch but the first corrupted, so three patches show the
        # carrier of 3 x the LR image
        _, x_hr, x_lr, _ = self._inputs(4)
        mask = np.ones((1, 32, 32), F32)
        mask[0, :16, :16] = 0
        amap = mask_map(mask, (16, 16), 8)
        assert amap.corrupt.tolist() == [1, 2, 3]
        out = upscale.compose_hr(x_hr, lr_like(x_hr, x_lr), 3.0 * x_lr, amap, mask,
                                 composite=True)
        assert out.max() == 1.0
        assert out.min() >= 0.0

    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_resolution_agnostic_shapes(self, factor):
        rng = np.random.default_rng(factor)
        lr = 16
        h_hr = lr * factor
        x_hr = rng.random((3, h_hr, h_hr)).astype(F32)
        x_lr = rng.random((3, lr, lr)).astype(F32)
        mask = np.zeros((1, h_hr, h_hr), F32)
        mask[0, : h_hr // 2] = 1
        amap = mask_map(mask, (lr, lr), 8)
        assert amap.corrupt.tolist() == [0, 1]
        out = upscale.compose_hr(x_hr, lr_like(x_hr, x_lr), x_lr, amap, mask, composite=True)
        assert out.shape == (3, h_hr, h_hr)

    def test_anisotropic_ratio(self):
        rng = np.random.default_rng(9)
        x_hr = rng.random((3, 32, 64)).astype(F32)
        x_lr = rng.random((3, 16, 16)).astype(F32)
        amap = identity_masked_map(4, 2, 2)
        mask = np.zeros((1, 32, 64), F32)
        out = upscale.compose_hr(x_hr, lr_like(x_hr, x_lr), x_lr, amap, mask, composite=True)
        assert np.array_equal(out, x_hr)


def seed_mix_rows(a, values):
    """mix_rows as it was before mix_plan: the oracle of the composer's mix."""
    onehot = (a.max(axis=1) == 1.0) & (a.sum(axis=1) == 1.0)
    if onehot.all():
        return values[a.argmax(axis=1)].copy()
    out = np.empty((a.shape[0], values.shape[1]), dtype=values.dtype)
    if onehot.any():
        out[onehot] = values[a[onehot].argmax(axis=1)]
        dense = a[~onehot].astype(values.dtype)
        cols = np.abs(dense).max(axis=0) > 0
        if cols.sum() < 0.95 * a.shape[1]:
            out[~onehot] = dense[:, cols] @ values[cols]
        else:
            out[~onehot] = dense @ values
    else:
        out[:] = a.astype(values.dtype) @ values
    return out


def unfused_compose(x, low, x_lr, amap, m_hr, p, composite):
    """The composition as full-resolution passes: residual image, HR patch
    grid, mix, pixel shuffle, bilinear carrier, add, composite, clip."""
    (_, h_hr, w_hr), (_, h, w) = x.shape, x_lr.shape
    ph, pw = p * (h_hr // h), p * (w_hr // w)
    # the ph x pw HR patch grid of x - low, img2col's layout on rectangles
    cut = (x - low).reshape(3, h // p, ph, w // p, pw).transpose(1, 3, 0, 2, 4)
    grid = PatchGrid(cut.reshape(-1, 3 * ph * pw).astype(F32), h // p, w // p, ph, pw)
    mixed = PatchGrid(seed_mix_rows(amap.a, grid.patches), grid.rows, grid.cols,
                      grid.patch_h, grid.patch_w)
    out = bilinear_resize(x_lr, h_hr, w_hr)
    out += pixel_shuffle(mixed)
    if composite:
        np.copyto(out, x, where=m_hr == 0)
    np.clip(out, 0.0, 1.0, out=out)
    return out


def seed_mask_attention(a, vec):
    """mask_attention as it was on a dense N x N map: the reference of the
    masked map.  Returns the masked map and its dead rows, corrupted rows
    with no weight left on any clean column, which it set to uniform."""
    keep = vec == 0
    mt = a * keep[None, :].astype(F32)
    sums = mt.sum(axis=1, keepdims=True)
    dead = sums[:, 0] == 0.0
    if dead.any():
        mt[dead] = keep.astype(F32) / np.float32(keep.sum())
        sums = mt.sum(axis=1, keepdims=True)
    mt = mt / sums
    idx = np.nonzero(keep)[0]
    mt[keep, :] = 0.0
    mt[idx, idx] = 1.0
    return mt.astype(F32, copy=False), dead


def compose_inputs(seed, lr=(16, 16), r=(4, 4), p=4, share=0.4, logit_scale=1.0,
                   clean=None):
    """Pipeline-shaped composer inputs: a masked HR image with its LR input
    (the image itself at r = 1), a refined LR image, the unmasked scores of
    random tokens and the patch mask of the image's mask.

    `share` of the patches are corrupted (a random subset of each one's
    pixels), or every patch but those listed in `clean`.  The logits have
    unit spread times `logit_scale`."""
    rng = np.random.default_rng(seed)
    (h, w), (r_h, r_w) = lr, r
    rows, cols = h // p, w // p
    ph, pw = p * r_h, p * r_w
    if clean is None:
        corrupt = rng.random((rows, cols)) < share
    else:
        corrupt = np.ones((rows, cols), dtype=bool)
        corrupt.flat[list(clean)] = False
    m = np.kron(corrupt, np.ones((ph, pw))) * (rng.random((h * r_h, w * r_w)) < 0.5)
    m[::ph, ::pw] = corrupt
    m_hr = m[None].astype(F32)
    x = (rng.integers(0, 256, (3, h * r_h, w * r_w)) / 255.0).astype(F32) * (1 - m_hr)
    x_in = lr_input(x, h, w)
    x_lr = rng.random((3, h, w)).astype(F32) * 1.1 - 0.05
    vec = tokenize_mask(block_any(m_hr[0], r_h, r_w)[None], p)
    # 8-wide unit tokens over sqrt(8) and unit projections: logits of spread 1
    tokens = TokenMatrix((rng.standard_normal((rows * cols, 8)) / np.sqrt(8.0)).astype(F32),
                         rows, cols, 8)
    proj = ProjectionWeights((rng.standard_normal((8, 8)) * logit_scale).astype(F32),
                             rng.standard_normal((8, 8)).astype(F32))
    return x, x_in, x_lr, attention_scores(tokens, proj), vec, m_hr, p


def compose_case(seed, **kwargs):
    """compose_inputs with the scores masked: (x, LR input, refined LR image,
    masked map, mask, patch size)."""
    x, x_in, x_lr, scores, vec, m_hr, p = compose_inputs(seed, **kwargs)
    return x, x_in, x_lr, mask_attention(scores, vec), m_hr, p


def composed(case, composite):
    """compose_hr on a case, handed the LR input as run_pipeline hands it;
    the composer takes the patch size from the map's grid."""
    return upscale.compose_hr(*case[:-1], composite)


def unfused_case(case, composite):
    """unfused_compose on a case: its oracle, with up(LR input) as an image."""
    x, x_in, *rest = case
    return unfused_compose(x, bilinear_resize(x_in, *x.shape[1:]), *rest, composite)


def assert_bytes_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# compose_hr against unfused_compose at r > 1.  The composer adds the
# bilinear up-sampling of an LR difference to the mixed image, where the
# unfused form mixes x - up(x_lr) and adds up(x_lr_refined): the same sum in
# another order of float32 operations.  Measured max 2.4e-7 over this
# module's cases and 600 random ones.
LR_CORRECTION_BOUND = 1e-6


def assert_close(got, want, bound=LR_CORRECTION_BOUND):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= bound


def seed_reads_clean(amap):
    """Whether seed_mix_rows, given amap.a, reads the value rows token_mix
    and the composer read: its matmul runs on the clean columns, or it has
    no matmul, every row being a one-hot copy (a one-hot row times the clean
    rows is that copy exactly).  The two then agree byte for byte."""
    a = amap.a
    onehot = (a.max(axis=1) == 1.0) & (a.sum(axis=1) == 1.0)
    if onehot.all():
        return True
    cols = np.abs(a[~onehot]).max(axis=0) > 0
    return onehot.any() and cols.sum() < 0.95 * len(a) and np.array_equal(
        np.flatnonzero(cols), amap.clean)


# The by-construction masked map against its reference, the dense masked map
# of seed_mask_attention mixed by seed_mix_rows: a random mask, a single clean
# patch (every corrupted row puts weight 1 on it), 2 of 64 patches corrupted
# (seed_mix_rows then reads all 64 columns) and logits x3000 (the reference
# has dead rows).
ORACLE_CASES = {
    "random": dict(seed=20, lr=(32, 32), r=(2, 2)),
    "single-clean": dict(seed=21, clean=[5]),
    "two-of-64": dict(seed=22, lr=(32, 32), r=(2, 2), clean=range(2, 64)),
    "extreme-logits": dict(seed=23, logit_scale=3000.0),
}


class TestMaskedMapOracle:
    @pytest.mark.parametrize("kind", ORACLE_CASES)
    def test_map_matches_reference(self, kind):
        _, _, _, scores, vec, _, _ = compose_inputs(**ORACLE_CASES[kind])
        amap = mask_attention(scores, vec)
        ref, dead = seed_mask_attention(scores.a, vec)
        corrupt = vec == 1
        assert np.array_equal(amap.corrupt, np.flatnonzero(corrupt))
        # clean rows are one-hots and corrupted columns are empty, exactly
        assert_bytes_equal(amap.a[~corrupt], ref[~corrupt])
        assert not amap.a[:, corrupt].any()
        assert dead.any() == (kind == "extreme-logits")
        live = corrupt & ~dead
        assert np.abs(amap.a[live] - ref[live]).max() <= 1e-6
        # every row, dead ones included, is the softmax of its clean logits
        q, k = scores.q.astype(np.float64), scores.k.astype(np.float64)
        logits = q[amap.corrupt] @ k[amap.clean].T / np.sqrt(8.0)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.abs(amap.weights - e / e.sum(axis=1, keepdims=True)).max() <= 1e-6

    @pytest.mark.parametrize("dtype", [F32, np.float64])
    @pytest.mark.parametrize("kind", ORACLE_CASES)
    def test_token_mix_matches_reference(self, kind, dtype):
        _, _, _, scores, vec, _, _ = compose_inputs(**ORACLE_CASES[kind])
        amap = mask_attention(scores, vec)
        rng = np.random.default_rng(len(kind))
        values = PatchGrid(rng.standard_normal((amap.count, 48)).astype(dtype),
                           amap.rows, amap.cols, 4, 4)
        got = token_mix(amap, values).patches
        want = seed_mix_rows(amap.a, values.patches)
        if seed_reads_clean(amap):
            assert kind != "two-of-64"
            assert_bytes_equal(got, want)
        else:
            # seed_mix_rows reads all 64 columns, 2 of them with weight 0
            assert kind == "two-of-64"
            assert np.abs(got - want).max() <= 1e-6
        # against the reference map, away from its dead rows
        ref, dead = seed_mask_attention(scores.a, vec)
        live = ~dead
        want = seed_mix_rows(ref, values.patches)
        assert np.abs(got[live] - want[live]).max() <= 1e-6

    @pytest.mark.parametrize("composite", [True, False])
    @pytest.mark.parametrize("kind", ORACLE_CASES)
    def test_composer_matches_reference(self, kind, composite):
        x, x_in, x_lr, scores, vec, m_hr, p = compose_inputs(**ORACLE_CASES[kind])
        amap = mask_attention(scores, vec)
        got = composed((x, x_in, x_lr, amap, m_hr, p), composite)
        assert seed_reads_clean(amap) == (kind != "two-of-64")
        assert_close(got, unfused_case((x, x_in, x_lr, amap, m_hr, p), composite))
        ref, dead = seed_mask_attention(scores.a, vec)
        want = unfused_case((x, x_in, x_lr, AttentionMap(ref, False, amap.rows, amap.cols), m_hr, p),
                            composite)
        # the reference map's dead rows mix their patches differently
        (_, h_hr, w_hr), (_, h, w) = x.shape, x_lr.shape
        ph, pw = p * (h_hr // h), p * (w_hr // w)
        live = np.kron(~dead.reshape(amap.rows, amap.cols), np.ones((ph, pw), bool))
        assert np.abs(got - want)[:, live].max() <= 1e-6


class TestMixPlan:
    """token_mix, which replaced mix_plan, equals the seed's mix_rows on the
    dense view of the map: byte for byte where that reads the clean value
    rows, as token_mix does, and within 1e-6 elsewhere."""

    @pytest.mark.parametrize("kind", ["identity", "permutation", "dense", "sparse-cols",
                                      "all-cols", "float64-values"])
    def test_matches_seed_mix_rows(self, kind):
        rng = np.random.default_rng(len(kind))
        n = 32
        values = rng.standard_normal((n, 48)).astype(F32)
        a = softmax_rows(rng.standard_normal((n, n)).astype(F32))
        corrupt = np.sort(rng.choice(n, 12, replace=False))
        if kind == "identity":
            amap = masked_map([], [], 4, 8)
        elif kind == "permutation":
            # each corrupted patch copies a different clean one
            weights = np.zeros((12, n - 12), F32)
            weights[np.arange(12), rng.choice(n - 12, 12, replace=False)] = 1.0
            amap = masked_map(corrupt, weights, 4, 8)
        elif kind == "sparse-cols":
            # the mixed rows weight half of the clean patches
            weights = softmax_rows(rng.standard_normal((12, n - 12)).astype(F32))
            weights[:, ::2] = 0.0
            amap = masked_map(corrupt, weights / weights.sum(axis=1, keepdims=True), 4, 8)
        elif kind == "all-cols":
            # 1 of 32 patches corrupted: seed_mix_rows reads every column
            amap = mask_attention(AttentionMap(a, False, 4, 8), np.eye(n, dtype=F32)[3])
        else:
            amap = mask_attention(AttentionMap(a, False, 4, 8), (rng.random(n) < 0.4).astype(F32))
        if kind == "float64-values":
            values = values.astype(np.float64)
        got = token_mix(amap, PatchGrid(values, 4, 8, 4, 4)).patches
        want = seed_mix_rows(amap.a, values)
        if seed_reads_clean(amap):
            assert_bytes_equal(got, want)
        else:
            assert kind in ("sparse-cols", "all-cols")
            assert got.dtype == want.dtype and np.abs(got - want).max() <= 1e-6


def assert_matches_unfused(case, composite):
    """compose_hr on a case against unfused_compose: byte for byte at r = 1,
    where both copy the refined image, and within LR_CORRECTION_BOUND at
    r > 1; with composite, known pixels are x's bit for bit."""
    x, _, x_lr, _, m_hr, _ = case
    got, want = composed(case, composite), unfused_case(case, composite)
    if x.shape == x_lr.shape:
        assert_bytes_equal(got, want)
    else:
        assert_close(got, want)
    if composite:
        known = m_hr[0] == 0
        assert got[:, known].tobytes() == x[:, known].astype(F32).tobytes()


class TestPatchMajorComposer:
    """compose_hr against the unfused composition (assert_matches_unfused),
    with its inputs left unchanged."""

    def _check(self, case, composite=True):
        x, x_in, x_lr, amap, m_hr, p = case
        before = [a.copy() for a in (x, x_in, x_lr, amap.weights, m_hr)]
        assert_matches_unfused(case, composite)
        for arr, copy in zip((x, x_in, x_lr, amap.weights, m_hr), before):
            assert_bytes_equal(arr, copy)

    @pytest.mark.parametrize("composite", [True, False])
    def test_composite_on_and_off(self, composite):
        self._check(compose_case(0), composite)

    @pytest.mark.parametrize("composite", [True, False])
    def test_no_downsampling(self, composite):
        self._check(compose_case(1, r=(1, 1)), composite)

    @pytest.mark.parametrize("composite", [True, False])
    def test_zero_residual_at_r1(self, monkeypatch, composite):
        # at r = 1 the image is its own LR input, so the residual is exactly
        # zero: the composer cuts, mixes and adds nothing, and gives the
        # bytes of the unfused form, which adds the zeros
        case = compose_case(1, r=(1, 1))
        amap = case[3]
        assert amap.corrupt.size and amap.clean.size
        monkeypatch.setattr(upscale, "_runs", lambda *a: pytest.fail("residual cut at r = 1"))
        self._check(case, composite)

    @pytest.mark.parametrize("composite", [True, False])
    def test_rectangular_patches(self, composite):
        self._check(compose_case(2, lr=(16, 8), r=(2, 4)), composite)

    def test_nothing_written(self):
        case = compose_case(3, share=0.0)
        x, _, _, amap, m_hr, p = case
        assert not m_hr.any() and not amap.corrupt.size
        self._check(case, True)
        assert_bytes_equal(composed(case, True), np.clip(x, 0.0, 1.0))

    @pytest.mark.parametrize("composite", [True, False])
    def test_all_columns_branch(self, composite):
        # 2 of 64 patches corrupted: seed_mix_rows' mixed rows read all 64
        # columns, the composer's matmul the 62 clean ones; the 2 others
        # carry exact zeros
        case = compose_case(4, lr=(32, 32), r=(2, 2), clean=range(2, 64))
        amap = case[3]
        assert amap.corrupt.tolist() == [0, 1] and not seed_reads_clean(amap)
        self._check(case, composite)

    @pytest.mark.parametrize("composite", [True, False])
    def test_extreme_logits(self, composite):
        # logits x3000: a softmax over all N columns underflows every clean
        # column of some corrupted rows, which the dense masking then set
        # to uniform; the softmax over clean columns keeps each row's maximum
        x, x_in, x_lr, scores, vec, m_hr, p = compose_inputs(5, logit_scale=3000.0)
        assert seed_mask_attention(scores.a, vec)[1].any()
        amap = mask_attention(scores, vec)
        assert np.isfinite(amap.weights).all()
        self._check((x, x_in, x_lr, amap, m_hr, p), composite)

    @pytest.mark.parametrize("composite", [True, False])
    def test_single_clean_patch(self, composite):
        # every corrupted row puts weight 1 on the one clean patch, so each
        # corrupted patch that is written gets that patch's high frequencies
        case = compose_case(6, clean=[5])
        amap = case[3]
        assert amap.clean.tolist() == [5] and np.array_equal(amap.weights, np.ones((15, 1), F32))
        self._check(case, composite)

    @pytest.mark.parametrize("composite", [True, False])
    def test_row_without_weight(self, composite):
        # hand-made maps whose only mixed row has no weight: on 15 clean
        # value rows, or on none; the row mixes to zero
        x, x_in, x_lr, _, m_hr, p = compose_case(12, share=0.0)
        m_hr[0, 16 + 1, 32 + 3] = 1     # a corrupted pixel in patch 6 (row 1, column 2)
        self._check((x, x_in, x_lr, masked_map([6], np.zeros(15), 4, 4), m_hr, p), composite)
        no_clean = AttentionMap(None, True, 1, 1, corrupt=np.array([0]),
                                clean=np.arange(0), weights=np.zeros((1, 0), F32))
        m_one = np.zeros((1, 16, 16), F32)
        m_one[0, 1, 3] = 1
        self._check((x[:, :16, :16], x_in[:, :4, :4], x_lr[:, :4, :4], no_clean, m_one, p),
                    composite)

    @pytest.mark.parametrize("composite", [True, False])
    @pytest.mark.parametrize("lr,r,clean", [
        ((16, 16), (2, 2), None), ((16, 16), (4, 4), None), ((16, 16), (8, 8), None),
        ((16, 8), (2, 4), None),
        ((8, 8), (4, 4), [2]),      # a 2 x 2 grid: one clean patch, three written
        ((16, 8), (8, 2), [1, 4]),  # a 4 x 2 grid
    ], ids=["r2", "r4", "r8", "anisotropic", "2x2-grid", "4x2-grid"])
    def test_lr_correction(self, lr, r, clean, composite):
        # each written patch is its mix of x plus B (L^ - W L), the bilinear
        # up-sampling of its LR difference; in the grids two patches wide
        # every patch is an edge patch, whose window reads the LR image's
        # edge padding
        case = compose_case(sum(lr) + sum(r), lr=lr, r=r, clean=clean)
        amap = case[3]
        assert amap.corrupt.size and amap.clean.size
        self._check(case, composite)

    def test_mix_rounds_at_the_scale_of_the_texture(self):
        # ~720 clean patches of a smooth image near 0.9 and near-uniform
        # weights: the matmul mixes x less each patch's LR mean, so its
        # float32 partial sums round at the texture's scale, not at x's.
        # Measured 1.8e-7 from the unfused form; 9e-7 when mixing x itself
        for seed in range(3):
            _, _, x_lr, amap, m_hr, p = compose_case(13 + seed, lr=(128, 128), r=(2, 2),
                                                     logit_scale=0.01, share=0.3)
            yy, xx = np.mgrid[0:256, 0:256] / 64.0
            x = np.stack([0.9 + 0.04 * np.sin(yy + c) * np.cos(xx - c) for c in range(3)])
            x = x.astype(F32) * (1 - m_hr)
            case = (x, lr_input(x, 128, 128), x_lr, amap, m_hr, p)
            assert len(amap.clean) > 700
            assert_close(composed(case, True), unfused_case(case, True), 4e-7)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), rows=st.integers(1, 4), cols=st.integers(1, 4),
           r_h=st.sampled_from([1, 2, 4]), r_w=st.sampled_from([1, 2, 4]),
           p=st.sampled_from([2, 4]), share=st.floats(0.0, 1.0, exclude_max=True),
           composite=st.booleans())
    def test_random_cases_match_unfused(self, seed, rows, cols, r_h, r_w, p, share, composite):
        # the corrupted patches the composer writes come from the map alone;
        # on pipeline-shaped inputs that is the unfused form's per-pixel
        # composite, with known pixels bit-exact
        try:
            case = compose_case(seed, lr=(rows * p, cols * p), r=(r_h, r_w), p=p, share=share)
        except AllPatchesCorruptedError:
            reject()
        assert_matches_unfused(case, composite)

    def test_float64_channels_last_image(self):
        x, x_in, x_lr, amap, m_hr, p = compose_case(11)
        x64 = np.ascontiguousarray(x.astype(np.float64).transpose(1, 2, 0)).transpose(2, 0, 1)
        self._check((x64, x_in, x_lr, amap, m_hr, p), True)

    def test_larger_grids(self):
        self._check(compose_case(7, lr=(32, 32)), True)
        self._check(compose_case(8, lr=(16, 32), r=(4, 2)), False)

    @staticmethod
    def _record_compose_parts(monkeypatch) -> list:
        """Returns a list that keeps the rows of patches each slice of the
        last split loop of a compose_hr call, the compose pass, gets."""
        compose_parts = []

        def recording_split(job, items, nbytes):
            compose_parts.clear()

            def recorded(part):
                compose_parts.append(list(part))
                return job(part)

            return tensor_ops._split(recorded, items, nbytes)

        monkeypatch.setattr(upscale, "_split", recording_split)
        return compose_parts

    @pytest.mark.parametrize("parts,rows", [
        (4, [[0], [1], [2], [3]]),      # one row of patches per slice
        (3, [[0], [1], [2, 3]]),        # uneven: the last slice gets two
        (1, [[0, 1, 2, 3]]),            # all 4 rows of patches in one slice
        (2, [[0, 1], [2, 3]]),          # 2 rows of patches per slice
    ], ids=["4", "3", "1", "2"])
    def test_slice_shapes(self, monkeypatch, parts, rows):
        # the compose pass walks rows of patches: however many slices _split
        # cuts the grid into, each gets whole rows of patches and the
        # composer gives the same bytes
        case = compose_case(9, clean=[0, 1, 9])
        want = {composite: composed(case, composite) for composite in (True, False)}
        compose_parts = self._record_compose_parts(monkeypatch)
        monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: parts)
        for composite in (True, False):
            self._check(case, composite)
            assert_bytes_equal(composed(case, composite), want[composite])
            assert sorted(compose_parts) == rows

    def test_bytes_do_not_depend_on_slices(self, monkeypatch):
        # grid row 0 all clean, rows 1 and 3 all corrupted, row 2 mixed:
        # the slices of the compose pass, rows of patches, get uneven work
        case = compose_case(9, clean=[0, 1, 2, 3, 9])
        want = {composite: composed(case, composite) for composite in (True, False)}
        compose_parts = self._record_compose_parts(monkeypatch)
        monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)
        for parts, rows in ((1, [[0, 1, 2, 3]]), (2, [[0, 1], [2, 3]]), (3, [[0], [1], [2, 3]])):
            monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: parts)
            for composite in (True, False):
                self._check(case, composite)
                assert_bytes_equal(composed(case, composite), want[composite])
                assert sorted(compose_parts) == rows

    def test_peak_memory_below_2_5x_output(self):
        # 3 x 1024^2, r = 4, ~15% of patches corrupted; the unfused
        # composition peaked at ~3.9x of the output here, this one at 1.23x
        x, x_in, x_lr, amap, m_hr, p = compose_case(10, lr=(256, 256), r=(4, 4), p=8,
                                                    share=0.15)
        assert 0.12 < (amap.corrupt.size / amap.count) < 0.18
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = upscale.compose_hr(x, x_in, x_lr, amap, m_hr, True)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * out.nbytes

    def test_composite_frees_clean_residual_once_mixed(self, monkeypatch):
        # the compose pass reads x itself, so in both modes the clean
        # patches' copy (~85% of the image here) is freed before the output
        # is allocated: measured peak 1.24x of the output with composite and
        # 1.51x without, where the clean patches' LR corrections, 10/32 of
        # their HR size at r = 4, are held too
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: 2)
        x, x_in, x_lr, amap, m_hr, p = compose_case(10, lr=(256, 256), r=(4, 4), p=8,
                                                    share=0.15)
        peaks = {}
        for composite in (True, False):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = upscale.compose_hr(x, x_in, x_lr, amap, m_hr, composite)
                peaks[composite] = (tracemalloc.get_traced_memory()[1] - base) / out.nbytes
            finally:
                tracemalloc.stop()
        assert peaks[True] <= 1.35 and peaks[False] <= 1.65
