"""Masked attention tests: score formula, masking contracts, token mixing,
coherence banding and the full refinement pass."""

import numpy as np
import pytest

from rethined.attention import (
    AllPatchesCorruptedError,
    AttentionMap,
    NpmWeights,
    ProjectionWeights,
    attention_scores,
    coherence,
    mask_attention,
    npm_refine,
    token_mix,
)
from rethined.patches import PatchGrid, TokenMatrix, img2col
from rethined.tensor_ops import softmax_rows

F32 = np.float32


def tokens_from(x, rows, cols, d_k):
    return TokenMatrix(np.ascontiguousarray(x, dtype=F32), rows, cols, d_k)


def scores_oracle(x, m_q, m_k):
    q = x.astype(np.float64) @ m_q.astype(np.float64)
    k = x.astype(np.float64) @ m_k.astype(np.float64)
    logits = q @ k.T / np.sqrt(m_q.shape[1])
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestAttentionScores:
    def test_zero_query_projection_uniform(self):
        rng = np.random.default_rng(0)
        x = tokens_from(rng.random((4, 6)), 2, 2, 6)
        w = ProjectionWeights(np.zeros((6, 3), F32), rng.standard_normal((6, 3)).astype(F32))
        amap = attention_scores(x, w)
        assert not amap.masked
        assert np.abs(amap.a - 0.25).max() < 1e-6

    def test_two_token_analytic(self):
        # X = I, projections built so logits = [[0, ln2], [ln2, 0]]
        ln2 = np.log(2.0)
        scale = np.sqrt(2.0)
        x = tokens_from(np.eye(2), 1, 2, 2)
        m_q = (np.eye(2) * scale * ln2).astype(F32)
        m_k = np.array([[0.0, 1.0], [1.0, 0.0]], F32)
        amap = attention_scores(x, ProjectionWeights(m_q, m_k))
        want = np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]])
        assert np.abs(amap.a - want).max() < 1e-6

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(1)
        x = tokens_from(rng.standard_normal((6, 5)), 2, 3, 5)
        w = ProjectionWeights(rng.standard_normal((5, 4)).astype(F32),
                              rng.standard_normal((5, 4)).astype(F32))
        amap = attention_scores(x, w)
        want = scores_oracle(x.x, w.m_q, w.m_k)
        assert np.abs(amap.a - want).max() < 1e-5

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = tokens_from(rng.standard_normal((9, 7)), 3, 3, 7)
        w = ProjectionWeights(rng.standard_normal((7, 4)).astype(F32),
                              rng.standard_normal((7, 4)).astype(F32))
        amap = attention_scores(x, w)
        assert np.abs(amap.a.sum(axis=1) - 1.0).max() < 1e-6

    def test_dim_mismatch_rejected(self):
        x = tokens_from(np.zeros((4, 6)), 2, 2, 6)
        w = ProjectionWeights(np.zeros((5, 3), F32), np.zeros((5, 3), F32))
        with pytest.raises(ValueError):
            attention_scores(x, w)


def uniform_map(n, rows, cols):
    return AttentionMap(np.full((n, n), 1.0 / n, F32), False, rows, cols)


class TestMaskAttention:
    def test_all_uncorrupted_gives_identity(self):
        amap = uniform_map(4, 2, 2)
        masked = mask_attention(amap, np.zeros(4, F32))
        assert masked.masked
        assert np.array_equal(masked.a, np.eye(4, dtype=F32))

    def test_worked_three_patch_example(self):
        a = np.array([[0.2, 0.3, 0.5], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]], F32)
        amap = AttentionMap(a, False, 1, 3)
        masked = mask_attention(amap, np.array([1, 0, 0], F32))
        want0 = np.array([0.0, 0.375, 0.625])
        assert np.abs(masked.a[0] - want0).max() < 1e-6
        assert np.array_equal(masked.a[1], np.array([0, 1, 0], F32))
        assert np.array_equal(masked.a[2], np.array([0, 0, 1], F32))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_contracts(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        n = rows * cols
        logits = rng.standard_normal((n, n)).astype(F32)
        amap = AttentionMap(softmax_rows(logits), False, rows, cols)
        m = (rng.random(n) < 0.5).astype(F32)
        if m.all():
            m[int(rng.integers(0, n))] = 0
        masked = mask_attention(amap, m)
        corrupted = m == 1
        assert np.abs(masked.a.sum(axis=1) - 1.0).max() < 1e-6
        assert np.abs(masked.a[:, corrupted][corrupted]).max() == 0.0 if corrupted.any() else True
        uncor = np.nonzero(~corrupted)[0]
        for i in uncor:
            want = np.zeros(n, F32)
            want[i] = 1
            assert np.array_equal(masked.a[i], want)

    def test_all_corrupted_rejected(self):
        amap = uniform_map(4, 2, 2)
        with pytest.raises(AllPatchesCorruptedError):
            mask_attention(amap, np.ones(4, F32))

    def test_double_masking_rejected(self):
        amap = uniform_map(4, 2, 2)
        masked = mask_attention(amap, np.zeros(4, F32))
        with pytest.raises(ValueError):
            mask_attention(masked, np.zeros(4, F32))


def masked_map(a, rows, cols):
    return AttentionMap(np.asarray(a, F32), True, rows, cols)


class TestTokenMix:
    def test_identity_map_bit_exact(self):
        rng = np.random.default_rng(0)
        x = rng.random((3, 8, 8)).astype(F32)
        seq = img2col(x, 4)
        amap = masked_map(np.eye(4), 2, 2)
        out = token_mix(amap, seq)
        assert np.array_equal(out.patches, seq.patches)

    def test_one_hot_copies_patch(self):
        rng = np.random.default_rng(1)
        seq = img2col(rng.random((3, 8, 8)).astype(F32), 4)
        a = np.eye(4, dtype=F32)
        a[2] = 0
        a[2, 0] = 1  # patch 2 becomes a copy of patch 0
        out = token_mix(masked_map(a, 2, 2), seq)
        assert np.array_equal(out.patches[2], seq.patches[0])

    def test_half_half_mean(self):
        rng = np.random.default_rng(2)
        seq = img2col(rng.random((3, 8, 8)).astype(F32), 4)
        a = np.eye(4, dtype=F32)
        a[3] = 0
        a[3, 0] = a[3, 1] = 0.5
        out = token_mix(masked_map(a, 2, 2), seq)
        want = 0.5 * seq.patches[0] + 0.5 * seq.patches[1]
        assert np.abs(out.patches[3] - want).max() < 1e-6

    def test_requires_masked_map(self):
        seq = img2col(np.zeros((3, 8, 8), F32), 4)
        with pytest.raises(ValueError):
            token_mix(uniform_map(4, 2, 2), seq)

    @pytest.mark.parametrize("seed", range(4))
    def test_convexity_range_bound(self, seed):
        rng = np.random.default_rng(seed)
        seq = img2col(rng.random((3, 8, 8)).astype(F32), 4)
        logits = rng.standard_normal((4, 4)).astype(F32)
        m = np.array([1, 0, 1, 0], F32)
        masked = mask_attention(AttentionMap(softmax_rows(logits), False, 2, 2), m)
        out = token_mix(masked, seq)
        kept = seq.patches[m == 0]
        assert (out.patches.max(axis=0) <= kept.max(axis=0) + 1e-6).all()
        assert (out.patches.min(axis=0) >= kept.min(axis=0) - 1e-6).all()

    def test_scale_covariance(self):
        rng = np.random.default_rng(5)
        seq = img2col(rng.random((3, 8, 8)).astype(F32), 4)
        a = softmax_rows(rng.standard_normal((4, 4)).astype(F32))
        masked = mask_attention(AttentionMap(a, False, 2, 2), np.array([1, 0, 0, 1], F32))
        out1 = token_mix(masked, seq)
        scaled = PatchGrid(2.0 * seq.patches, 2, 2, 4, 4)
        out2 = token_mix(masked, scaled)
        assert np.array_equal(out2.patches, 2.0 * out1.patches)

    def test_uncorrupted_rows_preserved_bit_exact(self):
        rng = np.random.default_rng(6)
        seq = img2col(rng.random((3, 16, 16)).astype(F32), 4)
        n = seq.count
        logits = rng.standard_normal((n, n)).astype(F32)
        m = (rng.random(n) < 0.4).astype(F32)
        m[0] = 0
        masked = mask_attention(AttentionMap(softmax_rows(logits), False, 4, 4), m)
        out = token_mix(masked, seq)
        for i in np.nonzero(m == 0)[0]:
            assert np.array_equal(out.patches[i], seq.patches[i])

    def test_logit_shift_leaves_masked_map_unchanged(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((9, 6)).astype(F32)
        w = ProjectionWeights(rng.standard_normal((6, 4)).astype(F32),
                              rng.standard_normal((6, 4)).astype(F32))
        tok = tokens_from(x, 3, 3, 6)
        m = np.array([1, 0, 0, 1, 0, 0, 0, 1, 0], F32)
        amap = attention_scores(tok, w)
        shifted = AttentionMap(softmax_rows(
            (x @ w.m_q) @ (x @ w.m_k).T / np.float32(2.0) + 7.5), False, 3, 3)
        m1 = mask_attention(amap, m)
        m2 = mask_attention(shifted, m)
        assert np.abs(m1.a - m2.a).max() < 1e-6


class TestCoherence:
    def test_no_corruption_bit_equal(self):
        rng = np.random.default_rng(0)
        x = rng.random((3, 16, 16)).astype(F32)
        out = coherence(x, np.zeros(16, F32), 4)
        assert np.array_equal(out, x)

    def test_constant_image_bit_equal(self):
        x = np.full((3, 16, 16), 0.42, F32)
        m = np.zeros(16, F32)
        m[5] = 1
        assert np.array_equal(coherence(x, m, 4), x)

    def test_band_pixels_match_direct_blur_oracle(self):
        # two-tone image, one corrupted patch in the middle
        p = 8
        x = np.zeros((3, 32, 32), F32)
        x[:, :, 16:] = 1.0
        m = np.zeros(16, F32)
        m[5] = 1  # patch (1, 1): pixels [8:16, 8:16]
        out = coherence(x, m, p)

        taps = np.exp(-np.array([1.0, 0.0, 1.0]) / (2 * 0.8 * 0.8))
        taps = (taps / taps.sum()).astype(F32)

        def blur_full(img):
            from rethined.tensor_ops import _blur_axis
            return _blur_axis(_blur_axis(img, taps, axis=2), taps, axis=1)

        blurred = blur_full(x)
        band = np.zeros((32, 32), bool)
        band[6:10, 8:16] = True    # top edge of patch (1,1)
        band[14:18, 8:16] = True   # bottom edge
        band[8:16, 6:10] = True    # left edge
        band[8:16, 14:18] = True   # right edge
        assert np.abs(out[:, band] - blurred[:, band]).max() < 1e-6
        assert np.array_equal(out[:, ~band], x[:, ~band])

    def test_far_patches_untouched(self):
        rng = np.random.default_rng(1)
        x = rng.random((3, 32, 32)).astype(F32)
        m = np.zeros(16, F32)
        m[0] = 1  # corrupted patch at (0, 0), P=8
        out = coherence(x, m, 8)
        # patch (3, 3) is far away from any corrupted patch
        assert np.array_equal(out[:, 24:, 24:], x[:, 24:, 24:])


class TestNpmRefine:
    def _setup(self, seed, h=32, w=32, p=8, d_k=6, c=4):
        rng = np.random.default_rng(seed)
        x_lr = rng.random((3, h, w)).astype(F32)
        feats = rng.standard_normal((c, h // p, w // p)).astype(F32)
        weights = NpmWeights(
            embed=rng.standard_normal((3 * p * p, d_k)).astype(F32),
            proj=ProjectionWeights(rng.standard_normal((d_k + c, d_k)).astype(F32),
                                   rng.standard_normal((d_k + c, d_k)).astype(F32)),
        )
        return rng, x_lr, feats, weights

    def test_zero_mask_is_identity(self):
        rng, x_lr, feats, weights = self._setup(0)
        coarse = rng.random((3, 32, 32)).astype(F32)
        mask = np.zeros((1, 32, 32), F32)
        out, amap = npm_refine(coarse, x_lr, feats, weights, mask, 8, 6)
        assert np.array_equal(out, x_lr)
        assert amap.masked
        assert np.array_equal(amap.a, np.eye(16, dtype=F32))

    def test_single_corrupted_patch_weighted_sum(self):
        rng, x_lr, feats, weights = self._setup(1, h=16, w=16, p=8)
        mask = np.zeros((1, 16, 16), F32)
        mask[0, 2, 10] = 1  # patch 1 of a 2x2 grid
        coarse = rng.random((3, 16, 16)).astype(F32)
        out, amap = npm_refine(coarse, x_lr, feats, weights, mask, 8, 6)
        lr_seq = img2col(x_lr, 8)
        row = amap.a[1]
        assert row[1] == 0.0
        want = (row[:, None] * lr_seq.patches).sum(axis=0)
        got = img2col(out, 8).patches[1]
        # coherence may touch the 2-px band of the corrupted patch; compare
        # the interior
        interior = np.zeros((3, 8, 8), bool)
        interior[:, 2:6, 2:6] = True
        assert np.abs((got.reshape(3, 8, 8) - want.reshape(3, 8, 8))[interior]).max() < 1e-5

    def test_output_shape(self):
        rng, x_lr, feats, weights = self._setup(2)
        mask = np.zeros((1, 32, 32), F32)
        mask[0, 4:20, 6:25] = 1
        coarse = rng.random((3, 32, 32)).astype(F32)
        out, _ = npm_refine(coarse, x_lr, feats, weights, mask, 8, 6)
        assert out.shape == (3, 32, 32)
        assert out.dtype == np.float32
