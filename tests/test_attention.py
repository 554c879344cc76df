"""Masked attention tests: score formula, masking contracts, token mixing,
coherence banding and the full refinement pass."""

import threading

import numpy as np
import pytest

from rethined import tensor_ops
from rethined.attention import (
    _COHERENCE_TAPS,
    AllPatchesCorruptedError,
    AttentionMap,
    NpmWeights,
    ProjectionWeights,
    _boundary_band,
    attention_scores,
    coherence,
    mask_attention,
    npm_refine,
    token_mix,
)
from rethined.bench import synthetic_inputs
from rethined.patches import PatchGrid, TokenMatrix, img2col, tokenize_mask
from rethined.pipeline import PipelineConfig
from rethined.tensor_ops import _reflect_indices, softmax_rows

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

    def test_holds_projections_only(self):
        # the N x N scores are built only when `a` is read
        rng = np.random.default_rng(3)
        x = tokens_from(rng.standard_normal((6, 5)), 2, 3, 5)
        w = ProjectionWeights(rng.standard_normal((5, 4)).astype(F32),
                              rng.standard_normal((5, 4)).astype(F32))
        amap = attention_scores(x, w)
        assert amap.dense is None and "a" not in amap.__dict__
        assert np.array_equal(amap.q, x.x @ w.m_q) and np.array_equal(amap.k, x.x @ w.m_k)

    def test_dim_mismatch_rejected(self):
        x = tokens_from(np.zeros((4, 6)), 2, 2, 6)
        w = ProjectionWeights(np.zeros((5, 3), F32), np.zeros((5, 3), F32))
        with pytest.raises(ValueError):
            attention_scores(x, w)


class _BlasThreadSpy(np.ndarray):
    """An array that records numpy's OpenBLAS thread count at each product
    it is the left operand of."""

    seen = []

    def __matmul__(self, other):
        get, _ = tensor_ops._openblas()
        _BlasThreadSpy.seen.append(get())
        return np.asarray(self) @ other


@pytest.mark.skipif(tensor_ops._openblas() is None, reason="numpy's BLAS is not an OpenBLAS")
def test_scores_and_masking_hold_one_blas_thread():
    """Outside a chain, attention_scores and mask_attention run their
    products on one BLAS thread, with the same bytes as at one thread, and
    give the count back."""
    get, put = tensor_ops._openblas()
    rng = np.random.default_rng(21)
    n, d = 1024, 96
    w = ProjectionWeights(rng.standard_normal((d, 64)).astype(F32),
                          rng.standard_normal((d, 64)).astype(F32))
    x = rng.standard_normal((n, d)).astype(F32)
    m = (rng.random(n) < 0.4).astype(F32)
    saved, results = get(), {}
    _BlasThreadSpy.seen = []
    try:
        for threads in (1, 2):
            put(threads)
            amap = attention_scores(TokenMatrix(x.view(_BlasThreadSpy), 32, 32, 64), w)
            spied = AttentionMap(None, False, 32, 32, q=amap.q.view(_BlasThreadSpy), k=amap.k)
            masked = mask_attention(spied, m)
            results[threads] = [np.asarray(a).tobytes() for a in (amap.q, amap.k, masked.weights)]
            assert get() == threads
    finally:
        put(saved)
    assert results[1] == results[2]
    assert _BlasThreadSpy.seen == [1] * 6


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

    def test_scores_map_is_softmax_over_clean_columns(self):
        # a map from attention_scores is masked on its projections; the
        # weights equal the float64 softmax of the clean columns' logits
        rng = np.random.default_rng(8)
        x = tokens_from(rng.standard_normal((12, 5)), 3, 4, 5)
        w = ProjectionWeights(rng.standard_normal((5, 4)).astype(F32),
                              rng.standard_normal((5, 4)).astype(F32))
        m = np.array([1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0], F32)
        masked = mask_attention(attention_scores(x, w), m)
        corrupt, clean = np.flatnonzero(m), np.flatnonzero(m == 0)
        assert np.array_equal(masked.corrupt, corrupt) and np.array_equal(masked.clean, clean)
        assert masked.weights.dtype == F32 and masked.weights.shape == (5, 7)
        q = x.x.astype(np.float64) @ w.m_q.astype(np.float64)
        k = x.x.astype(np.float64) @ w.m_k.astype(np.float64)
        logits = q[corrupt] @ k[clean].T / 2.0
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.abs(masked.weights - e / e.sum(axis=1, keepdims=True)).max() < 1e-6

    def test_extreme_logits_keep_clean_softmax(self):
        # logits of ~1e4: a softmax over all N columns underflows every
        # clean column of some corrupted rows; the clean-column softmax
        # cannot, since each row holds an exp(0) term
        rng = np.random.default_rng(9)
        x = tokens_from(rng.standard_normal((16, 6)), 4, 4, 6)
        w = ProjectionWeights(rng.standard_normal((6, 4)).astype(F32) * F32(3000.0),
                              rng.standard_normal((6, 4)).astype(F32))
        m = (np.arange(16) % 3 == 0).astype(F32)
        scores = attention_scores(x, w)
        full = scores.a
        assert (full[m == 1][:, m == 0].sum(axis=1) == 0).any()
        masked = mask_attention(scores, m)
        corrupt, clean = np.flatnonzero(m), np.flatnonzero(m == 0)
        assert np.isfinite(masked.weights).all()
        assert np.abs(masked.weights.sum(axis=1) - 1.0).max() < 1e-6
        logits = (x.x @ w.m_q)[corrupt] @ (x.x @ w.m_k)[clean].T / F32(2.0)
        want = np.exp(logits.astype(np.float64) - logits.max(axis=1, keepdims=True))
        assert np.abs(masked.weights - want / want.sum(axis=1, keepdims=True)).max() < 1e-6

    def test_caller_row_without_clean_weight_rejected(self):
        # patch 0 is corrupted and puts all its weight on corrupted patch 1
        a = np.array([[0.0, 1.0, 0.0], [0.5, 0.25, 0.25], [0.2, 0.3, 0.5]], F32)
        with pytest.raises(ValueError, match="no weight on any clean patch"):
            mask_attention(AttentionMap(a, False, 1, 3), np.array([1, 1, 0], F32))

    @pytest.mark.parametrize("bad", [0.5, np.nan, 2.0])
    def test_non_binary_patch_mask_rejected(self, bad):
        m = np.zeros(4, F32)
        m[1] = bad
        with pytest.raises(ValueError, match="patch mask must be binary"):
            mask_attention(uniform_map(4, 2, 2), m)

    def test_double_masking_rejected(self):
        amap = uniform_map(4, 2, 2)
        masked = mask_attention(amap, np.zeros(4, F32))
        with pytest.raises(ValueError):
            mask_attention(masked, np.zeros(4, F32))


def masked_map(corrupt, weights, rows, cols):
    """A masked map built by hand: the `corrupt` patches draw from the
    others, in ascending order, with the rows of `weights`."""
    corrupt = np.asarray(corrupt, dtype=np.intp)
    clean = np.setdiff1d(np.arange(rows * cols), corrupt)
    weights = np.asarray(weights, F32).reshape(len(corrupt), len(clean))
    return AttentionMap(None, True, rows, cols, corrupt=corrupt, clean=clean, weights=weights)


class TestMaskedMapForm:
    """The masked map holds corrupt and clean patch indices and one weight
    block; `a` is its dense view, built only when read."""

    def test_dense_view(self):
        amap = masked_map([1, 2], [[0.25, 0.75], [1.0, 0.0]], 2, 2)
        want = np.array([[1, 0, 0, 0], [0.25, 0, 0, 0.75], [1, 0, 0, 0], [0, 0, 0, 1]], F32)
        assert "a" not in amap.__dict__
        assert np.array_equal(amap.a, want)

    def test_dense_masked_map_rejected(self):
        with pytest.raises(ValueError, match="mask_attention builds one"):
            AttentionMap(np.eye(4, dtype=F32), True, 2, 2)

    @pytest.mark.parametrize("corrupt,clean", [([0, 1], [1, 2, 3]), ([0], [1, 2]),
                                               ([0, 4], [1, 2, 3])])
    def test_partition_checked(self, corrupt, clean):
        with pytest.raises(ValueError, match="partition"):
            AttentionMap(None, True, 2, 2, corrupt=np.array(corrupt), clean=np.array(clean),
                         weights=np.zeros((len(corrupt), len(clean)), F32))

    def test_weight_shape_checked(self):
        with pytest.raises(ValueError, match="weights of shape"):
            AttentionMap(None, True, 2, 2, corrupt=np.array([0]), clean=np.array([1, 2, 3]),
                         weights=np.zeros((1, 2), F32))


class TestTokenMix:
    def test_identity_map_bit_exact(self):
        rng = np.random.default_rng(0)
        x = rng.random((3, 8, 8)).astype(F32)
        seq = img2col(x, 4)
        amap = masked_map([], [], 2, 2)
        out = token_mix(amap, seq)
        assert np.array_equal(out.patches, seq.patches)

    def test_one_hot_copies_patch(self):
        rng = np.random.default_rng(1)
        seq = img2col(rng.random((3, 8, 8)).astype(F32), 4)
        # patch 2 becomes a copy of patch 0
        out = token_mix(masked_map([2], [1, 0, 0], 2, 2), seq)
        assert out.patches[2].tobytes() == seq.patches[0].tobytes()

    def test_half_half_mean(self):
        rng = np.random.default_rng(2)
        seq = img2col(rng.random((3, 8, 8)).astype(F32), 4)
        out = token_mix(masked_map([3], [0.5, 0.5, 0], 2, 2), seq)
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


def seed_boundary_band(mask_vec, rows, cols, patch_size):
    """The pixel-level form of the coherence band, by five np.ix_ gathers."""
    corr = mask_vec.reshape(rows, cols) == 1
    p = patch_size
    h, w = rows * p, cols * p
    ry, cx = np.arange(h) // p, np.arange(w) // p
    py, px = np.arange(h) % p, np.arange(w) % p
    padded = np.zeros((rows + 2, cols + 2), dtype=bool)
    padded[1:-1, 1:-1] = corr
    here = padded[np.ix_(ry + 1, cx + 1)]
    up = padded[np.ix_(ry, cx + 1)]
    down = padded[np.ix_(ry + 2, cx + 1)]
    left = padded[np.ix_(ry + 1, cx)]
    right = padded[np.ix_(ry + 1, cx + 2)]
    near_top = (py < 2)[:, None] & (ry > 0)[:, None]
    near_bot = (py >= p - 2)[:, None] & (ry < rows - 1)[:, None]
    near_left = (px < 2)[None, :] & (cx > 0)[None, :]
    near_right = (px >= p - 2)[None, :] & (cx < cols - 1)[None, :]
    band = near_top & (here | up)
    band |= near_bot & (here | down)
    band |= near_left & (here | left)
    band |= near_right & (here | right)
    return band


def seed_coherence(image, mask_vec, patch_size):
    """coherence with the pixel-level band and a fancy-index scatter."""
    _, h, w = image.shape
    m = np.asarray(mask_vec).reshape(-1)
    out = image.copy()
    band = seed_boundary_band(m, h // patch_size, w // patch_size, patch_size)
    if not band.any():
        return out
    k1 = _COHERENCE_TAPS[2]
    p = np.pad(image, ((0, 0), (0, 0), (1, 1)), mode="reflect")
    blurred = image + k1 * ((p[:, :, 2:] + p[:, :, :-2]) - (image + image))
    p = np.pad(blurred, ((0, 0), (1, 1), (0, 0)), mode="reflect")
    blurred = blurred + k1 * ((p[:, 2:] + p[:, :-2]) - (blurred + blurred))
    out[:, band] = blurred[:, band]
    return out


def strided_coherence(image, mask_vec, patch_size):
    """coherence as it was before its passes ran on the flat padded buffer:
    each pass a [3, H + 2, W] array of row-strided views, the scratch roles
    as new arrays.  The byte-equality oracle of the flat passes."""
    _, h, w = image.shape
    rows, cols = h // patch_size, w // patch_size
    m = np.asarray(mask_vec).reshape(-1)
    out = image.copy()
    band = _boundary_band(m, rows, cols, patch_size)
    if not band.any():
        return out
    k1 = _COHERENCE_TAPS[2]
    dtype = np.result_type(image, k1)
    pad = np.empty((3, h + 2, w + 2), dtype)
    pad[:, 1:-1, 1:-1] = image
    pad[:, [0, -1]] = pad[:, 1 + _reflect_indices(h, 1)[[0, -1]]]
    pad[:, :, [0, -1]] = pad[:, :, 1 + _reflect_indices(w, 1)[[0, -1]]]
    x = pad[:, :, 1:-1]
    low = np.empty((3, h + 2, w), dtype)
    two = np.empty((3, h + 2, w), dtype)
    np.add(pad[:, :, 2:], pad[:, :, :-2], out=low)
    np.add(x, x, out=two)
    low -= two
    np.multiply(k1, low, out=low)
    np.add(x, low, out=low)
    mid, s, d = low[:, 1:-1], two[:, :h], pad[:, :h, :w]
    np.add(low[:, 2:], low[:, :-2], out=s)
    np.add(mid, mid, out=d)
    s -= d
    np.multiply(k1, s, out=s)
    np.add(mid, s, out=s)
    np.copyto(out, s, where=band)
    return out


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
        taps /= taps.sum()

        def blur_full(img):
            # direct 3-tap sum in float64 over the mirror-padded axis, W then H
            for axis in (2, 1):
                n = img.shape[axis]
                pad = [(0, 0)] * 3
                pad[axis] = (1, 1)
                padded = np.pad(img.astype(np.float64), pad, mode="reflect")
                img = sum(t * np.take(padded, np.arange(k, k + n), axis=axis) for k, t in enumerate(taps))
            return img

        blurred = blur_full(x)
        band = np.zeros((32, 32), bool)
        band[6:10, 8:16] = True    # top edge of patch (1,1)
        band[14:18, 8:16] = True   # bottom edge
        band[8:16, 6:10] = True    # left edge
        band[8:16, 14:18] = True   # right edge
        assert np.abs(out[:, band] - blurred[:, band]).max() < 1e-6
        assert np.array_equal(out[:, ~band], x[:, ~band])

    @pytest.mark.parametrize("seed,rows,cols,p", [
        (0, 32, 32, 8), (1, 32, 32, 8), (2, 32, 32, 8), (3, 32, 32, 8), (4, 32, 32, 8),
        (5, 5, 7, 4), (6, 9, 3, 2), (7, 4, 4, 3), (8, 6, 5, 1), (9, 1, 6, 8), (10, 7, 1, 5),
        # images of many rows and of wide rows
        (11, 64, 64, 4), (12, 9, 250, 7), (13, 11, 700, 3),
    ])
    def test_equals_pixel_level_oracle(self, seed, rows, cols, p):
        rng = np.random.default_rng(seed)
        m = (rng.random(rows * cols) < rng.uniform(0.05, 0.9)).astype(F32)
        x = rng.random((3, rows * p, cols * p)).astype(F32)
        band = _boundary_band(m, rows, cols, p)
        assert np.array_equal(band, seed_boundary_band(m, rows, cols, p))
        assert coherence(x, m, p).tobytes() == seed_coherence(x, m, p).tobytes()

    @pytest.mark.parametrize("seed,rows,cols,p", [
        (0, 32, 32, 8), (5, 5, 7, 4), (6, 9, 3, 2), (7, 4, 4, 3), (8, 6, 5, 1),
        (9, 1, 6, 8), (10, 7, 1, 5), (12, 9, 250, 7), (17, 1, 1, 1), (18, 2, 1, 1),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_passes_equal_strided_oracle(self, seed, rows, cols, p, dtype):
        rng = np.random.default_rng(seed)
        x = rng.random((3, rows * p, cols * p)).astype(dtype)
        for share in (0.0, 0.3, 0.9, 1.0):
            m = (rng.random(rows * cols) < share).astype(F32)
            m[rng.integers(rows * cols)] = share > 0
            got = coherence(x, m, p)
            assert got.dtype == x.dtype
            assert got.tobytes() == strided_coherence(x, m, p).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_flat_passes_equal_strided_oracle_at_r1(self, seed):
        # the refinement's input at r = 1 of the default config: a 256^2
        # image and its mask, tokenised at P = 8
        image, mask = synthetic_inputs(PipelineConfig(), 256, seed)
        m = tokenize_mask(mask, 8)
        assert 0 < m.sum() < m.size
        assert coherence(image, m, 8).tobytes() == strided_coherence(image, m, 8).tobytes()

    def test_one_corrupted_patch_any_row_equals_oracle(self):
        # one corrupted patch in each patch row of a wide image in turn
        rng = np.random.default_rng(15)
        x = rng.random((3, 64, 2048)).astype(F32)
        for r in range(8):
            m = np.zeros(8 * 256, F32)
            m[r * 256 + 100] = 1
            assert coherence(x, m, 8).tobytes() == seed_coherence(x, m, 8).tobytes()

    def test_second_call_leaves_first_result(self):
        rng = np.random.default_rng(14)
        x0, x1 = rng.random((2, 3, 64, 64)).astype(F32)
        m = (rng.random(64) < 0.4).astype(F32)
        first = coherence(x0, m, 8)
        kept, x0_before = first.copy(), x0.copy()
        coherence(x1, 1 - m, 8)
        assert np.array_equal(first, kept) and np.array_equal(x0, x0_before)

    def test_bytes_do_not_depend_on_shared_workspace(self):
        # coherence takes its scratch from the coarse CNN's roles; NaN left
        # there by an earlier stage must not reach the result
        rng = np.random.default_rng(16)
        x = rng.random((3, 40, 56)).astype(F32)
        m = (rng.random(35) < 0.3).astype(F32)
        results = []

        def run(poison):
            if poison:
                for role in ("dw.phases", "cnn.x", "dw.acc"):
                    tensor_ops._scratch(role, (3, 64, 64)).fill(np.nan)
            results.append(coherence(x, m, 8))

        for poison in (True, False):
            t = threading.Thread(target=run, args=(poison,))
            t.start()
            t.join(timeout=60)
        assert len(results) == 2 and np.isfinite(results[0]).all()
        assert results[0].tobytes() == results[1].tobytes()
        assert results[1].tobytes() == seed_coherence(x, m, 8).tobytes()

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
        out, amap = npm_refine(coarse, x_lr, feats, weights, mask)
        assert np.array_equal(out, x_lr)
        assert amap.masked
        assert np.array_equal(amap.a, np.eye(16, dtype=F32))

    def test_single_corrupted_patch_weighted_sum(self):
        rng, x_lr, feats, weights = self._setup(1, h=16, w=16, p=8)
        mask = np.zeros((1, 16, 16), F32)
        mask[0, 2, 10] = 1  # patch 1 of a 2x2 grid
        coarse = rng.random((3, 16, 16)).astype(F32)
        out, amap = npm_refine(coarse, x_lr, feats, weights, mask)
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
        out, _ = npm_refine(coarse, x_lr, feats, weights, mask)
        assert out.shape == (3, 32, 32)
        assert out.dtype == np.float32

    @pytest.mark.parametrize("rows", [190, 195, 0])
    def test_embedding_not_3p2_rows_rejected(self, rows):
        # P comes from the embedding's 3P^2 rows, 192 is P = 8, and
        # NpmWeights rejects any other count when it is built
        rng, _, _, weights = self._setup(4)
        assert weights.patch_size == 8
        with pytest.raises(ValueError, match=rf"^embedding has {rows} rows, not 3P\^2"):
            NpmWeights(rng.standard_normal((rows, 6)).astype(F32), weights.proj)

    def test_second_call_leaves_first_result(self):
        rng, x_lr, feats, weights = self._setup(3)
        mask = np.zeros((1, 32, 32), F32)
        mask[0, 4:20, 6:25] = 1
        coarse = rng.random((3, 32, 32)).astype(F32)
        out, amap = npm_refine(coarse, x_lr, feats, weights, mask)
        kept, weights_kept = out.copy(), amap.weights.copy()
        npm_refine(1 - coarse, 1 - x_lr, -feats, weights, 1 - mask)
        assert np.array_equal(out, kept) and np.array_equal(amap.weights, weights_kept)
