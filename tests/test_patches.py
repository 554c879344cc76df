"""Patch extraction tests; naive slicing is the bit-exact oracle."""

import numpy as np
import pytest

from rethined.patches import (
    PatchGrid,
    embed_and_condition,
    img2col,
    pixel_shuffle,
    tokenize_mask,
)

F32 = np.float32


def slicing_oracle(image, p):
    """Channel-major flattened non-overlapping patches by direct slicing."""
    _, h, w = image.shape
    rows, cols = h // p, w // p
    out = np.empty((rows * cols, 3 * p * p), image.dtype)
    for r in range(rows):
        for c in range(cols):
            out[r * cols + c] = image[:, r * p:(r + 1) * p, c * p:(c + 1) * p].reshape(-1)
    return out


class TestImg2col:
    def test_whole_image_patch(self):
        rng = np.random.default_rng(0)
        x = rng.random((3, 4, 4)).astype(F32)
        seq = img2col(x, 4)
        assert seq.count == 1
        assert np.array_equal(seq.patches[0], x.reshape(-1))

    def test_matches_slicing_oracle_bit_exact(self):
        rng = np.random.default_rng(1)
        x = rng.random((3, 4, 4)).astype(F32)
        seq = img2col(x, 2)
        assert seq.count == 4
        assert np.array_equal(seq.patches, slicing_oracle(x, 2))

    @pytest.mark.parametrize("seed", range(6))
    def test_slicing_oracle_sweep(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.choice([1, 2, 4, 8]))
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        x = rng.standard_normal((3, rows * p, cols * p)).astype(F32)
        seq = img2col(x, p)
        assert (seq.rows, seq.cols) == (rows, cols)
        assert np.array_equal(seq.patches, slicing_oracle(x, p))

    def test_constant_image(self):
        x = np.full((3, 8, 8), 0.3, F32)
        seq = img2col(x, 4)
        assert np.array_equal(seq.patches, np.full((4, 48), F32(0.3)))

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            img2col(np.zeros((3, 9, 8), F32), 4)

    def test_patch_count_formula(self):
        x = np.zeros((3, 32, 24), F32)
        seq = img2col(x, 8)
        assert seq.count == 32 * 24 // 64


class TestPixelShuffle:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        x = rng.random((3, 16, 16)).astype(F32)
        assert np.array_equal(pixel_shuffle(img2col(x, 8)), x)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_round_trip_sweep(self, p):
        rng = np.random.default_rng(p)
        x = rng.standard_normal((3, 8, 12)).astype(F32)
        assert np.array_equal(pixel_shuffle(img2col(x, p)), x)

    def test_swapping_patches_swaps_blocks(self):
        rng = np.random.default_rng(1)
        x = rng.random((3, 8, 8)).astype(F32)
        seq = img2col(x, 4)
        swapped = seq.patches.copy()
        swapped[[0, 3]] = swapped[[3, 0]]
        out = pixel_shuffle(PatchGrid(swapped, seq.rows, seq.cols, 4, 4))
        want = x.copy()
        want[:, 0:4, 0:4] = x[:, 4:8, 4:8]
        want[:, 4:8, 4:8] = x[:, 0:4, 0:4]
        assert np.array_equal(out, want)

    def test_zero_sequence(self):
        seq = PatchGrid(np.zeros((4, 12), F32), 2, 2, 2, 2)
        assert np.array_equal(pixel_shuffle(seq), np.zeros((3, 4, 4), F32))


class TestTokenizeMask:
    def test_all_zeros(self):
        m = np.zeros((1, 16, 16), F32)
        assert np.array_equal(tokenize_mask(m, 4), np.zeros(16, F32))

    def test_single_pixel_marks_one_patch(self):
        m = np.zeros((1, 16, 16), F32)
        m[0, 9, 2] = 1  # patch row 2, col 0 with P=4
        vec = tokenize_mask(m, 4)
        want = np.zeros(16, F32)
        want[2 * 4 + 0] = 1
        assert np.array_equal(vec, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_any_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = (rng.random((1, 24, 16)) < 0.1).astype(F32)
        p = 4
        vec = tokenize_mask(m, p)
        rows, cols = 6, 4
        for r in range(rows):
            for c in range(cols):
                block = m[0, r * p:(r + 1) * p, c * p:(c + 1) * p]
                assert vec[r * cols + c] == (1.0 if block.any() else 0.0)

    def test_count_matches_block_count(self):
        rng = np.random.default_rng(9)
        m = (rng.random((1, 32, 32)) < 0.02).astype(F32)
        vec = tokenize_mask(m, 8)
        blocks = m[0].reshape(4, 8, 4, 8).max(axis=(1, 3))
        assert int(vec.sum()) == int(blocks.sum())

    def test_non_binary_rejected(self):
        m = np.full((1, 8, 8), 0.5, F32)
        with pytest.raises(ValueError):
            tokenize_mask(m, 4)


class TestEmbedAndCondition:
    def test_zero_embedding_keeps_features(self):
        rng = np.random.default_rng(0)
        x = rng.random((3, 8, 8)).astype(F32)
        seq = img2col(x, 4)
        feats = rng.random((5, 2, 2)).astype(F32)
        tok = embed_and_condition(seq, feats, np.zeros((48, 7), F32))
        assert np.array_equal(tok.x[:, :7], np.zeros((4, 7), F32))
        assert np.array_equal(tok.x[:, 7:], feats.reshape(5, -1).T)

    def test_no_conditioning(self):
        rng = np.random.default_rng(1)
        x = rng.random((3, 8, 8)).astype(F32)
        seq = img2col(x, 4)
        e = rng.standard_normal((48, 6)).astype(F32)
        tok = embed_and_condition(seq, np.zeros((0, 2, 2), F32), e)
        assert np.array_equal(tok.x, seq.patches @ e)

    def test_matches_row_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.random((3, 8, 12)).astype(F32)
        seq = img2col(x, 4)
        feats = rng.standard_normal((4, 2, 3)).astype(F32)
        e = rng.standard_normal((48, 5)).astype(F32)
        tok = embed_and_condition(seq, feats, e)
        for i in range(seq.count):
            r, c = divmod(i, seq.cols)
            want = np.concatenate([seq.patches[i] @ e, feats[:, r, c]])
            assert np.abs(tok.x[i] - want).max() < 1e-6

    def test_grid_mismatch_rejected(self):
        seq = img2col(np.zeros((3, 8, 8), F32), 4)
        with pytest.raises(ValueError):
            embed_and_condition(seq, np.zeros((4, 3, 2), F32), np.zeros((48, 5), F32))
