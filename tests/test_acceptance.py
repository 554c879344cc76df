"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The heavy resolution sweep (criterion 6) runs at
512..4096 and takes a few minutes on a desktop CPU.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rethined.attention import (
    AllPatchesCorruptedError,
    AttentionMap,
    ProjectionWeights,
    attention_scores,
    mask_attention,
    token_mix,
)
from rethined.bench import flop_estimates, synthetic_inputs
from rethined.coarse import (
    FEATURE_CHANNELS,
    coarse_forward,
    fuse_block,
    random_coarse_model,
    random_rep_block,
    rep_block_forward,
)
from rethined.image_io import ImageFormatError, read_image, read_mask, write_image, write_mask
from rethined.masks import MaskSpec, generate_mask, mask_coverage
from rethined.metrics import l1, psnr, ssim
from rethined.patches import PatchGrid, embed_and_condition, img2col, pixel_shuffle, tokenize_mask
from rethined.pipeline import (
    PipelineConfig,
    _features_for_grid,
    downsample_to_lr,
    load_model,
    random_model,
    run_pipeline,
    save_model,
)
from rethined.spectral import fft2d, focal_frequency_loss
from rethined.tensor_ops import softmax_rows
from rethined.upscale import frequency_split
from rethined.weights_io import WeightFormatError, load_tensors, save_tensors

F32 = np.float32


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] {num:02d} {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"\n[ACCEPTANCE] {num:02d} {name}: PASS ({elapsed:.1f}s)")


def test_01_reparametrization_equivalence():
    with criterion(1, "reparametrization-equivalence", 30):
        rng = np.random.default_rng(100)
        for _ in range(100):
            c_in = int(rng.integers(1, 9))
            c_out = int(rng.integers(1, 9))
            block = random_rep_block(rng, c_in, c_out, 1,
                                     skip=bool(rng.integers(0, 2)),
                                     conv_bias=bool(rng.integers(0, 2)))
            fused = fuse_block(block)
            assert fused.main_bn is None and fused.point_bn is None and fused.skip_bn is None
            for _ in range(10):
                x = rng.uniform(-1, 1, (c_in, 16, 16)).astype(F32)
                diff = np.abs(rep_block_forward(fused, x) - rep_block_forward(block, x)).max()
                assert diff < 1e-5
        # whole-model check: fused model keeps no batchnorm parameters
        model = random_coarse_model(np.random.default_rng(101))
        from rethined.coarse import fuse_model
        fused_model = fuse_model(model)
        for b in fused_model.blocks:
            assert b.main_bn is None and b.point_bn is None and b.skip_bn is None
        x = np.random.default_rng(102).random((3, 64, 64)).astype(F32)
        mask = np.zeros((1, 64, 64), F32)
        mask[0, 16:40, 8:56] = 1
        c1, f1 = coarse_forward(model, x * (1 - mask), mask)
        c2, f2 = coarse_forward(fused_model, x * (1 - mask), mask)
        assert np.abs(c1 - c2).max() < 1e-5
        assert np.abs(f1 - f2).max() < 1e-5


def test_02_img2col_oracle_equivalence():
    with criterion(2, "img2col-oracle-equivalence", 10):
        rng = np.random.default_rng(200)
        for _ in range(20):
            p = int(rng.choice([1, 2, 4, 8, 16]))
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            x = rng.standard_normal((3, rows * p, cols * p)).astype(F32)
            seq = img2col(x, p)
            naive = np.empty_like(seq.patches)
            for r in range(rows):
                for c in range(cols):
                    naive[r * cols + c] = x[:, r * p:(r + 1) * p, c * p:(c + 1) * p].reshape(-1)
            assert np.array_equal(seq.patches, naive)
            assert np.array_equal(pixel_shuffle(seq), x)


def test_03_attention_contracts():
    with criterion(3, "attention-contracts", 30):
        rng = np.random.default_rng(300)
        for trial in range(25):
            rows = int(rng.integers(1, 17))
            cols = int(rng.integers(1, 17))
            n = rows * cols  # up to 256
            width = int(rng.integers(4, 20))
            d_k = int(rng.integers(2, 12))
            x = rng.standard_normal((n, width)).astype(F32)
            from rethined.patches import TokenMatrix
            tokens = TokenMatrix(x, rows, cols, width)
            weights = ProjectionWeights(rng.standard_normal((width, d_k)).astype(F32),
                                        rng.standard_normal((width, d_k)).astype(F32))
            amap = attention_scores(tokens, weights)
            assert np.abs(amap.a.sum(axis=1) - 1.0).max() < 1e-6

            m = (rng.random(n) < 0.5).astype(F32)
            if m.all():
                m[int(rng.integers(0, n))] = 0
            masked = mask_attention(amap, m)
            assert np.abs(masked.a.sum(axis=1) - 1.0).max() < 1e-6
            corrupted = m == 1
            if corrupted.any():
                assert np.abs(masked.a[:, corrupted]).max() == 0.0
            for i in np.nonzero(~corrupted)[0]:
                row = np.zeros(n, F32)
                row[i] = 1.0
                assert np.array_equal(masked.a[i], row)

            # identity mixing is bit-exact
            p = 2
            values = PatchGrid(rng.standard_normal((n, 3 * p * p)).astype(F32),
                               rows, cols, p, p)
            ident = mask_attention(
                AttentionMap(softmax_rows(rng.standard_normal((n, n)).astype(F32)),
                             False, rows, cols),
                np.zeros(n, F32))
            mixed = token_mix(ident, values)
            assert np.array_equal(mixed.patches, values.patches)

            with pytest.raises(AllPatchesCorruptedError):
                mask_attention(attention_scores(tokens, weights), np.ones(n, F32))


def dft2d_oracle(img):
    h, w = img.shape
    out = np.zeros((h, w), np.complex128)
    for u in range(h):
        for v in range(w):
            out[u, v] = sum(
                img[y, x] * np.exp(-2j * np.pi * (u * y / h + v * x / w))
                for y in range(h) for x in range(w)
            )
    return out


def test_04_frequency_decomposition():
    with criterion(4, "frequency-decomposition", 30):
        rng = np.random.default_rng(400)
        # exact low/high reconstruction, float and 8-bit-quantized data
        for x in (rng.random((3, 32, 32)).astype(F32),
                  (rng.integers(0, 256, (3, 48, 32)) / 255.0).astype(F32)):
            split = frequency_split(x, 4.0)
            assert np.array_equal(split.low + split.high, x.astype(np.float64))
        const = np.full((3, 32, 32), 0.25, F32)
        assert np.array_equal(frequency_split(const, 8.0).high, np.zeros((3, 32, 32)))

        for n in (8, 16):
            img = rng.random((1, n, n)).astype(F32)
            got = fft2d(img).to_complex()
            want = dft2d_oracle(img[0].astype(np.float64))
            assert np.abs(got - want).max() < 1e-4
            space = float((img.astype(np.float64) ** 2).sum())
            freq = float((np.abs(got) ** 2).sum()) / (n * n)
            assert abs(space - freq) / space < 1e-4

        x = rng.random((1, 8, 8)).astype(F32)
        y = rng.random((1, 8, 8)).astype(F32)
        assert focal_frequency_loss(x, x.copy()) == 0.0
        got = focal_frequency_loss(x, y, alpha=1.0)
        d = np.abs(dft2d_oracle(x[0].astype(np.float64)) - dft2d_oracle(y[0].astype(np.float64)))
        want = float(((d / d.max()) * d * d).mean())
        assert abs(got - want) / want < 1e-5


def test_05_known_pixel_contract():
    with criterion(5, "known-pixel-contract", 60):
        config = PipelineConfig(lr_size=256, patch_size=8, d_k=64, composite=True)
        model = random_model(config, seed=500)
        for trial in range(20):
            rng = np.random.default_rng(510 + trial)
            image = rng.random((3, 512, 512)).astype(F32)
            mask = generate_mask(MaskSpec(seed=520 + trial), 512, 512)
            masked = image * (1.0 - mask)
            out = run_pipeline(config, model, masked, mask)
            known = mask[0] == 0
            assert np.array_equal(out[:, known], masked[:, known])


def _attention_stage_median(config, model, image, mask, runs=30):
    x_lr, m_lr, _ = downsample_to_lr(config, image, mask)
    coarse, feats = coarse_forward(model.coarse, x_lr, m_lr)
    feats = _features_for_grid(config, feats)
    seq = img2col(coarse, config.patch_size)
    tokens = embed_and_condition(seq, feats, model.npm.embed)
    m_vec = tokenize_mask(m_lr, config.patch_size)
    samples = []
    for _ in range(3):  # warmup
        mask_attention(attention_scores(tokens, model.npm.proj), m_vec)
    for _ in range(runs):
        t0 = time.perf_counter()
        mask_attention(attention_scores(tokens, model.npm.proj), m_vec)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def test_06_resolution_agnosticism():
    with criterion(6, "resolution-agnosticism", 600):
        config = PipelineConfig(lr_size=256, patch_size=8, d_k=64)
        model = random_model(config, seed=600)
        resolutions = [512, 1024, 2048, 4096]
        total_ms = {}
        att_ms = {}
        for res in resolutions:
            image, mask = synthetic_inputs(config, res, seed=601)
            out = run_pipeline(config, model, image, mask)  # warm
            assert out.shape == (3, res, res)
            samples = []
            for _ in range(2):
                t0 = time.perf_counter()
                run_pipeline(config, model, image, mask)
                samples.append((time.perf_counter() - t0) * 1e3)
            total_ms[res] = statistics.median(samples)
            att_ms[res] = _attention_stage_median(config, model, image, mask)
        print(f"\n  totals ms: { {r: round(v) for r, v in total_ms.items()} }")
        print(f"  attention ms: { {r: round(v, 2) for r, v in att_ms.items()} }")
        assert att_ms[4096] < 1.5 * att_ms[512], (
            f"attention stage not resolution-independent: {att_ms}"
        )
        logs_px = np.log([float(r) * r for r in resolutions])
        logs_t = np.log([total_ms[r] for r in resolutions])
        exponent = float(np.polyfit(logs_px, logs_t, 1)[0])
        print(f"  total-time fit exponent: {exponent:.3f}")
        assert exponent < 1.3


def test_07_patch_count_and_flops():
    with criterion(7, "patch-count-and-flops", 120):
        c = FEATURE_CHANNELS
        flops_by_p = {}
        time_by_p = {}
        for p in (8, 16, 32):
            config = PipelineConfig(lr_size=256, patch_size=p, d_k=64)
            n = config.n_patches
            assert n == 256 * 256 // (p * p)
            est = flop_estimates(config, 512, 512)
            want = 2 * n * n * 64 + 2 * n * (64 + c) * 64 * 2
            assert est["attention"] == want
            assert est["attention"] - 2 * n * (64 + c) * 64 * 2 == 2 * n * n * 64
            flops_by_p[p] = est["attention"]

            model = random_model(config, seed=700 + p)
            image, mask = synthetic_inputs(config, 512, seed=701)
            time_by_p[p] = _attention_stage_median(config, model, image, mask)
            # patch count observed on a real masked attention map
            x_lr, m_lr, _ = downsample_to_lr(config, image, mask)
            coarse, feats = coarse_forward(model.coarse, x_lr, m_lr)
            feats = _features_for_grid(config, feats)
            tokens = embed_and_condition(img2col(coarse, p), feats, model.npm.embed)
            amap = attention_scores(tokens, model.npm.proj)
            assert amap.a.shape == (n, n)
        print(f"\n  attention flops by P: {flops_by_p}")
        print(f"  attention ms by P: { {p: round(v, 3) for p, v in time_by_p.items()} }")
        assert flops_by_p[8] > flops_by_p[16] > flops_by_p[32]
        assert time_by_p[8] > time_by_p[16] > time_by_p[32]


def test_08_mask_protocol():
    with criterion(8, "mask-protocol", 60):
        coverages = []
        for seed in range(1000):
            m = generate_mask(MaskSpec(seed=seed), 256, 256)
            coverages.append(mask_coverage(m))
        coverages = np.array(coverages)
        assert (coverages >= 0.30).all() and (coverages <= 0.50).all()
        print(f"\n  coverage over 1000 seeds: min {coverages.min():.3f} "
              f"max {coverages.max():.3f} mean {coverages.mean():.3f}")
        for seed in (0, 1, 99, 500, 999):
            a = generate_mask(MaskSpec(seed=seed), 256, 256)
            b = generate_mask(MaskSpec(seed=seed), 256, 256)
            assert np.array_equal(a, b)


def ssim_oracle(a, b):
    from rethined.metrics import SSIM_C1, SSIM_C2, _ssim_window

    window = _ssim_window()
    vals = []
    for ch in range(a.shape[0]):
        x = a[ch].astype(np.float64)
        y = b[ch].astype(np.float64)
        for i in range(a.shape[1] - 10):
            for j in range(a.shape[2] - 10):
                wx = x[i:i + 11, j:j + 11]
                wy = y[i:i + 11, j:j + 11]
                mx = (window * wx).sum()
                my = (window * wy).sum()
                vx = (window * wx * wx).sum() - mx * mx
                vy = (window * wy * wy).sum() - my * my
                vxy = (window * wx * wy).sum() - mx * my
                vals.append(((2 * mx * my + SSIM_C1) * (2 * vxy + SSIM_C2))
                            / ((mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)))
    return float(np.mean(vals))


def test_09_metrics_sanity():
    with criterion(9, "metrics-sanity", 30):
        rng = np.random.default_rng(900)
        x = rng.random((3, 16, 16)).astype(F32)
        assert abs(ssim(x, x) - 1.0) < 1e-9
        assert l1(x, x) == 0.0
        assert psnr(x, x) == float("inf")

        a = rng.random((2, 14, 13)).astype(F32)
        b = rng.random((2, 14, 13)).astype(F32)
        assert abs(ssim(a, b) - ssim_oracle(a, b)) < 1e-6


def test_10_serialization(tmp_path):
    with criterion(10, "serialization", 30):
        rng = np.random.default_rng(1000)
        tensors = {"w": rng.standard_normal((3, 3, 3, 3)).astype(F32),
                   "b": rng.standard_normal(7).astype(F32)}
        p1, p2 = tmp_path / "a.rthd", tmp_path / "b.rthd"
        save_tensors(tensors, p1)
        save_tensors(load_tensors(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        m1, m2 = tmp_path / "m1.rthd", tmp_path / "m2.rthd"
        save_model(random_model(config, seed=1001), m1)
        save_model(load_model(m1), m2)
        assert m1.read_bytes() == m2.read_bytes()

        img = (rng.integers(0, 256, (3, 9, 7)) / 255.0).astype(F32)
        i1, i2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_image(img, i1)
        write_image(read_image(i1), i2)
        assert i1.read_bytes() == i2.read_bytes()

        mask = (rng.random((1, 8, 8)) < 0.4).astype(F32)
        g1, g2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_mask(mask, g1)
        write_mask(read_mask(g1), g2)
        assert g1.read_bytes() == g2.read_bytes()

        # corrupted headers raise the defined errors, never crash
        bad = tmp_path / "bad.rthd"
        blob = bytearray(p1.read_bytes())
        blob[:4] = b"WOOF"
        bad.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError):
            load_tensors(bad)
        blob = bytearray(p1.read_bytes())
        blob[4] = 42
        bad.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError):
            load_tensors(bad)
        bad.write_bytes(p1.read_bytes()[:-3])
        with pytest.raises(WeightFormatError):
            load_tensors(bad)

        badimg = tmp_path / "bad.ppm"
        badimg.write_bytes(b"P3\n2 2\n255\n" + bytes(12))
        with pytest.raises(ImageFormatError):
            read_image(badimg)
        badimg.write_bytes(b"P6\n2 2\n1023\n" + bytes(12))
        with pytest.raises(ImageFormatError):
            read_image(badimg)
        badimg.write_bytes(b"P6\n2 2\n255\n" + bytes(3))
        with pytest.raises(ImageFormatError):
            read_image(badimg)
