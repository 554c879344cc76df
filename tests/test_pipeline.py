"""End-to-end pipeline, CLI and benchmark harness tests (small sizes)."""

import json
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from rethined import bench, pipeline, tensor_ops
from rethined.attention import AttentionMap
from rethined.bench import (
    attention_flops,
    flop_estimates,
    report_to_csv,
    report_to_markdown,
    run_bench,
    synthetic_inputs,
)
from rethined.cli import main as cli_main
from rethined.image_io import read_image, read_mask, write_image, write_mask
from rethined.masks import MaskSpec, generate_mask
from rethined.upscale import sigma_for_factor
from rethined.pipeline import (
    NonFiniteInputError,
    PipelineConfig,
    downsample_to_lr,
    fuse_pipeline_model,
    random_model,
    run_pipeline,
    run_pipeline_timed,
    save_model,
)

F32 = np.float32


def small_setup(seed=0, lr=64, size=128, d_k=16):
    config = PipelineConfig(lr_size=lr, patch_size=8, d_k=d_k)
    model = random_model(config, seed=seed)
    rng = np.random.default_rng(seed)
    image = rng.random((3, size, size)).astype(F32)
    mask = np.zeros((1, size, size), F32)
    mask[0, size // 4: size // 2, size // 3: size - 10] = 1
    return config, model, image * (1 - mask), mask


class TestRunPipeline:
    def test_zero_mask_passthrough(self):
        config, model, _, _ = small_setup(0)
        rng = np.random.default_rng(3)
        image = rng.random((3, 128, 128)).astype(F32)
        mask = np.zeros((1, 128, 128), F32)
        out = run_pipeline(config, model, image * (1 - mask), mask)
        assert np.array_equal(out, image)

    def test_shapes_and_patch_count(self):
        config, model, image, mask = small_setup(1)
        out, times = run_pipeline_timed(config, model, image, mask)
        assert out.shape == (3, 128, 128)
        assert config.n_patches == (64 // 8) ** 2
        assert set(times) == {"coarse", "refine", "upscale", "total"}
        assert all(v >= 0 for v in times.values())

    def test_deterministic(self):
        config, model, image, mask = small_setup(2)
        a = run_pipeline(config, model, image, mask)
        b = run_pipeline(config, model, image, mask)
        assert np.array_equal(a, b)

    def test_known_pixels_bit_exact(self):
        config, model, image, mask = small_setup(3)
        out = run_pipeline(config, model, image, mask)
        known = mask[0] == 0
        assert np.array_equal(out[:, known], image[:, known])

    def test_fused_model_close(self):
        config, model, image, mask = small_setup(4)
        fused = fuse_pipeline_model(model)
        a = run_pipeline(config, model, image, mask)
        b = run_pipeline(config, fused, image, mask)
        assert np.abs(a - b).max() < 1e-3  # attention can amplify fusion noise

    def test_indivisible_resolution_rejected(self):
        config, model, image, mask = small_setup(5)
        with pytest.raises(ValueError):
            run_pipeline(config, model, image[:, :96, :], mask[:, :96, :])

    def test_mask_downsample_is_block_any(self):
        config, model, image, mask = small_setup(6)
        _, m_lr, _ = downsample_to_lr(config, image, mask)
        r = 2
        want = mask[0].reshape(64, r, 64, r).max(axis=(1, 3))[None]
        assert np.array_equal(m_lr, want.astype(F32))

    def test_single_hr_blur(self, monkeypatch):
        config, model, image, mask = small_setup(7)
        original = tensor_ops.gaussian_blur
        calls = []

        def counting(x, *args, **kwargs):
            calls.append(x.shape)
            return original(x, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("rethined") and getattr(module, "gaussian_blur", None) is original:
                monkeypatch.setattr(module, "gaussian_blur", counting)
        run_pipeline(config, model, image, mask)
        assert calls == [image.shape]

    def test_mask_checked_once_at_full_resolution(self, monkeypatch):
        config, model, image, mask = small_setup(9)
        sizes = []
        original = tensor_ops.require_binary

        def counting(x, *args, **kwargs):
            sizes.append(np.size(x))
            return original(x, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("rethined") and getattr(module, "require_binary", None) is original:
                monkeypatch.setattr(module, "require_binary", counting)
        run_pipeline(config, model, image, mask)
        assert sizes.count(mask.size) == 1

    @pytest.mark.parametrize("bad", [0.5, np.nan, -1.0])
    def test_non_binary_mask_rejected(self, bad):
        config, model, image, mask = small_setup(9)
        mask[0, 3, 5] = bad
        with pytest.raises(ValueError, match="mask values must be binary"):
            run_pipeline(config, model, image, mask)

    def test_dense_attention_map_never_built(self, monkeypatch):
        # the request path works on the masked map's weight block only
        config, model, image, mask = small_setup(11)
        want = run_pipeline(config, model, image, mask)

        def no_dense(self):
            raise AssertionError("the dense N x N attention map was built")

        monkeypatch.setattr(AttentionMap, "a", property(no_dense))
        assert run_pipeline(config, model, image, mask).tobytes() == want.tobytes()
        run_pipeline(replace(config, composite=False), model, image, mask)

    def test_concurrent_requests_match_serial(self):
        # r = 8 at 512: both blur passes and the bilinear run over many
        # strips, so the callers share the strip pool
        config, model, image, mask = small_setup(10, lr=64, size=512)
        want = run_pipeline(config, model, image, mask)
        n_threads, n_runs = 3, 2
        results = [[] for _ in range(n_threads)]
        start = threading.Barrier(n_threads)

        def request(out):
            start.wait(timeout=60)
            for _ in range(n_runs):
                out.append(run_pipeline(config, model, image, mask))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=request, args=(r,)) for r in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert [len(r) for r in results] == [n_runs] * n_threads
        for out in (o for r in results for o in r):
            assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixel_rejected(self, bad, monkeypatch):
        config, model, image, mask = small_setup(8)
        image[1, 40, 70] = bad

        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran on non-finite input")

        monkeypatch.setattr(pipeline, "downsample_to_lr", no_stage)
        with pytest.raises(NonFiniteInputError):
            run_pipeline(config, model, image, mask)

    # 1024-wide rows give 64-row strips, so the last pixel sits in the last
    # of 16 strips of the last channel
    @pytest.mark.parametrize("where", [(0, 0, 0), (2, -1, -1)], ids=["first", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_in_any_strip_rejected(self, bad, where, monkeypatch):
        config, model, image, mask = small_setup(8, size=1024)
        assert tensor_ops._strip_rows(1024 * image.itemsize) < 1024
        image[where] = bad
        monkeypatch.setattr(pipeline, "downsample_to_lr", lambda *a, **k: pytest.fail("a stage ran"))
        with pytest.raises(NonFiniteInputError, match=r"^image pixels must be finite \(no NaN or Inf\)$"):
            run_pipeline(config, model, image, mask)

    @pytest.mark.parametrize("patch", [8, 16])
    def test_patch_size_sweep(self, patch):
        config = PipelineConfig(lr_size=64, patch_size=patch, d_k=12)
        model = random_model(config, seed=7)
        rng = np.random.default_rng(8)
        image = rng.random((3, 128, 128)).astype(F32)
        mask = np.zeros((1, 128, 128), F32)
        mask[0, 20:80, 30:100] = 1
        out = run_pipeline(config, model, image * (1 - mask), mask)
        assert out.shape == (3, 128, 128)


class TestCli:
    def _write_inputs(self, tmp_path, size=128):
        rng = np.random.default_rng(0)
        img = (rng.integers(0, 256, (3, size, size)) / 255.0).astype(F32)
        mask = generate_mask(MaskSpec(seed=9), size, size)
        img_path = tmp_path / "in.ppm"
        mask_path = tmp_path / "m.pgm"
        write_image(img, img_path)
        write_mask(mask, mask_path)
        return img_path, mask_path

    def test_inpaint_round_trip(self, tmp_path, capsys):
        img_path, mask_path = self._write_inputs(tmp_path)
        out_path = tmp_path / "out.ppm"
        rc = cli_main([
            "inpaint", "--image", str(img_path), "--mask", str(mask_path),
            "--out", str(out_path), "--lr", "64", "--patch", "8", "--dk", "16",
            "--seed", "3",
        ])
        assert rc == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["renormalized_attention"] is True
        out = read_image(out_path)
        img = read_image(img_path)
        mask = read_mask(mask_path)
        known = mask[0] == 0
        assert np.array_equal(out[:, known], img[:, known])

    def test_inpaint_deterministic(self, tmp_path, capsys):
        img_path, mask_path = self._write_inputs(tmp_path)
        out1 = tmp_path / "o1.ppm"
        out2 = tmp_path / "o2.ppm"
        for out in (out1, out2):
            cli_main(["inpaint", "--image", str(img_path), "--mask", str(mask_path),
                      "--out", str(out), "--lr", "64", "--dk", "16", "--seed", "3"])
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_fuse_command(self, tmp_path, capsys):
        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        model = random_model(config, seed=1)
        w_path = tmp_path / "w.rthd"
        fused_path = tmp_path / "wf.rthd"
        save_model(model, w_path)
        rc = cli_main(["fuse", "--in", str(w_path), "--out", str(fused_path)])
        assert rc == 0
        capsys.readouterr()
        from rethined.pipeline import load_model
        fused = load_model(fused_path)
        assert fused.fused

    def test_genmask_command(self, tmp_path, capsys):
        out = tmp_path / "m.pgm"
        rc = cli_main(["genmask", "--h", "128", "--w", "96", "--seed", "5",
                       "--out", str(out)])
        assert rc == 0
        meta = json.loads(capsys.readouterr().out)
        assert 0.30 <= meta["coverage"] <= 0.50
        mask = read_mask(out)
        assert mask.shape == (1, 128, 96)

    def test_metrics_command(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a = (rng.integers(0, 256, (3, 32, 32)) / 255.0).astype(F32)
        b = (rng.integers(0, 256, (3, 32, 32)) / 255.0).astype(F32)
        pa, pb = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_image(a, pa)
        write_image(b, pb)
        rc = cli_main(["metrics", "--a", str(pa), "--b", str(pb)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) >= {"l1", "ssim", "psnr", "ffl"}
        assert out["l1"] > 0
        rc = cli_main(["metrics", "--a", str(pa), "--b", str(pa)])
        out = json.loads(capsys.readouterr().out)
        assert out["l1"] == 0.0
        assert out["psnr"] == "inf"

    def test_bench_command(self, tmp_path, capsys):
        report = tmp_path / "bench.csv"
        rc = cli_main(["bench", "--res", "128", "--report", str(report),
                       "--lr", "64", "--dk", "16", "--runs", "3", "--warmup", "1"])
        assert rc == 0
        capsys.readouterr()
        text = report.read_text()
        assert text.splitlines()[0] == "resolution,stage,median_ms,p90_ms,flops"
        assert len(text.splitlines()) == 1 + 6
        assert report.with_suffix(".md").exists()


class TestBenchHarness:
    def test_attention_flops_formula(self):
        n, d_k, c = 64, 16, 32
        assert attention_flops(n, d_k, c) == 2 * n * n * d_k + 2 * n * (d_k + c) * d_k * 2

    def test_report_structure(self):
        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        model = random_model(config, seed=2)
        report = run_bench(config, model, [128], runs=2, warmup=1)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.resolution == 128
        assert set(row.stages) == {"coarse", "attention", "masking", "mixing",
                                   "upscale", "total"}
        for st in row.stages.values():
            assert st.median_ms >= 0
            assert st.p90_ms >= st.median_ms or abs(st.p90_ms - st.median_ms) < 1e-9
        est = flop_estimates(config, 128, 128)
        assert row.stages["attention"].flops == attention_flops(64, 16, 32)
        assert est["total"] == sum(est[k] for k in
                                   ("coarse", "attention", "masking", "mixing", "upscale"))
        csv_text = report_to_csv(report)
        assert "attention" in csv_text
        md = report_to_markdown(report)
        assert md.startswith("# Latency report")

    def test_flops_count_hr_blur_once(self, monkeypatch):
        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        est = flop_estimates(config, 256, 128)
        monkeypatch.setattr(bench, "_gauss_taps", lambda r: 0)
        no_blur = flop_estimates(config, 256, 128)
        taps = sum(tensor_ops.gaussian_kernel_1d(sigma_for_factor(r)).size for r in (4, 2))
        blur = 2 * taps * 3 * 256 * 128  # a multiply-add per tap, both passes
        assert est["total"] - no_blur["total"] == blur
        assert est["coarse"] - no_blur["coarse"] == blur

    def test_synthetic_inputs_validate_resolution(self):
        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        with pytest.raises(ValueError):
            synthetic_inputs(config, 100)
