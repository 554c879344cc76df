"""End-to-end pipeline, CLI and benchmark harness tests (small sizes)."""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rethined
from rethined import bench, cli, pipeline, tensor_ops
from rethined.attention import AllPatchesCorruptedError, AttentionMap, npm_refine
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
from rethined.coarse import coarse_forward
from rethined.patches import block_any
from rethined.spectral import focal_frequency_loss
from rethined.tensor_ops import bilinear_resize, gaussian_blur
from rethined.upscale import compose_hr, sigma_for_factor
from rethined.pipeline import (
    NonFiniteInputError,
    PipelineConfig,
    config_for_model,
    downsample_to_lr,
    fuse_pipeline_model,
    model_to_tensors,
    random_model,
    run_pipeline,
    run_pipeline_timed,
    save_model,
)

F32 = np.float32

needs_openblas = pytest.mark.skipif(tensor_ops._openblas() is None,
                                    reason="numpy's BLAS is not an OpenBLAS")


def small_setup(seed=0, lr=64, size=128, d_k=16):
    config = PipelineConfig(lr_size=lr, patch_size=8, d_k=d_k)
    model = random_model(config, seed=seed)
    rng = np.random.default_rng(seed)
    image = rng.random((3, size, size)).astype(F32)
    mask = np.zeros((1, size, size), F32)
    mask[0, size // 4: size // 2, size // 3: size - 10] = 1
    return config, model, image * (1 - mask), mask


def mask_sized_calls(monkeypatch, original, config, model, image, mask):
    """Run run_pipeline with `original` counted in every rethined module that
    imports it; returns the size of the first argument of each call."""
    sizes = []
    fn_name = original.__name__

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return original(x, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("rethined") and getattr(module, fn_name, None) is original:
            monkeypatch.setattr(module, fn_name, counting)
    run_pipeline(config, model, image, mask)
    return sizes


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
        _, m_lr = downsample_to_lr(config, image, mask)
        r = 2
        want = mask[0].reshape(64, r, 64, r).max(axis=(1, 3))[None]
        assert np.array_equal(m_lr, want.astype(F32))

    def test_no_gaussian_blur(self, monkeypatch):
        # x_lr comes from one banded operator per axis and the residual is
        # taken against up(x_lr), so no request blurs the HR image: at r = 2
        # nor at r = 1
        original = tensor_ops.gaussian_blur
        for name, module in list(sys.modules.items()):
            if name.startswith("rethined") and getattr(module, "gaussian_blur", None) is original:
                monkeypatch.setattr(module, "gaussian_blur", lambda *a, **k: pytest.fail("blurred"))
        for lr in (64, 128):
            config, model, image, mask = small_setup(7, lr=lr)
            assert run_pipeline(config, model, image, mask).shape == image.shape

    @pytest.mark.parametrize("composite", [True, False])
    @pytest.mark.parametrize("lr,size", [(64, 128), (64, 512)], ids=["r2", "r8"])
    def test_no_resize_on_the_request_path(self, monkeypatch, lr, size, composite):
        # the composer up-samples LR windows of its patches, so no request
        # resizes an image: with bilinear_resize failing in every module a
        # request still gives the same valid image
        config, model, image, mask = small_setup(8, lr=lr, size=size)
        config = replace(config, composite=composite)
        want = run_pipeline(config, model, image, mask)
        for name, module in list(sys.modules.items()):
            if name.startswith("rethined") and getattr(module, "bilinear_resize", None) is bilinear_resize:
                monkeypatch.setattr(module, "bilinear_resize", lambda *a, **k: pytest.fail("resized"))
        out = run_pipeline(config, model, image, mask)
        assert out.tobytes() == want.tobytes()
        assert out.shape == image.shape and out.dtype == F32
        assert np.isfinite(out).all() and out.min() >= 0.0 and out.max() <= 1.0
        if composite:
            known = mask[0] == 0
            assert out[:, known].tobytes() == image[:, known].tobytes()

    def test_mask_checked_once_at_full_resolution(self, monkeypatch):
        config, model, image, mask = small_setup(9)
        sizes = mask_sized_calls(monkeypatch, tensor_ops.require_binary, config, model, image, mask)
        assert sizes.count(mask.size) == 1

    def test_mask_reduced_once_at_full_resolution(self, monkeypatch):
        # r = 2: downsample_to_lr reduces the HR mask to LR, and the composer
        # takes the corrupted patches from the masked map, not from the mask
        config, model, image, mask = small_setup(9)
        sizes = mask_sized_calls(monkeypatch, block_any, config, model, image, mask)
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
        # r = 8 at 512: the LR operator's H pass runs over many blocks and the
        # composition over many rows of patches, in every caller at once
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

    @needs_openblas
    def test_first_request_starts_one_peer(self, tmp_path, monkeypatch):
        # the split loops and the overlap share long-lived peers: at 2 CPUs
        # the first request starts the one peer, later ones start none, and
        # the peer is idle whenever a request has returned
        config, model, image, mask = small_setup(11, lr=64, size=512)
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(tensor_ops, "_peers", [])
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: 2)
        monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)
        monkeypatch.setattr(tensor_ops.threading, "Thread", Recorded)
        for want in (["rethined-split-1"], []):
            started.clear()
            write_image(run_pipeline(config, model, image, mask), tmp_path / "out.ppm")
            assert started == want
            assert [p.claim.locked() for p in tensor_ops._peers] == [False]

    @needs_openblas
    def test_all_corrupted_and_non_finite_leave_the_peer_idle(self, monkeypatch):
        config, model, image, mask = small_setup(11, lr=64, size=256)
        monkeypatch.setattr(tensor_ops, "_peers", [])
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: 2)
        monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)
        run_pipeline(config, model, image, mask)
        assert len(tensor_ops._peers) == 1
        with pytest.raises(AllPatchesCorruptedError):
            run_pipeline(config, model, image * 0, np.ones_like(mask))
        assert not tensor_ops._peers[0].claim.locked()
        image[0, 5, 5] = np.nan
        with pytest.raises(NonFiniteInputError):
            run_pipeline(config, model, image, mask)
        assert not tensor_ops._peers[0].claim.locked()

    @pytest.mark.parametrize("composite", [True, False])
    @pytest.mark.parametrize("size", [128, 256, 512], ids=["r2", "r4", "r8"])
    def test_bytes_equal_the_serial_chain_at_any_split(self, monkeypatch, size, composite):
        # the composer's preparation runs beside the LR core, on a peer and
        # then the caller; the stages one after another, inline, give the
        # same bytes
        config, model, image, mask = small_setup(15, lr=64, size=size)
        config = replace(config, composite=composite)
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: 1)
        with tensor_ops._one_blas_thread():
            x_lr, m_lr = downsample_to_lr(config, image, mask)
            coarse, features = coarse_forward(model.coarse, x_lr, m_lr)
            x_hat, amap = npm_refine(coarse, x_lr, features, model.npm, m_lr)
            want = compose_hr(image, x_lr, x_hat, amap, mask, composite)
        assert 0 < amap.corrupt.size < amap.count
        monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)
        for parts in (1, 2, 3):
            monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: parts)
            assert run_pipeline(config, model, image, mask).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixel_rejected(self, bad, monkeypatch):
        config, model, image, mask = small_setup(8)
        image[1, 40, 70] = bad

        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran on non-finite input")

        monkeypatch.setattr(pipeline, "downsample_to_lr", no_stage)
        with pytest.raises(NonFiniteInputError):
            run_pipeline(config, model, image, mask)

    # 1 + 2^-23 is the float32 after 1
    @pytest.mark.parametrize("where,value", [
        ((slice(None),) * 3, 255.0),            # the whole image in 0-255
        ((0, 0, 0), -1e-7), ((2, -1, -1), 1.0 + 2 ** -23),
    ], ids=["0-255", "first-below-0", "last-above-1"])
    def test_out_of_range_pixel_rejected(self, where, value, monkeypatch):
        # such an image used to run, and its known pixels came out clipped
        config, model, image, mask = small_setup(8, size=1024)
        if value == 255.0:
            image *= np.float32(255.0)
        else:
            image[where] = value
        monkeypatch.setattr(pipeline, "downsample_to_lr", lambda *a, **k: pytest.fail("a stage ran"))
        with pytest.raises(rethined.PixelRangeError, match=r"^image pixels must lie in \[0, 1\]"):
            run_pipeline(config, model, image, mask)
        image[where] = np.nan
        with pytest.raises(NonFiniteInputError):
            run_pipeline(config, model, image, mask)

    def test_pixels_at_0_and_1_accepted(self):
        config, model, image, mask = small_setup(8)
        image[:, :8] = 0.0
        image[:, -8:] = 1.0
        out = run_pipeline(config, model, image, mask)
        known = mask[0] == 0
        assert out[:, known].tobytes() == image[:, known].tobytes()

    @pytest.mark.parametrize("h,w", [(0, 0), (64, 0), (0, 128), (32, 64), (96, 64)])
    def test_extent_not_a_positive_multiple_rejected(self, h, w, monkeypatch):
        # 0 is a multiple of lr_size too, and an empty image must not reach
        # value_range, which takes the min of each slice
        config, model, _, _ = small_setup(8)
        image, mask = np.zeros((3, h, w), F32), np.zeros((1, h, w), F32)
        monkeypatch.setattr(pipeline, "downsample_to_lr", lambda *a, **k: pytest.fail("a stage ran"))
        with pytest.raises(ValueError, match=rf"^image {h}x{w} must be a positive integer multiple"):
            run_pipeline(config, model, image, mask)

    @pytest.mark.parametrize("patch,d_k", [(16, 16), (8, 32)])
    def test_config_not_matching_model_rejected(self, patch, d_k, monkeypatch):
        # the model embeds 3 * 8^2 = 192 pixels into d_k = 16
        _, model, image, mask = small_setup(8)
        config = PipelineConfig(lr_size=64, patch_size=patch, d_k=d_k)
        monkeypatch.setattr(pipeline, "downsample_to_lr", lambda *a, **k: pytest.fail("a stage ran"))
        with pytest.raises(ValueError, match=rf"\(192, 16\).*\({3 * patch * patch}, {d_k}\)"):
            run_pipeline(config, model, image, mask)

    # value_range reads the image in _split's slices of rows: 3 of them here,
    # and the first and the last pixel of each are caught
    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_in_any_strip_rejected(self, bad, where, monkeypatch):
        config, model, image, mask = small_setup(8, size=1024)
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: 3)
        monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)
        monkeypatch.setattr(pipeline, "downsample_to_lr", lambda *a, **k: pytest.fail("a stage ran"))
        bounds = [1024 * i // 3 for i in range(4)]
        for r0, r1 in zip(bounds, bounds[1:]):
            pixel = (0, r0, 0) if where == "first" else (2, r1 - 1, 1023)
            kept, image[pixel] = image[pixel], bad
            with pytest.raises(NonFiniteInputError, match=r"^image pixels must be finite \(no NaN or Inf\)$"):
                run_pipeline(config, model, image, mask)
            image[pixel] = kept

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


def lr256_setup(seeds):
    """The default config (lr 256), a fused model, and r = 1 inputs."""
    config = PipelineConfig()
    model = fuse_pipeline_model(random_model(config, seed=7))
    return config, model, [synthetic_inputs(config, 256, s) for s in seeds]


def blur_path_pipeline(config, model, image, mask):
    """run_pipeline as it ran before r = 1 skipped the blur: blur, bilinear
    decimation and block-ANY at factor 1, with the composer handed x_lr,
    and BLAS held at one thread as run_pipeline holds it."""
    lr = config.lr_size
    with tensor_ops._one_blas_thread():
        low = gaussian_blur(image, sigma_for_factor(1), sigma_for_factor(1))
        x_lr = bilinear_resize(low, lr, lr)
        m_lr = block_any(mask[0], 1, 1)[None].astype(F32)
        coarse, features = coarse_forward(model.coarse, x_lr, m_lr)
        x_hat, amap = npm_refine(coarse, x_lr, features, model.npm, m_lr)
        return low.tobytes(), compose_hr(image, x_lr, x_hat, amap, mask, config.composite)


def test_total_covers_the_input_checks(monkeypatch):
    config, model, image, mask = small_setup(14)
    validate = pipeline._validate_inputs

    def slow(*args):
        time.sleep(0.05)
        validate(*args)

    monkeypatch.setattr(pipeline, "_validate_inputs", slow)
    _, times = run_pipeline_timed(config, model, image, mask)
    assert times["total"] >= 50.0 + times["coarse"] + times["refine"] + times["upscale"]


class TestLrWorkspace:
    """The LR core keeps its intermediates in a per-thread workspace: results
    never alias it, threads do not share it, and its size is planned."""

    @pytest.mark.parametrize("composite", [True, False])
    def test_identity_factor_runs_no_blur(self, composite, monkeypatch):
        config, model, [(image, mask)] = lr256_setup([3])
        config = replace(config, composite=composite)
        before = image.copy()
        low_bytes, want = blur_path_pipeline(config, model, image.copy(), mask)
        monkeypatch.setattr(pipeline, "_downsample", lambda *a: pytest.fail("r = 1 downsampled"))
        out = run_pipeline(config, model, image, mask)
        assert np.array_equal(image, before)
        assert out.tobytes() == want.tobytes()
        # at r = 1 the taps are exactly [0, 1, 0]
        assert low_bytes == image.tobytes()

    def test_identity_factor_casts_float64(self):
        config, model, [(image, mask)] = lr256_setup([4])
        want = run_pipeline(config, model, image, mask)
        image64 = image.astype(np.float64)
        out = run_pipeline(config, model, image64, mask)
        assert out.dtype == F32 and out.tobytes() == want.tobytes()
        assert np.array_equal(image64, image)

    @pytest.mark.parametrize("size", [256, 512])
    def test_second_call_leaves_first_result(self, size):
        config, model, _ = lr256_setup([])
        (a, ma), (b, mb) = (synthetic_inputs(config, size, s) for s in (5, 6))
        first = run_pipeline(config, model, a, ma)
        kept = first.copy()
        run_pipeline(config, model, b, mb)
        assert np.array_equal(first, kept)

    def test_results_do_not_share_workspace(self):
        config, model, [(image, mask)] = lr256_setup([7])
        x_lr, m_lr = downsample_to_lr(config, image, mask)
        coarse, features = coarse_forward(model.coarse, x_lr, m_lr)
        refined, amap = npm_refine(coarse, x_lr, features, model.npm, m_lr)
        out = run_pipeline(config, model, image, mask)
        buffers = vars(tensor_ops._workspace).values()
        assert buffers
        for result in (coarse, features, refined, amap.weights, out):
            assert not any(np.shares_memory(result, buf) for buf in buffers)

    def test_workspace_planned_below_4_mb(self):
        # 3.53 MB at LR 256: the depthwise phases, accumulator and scratch,
        # the block activations and the final 1x1; coherence reuses the
        # phases, activations and accumulator roles for its one pass
        config, model, [(image, mask)] = lr256_setup([8])

        def workspace():
            out = run_pipeline(config, model, image, mask)
            return out, sum(b.nbytes for b in vars(tensor_ops._workspace).values())

        box = []
        t = threading.Thread(target=lambda: box.append(workspace()))
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        out, nbytes = box[0]
        assert nbytes <= 4_000_000
        assert out.tobytes() == run_pipeline(config, model, image, mask).tobytes()

    def test_warm_request_traced_peak(self):
        # warm lr256 request (the 2nd call): 10.5-10.6 MiB before the
        # workspace, 4.05-4.16 MiB with it (synthetic_inputs seeds 1-3)
        config, model, [(image, mask)] = lr256_setup([1])
        run_pipeline(config, model, image, mask)
        tracemalloc.start()
        try:
            run_pipeline(config, model, image, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    def test_concurrent_lr_requests_match_serial(self):
        # each thread has its own workspace; more threads than cores
        config, model, inputs = lr256_setup([11, 12, 13])
        want = [run_pipeline(config, model, im, m).tobytes() for im, m in inputs]
        n_runs = 3
        results = [[] for _ in inputs]
        start = threading.Barrier(len(inputs))

        def request(k):
            start.wait(timeout=60)
            for _ in range(n_runs):
                results[k].append(run_pipeline(config, model, *inputs[k]).tobytes())

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=request, args=(k,)) for k in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert results == [[w] * n_runs for w in want]


def _blas_threads():
    get, _ = tensor_ops._openblas()
    return get()


@needs_openblas
class TestOneBlasThread:
    """The chain holds numpy's OpenBLAS at one thread and gives the saved
    count back however it ends, with overlapping callers too."""

    @pytest.fixture
    def two_threads(self):
        get, put = tensor_ops._openblas()
        saved = get()
        put(2)
        yield get()
        put(saved)

    def test_count_restored_after_return_and_error(self, two_threads, tmp_path, monkeypatch):
        config, model, image, mask = small_setup(12, lr=64, size=256)
        seen = []
        compose = pipeline.compose_hr
        monkeypatch.setattr(pipeline, "compose_hr",
                            lambda *a, **k: seen.append(_blas_threads()) or compose(*a, **k))
        out = run_pipeline(config, model, image, mask)
        assert seen == [1] and _blas_threads() == two_threads
        gaussian_blur(image, 2.0)
        assert _blas_threads() == two_threads
        write_image(out, tmp_path / "out.ppm")
        assert _blas_threads() == two_threads
        bad = image.copy()
        bad[0, 3, 3] = np.nan
        with pytest.raises(NonFiniteInputError):
            run_pipeline(config, model, bad, mask)
        assert _blas_threads() == two_threads

    def test_count_restored_with_overlapping_callers(self, two_threads):
        config, model, image, mask = small_setup(13, lr=64, size=512)
        want = run_pipeline(config, model, image, mask).tobytes()
        start, outs = threading.Barrier(2), []

        def request():
            start.wait(timeout=60)
            for _ in range(2):
                outs.append(run_pipeline(config, model, image, mask).tobytes())
                outs.append(gaussian_blur(image, 3.0).shape)

        threads = [threading.Thread(target=request) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert outs.count(want) == 4
        assert _blas_threads() == two_threads


_ONE_THREAD_CHILD = """
import hashlib
from rethined import pipeline
from rethined.bench import synthetic_inputs
config = pipeline.PipelineConfig()
model = pipeline.fuse_pipeline_model(pipeline.random_model(config, seed=600))
for size in (512, 1024):
    out = pipeline.run_pipeline(config, model, *synthetic_inputs(config, size, 1))
    print(hashlib.sha256(out.tobytes()).hexdigest())
"""


@needs_openblas
def test_bytes_equal_one_blas_thread_at_any_split(monkeypatch):
    # r = 2 and r = 4 with the default config; the masks leave both
    # corrupted and clean patches, so the residual cut and the mix run
    import rethined

    config = PipelineConfig()
    model = fuse_pipeline_model(random_model(config, seed=600))
    inputs = [synthetic_inputs(config, size, 1) for size in (512, 1024)]
    for _, mask in inputs:
        corrupted = block_any(mask[0], mask.shape[1] // config.grid, mask.shape[2] // config.grid)
        assert 0 < np.count_nonzero(corrupted) < corrupted.size
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(rethined.__file__).resolve().parents[1]))
    child = subprocess.run([sys.executable, "-c", _ONE_THREAD_CHILD], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    want = child.stdout.split()

    def digests():
        return [hashlib.sha256(run_pipeline(config, model, im, m).tobytes()).hexdigest()
                for im, m in inputs]

    assert digests() == want
    monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)
    for parts in (1, 3):
        monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: parts)
        assert digests() == want


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
            "--out", str(out_path), "--lr", "64", "--seed", "3",
        ])
        assert rc == 0
        meta = json.loads(capsys.readouterr().out)
        assert "renormalized_attention" not in meta
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
                      "--out", str(out), "--lr", "64", "--seed", "3"])
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
        assert fused.coarse.fused

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
        # 40x24 is no power of two: the loss is taken on the images as read
        a = (rng.integers(0, 256, (3, 40, 24)) / 255.0).astype(F32)
        b = (rng.integers(0, 256, (3, 40, 24)) / 255.0).astype(F32)
        write_image(a, pa)
        write_image(b, pb)
        rc = cli_main(["metrics", "--a", str(pa), "--b", str(pb)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "ffl_padding" not in out
        assert out["ffl"] == focal_frequency_loss(read_image(pa), read_image(pb))

    def test_inpaint_seed_reaches_model(self, tmp_path, capsys):
        img_path, mask_path = self._write_inputs(tmp_path)
        out_path = tmp_path / "out.ppm"
        cli_main(["inpaint", "--image", str(img_path), "--mask", str(mask_path),
                  "--out", str(out_path), "--lr", "64", "--seed", "3"])
        capsys.readouterr()
        config = PipelineConfig(lr_size=64)
        image, mask = read_image(img_path), read_mask(mask_path)
        want_path = tmp_path / "want.ppm"
        write_image(run_pipeline(config, fuse_pipeline_model(random_model(config, seed=3)),
                                 image * (1.0 - mask), mask), want_path)
        assert out_path.read_bytes() == want_path.read_bytes()

    def test_inpaint_takes_patch_and_dk_from_weights(self, tmp_path, capsys):
        # the container's shapes fix P = 16 and d_k = 12; the random model's
        # are 8 and 64
        patch, d_k = 16, 12
        img_path, mask_path = self._write_inputs(tmp_path)
        model = random_model(PipelineConfig(lr_size=64, patch_size=patch, d_k=d_k), seed=4)
        w_path, out_path = tmp_path / "w.rthd", tmp_path / "out.ppm"
        save_model(model, w_path)
        rc = cli_main(["inpaint", "--image", str(img_path), "--mask", str(mask_path),
                       "--out", str(out_path), "--lr", "64", "--weights", str(w_path)])
        assert rc == 0
        captured = capsys.readouterr()
        meta = json.loads(captured.out)
        assert captured.err == ""
        assert (meta["patch_size"], meta["d_k"], meta["random_weights"]) == (patch, d_k, False)
        assert meta["n_patches"] == (64 // patch) ** 2
        image, mask = read_image(img_path), read_mask(mask_path)
        want_path = tmp_path / "want.ppm"
        write_image(run_pipeline(config_for_model(model, lr_size=64), fuse_pipeline_model(model),
                                 image * (1.0 - mask), mask), want_path)
        assert out_path.read_bytes() == want_path.read_bytes()

    @pytest.mark.parametrize("weights", [None, "unfused", "fused"])
    def test_inpaint_runs_fused_model(self, tmp_path, capsys, monkeypatch, weights):
        # perfbench runs the fused network; so does the CLI, whatever it loads
        img_path, mask_path = self._write_inputs(tmp_path)
        model = random_model(PipelineConfig(lr_size=64), seed=3)
        flags = ["--seed", "3"]
        if weights is not None:
            save_model(model if weights == "unfused" else fuse_pipeline_model(model),
                       tmp_path / "w.rthd")
            flags = ["--weights", str(tmp_path / "w.rthd")]
        ran = []
        monkeypatch.setattr(cli, "run_pipeline", lambda c, m, *a: ran.append(m) or run_pipeline(c, m, *a))
        out_path = tmp_path / "out.ppm"
        cli_main(["inpaint", "--image", str(img_path), "--mask", str(mask_path),
                  "--out", str(out_path), "--lr", "64"] + flags)
        capsys.readouterr()
        want = model_to_tensors(fuse_pipeline_model(model))
        got = model_to_tensors(ran[0])
        assert ran[0].coarse.fused and list(got) == list(want)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)

    def test_bench_command(self, tmp_path, capsys):
        report = tmp_path / "bench.csv"
        rc = cli_main(["bench", "--res", "128", "--report", str(report),
                       "--lr", "64", "--runs", "3", "--warmup", "1"])
        assert rc == 0
        capsys.readouterr()
        text = report.read_text()
        assert text.splitlines()[0] == "resolution,stage,median_ms,p90_ms,flops"
        assert len(text.splitlines()) == 1 + 4
        assert [line.split(",")[1] for line in text.splitlines()[1:]] == list(bench.STAGES)
        assert report.with_suffix(".md").exists()

    @pytest.mark.parametrize("flags", [["--runs", "0"], ["--warmup", "-1"]])
    def test_bench_command_rejects_bad_counts(self, tmp_path, capsys, monkeypatch, flags):
        def no_request(*args):
            raise AssertionError("a request ran before the counts were checked")

        monkeypatch.setattr(bench, "run_pipeline_timed", no_request)
        report = tmp_path / "bench.csv"
        rc = cli_main(["bench", "--res", "128", "--report", str(report), "--lr", "64", *flags])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("rethined: error: ") and "must be" in err
        assert not report.exists()

    @pytest.mark.parametrize("case,message", [
        ("missing-image", "No such file or directory"),
        ("lr-not-multiple-of-p", "lr_size must be divisible by patch_size"),
        ("size-mismatch", "mask shape (1, 64, 64) does not match image (3, 128, 128)"),
        ("genmask-too-small", "mask extents must be at least 64 pixels"),
    ], ids=["missing-image", "lr-not-multiple-of-p", "size-mismatch", "genmask-too-small"])
    def test_bad_input_ends_in_one_line_error(self, tmp_path, capsys, case, message):
        # a bad input is reported as one stderr line with status 1, not a traceback
        img_path, mask_path = self._write_inputs(tmp_path)
        inpaint = ["inpaint", "--image", str(img_path), "--mask", str(mask_path),
                   "--out", str(tmp_path / "out.ppm"), "--lr", "64"]
        if case == "missing-image":
            argv = inpaint[:2] + [str(tmp_path / "none.ppm")] + inpaint[3:]
        elif case == "lr-not-multiple-of-p":
            save_model(random_model(PipelineConfig(lr_size=64, patch_size=16, d_k=12), seed=4),
                       tmp_path / "w.rthd")
            argv = inpaint[:-1] + ["72", "--weights", str(tmp_path / "w.rthd")]
        elif case == "size-mismatch":
            write_mask(generate_mask(MaskSpec(seed=9), 64, 64), mask_path)
            argv = inpaint
        else:
            argv = ["genmask", "--h", "10", "--w", "64", "--out", str(tmp_path / "g.pgm")]
        rc = cli_main(argv)
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("rethined: error: ")
        assert message in captured.err and "Traceback" not in captured.err
        assert not (tmp_path / "out.ppm").exists()

    def test_bench_command_has_no_hr_runs_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["bench", "--res", "128", "--report", str(tmp_path / "b.csv"),
                      "--lr", "64", "--runs", "1", "--warmup", "0",
                      "--hr-runs", "3"])

    @pytest.mark.parametrize("command", ["inpaint", "bench"])
    @pytest.mark.parametrize("flag", ["--patch", "--dk"])
    def test_patch_and_dk_flags_rejected(self, capsys, command, flag):
        # P and d_k come from the model, so no flag sets them
        args = (["inpaint", "--image", "i.ppm", "--mask", "m.pgm", "--out", "o.ppm"]
                if command == "inpaint" else ["bench", "--res", "128", "--report", "b.csv"])
        with pytest.raises(SystemExit) as exit_info:
            cli_main(args + [flag, "8"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 8" in capsys.readouterr().err


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
        assert set(row.stages) == {"coarse", "refine", "upscale", "total"}
        for st in row.stages.values():
            assert st.median_ms >= 0
            assert st.p90_ms >= st.median_ms or abs(st.p90_ms - st.median_ms) < 1e-9
        est = flop_estimates(config, 128, 128)
        assert row.stages["refine"].flops == (attention_flops(64, 16, 32)
                                              + est["masking"] + est["mixing"])
        assert est["total"] == sum(est[k] for k in
                                   ("coarse", "attention", "masking", "mixing", "upscale"))
        csv_text = report_to_csv(report)
        assert "refine" in csv_text
        md = report_to_markdown(report)
        assert md.startswith("# Latency report")

    def test_rows_are_the_stages_of_whole_requests(self, monkeypatch):
        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        model = random_model(config, seed=2)
        calls = []

        # request i reports stage k as 100*k + i ms; the first two are warmup
        def fake_timed(cfg, mdl, image, mask):
            assert cfg is config and mdl is model
            calls.append(image.shape[1])
            i = len(calls) - 1
            return None, {name: 100.0 * k + i for k, name in enumerate(bench.STAGES)}

        monkeypatch.setattr(bench, "run_pipeline_timed", fake_timed)
        report = run_bench(config, model, [64, 128], runs=5, warmup=2)
        assert calls == [64] * 7 + [128] * 7
        for row, first in zip(report.rows, (2, 9)):
            measured = range(first, first + 5)
            est = flop_estimates(config, row.resolution, row.resolution)
            for k, name in enumerate(bench.STAGES):
                samples = [100.0 * k + i for i in measured]
                assert row.stages[name].median_ms == statistics.median(samples)
                assert row.stages[name].p90_ms == 100.0 * k + first + 4
            assert row.stages["coarse"].flops == est["coarse"]
            assert row.stages["refine"].flops == (est["attention"] + est["masking"]
                                                  + est["mixing"])
            assert row.stages["upscale"].flops == est["upscale"]
            assert row.stages["total"].flops == est["total"]

    @pytest.mark.parametrize("kwargs", [{"runs": 0}, {"runs": -1}, {"warmup": -1}])
    def test_run_bench_rejects_bad_counts_before_any_request(self, monkeypatch, kwargs):
        def no_request(*args):
            raise AssertionError("a request ran before the counts were checked")

        monkeypatch.setattr(bench, "run_pipeline_timed", no_request)
        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        with pytest.raises(ValueError):
            run_bench(config, random_model(config, seed=2), [128], **kwargs)

    # upscale, by hand: the mix of x, 2 N^2 3 ph pw; the LR differences'
    # GEMM, 2 N^2 3 q^2 with q = P + 2; B D, 2 q (ph + q) / ph per HR value;
    # and 2 per HR value to add, composite and clip.  At r = 1 only the last.
    # default-2048: N = 1024, P = 8, ph = pw = 64, 3 x 2048^2 values
    # lr64-256x128: N = 64, P = 8, ph = 32, pw = 16, 3 x 256 x 128 values
    @pytest.mark.parametrize("config,h,w,want", [
        (PipelineConfig(), 2048, 2048,
         {"coarse": 175964160, "attention": 159383552, "masking": 3145728,
          "mixing": 405012480,
          "upscale": (2 * 1024 ** 2 * 3 * 64 * 64 + 2 * 1024 ** 2 * 3 * 10 ** 2
                      + 2 * 10 * 3 * 2048 ** 2 * (64 + 10) // 64 + 2 * 3 * 2048 ** 2)}),
        (PipelineConfig(lr_size=64, patch_size=8, d_k=16), 256, 128,
         {"coarse": 3084288, "attention": 327680, "masking": 12288,
          "mixing": 1720320,
          "upscale": (2 * 64 ** 2 * 3 * 32 * 16 + 2 * 64 ** 2 * 3 * 10 ** 2
                      + 2 * 10 * 3 * 256 * 128 * (32 + 10) // 32 + 2 * 3 * 256 * 128)}),
        # r = 1: neither the LR operator nor the HR mix runs, so neither counts
        (PipelineConfig(), 256, 256,
         {"coarse": 27328512, "attention": 159383552, "masking": 3145728,
          "mixing": 405012480, "upscale": 2 * 3 * 256 ** 2}),
    ], ids=["default-2048", "lr64-256x128", "default-256"])
    def test_flop_estimates_pinned(self, config, h, w, want):
        want = dict(want, total=sum(want.values()))
        assert flop_estimates(config, h, w) == want

    def test_flops_count_hr_blur_once(self, monkeypatch):
        # the HR image is blurred once, by the LR operator A = S G per axis
        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        est = flop_estimates(config, 256, 128)
        monkeypatch.setattr(bench, "_lr_band_width", lambda n, sigma: 0)
        no_blur = flop_estimates(config, 256, 128)
        k_h, k_w = (tensor_ops._lr_band_width(n, sigma_for_factor(n // 64)) for n in (256, 128))
        blur = 2 * 3 * 64 * (k_h * 128 + 64 * k_w)  # a multiply-add per band entry, both passes
        assert est["total"] - no_blur["total"] == blur
        assert est["coarse"] - no_blur["coarse"] == blur

    def test_synthetic_inputs_validate_resolution(self):
        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        with pytest.raises(ValueError):
            synthetic_inputs(config, 100)
