"""Weight container and PNM serialization tests: byte-identical round-trips
and defined errors for malformed data."""

import re

import numpy as np
import pytest

from rethined import image_io, tensor_ops
from rethined.image_io import (
    ImageFormatError,
    read_image,
    read_mask,
    write_image,
    write_mask,
)
from rethined.pipeline import (
    PipelineConfig,
    config_for_model,
    fuse_pipeline_model,
    load_model,
    model_from_tensors,
    model_to_tensors,
    random_model,
    run_pipeline,
    save_model,
)
from rethined.weights_io import MAGIC, MAX_DIMS, VERSION, WeightFormatError, load_tensors, save_tensors

F32 = np.float32


class TestWeightContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a": rng.standard_normal((3, 4)).astype(F32),
            "deep.name.here": rng.standard_normal((2, 2, 2, 2)).astype(F32),
            "scalarish": rng.standard_normal(1).astype(F32),
        }
        path = tmp_path / "w.rthd"
        save_tensors(tensors, path)
        back = load_tensors(path)
        assert list(back) == list(tensors)
        for k in tensors:
            assert np.array_equal(back[k], tensors[k])

    def test_save_load_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {"x": rng.standard_normal((5, 7)).astype(F32)}
        p1 = tmp_path / "a.rthd"
        p2 = tmp_path / "b.rthd"
        save_tensors(tensors, p1)
        save_tensors(load_tensors(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_declared_layout_length(self, tmp_path):
        name = "t"
        tensors = {name: np.zeros((3, 3, 3, 3), F32)}
        path = tmp_path / "w.rthd"
        save_tensors(tensors, path)
        want = 4 + 4 + 4 + (4 + len(name) + 4 + 16 + 324)
        assert path.stat().st_size == want

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "w.rthd"
        save_tensors({"x": np.zeros(3, F32)}, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError):
            load_tensors(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "w.rthd"
        save_tensors({"x": np.zeros(3, F32)}, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError):
            load_tensors(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "w.rthd"
        save_tensors({"x": np.zeros((4, 4), F32)}, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(WeightFormatError):
            load_tensors(path)

    def test_too_many_dims_rejected(self, tmp_path):
        path = tmp_path / "w.rthd"
        ndim = MAX_DIMS + 1
        path.write_bytes(MAGIC + np.array([VERSION, 1, 1], "<u4").tobytes() + b"x"
                         + np.array([ndim] + [1] * ndim, "<u4").tobytes() + bytes(4))
        with pytest.raises(WeightFormatError, match=f"'x' declares {ndim} dims"):
            load_tensors(path)

    # offsets inside the count, a name length, a name, an ndim and a dim of
    # the container of one tensor "ab" of shape (2, 3)
    @pytest.mark.parametrize("cut", [10, 13, 17, 21, 27])
    def test_cut_inside_header_field_rejected(self, tmp_path, cut):
        path = tmp_path / "w.rthd"
        save_tensors({"ab": np.zeros((2, 3), F32)}, path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(WeightFormatError, match="truncated container"):
            load_tensors(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "w.rthd"
        save_tensors({"x": np.zeros(2, F32)}, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(WeightFormatError):
            load_tensors(path)

    def test_model_round_trip(self, tmp_path):
        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        model = random_model(config, seed=5)
        p1 = tmp_path / "m.rthd"
        p2 = tmp_path / "m2.rthd"
        save_model(model, p1)
        back = load_model(p1)
        save_model(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        t1 = model_to_tensors(model)
        t2 = model_to_tensors(back)
        assert set(t1) == set(t2)
        for k in t1:
            assert np.array_equal(t1[k], t2[k])

    @pytest.mark.parametrize("name,shape", [
        ("npm.m_q", (47, 16)),              # rows must be d_k + 32 = 48
        ("npm.m_k", (48, 12)),              # width disagrees with m_q's
        ("npm.embed", (190, 16)),           # rows must be 3P^2
        ("final.weight", (3, 32, 1, 1)),    # the last block is 16 wide
        ("blocks.1.main.weight", (16, 1, 5, 5)),
        ("blocks.2.point.weight", (64, 16, 1, 1)),
        ("blocks.4.point.weight", (16, 32, 1)),
    ])
    def test_model_shape_mismatch_rejected(self, tmp_path, name, shape):
        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        tensors = model_to_tensors(random_model(config, seed=7))
        tensors[name] = np.zeros(shape, F32)
        with pytest.raises(WeightFormatError, match=name.replace(".", r"\.")):
            model_from_tensors(tensors)
        path = tmp_path / "w.rthd"
        save_tensors(tensors, path)
        with pytest.raises(WeightFormatError):
            load_model(path)

    def test_other_projection_width_loads_and_runs(self, tmp_path):
        # d_k' = 24 differs from the embedding's d_k = 16: valid
        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        tensors = model_to_tensors(random_model(config, seed=8))
        rng = np.random.default_rng(8)
        for name in ("npm.m_q", "npm.m_k"):
            tensors[name] = (rng.standard_normal((48, 24)) / 7.0).astype(F32)
        path = tmp_path / "w.rthd"
        save_tensors(tensors, path)
        model = load_model(path)
        assert model.npm.proj.d_k == 24
        image = rng.random((3, 128, 128)).astype(F32)
        mask = np.zeros((1, 128, 128), F32)
        mask[0, 30:70, 40:90] = 1
        out = run_pipeline(config_for_model(model, lr_size=64), model, image * (1 - mask), mask)
        assert out.shape == image.shape and np.isfinite(out).all()
        assert np.array_equal(out[:, mask[0] == 0], image[:, mask[0] == 0])

    def test_model_missing_tensor_rejected(self, tmp_path):
        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        tensors = model_to_tensors(random_model(config, seed=6))
        del tensors["npm.embed"]
        with pytest.raises(WeightFormatError):
            model_from_tensors(tensors)

    @pytest.mark.parametrize("block,dropped", [
        (2, ("point",)), (0, ("main",)), (4, ("main", "point")), (1, ("main", "skip")),
    ], ids=["main-and-skip", "point-and-skip", "skip-alone", "point-alone"])
    def test_model_partial_batchnorm_rejected(self, tmp_path, block, dropped):
        # loaded, such a block would run unfused and fail in batchnorm on
        # the first request
        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        tensors = model_to_tensors(random_model(config, seed=2))
        prefixes = tuple(f"blocks.{block}.{stage}.bn." for stage in dropped)
        for name in [n for n in tensors if n.startswith(prefixes)]:
            del tensors[name]
        path = tmp_path / "w.rthd"
        save_tensors(tensors, path)
        with pytest.raises(WeightFormatError, match=rf"^block {block} holds a partial batchnorm set"):
            load_model(path)

    def test_model_without_skip_batchnorm_loads_and_runs(self):
        # main.bn and point.bn without skip.bn: an unfused block with no skip
        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        tensors = model_to_tensors(random_model(config, seed=2))
        for name in [n for n in tensors if n.startswith("blocks.3.skip.bn.")]:
            del tensors[name]
        model = model_from_tensors(tensors)
        assert model.coarse.blocks[3].skip_bn is None and not model.coarse.fused
        image = np.random.default_rng(2).random((3, 64, 64)).astype(F32)
        mask = np.zeros((1, 64, 64), F32)
        mask[0, 10:30, 20:40] = 1
        out = run_pipeline(config, model, image * (1 - mask), mask)
        assert out.shape == image.shape and np.isfinite(out).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["blocks.0.main.weight", "final.bias", "npm.embed",
                                      "blocks.2.point.bn.sigma"])
    def test_model_non_finite_tensor_rejected(self, tmp_path, name, bad):
        # checked before the model is built: a BN sigma fails here, not in
        # BatchNormParams
        config = PipelineConfig(lr_size=64, patch_size=8, d_k=16)
        tensors = model_to_tensors(random_model(config, seed=1))
        tensors[name] = tensors[name].copy()
        tensors[name].flat[0] = bad
        path = tmp_path / "w.rthd"
        save_tensors(tensors, path)
        with pytest.raises(WeightFormatError, match=name.replace(".", r"\.")):
            load_model(path)


    # block 1 is 16 -> 32 wide: main and skip batchnorms are 16 wide, point's 32
    @pytest.mark.parametrize("fused,name,shape", [
        (False, "blocks.1.main.bn.mu", (5,)),
        (False, "blocks.1.main.bn.sigma", (32,)),
        (False, "blocks.1.point.bn.gamma", (16,)),
        (False, "blocks.1.skip.bn.beta", (32,)),
        (False, "blocks.1.main.bias", (32,)),
        (True, "blocks.1.main.bias", (32,)),
        (True, "blocks.1.point.bias", (16,)),
        (True, "blocks.4.point.bias", (16, 1)),
        (False, "final.bias", (16,)),
    ], ids=lambda v: ("fused" if v else "unfused") if isinstance(v, bool) else str(v))
    def test_model_batchnorm_or_bias_shape_rejected(self, tmp_path, fused, name, shape):
        model = random_model(PipelineConfig(lr_size=64, patch_size=8, d_k=16), seed=7)
        tensors = model_to_tensors(fuse_pipeline_model(model) if fused else model)
        tensors[name] = np.ones(shape, F32)
        with pytest.raises(WeightFormatError, match=name.replace(".", r"\.")):
            model_from_tensors(tensors)
        path = tmp_path / "w.rthd"
        save_tensors(tensors, path)
        with pytest.raises(WeightFormatError, match=name.replace(".", r"\.")):
            load_model(path)

    def test_model_five_wide_batchnorm_rejected(self):
        # the whole set 5 wide over a 16-wide stage
        tensors = model_to_tensors(random_model(PipelineConfig(lr_size=64, d_k=16), seed=7))
        for field in ("mu", "sigma", "gamma", "beta"):
            tensors[f"blocks.1.main.bn.{field}"] = np.ones(5, F32)
        with pytest.raises(WeightFormatError, match=r"blocks\.1\.main\.bn\.mu' has shape \(5,\)"):
            model_from_tensors(tensors)

    @pytest.mark.parametrize("value", [0.0, -0.5])
    @pytest.mark.parametrize("name", ["blocks.0.main.bn.sigma", "blocks.3.skip.bn.sigma"])
    def test_model_non_positive_sigma_rejected(self, tmp_path, name, value):
        tensors = model_to_tensors(random_model(PipelineConfig(lr_size=64, d_k=16), seed=3))
        tensors[name] = tensors[name].copy()
        tensors[name][-1] = value
        path = tmp_path / "w.rthd"
        save_tensors(tensors, path)
        with pytest.raises(WeightFormatError, match=re.escape(f"'{name}' holds a value <= 0")):
            load_model(path)

    @pytest.mark.parametrize("extra", [("blocks.5.main.weight",), ("npm.m_v",),
                                       ("blocks.0.skip.weight", "final.scale")], ids="+".join)
    @pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
    def test_model_unread_tensor_rejected(self, tmp_path, extra, fused):
        model = random_model(PipelineConfig(lr_size=64, d_k=16), seed=4)
        tensors = model_to_tensors(fuse_pipeline_model(model) if fused else model)
        for name in extra:
            tensors[name] = np.zeros((3, 3), F32)
        path = tmp_path / "w.rthd"
        save_tensors(tensors, path)
        with pytest.raises(WeightFormatError, match="does not read") as err:
            load_model(path)
        assert str(sorted(extra)) in str(err.value)

    def test_model_mixing_fused_and_unfused_blocks_rejected(self):
        model = random_model(PipelineConfig(lr_size=64, d_k=16), seed=5)
        tensors = model_to_tensors(model)
        fused = model_to_tensors(fuse_pipeline_model(model))
        for name in [n for n in tensors if n.startswith("blocks.0.")]:
            del tensors[name]
        tensors.update((n, t) for n, t in fused.items() if n.startswith("blocks.0."))
        with pytest.raises(WeightFormatError, match="mixes fused and unfused blocks"):
            model_from_tensors(tensors)


class TestPpmPgm:
    def test_image_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        quantized = (rng.integers(0, 256, (3, 6, 5)) / 255.0).astype(F32)
        path = tmp_path / "img.ppm"
        write_image(quantized, path)
        back = read_image(path)
        assert np.array_equal(back, quantized)

    def test_write_read_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.random((3, 7, 9)).astype(F32)
        p1 = tmp_path / "a.ppm"
        p2 = tmp_path / "b.ppm"
        write_image(x, p1)
        write_image(read_image(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_image_is_contiguous_raw_over_255(self, tmp_path):
        raw = np.random.default_rng(3).integers(0, 256, 5 * 4 * 3, dtype=np.uint8)
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n4 5\n255\n" + raw.tobytes())
        img = read_image(path)
        assert img.dtype == F32 and img.flags["C_CONTIGUOUS"]
        want = raw.reshape(5, 4, 3).transpose(2, 0, 1).astype(F32) / F32(255.0)
        assert np.array_equal(img, want)

    def test_read_image_odd_extent_exact(self, tmp_path):
        # 777 rows of 1031 pixels, with trailing bytes after the pixels
        raw = np.random.default_rng(6).integers(0, 256, 777 * 1031 * 3, dtype=np.uint8)
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n1031 777\n255\n" + raw.tobytes() + b"trailing")
        want = raw.reshape(777, 1031, 3).transpose(2, 0, 1).astype(F32) / F32(255.0)
        assert read_image(path).tobytes() == want.tobytes()

    def test_read_write_8bit_byte_exact(self, tmp_path):
        payload = np.arange(256 * 3, dtype=np.uint16).astype(np.uint8)[::-1].tobytes()
        src, dst = tmp_path / "src.ppm", tmp_path / "dst.ppm"
        src.write_bytes(b"P6\n16 16\n255\n" + payload)
        write_image(read_image(src), dst)
        assert dst.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_write_image_matches_clip_scale_round(self, tmp_path, dtype):
        k = np.arange(256, dtype=np.float64)
        ties = np.concatenate([k / 255, (k + 0.5) / 255]).astype(dtype)
        vals = np.concatenate([
            ties, np.nextafter(ties, dtype(2)), np.nextafter(ties, dtype(-1)),
            np.array([-1e30, -3.0, -1e-9, -0.0, 1.0 + 1e-6, 2.5, 1e30], dtype),
            np.random.default_rng(4).uniform(-0.5, 1.5, 2048).astype(dtype),
        ])
        x = vals[: vals.size // 3 * 3].reshape(3, -1, 1).repeat(2, axis=2)
        path = tmp_path / "img.ppm"
        write_image(x, path)
        q = np.floor(np.clip(x, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
        h, w = x.shape[1:]
        assert path.read_bytes() == f"P6\n{w} {h}\n255\n".encode() + q.transpose(1, 2, 0).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_write_image_strips_byte_exact(self, tmp_path, monkeypatch, dtype):
        # 777 rows of 1031 pixels span many strips, the last one partial, and
        # 1, 2 and 3 slices of them; the rounding edges (k + 0.5) / 255 with
        # their neighbours, +-inf and -0.0 recur along every row
        x = np.random.default_rng(5).uniform(-0.3, 1.3, (3, 777, 1031)).astype(dtype)
        x[:, ::97, ::89] = np.array([-1e30, 1e30, 0.5 / 255], dtype)[:, None, None]
        edges = ((np.arange(256) + 0.5) / 255).astype(dtype)
        special = np.concatenate([edges, np.nextafter(edges, dtype(2)), np.nextafter(edges, dtype(-1)),
                                  np.array([np.inf, -np.inf, -0.0], dtype)])
        every = x.reshape(-1)[::101]
        every[:] = np.resize(special, every.size)
        q = np.floor(np.clip(x, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
        want = b"P6\n1031 777\n255\n" + q.transpose(1, 2, 0).tobytes()
        sliced = []
        monkeypatch.setattr(image_io, "_split", lambda job, items, nbytes: tensor_ops._split(
            lambda part: sliced.append(part) or job(part), items, nbytes))
        monkeypatch.setattr(tensor_ops, "_PART_BYTES", 1)
        for parts in (1, 2, 3):
            sliced.clear()
            monkeypatch.setattr(tensor_ops, "_cpu_count", lambda: parts)
            path = tmp_path / f"img{parts}.ppm"
            np.full(x[0].size * 3, 7, np.uint8)  # freed at once: bytes a missed strip would keep
            write_image(x, path)
            assert len(sliced) == (parts if tensor_ops._openblas() else 1)
            assert path.read_bytes() == want

    def test_2x2_analytic_values(self, tmp_path):
        path = tmp_path / "img.ppm"
        payload = bytes([0, 0, 0, 255, 255, 255, 255, 0, 0, 0, 255, 0])
        path.write_bytes(b"P6\n2 2\n255\n" + payload)
        img = read_image(path)
        assert img.shape == (3, 2, 2)
        assert img[0, 0, 0] == 0.0
        assert img[0, 0, 1] == 1.0
        assert img[1, 1, 1] == 1.0
        assert img[2, 1, 0] == 0.0

    def test_p3_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P3\n2 2\n255\n0 0 0 0 0 0 0 0 0 0 0 0")
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_bad_maxval_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_truncated_pixels_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(ImageFormatError):
            read_image(path)

    @pytest.mark.parametrize("header,message", [
        (b"P6\n2 2", "truncated header"),
        (b"P6\n2 x 255\n", "unexpected byte b'x' in header"),
        (b"P6\n2 2\n255", "missing whitespace after maxval"),
        (b"P6\n2 2\n255#\n", "missing whitespace after maxval"),
        (b"P6\n0 2\n255\n", "invalid extents 0x2"),
        (b"P6\n2 0\n255\n", "invalid extents 2x0"),
    ])
    def test_malformed_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "img.ppm"
        path.write_bytes(header)
        with pytest.raises(ImageFormatError, match=message):
            read_image(path)

    def test_header_comments_ok(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1 # inline\n255\n" + bytes(6))
        img = read_image(path)
        assert img.shape == (3, 1, 2)

    def test_mask_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        mask = (rng.random((1, 8, 8)) < 0.4).astype(F32)
        path = tmp_path / "m.pgm"
        write_mask(mask, path)
        back = read_mask(path)
        assert np.array_equal(back, mask)

    def test_mask_truncated_pixels_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
        with pytest.raises(ImageFormatError, match="expected 4 mask bytes, found 3"):
            read_mask(path)

    def test_mask_nonbinary_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 7, 0]))
        with pytest.raises(ImageFormatError):
            read_mask(path)

    @pytest.mark.parametrize("byte", [1, 254])
    def test_mask_near_binary_bytes_rejected(self, tmp_path, byte):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 255, 255, 0, byte, 0]))
        with pytest.raises(ImageFormatError, match="0 or 255"):
            read_mask(path)

    def test_mask_bytes_equal_the_comparison_form(self, tmp_path):
        # read_mask divides by 255 after two counts; its bytes are those of
        # the comparison with 255, and one stray byte anywhere is rejected
        arr = np.where(np.random.default_rng(3).random((97, 131)) < 0.4, 255, 0).astype(np.uint8)
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n131 97\n255\n" + arr.tobytes())
        assert read_mask(path).tobytes() == (arr == 255).astype(F32)[None].tobytes()
        for byte in (1, 254):
            bad = arr.copy()
            bad[60, 77] = byte
            path.write_bytes(b"P5\n131 97\n255\n" + bad.tobytes())
            with pytest.raises(ImageFormatError, match="0 or 255"):
                read_mask(path)

    def test_mask_magic_checked(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ImageFormatError):
            read_mask(path)
