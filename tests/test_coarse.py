"""Coarse network and reparametrization tests; the unfused forward is the
oracle for every fusion check."""

import numpy as np
import pytest

from rethined import coarse, tensor_ops
from rethined.coarse import (
    FEATURE_TAP,
    BatchNormParams,
    CoarseModel,
    ConvSpec,
    RepBlock,
    _depthwise3x3,
    coarse_forward,
    fuse_block,
    fuse_model,
    random_coarse_model,
    random_rep_block,
    rep_block_forward,
)
from rethined.tensor_ops import batchnorm, conv2d, relu

F32 = np.float32


def upsample_nearest(x, factor):
    """Nearest up-sampling of [C, H, W] by an integer factor, for the oracles."""
    return x.repeat(factor, axis=1).repeat(factor, axis=2)


def identity_bn(c):
    return BatchNormParams(np.zeros(c, F32), np.ones(c, F32), np.ones(c, F32), np.zeros(c, F32))


class TestCoarseForward:
    def test_shape_contract(self):
        model = random_coarse_model(np.random.default_rng(0))
        x = np.random.default_rng(1).random((3, 64, 64)).astype(F32)
        mask = np.zeros((1, 64, 64), F32)
        mask[0, 10:30, 12:40] = 1
        coarse, feats = coarse_forward(model, x * (1 - mask), mask)
        assert coarse.shape == (3, 64, 64)
        assert feats.shape == (32, 8, 8)

    def test_zero_final_layer_bias_inside_mask(self):
        model = random_coarse_model(np.random.default_rng(2))
        bias = np.array([0.25, -0.5, 0.125], F32)
        final = ConvSpec(np.zeros_like(model.final.weights), bias)
        model = CoarseModel(blocks=model.blocks, final=final)
        rng = np.random.default_rng(3)
        x = rng.random((3, 64, 64)).astype(F32)
        mask = (rng.random((1, 64, 64)) < 0.4).astype(F32)
        masked = x * (1 - mask)
        coarse, _ = coarse_forward(model, masked, mask)
        hole = mask[0] == 1
        known = ~hole
        # residual is the bias broadcast, applied only inside corrupted pixels
        for c in range(3):
            assert np.array_equal(coarse[c][known], masked[c][known])
            assert np.abs(coarse[c][hole] - bias[c]).max() < 1e-7

    def test_divisibility_enforced(self):
        model = random_coarse_model(np.random.default_rng(4))
        with pytest.raises(ValueError):
            coarse_forward(model, np.zeros((3, 60, 64), F32), np.zeros((1, 60, 64), F32))

    def test_non_binary_mask_rejected(self):
        model = random_coarse_model(np.random.default_rng(5))
        mask = np.full((1, 64, 64), 0.5, F32)
        with pytest.raises(ValueError):
            coarse_forward(model, np.zeros((3, 64, 64), F32), mask)

    def test_output_finite(self):
        model = random_coarse_model(np.random.default_rng(6))
        rng = np.random.default_rng(7)
        x = rng.random((3, 64, 64)).astype(F32)
        mask = (rng.random((1, 64, 64)) < 0.5).astype(F32)
        coarse, feats = coarse_forward(model, x * (1 - mask), mask)
        assert np.isfinite(coarse).all()
        assert np.isfinite(feats).all()


class TestFuseBlock:
    def test_identity_bn_keeps_weights_bitexact(self):
        rng = np.random.default_rng(0)
        w_main = rng.standard_normal((4, 1, 3, 3)).astype(F32)
        b_main = rng.standard_normal(4).astype(F32)
        w_pt = rng.standard_normal((6, 4, 1, 1)).astype(F32)
        block = RepBlock(
            main=ConvSpec(w_main, b_main, stride=1, padding=1, groups=4),
            main_bn=identity_bn(4),
            point=ConvSpec(w_pt),
            point_bn=identity_bn(6),
            skip_bn=None,
        )
        fused = fuse_block(block)
        assert np.array_equal(fused.main.weights, w_main)
        assert np.array_equal(fused.main.bias, b_main)
        assert np.array_equal(fused.point.weights, w_pt)
        assert fused.main_bn is None and fused.point_bn is None and fused.skip_bn is None

    def test_zero_conv_identity_skip_gives_center_one(self):
        block = RepBlock(
            main=ConvSpec(np.zeros((3, 1, 3, 3), F32), None, stride=1, padding=1, groups=3),
            main_bn=identity_bn(3),
            point=ConvSpec(np.zeros((3, 3, 1, 1), F32)),
            point_bn=identity_bn(3),
            skip_bn=identity_bn(3),
        )
        fused = fuse_block(block)
        want = np.zeros((3, 1, 3, 3), F32)
        want[:, 0, 1, 1] = 1.0
        assert np.array_equal(fused.main.weights, want)
        assert np.array_equal(fused.main.bias, np.zeros(3, F32))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_block_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        c_in = int(rng.integers(1, 9))
        c_out = int(rng.integers(1, 9))
        block = random_rep_block(rng, c_in, c_out, 1, skip=True,
                                 conv_bias=bool(rng.integers(0, 2)))
        fused = fuse_block(block)
        for _ in range(5):
            x = rng.uniform(-1, 1, (c_in, 8, 8)).astype(F32)
            a = rep_block_forward(block, x)
            b = rep_block_forward(fused, x)
            assert np.abs(a - b).max() < 1e-5

    def test_refusing_fused_block_rejected(self):
        block = random_rep_block(np.random.default_rng(1), 2, 3, 1, skip=True)
        fused = fuse_block(block)
        with pytest.raises(ValueError):
            fuse_block(fused)

    def test_skip_requires_stride_one(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            RepBlock(
                main=ConvSpec(rng.standard_normal((2, 1, 3, 3)).astype(F32), None,
                              stride=3, padding=0, groups=2),
                main_bn=identity_bn(2),
                point=ConvSpec(rng.standard_normal((2, 2, 1, 1)).astype(F32)),
                point_bn=identity_bn(2),
                skip_bn=identity_bn(2),
            )


class TestFuseModel:
    def test_fuse_twice_rejected(self):
        model = random_coarse_model(np.random.default_rng(0))
        fused = fuse_model(model)
        with pytest.raises(ValueError):
            fuse_model(fused)

    def test_fused_blocks_have_single_conv_per_stage(self):
        fused = fuse_model(random_coarse_model(np.random.default_rng(2)))
        for block in fused.blocks:
            assert block.fused
            assert block.main_bn is None
            assert block.point_bn is None
            assert block.skip_bn is None
            assert block.main.bias is not None
            assert block.point.bias is not None

    @pytest.mark.parametrize("seed", range(5))
    def test_end_to_end_equivalence_64(self, seed):
        rng = np.random.default_rng(seed)
        model = random_coarse_model(rng)
        fused = fuse_model(model)
        x = rng.random((3, 64, 64)).astype(F32)
        mask = (rng.random((1, 64, 64)) < 0.4).astype(F32)
        c1, f1 = coarse_forward(model, x * (1 - mask), mask)
        c2, f2 = coarse_forward(fused, x * (1 - mask), mask)
        assert np.abs(c1 - c2).max() < 1e-5
        assert np.abs(f1 - f2).max() < 1e-5

    def test_ten_random_inputs_one_model(self):
        rng = np.random.default_rng(77)
        model = random_coarse_model(rng)
        fused = fuse_model(model)
        for _ in range(10):
            x = rng.random((3, 64, 64)).astype(F32)
            mask = (rng.random((1, 64, 64)) < 0.4).astype(F32)
            c1, _ = coarse_forward(model, x * (1 - mask), mask)
            c2, _ = coarse_forward(fused, x * (1 - mask), mask)
            assert np.abs(c1 - c2).max() < 1e-5


class TestDerivedStructure:
    """A block's form is read off its batchnorms, and a model stores only its
    blocks and final projection."""

    def test_block_without_batchnorms_runs_fused(self):
        rng = np.random.default_rng(8)
        block = RepBlock(
            main=ConvSpec(rng.standard_normal((5, 1, 3, 3)).astype(F32),
                          rng.standard_normal(5).astype(F32), stride=1, padding=1, groups=5),
            main_bn=None,
            point=ConvSpec(rng.standard_normal((7, 5, 1, 1)).astype(F32),
                           rng.standard_normal(7).astype(F32)),
            point_bn=None,
            skip_bn=None,
        )
        assert block.fused
        x = rng.uniform(-1, 1, (5, 12, 10)).astype(F32)
        for step in (1, 2):
            got = rep_block_forward(block, x, step)
            assert np.abs(got - seed_block_forward(block, x)[:, ::step, ::step]).max() < 1e-5

    @pytest.mark.parametrize("bns", [(True, False, False), (False, True, False),
                                     (False, False, True), (True, False, True),
                                     (False, True, True)],
                             ids=["main", "point", "skip", "main+skip", "point+skip"])
    def test_partial_batchnorm_set_rejected(self, bns):
        block = random_rep_block(np.random.default_rng(3), 2, 3, 1, skip=True)
        main_bn, point_bn, skip_bn = (bn if keep else None for bn, keep in
                                      zip((block.main_bn, block.point_bn, block.skip_bn), bns))
        with pytest.raises(ValueError, match="partial batchnorm set"):
            RepBlock(block.main, main_bn, block.point, point_bn, skip_bn)

    def test_model_fused_follows_its_blocks(self):
        model = random_coarse_model(np.random.default_rng(4))
        fused = fuse_model(model)
        assert not model.fused and fused.fused
        mixed = CoarseModel(blocks=fused.blocks[:1] + model.blocks[1:], final=model.final)
        assert not mixed.fused
        with pytest.raises(ValueError, match="already fused"):
            fuse_model(mixed)

    def test_stored_flags_are_not_fields(self):
        block = random_rep_block(np.random.default_rng(5), 2, 3, 1, skip=True)
        model = random_coarse_model(np.random.default_rng(5))
        with pytest.raises(TypeError):
            RepBlock(block.main, block.main_bn, block.point, block.point_bn, block.skip_bn,
                     fused=False)
        with pytest.raises(TypeError):
            CoarseModel(blocks=model.blocks, final=model.final, feature_tap=3)
        with pytest.raises(TypeError):
            CoarseModel(blocks=model.blocks, final=model.final, fused=False)


def seed_block_forward(block, x):
    """The full-size block forward: every convolution through conv2d."""
    if block.fused:
        return relu(conv2d(relu(conv2d(x, block.main)), block.point))
    y = batchnorm(conv2d(x, block.main), block.main_bn)
    if block.skip_bn is not None:
        y = y + batchnorm(x, block.skip_bn)
    return relu(batchnorm(conv2d(relu(y), block.point), block.point_bn))


def seed_coarse_forward(model, x_lr, mask_lr):
    """The forward that evaluates every block at full size and then decimates,
    with the final 1x1 after the 4x upsample: the oracle of coarse_forward."""
    x = np.concatenate([x_lr, mask_lr], axis=0).astype(F32)
    features = None
    for i, block in enumerate(model.blocks):
        if i == 4:
            x = upsample_nearest(x, 2)
        x = seed_block_forward(block, x)
        if i < 3:
            x = np.ascontiguousarray(x[:, ::2, ::2])
        if i == FEATURE_TAP:
            features = x
    residual = conv2d(upsample_nearest(x, 4), model.final)
    return (x_lr + residual * mask_lr).astype(F32), features


class TestKeptPixelForward:
    """coarse_forward evaluates its convolutions only at the pixels it keeps;
    conv2d and the full-size forward are the oracles."""

    @pytest.mark.parametrize("c,h,w,step,bias", [
        (1, 1, 1, 1, False), (1, 2, 3, 2, True), (3, 7, 10, 1, True), (3, 7, 10, 2, False),
        (4, 16, 16, 2, True), (5, 9, 4, 3, True), (8, 12, 5, 2, True), (8, 33, 17, 1, False),
    ])
    def test_depthwise_matches_conv2d(self, c, h, w, step, bias):
        rng = np.random.default_rng(c * 100 + h)
        spec = ConvSpec(rng.standard_normal((c, 1, 3, 3)).astype(F32),
                        rng.standard_normal(c).astype(F32) if bias else None,
                        stride=1, padding=1, groups=c)
        x = rng.uniform(-1, 1, (c, h, w)).astype(F32)
        got = _depthwise3x3(x, spec, step)
        want = conv2d(x, spec)[:, ::step, ::step]
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.abs(got - want).max() < 1e-5

    def test_depthwise_rejects_other_convs(self):
        rng = np.random.default_rng(0)
        x = rng.random((4, 8, 8)).astype(F32)
        for spec in (ConvSpec(rng.random((4, 4, 3, 3)).astype(F32), padding=1),
                     ConvSpec(rng.random((4, 1, 5, 5)).astype(F32), padding=2, groups=4),
                     ConvSpec(rng.random((4, 1, 3, 3)).astype(F32), padding=0, groups=4),
                     ConvSpec(rng.random((4, 2, 3, 3)).astype(F32), padding=1, groups=4)):
            with pytest.raises(ValueError):
                _depthwise3x3(x, spec, 1)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
    def test_step_two_block_equals_decimated(self, seed, fused):
        rng = np.random.default_rng(seed)
        c_in, c_out = seed + 1, int(rng.integers(1, 9))
        block = random_rep_block(rng, c_in, c_out, 1, skip=True, conv_bias=bool(seed % 2))
        if fused:
            block = fuse_block(block)
        for h, w in ((8, 8), (16, 6), (9, 13)):
            x = rng.uniform(-1, 1, (c_in, h, w)).astype(F32)
            got = rep_block_forward(block, x, 2)
            want = rep_block_forward(block, x)[:, ::2, ::2]
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-5
            assert np.abs(got - seed_block_forward(block, x)[:, ::2, ::2]).max() < 1e-5

    @pytest.mark.parametrize("h,w", [(64, 64), (128, 128), (256, 256), (256, 128)])
    @pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
    def test_matches_seed_forward(self, h, w, fused):
        # measured over 30 models and these sizes: max |dcoarse| 2.3e-6,
        # max |dfeatures| 5.7e-6 on features up to 9.6 (6.1e-7 of max |features|)
        rng = np.random.default_rng(h + w)
        model = random_coarse_model(rng)
        if fused:
            model = fuse_model(model)
        x = rng.random((3, h, w)).astype(F32)
        mask = (rng.random((1, h, w)) < 0.4).astype(F32)
        c1, f1 = coarse_forward(model, x * (1 - mask), mask)
        c0, f0 = seed_coarse_forward(model, x * (1 - mask), mask)
        assert c1.shape == c0.shape and f1.shape == f0.shape == (32, h // 8, w // 8)
        assert np.abs(c1 - c0).max() < 1e-5
        assert np.abs(f1 - f0).max() < 2e-6 * max(1.0, np.abs(f0).max())


def alloc_depthwise3x3(x, spec, step):
    """_depthwise3x3 as it was before the LR workspace: a zero-padded copy of
    x, its polyphase components as new arrays, new accumulators."""
    c, h, w = x.shape
    h_out, w_out = -(-h // step), -(-w // step)
    halo = -(-2 // step)
    rows, cols = h_out + halo + 1, w_out + halo
    xp = np.zeros((c, step * rows, step * cols), F32)
    xp[:, 1:h + 1, 1:w + 1] = x
    phases = {(a, b): np.ascontiguousarray(xp[:, a::step, b::step]).reshape(c, -1)
              for a in range(min(step, 3)) for b in range(min(step, 3))}
    taps = spec.weights.reshape(c, 9, 1)
    n = h_out * cols
    out = np.zeros((c, n), F32)
    tmp = np.empty_like(out)
    for k in range(9):
        dy, dx = divmod(k, 3)
        start = (dy // step) * cols + dx // step
        np.multiply(taps[:, k], phases[dy % step, dx % step][:, start:start + n], out=tmp)
        out += tmp
    out = out.reshape(c, h_out, cols)[:, :, :w_out]
    if spec.bias is None:
        return np.ascontiguousarray(out)
    return out + spec.bias[:, None, None]


def alloc_pointwise(x, spec):
    """_pointwise with a new output: the same single sgemm."""
    c, h, w = x.shape
    out = spec.weights.reshape(spec.out_channels, c) @ x.reshape(c, h * w)
    if spec.bias is not None:
        out += spec.bias[:, None]
    return out.reshape(spec.out_channels, h, w)


def alloc_coarse_forward(model, x_lr, mask_lr):
    """coarse_forward as it was before the LR workspace, every intermediate a
    new array: the byte-equality oracle of the workspace forward."""
    x = np.concatenate([x_lr, mask_lr], axis=0).astype(F32, copy=False)
    features = None
    for i, block in enumerate(model.blocks):
        if i == 4:
            x = upsample_nearest(x, 2)
        step = 2 if i < 3 else 1
        if block.fused:
            x = relu(alloc_pointwise(relu(alloc_depthwise3x3(x, block.main, step)), block.point))
        else:
            y = batchnorm(alloc_depthwise3x3(x, block.main, step), block.main_bn)
            if block.skip_bn is not None:
                y = y + batchnorm(x[:, ::step, ::step], block.skip_bn)
            x = relu(batchnorm(alloc_pointwise(relu(y), block.point), block.point_bn))
        if i == FEATURE_TAP:
            features = x
    residual = upsample_nearest(alloc_pointwise(x, model.final), 4)
    return (x_lr + residual * mask_lr).astype(F32, copy=False), features


class TestWorkspaceForward:
    """coarse_forward keeps its intermediates in the per-thread workspace; the
    allocating forward it replaced is the byte-equality oracle, and public
    functions return new arrays."""

    # each case's id and seed end in the tapped block's index
    @pytest.mark.parametrize("h,w", [pytest.param(h, w, id=f"{h}-{w}-{FEATURE_TAP}")
                                     for h, w in ((64, 64), (256, 256), (256, 128), (8, 16))])
    @pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
    def test_bytes_equal_allocating_forward(self, h, w, fused):
        rng = np.random.default_rng(h * w + FEATURE_TAP)
        model = random_coarse_model(rng)
        if fused:
            model = fuse_model(model)
        x = rng.random((3, h, w)).astype(F32)
        mask = (rng.random((1, h, w)) < 0.4).astype(F32)
        c1, f1 = coarse_forward(model, x * (1 - mask), mask)
        c0, f0 = alloc_coarse_forward(model, x * (1 - mask), mask)
        assert c1.tobytes() == c0.tobytes() and f1.tobytes() == f0.tobytes()

    def test_second_call_leaves_first_result(self):
        rng = np.random.default_rng(5)
        model = fuse_model(random_coarse_model(rng))
        inputs = []
        for _ in range(2):
            mask = (rng.random((1, 64, 64)) < 0.4).astype(F32)
            inputs.append((rng.random((3, 64, 64)).astype(F32) * (1 - mask), mask))
        first = coarse_forward(model, *inputs[0])
        kept = [a.copy() for a in first]
        x_before = [a.copy() for a in inputs[0]]
        coarse_forward(model, *inputs[1])
        assert all(np.array_equal(a, b) for a, b in zip(first, kept))
        assert all(np.array_equal(a, b) for a, b in zip(inputs[0], x_before))

    @pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
    def test_block_second_call_leaves_first_result(self, fused):
        rng = np.random.default_rng(6)
        block = random_rep_block(rng, 8, 16, 1, skip=True, conv_bias=True)
        if fused:
            block = fuse_block(block)
        x0, x1 = rng.uniform(-1, 1, (2, 8, 20, 20)).astype(F32)
        first = rep_block_forward(block, x0, 2)
        kept = first.copy()
        rep_block_forward(block, x1, 2)
        rep_block_forward(block, x1)
        assert np.array_equal(first, kept)


@pytest.mark.skipif(tensor_ops._openblas() is None, reason="numpy's BLAS is not an OpenBLAS")
@pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
def test_bytes_do_not_depend_on_blas_threads(fused, monkeypatch):
    """Called outside run_pipeline, coarse_forward holds OpenBLAS at one
    thread for its 1x1 sgemms: coarse and feature bytes are the same with
    the process at 1 and at 2 BLAS threads, and the count is given back."""
    get, put = tensor_ops._openblas()
    rng = np.random.default_rng(9)
    model = random_coarse_model(rng)
    if fused:
        model = fuse_model(model)
    mask = (rng.random((1, 256, 256)) < 0.4).astype(F32)
    x = rng.random((3, 256, 256)).astype(F32) * (1 - mask)
    seen = []
    pointwise = coarse._pointwise
    monkeypatch.setattr(coarse, "_pointwise",
                        lambda *a, **k: seen.append(get()) or pointwise(*a, **k))
    saved, results = get(), {}
    try:
        for threads in (1, 2):
            put(threads)
            results[threads] = [a.tobytes() for a in coarse_forward(model, x, mask)]
            assert get() == threads
    finally:
        put(saved)
    assert results[1] == results[2]
    assert seen == [1] * 12
