"""Fidelity oracles that need no trained weights.

The weights are random, so an output's PSNR only detects drift.  Three
inputs have an answer that holds for any model and so judge the chain's
quality mechanism, carrying HR texture through the LR attention map:

- an image periodic with the HR patch period 8r in both axes: every clean
  patch is then the same, so any convex combination of clean patches is
  the exact texture;
- an empty mask with composite off: nothing is to be inpainted, so the
  output should be the input;
- a constant image: the corrupted pixels should come out as the constant.

Each runs at r = 1, 2 and 8 (256, 512 and 2048 with lr_size 256), with
composite on and off, with the fused random_model(seed=600) and the mask
of MaskSpec(seed=3).  Each bound is a measured value rounded up by about
1%, so a change that moves one has to say so.  The residual of the HR
composition is taken against up(x_lr), the bilinear up-sampling of the LR
input that the carrier uses, so a clean patch reproduces the input.
"""

from dataclasses import replace

import numpy as np
import pytest

from rethined.masks import MaskSpec, generate_mask
from rethined.pipeline import PipelineConfig, fuse_pipeline_model, random_model, run_pipeline

F32 = np.float32
FACTORS = (1, 2, 8)

# Mean |out - truth| over the corrupted pixels of the periodic image;
# measured 0.02062, 0.007963 and 0.007544 at r = 1, 2 and 8.  With the
# residual taken against the full-resolution Gaussian low-pass instead of
# up(x_lr) it measured 0.02062, 0.015241 and 0.011985: at r > 1 the error
# must stay at most 0.7x of that.
PERIODIC_MEAN = {1: 0.0209, 2: 0.00805, 8: 0.00762}
GAUSSIAN_RESIDUAL_PERIODIC_MEAN = {1: 0.02062, 2: 0.015241, 8: 0.011985}
# Max |out - x| with an empty mask and composite off: measured 0, 6.0e-8
# and 6.0e-8 (0, 0.0715 and 0.0145 against the Gaussian low-pass).  With
# composite on the output is x exactly.
EMPTY_MAX = {1: 1e-6, 2: 1e-6, 8: 1e-6}
# Max |out - c| over the corrupted pixels of a constant image; measured
# 2.4e-6, 0.03549 and 0.02451 (2.4e-6, 0.03562 and 0.02473 against the
# Gaussian low-pass).  The hole's zeros leak into the LR values and
# residuals of the clean patches beside it.
CONSTANT_MAX = {1: 1e-5, 2: 0.0359, 8: 0.0248}


@pytest.fixture(scope="module")
def model():
    return fuse_pipeline_model(random_model(PipelineConfig(), seed=600))


def inpaint(model, image, mask, composite):
    return run_pipeline(replace(PipelineConfig(), composite=composite), model,
                        image * (1.0 - mask), mask)


def hole(r):
    size = 256 * r
    return generate_mask(MaskSpec(seed=3), size, size)


def periodic_texture(size, r):
    """A sum of cos(2 pi k (t + 0.5) / 8r) terms along both axes, k = 1..3,
    and one product term; a different amplitude per channel, in [0.06, 0.94]."""
    t = 2 * np.pi * (np.arange(size) + 0.5) / (8 * r)
    y, x = t[:, None], t[None, :]
    base = (0.12 * np.cos(y) + 0.06 * np.cos(2 * y) + 0.03 * np.cos(3 * y)
            + 0.10 * np.cos(x) + 0.05 * np.cos(2 * x) + 0.02 * np.cos(3 * x)
            + 0.06 * np.cos(y) * np.cos(2 * x))
    return np.stack([0.5 + s * base for s in (1.0, 0.8, 0.6)]).astype(F32)


@pytest.mark.parametrize("composite", [True, False])
@pytest.mark.parametrize("r", FACTORS)
def test_periodic_texture(model, r, composite):
    mask = hole(r)
    truth = periodic_texture(mask.shape[1], r)
    out = inpaint(model, truth, mask, composite)
    corrupt = mask[0] == 1
    assert 0 < np.count_nonzero(corrupt) < corrupt.size
    err = np.abs(out - truth)[:, corrupt].mean()
    assert err <= PERIODIC_MEAN[r]
    if r > 1:
        assert err <= 0.7 * GAUSSIAN_RESIDUAL_PERIODIC_MEAN[r]


@pytest.mark.parametrize("composite", [True, False])
@pytest.mark.parametrize("r", FACTORS)
def test_empty_mask(model, r, composite):
    size = 256 * r
    x = np.random.default_rng(5).random((3, size, size)).astype(F32)
    out = inpaint(model, x, np.zeros((1, size, size), F32), composite)
    err = np.abs(out - x).max()
    assert err <= (0.0 if composite else EMPTY_MAX[r])


@pytest.mark.parametrize("composite", [True, False])
@pytest.mark.parametrize("r", FACTORS)
def test_constant_image(model, r, composite):
    mask = hole(r)
    out = inpaint(model, np.full((3,) + mask.shape[1:], 0.6, F32), mask, composite)
    corrupt = mask[0] == 1
    assert np.abs(out - F32(0.6))[:, corrupt].max() <= CONSTANT_MAX[r]
