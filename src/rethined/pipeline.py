"""End-to-end orchestration: configuration, the full model bundle, weight
(de)serialization, and the HR -> LR -> HR inpainting chain.

The chain: the LR input x_lr, the HR image anti-alias blurred and bilinearly
decimated by one banded operator per axis; coarse completion; masked
patch-attention refinement; then HR composition, which mixes the image's
clean patches with the LR attention map and adds to each written patch the
bilinear up-sampling of an LR difference, its window of the refined x_lr
minus the same mix of the LR input's windows.  No up-sampling runs at full
resolution and no resize plan is built.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .attention import NpmWeights, ProjectionWeights, npm_refine
from .coarse import (
    BLOCK_PLAN,
    ENCODER_FACTOR,
    FEATURE_CHANNELS,
    BatchNormParams,
    CoarseModel,
    ConvSpec,
    RepBlock,
    coarse_forward,
    fuse_model,
    random_coarse_model,
    _he_uniform,
)
from .patches import block_any
from .tensor_ops import (DTYPE, _downsample, _one_blas_thread, bilinear_resize, require_binary,
                         value_range)
from .upscale import _Preparation, compose_hr, sigma_for_factor
from .weights_io import WeightFormatError, load_tensors, save_tensors


@dataclass(frozen=True)
class PipelineConfig:
    """Working parameters of the pipeline.

    d_k defaults to 64 to keep desk runs fast; much larger embeddings
    (e.g. 2048) work unchanged but cost accordingly on CPU.
    """

    lr_size: int = 256
    patch_size: int = 8
    d_k: int = 64
    composite: bool = True

    def __post_init__(self):
        if self.lr_size < ENCODER_FACTOR or self.lr_size % ENCODER_FACTOR:
            raise ValueError(f"lr_size must be a positive multiple of {ENCODER_FACTOR}")
        if self.patch_size < 1 or self.lr_size % self.patch_size:
            raise ValueError("lr_size must be divisible by patch_size")
        if self.d_k < 1:
            raise ValueError("d_k must be >= 1")

    @property
    def grid(self) -> int:
        return self.lr_size // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.grid * self.grid


@dataclass(frozen=True)
class InpaintingModel:
    coarse: CoarseModel
    npm: NpmWeights


def random_model(config: PipelineConfig, seed: int = 0) -> InpaintingModel:
    """Deterministic He-uniform initialized model for untrained runs."""
    rng = np.random.default_rng(seed)
    coarse = random_coarse_model(rng)
    p2 = 3 * config.patch_size * config.patch_size
    token_width = config.d_k + FEATURE_CHANNELS
    npm = NpmWeights(
        embed=_he_uniform(rng, (p2, config.d_k), p2),
        proj=ProjectionWeights(
            m_q=_he_uniform(rng, (token_width, config.d_k), token_width),
            m_k=_he_uniform(rng, (token_width, config.d_k), token_width),
        ),
    )
    return InpaintingModel(coarse=coarse, npm=npm)


def fuse_pipeline_model(model: InpaintingModel) -> InpaintingModel:
    return replace(model, coarse=fuse_model(model.coarse))


# --- weight container mapping -------------------------------------------------

def model_to_tensors(model: InpaintingModel) -> dict:
    out: dict[str, np.ndarray] = {}
    for i, block in enumerate(model.coarse.blocks):
        for stage, spec, bn in (("main", block.main, block.main_bn),
                                ("point", block.point, block.point_bn)):
            out[f"blocks.{i}.{stage}.weight"] = spec.weights
            if spec.bias is not None:
                out[f"blocks.{i}.{stage}.bias"] = spec.bias
            if bn is not None:
                for field in ("mu", "sigma", "gamma", "beta"):
                    out[f"blocks.{i}.{stage}.bn.{field}"] = getattr(bn, field)
        if block.skip_bn is not None:
            for field in ("mu", "sigma", "gamma", "beta"):
                out[f"blocks.{i}.skip.bn.{field}"] = getattr(block.skip_bn, field)
    out["final.weight"] = model.coarse.final.weights
    out["final.bias"] = model.coarse.final.bias
    out["npm.embed"] = model.npm.embed
    out["npm.m_q"] = model.npm.proj.m_q
    out["npm.m_k"] = model.npm.proj.m_k
    return out


def _tensor(tensors: dict, name: str, want: tuple | None = None) -> np.ndarray:
    """tensors[name], checked against the shape `want` if one is given."""
    if name not in tensors:
        raise WeightFormatError(f"missing tensor '{name}' in weight container")
    if want is not None and tensors[name].shape != want:
        raise WeightFormatError(f"tensor '{name}' has shape {tensors[name].shape}, expected {want}")
    return tensors[name]


def _bias(tensors: dict, name: str, channels: int):
    return _tensor(tensors, name, (channels,)) if name in tensors else None


def _bn_from(tensors: dict, prefix: str, channels: int):
    keys = [f"{prefix}.{f}" for f in ("mu", "sigma", "gamma", "beta")]
    if not any(k in tensors for k in keys):
        return None
    mu, sigma, gamma, beta = (_tensor(tensors, k, (channels,)) for k in keys)
    if not (sigma > 0).all():
        raise WeightFormatError(f"tensor '{keys[1]}' holds a value <= 0")
    return BatchNormParams(mu, sigma, gamma, beta)


def model_from_tensors(tensors: dict) -> InpaintingModel:
    """Build a model from named tensors, checking that every value is finite,
    every BN sigma positive, every shape the chain relies on matches
    BLOCK_PLAN, 3P^2 and d_k + FEATURE_CHANNELS, and that the container
    holds no tensor the model does not read."""
    for name, t in tensors.items():
        if not np.isfinite(t).all():
            raise WeightFormatError(f"tensor '{name}' holds a NaN or infinite value")
    blocks = []
    for i, (c_in, c_out) in enumerate(BLOCK_PLAN):
        main = ConvSpec(_tensor(tensors, f"blocks.{i}.main.weight", (c_in, 1, 3, 3)),
                        _bias(tensors, f"blocks.{i}.main.bias", c_in), padding=1, groups=c_in)
        point = ConvSpec(_tensor(tensors, f"blocks.{i}.point.weight", (c_out, c_in, 1, 1)),
                         _bias(tensors, f"blocks.{i}.point.bias", c_out))
        bns = [_bn_from(tensors, f"blocks.{i}.{stage}.bn", c)
               for stage, c in (("main", c_in), ("point", c_out), ("skip", c_in))]
        try:
            blocks.append(RepBlock(main, bns[0], point, *bns[1:]))
        except ValueError as e:
            raise WeightFormatError(f"block {i} holds a {e}") from None
    if len({b.fused for b in blocks}) != 1:
        raise WeightFormatError("container mixes fused and unfused blocks")
    final = ConvSpec(_tensor(tensors, "final.weight", (3, BLOCK_PLAN[-1][1], 1, 1)),
                     _tensor(tensors, "final.bias", (3,)))
    embed, m_q = _tensor(tensors, "npm.embed"), _tensor(tensors, "npm.m_q")
    if embed.ndim != 2:
        raise WeightFormatError(f"tensor 'npm.embed' has shape {embed.shape}, expected [3P^2, d_k]")
    _tensor(tensors, "npm.m_q",
            (embed.shape[1] + FEATURE_CHANNELS, m_q.shape[-1] if m_q.ndim == 2 else -1))
    proj = ProjectionWeights(m_q, _tensor(tensors, "npm.m_k", m_q.shape))
    try:
        npm = NpmWeights(embed, proj)
    except ValueError as e:
        raise WeightFormatError(f"tensor 'npm.embed' has shape {embed.shape}: {e}") from None
    model = InpaintingModel(coarse=CoarseModel(blocks=tuple(blocks), final=final), npm=npm)
    unread = sorted(set(tensors) - set(model_to_tensors(model)))
    if unread:
        raise WeightFormatError(f"weight container holds tensors the model does not read: {unread}")
    return model


def save_model(model: InpaintingModel, path) -> None:
    save_tensors(model_to_tensors(model), path)


def load_model(path) -> InpaintingModel:
    return model_from_tensors(load_tensors(path))


def config_for_model(model: InpaintingModel, lr_size: int = 256,
                     composite: bool = True) -> PipelineConfig:
    """Take patch size and d_k from the model's embedding."""
    return PipelineConfig(lr_size=lr_size, patch_size=model.npm.patch_size,
                          d_k=model.npm.embed.shape[1], composite=composite)


# --- the chain ------------------------------------------------------------------

class NonFiniteInputError(ValueError):
    """Raised when an input image holds a NaN or infinite pixel."""


class PixelRangeError(ValueError):
    """Raised when an input image holds a pixel outside [0, 1], such as an
    image in 0-255, whose known pixels the clipped output could not keep."""


def check_shapes(image: np.ndarray, mask: np.ndarray) -> None:
    """Raise ValueError unless `image` is [3, H, W] and `mask` [1, H, W]."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected [3, H, W] image, got shape {image.shape}")
    if mask.shape != (1, *image.shape[1:]):
        raise ValueError(f"mask shape {mask.shape} does not match image {image.shape}")


def _validate_inputs(config: PipelineConfig, model: InpaintingModel, image: np.ndarray,
                     mask: np.ndarray):
    want = (3 * config.patch_size ** 2, config.d_k)
    if model.npm.embed.shape != want:
        raise ValueError(f"model embedding shape {model.npm.embed.shape} != config's (3P^2, d_k) "
                         f"= {want} for patch_size={config.patch_size}, d_k={config.d_k}")
    check_shapes(image, mask)
    _, h, w = image.shape
    if min(h, w) < config.lr_size or h % config.lr_size or w % config.lr_size:
        raise ValueError(
            f"image {h}x{w} must be a positive integer multiple of lr_size {config.lr_size}"
        )
    require_binary(mask)
    lo, hi = value_range(image)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteInputError("image pixels must be finite (no NaN or Inf)")
    if lo < 0.0 or hi > 1.0:
        raise PixelRangeError(f"image pixels must lie in [0, 1], got {lo:g}..{hi:g}")


def downsample_to_lr(config: PipelineConfig, image: np.ndarray, mask: np.ndarray):
    """Anti-alias blur + bilinear decimation of the image, block-ANY of the mask.

    Returns (x_lr, m_lr): x_lr is the HR image through the Gaussian at
    sigma_for_factor(r) per axis and the bilinear resize to lr_size, as one
    banded operator per axis (tensor_ops._downsample); upscale.compose_hr
    takes its windows to the HR extent, so nothing is up-sampled here.
    m_lr is the request's one full-resolution mask reduction: the masked
    map's corrupted patches all come from it.
    At r == 1 x_lr is the image (cast to float32 if it is not), and no
    operator runs; the composer then reads no residual.
    """
    _, h, w = image.shape
    lr = config.lr_size
    r_h, r_w = h // lr, w // lr
    if r_h == r_w == 1:
        return image.astype(DTYPE, copy=False), mask.astype(DTYPE, copy=False)
    x_lr = _downsample(image, lr, lr, sigma_for_factor(r_h), sigma_for_factor(r_w))
    return x_lr, block_any(mask[0], r_h, r_w)[None].astype(DTYPE)


def _features_for_grid(config: PipelineConfig, features: np.ndarray) -> np.ndarray:
    grid = config.grid
    if features.shape[1:] == (grid, grid):
        return features
    return bilinear_resize(features, grid, grid)


def run_pipeline_timed(config: PipelineConfig, model: InpaintingModel,
                       image: np.ndarray, mask: np.ndarray):
    """Full inpainting chain returning (result, per-stage wall times in ms).

    `coarse` covers downsample_to_lr, the banded blur-and-decimate, and the
    coarse CNN; `refine` the LR attention pass.  At r > 1 the composer's
    preparation (upscale._Preparation) runs beside both on idle peers, and
    `upscale` is the part of it no peer has done by the end of `refine`,
    then the finish: the HR mix, its up-sampled LR correction and the
    composite.  `total` also covers the input checks.

    The whole chain runs with numpy's OpenBLAS held at one thread, and its
    full-resolution loops are split across the CPUs of the process affinity
    (see tensor_ops._split and _shared).
    """
    times: dict[str, float] = {}
    t_all = time.perf_counter()
    with _one_blas_thread():
        _validate_inputs(config, model, image, mask)

        t0 = time.perf_counter()
        x_lr, m_lr = downsample_to_lr(config, image, mask)
        prep = None
        if x_lr.shape != image.shape:
            clean = np.flatnonzero(block_any(m_lr[0], config.patch_size, config.patch_size) == 0)
            prep = _Preparation(image, x_lr, clean, (config.grid, config.grid), config.composite)
        with prep.beside() if prep is not None else nullcontext():
            coarse, features = coarse_forward(model.coarse, x_lr, m_lr)
            features = _features_for_grid(config, features)
            times["coarse"] = (time.perf_counter() - t0) * 1e3

            t0 = time.perf_counter()
            x_lr_hat, masked_map = npm_refine(coarse, x_lr, features, model.npm, m_lr)
            del coarse, features, m_lr  # the composition's arrays can reuse their memory
            times["refine"] = (time.perf_counter() - t0) * 1e3
            t0 = time.perf_counter()

        out = compose_hr(image, x_lr, x_lr_hat, masked_map, mask, config.composite,
                         _prepared=prep)
        times["upscale"] = (time.perf_counter() - t0) * 1e3
    times["total"] = (time.perf_counter() - t_all) * 1e3
    return out, times


def run_pipeline(config: PipelineConfig, model: InpaintingModel,
                 image: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Inpaint a masked HR image; deterministic for fixed (config, model,
    input), whatever the number of CPUs, and with numpy's bundled OpenBLAS
    whatever its thread count."""
    out, _ = run_pipeline_timed(config, model, image, mask)
    return out
