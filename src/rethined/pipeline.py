"""End-to-end orchestration: configuration, the full model bundle, weight
(de)serialization, and the HR -> LR -> HR inpainting chain.

The chain: one anti-alias Gaussian blur of the HR image, bilinearly
decimated to the LR working size; coarse completion; masked patch-attention
refinement; then HR composition, which takes its high-frequency residual
against that same blur and mixes it with the LR attention map.
"""

from __future__ import annotations

import math
import time
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
from .tensor_ops import DTYPE, all_finite, bilinear_resize, gaussian_blur, require_binary
from .upscale import _compose_hr, sigma_for_factor
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
    seed: int = 0

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

    @property
    def fused(self) -> bool:
        return self.coarse.fused


def random_model(config: PipelineConfig, seed: int | None = None) -> InpaintingModel:
    """Deterministic He-uniform initialized model for untrained runs."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
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


def _bn_from(tensors: dict, prefix: str):
    keys = [f"{prefix}.{f}" for f in ("mu", "sigma", "gamma", "beta")]
    present = [k in tensors for k in keys]
    if not any(present):
        return None
    if not all(present):
        raise WeightFormatError(f"incomplete batchnorm parameter set at '{prefix}'")
    return BatchNormParams(*(tensors[k] for k in keys))


def _tensor(tensors: dict, name: str, want: tuple | None = None) -> np.ndarray:
    """tensors[name], checked against the shape `want` if one is given."""
    if name not in tensors:
        raise WeightFormatError(f"missing tensor '{name}' in weight container")
    if want is not None and tensors[name].shape != want:
        raise WeightFormatError(f"tensor '{name}' has shape {tensors[name].shape}, expected {want}")
    return tensors[name]


def model_from_tensors(tensors: dict) -> InpaintingModel:
    """Build a model from named tensors, checking every shape the chain
    relies on against BLOCK_PLAN, 3P^2 and d_k + FEATURE_CHANNELS."""
    blocks = []
    for i, (c_in, c_out, stride, _skip) in enumerate(BLOCK_PLAN):
        main = ConvSpec(_tensor(tensors, f"blocks.{i}.main.weight", (c_in, 1, 3, 3)),
                        tensors.get(f"blocks.{i}.main.bias"), stride, padding=1, groups=c_in)
        point = ConvSpec(_tensor(tensors, f"blocks.{i}.point.weight", (c_out, c_in, 1, 1)),
                         tensors.get(f"blocks.{i}.point.bias"))
        main_bn = _bn_from(tensors, f"blocks.{i}.main.bn")
        point_bn = _bn_from(tensors, f"blocks.{i}.point.bn")
        skip_bn = _bn_from(tensors, f"blocks.{i}.skip.bn")
        fused = main_bn is None and point_bn is None and skip_bn is None
        blocks.append(RepBlock(main, main_bn, point, point_bn, skip_bn, fused=fused))
    fused_flags = {b.fused for b in blocks}
    if len(fused_flags) != 1:
        raise WeightFormatError("container mixes fused and unfused blocks")
    final = ConvSpec(_tensor(tensors, "final.weight", (3, BLOCK_PLAN[-1][1], 1, 1)),
                     _tensor(tensors, "final.bias"))
    embed, m_q = _tensor(tensors, "npm.embed"), _tensor(tensors, "npm.m_q")
    p2, d_k = embed.shape if embed.ndim == 2 else (0, 0)
    patch = max(1, math.isqrt(p2 // 3))
    _tensor(tensors, "npm.embed", (3 * patch * patch, d_k))
    _tensor(tensors, "npm.m_q", (d_k + FEATURE_CHANNELS, m_q.shape[-1] if m_q.ndim == 2 else -1))
    npm = NpmWeights(embed, ProjectionWeights(m_q, _tensor(tensors, "npm.m_k", m_q.shape)))
    coarse = CoarseModel(blocks=tuple(blocks), final=final, fused=fused_flags.pop())
    return InpaintingModel(coarse=coarse, npm=npm)


def save_model(model: InpaintingModel, path) -> None:
    save_tensors(model_to_tensors(model), path)


def load_model(path) -> InpaintingModel:
    return model_from_tensors(load_tensors(path))


def config_for_model(model: InpaintingModel, lr_size: int = 256,
                     composite: bool = True, seed: int = 0) -> PipelineConfig:
    """Derive patch size and d_k from the weight shapes, which
    model_from_tensors checked."""
    p2, d_k = model.npm.embed.shape
    patch = math.isqrt(p2 // 3)
    return PipelineConfig(lr_size=lr_size, patch_size=patch, d_k=d_k,
                          composite=composite, seed=seed)


# --- the chain ------------------------------------------------------------------

class NonFiniteInputError(ValueError):
    """Raised when an input image holds a NaN or infinite pixel."""


def _validate_inputs(config: PipelineConfig, image: np.ndarray, mask: np.ndarray):
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected [3, H, W] image, got shape {image.shape}")
    _, h, w = image.shape
    if mask.shape != (1, h, w):
        raise ValueError(f"mask shape {mask.shape} does not match image {image.shape}")
    if h % config.lr_size or w % config.lr_size:
        raise ValueError(
            f"image {h}x{w} must be an integer multiple of lr_size {config.lr_size}"
        )
    require_binary(mask)
    if not all_finite(image):
        raise NonFiniteInputError("image pixels must be finite (no NaN or Inf)")


def downsample_to_lr(config: PipelineConfig, image: np.ndarray, mask: np.ndarray):
    """Anti-alias blur + bilinear decimation of the image, block-ANY of the mask.

    Returns (x_lr, m_lr, low): `low` is the float32 Gaussian low-pass of the
    HR image at sigma_for_factor(r) per axis, which compose_hr reuses for the
    high-frequency residual, and x_lr is `low` bilinearly resized to lr_size.
    At r == 1 the taps are exactly [0, 1, 0], so low and x_lr equal the image.
    """
    _, h, w = image.shape
    lr = config.lr_size
    r_h, r_w = h // lr, w // lr
    low = gaussian_blur(image, sigma_for_factor(r_h), sigma_for_factor(r_w))
    x_lr = bilinear_resize(low, lr, lr)
    m_lr = block_any(mask[0], r_h, r_w)[None].astype(DTYPE)
    return x_lr, m_lr, low


def _features_for_grid(config: PipelineConfig, features: np.ndarray) -> np.ndarray:
    grid = config.grid
    if features.shape[1:] == (grid, grid):
        return features
    return bilinear_resize(features, grid, grid)


def run_pipeline_timed(config: PipelineConfig, model: InpaintingModel,
                       image: np.ndarray, mask: np.ndarray):
    """Full inpainting chain returning (result, per-stage wall times in ms).

    `coarse` covers downsample_to_lr, with the one HR blur, and the coarse
    CNN; `refine` the LR attention pass; and `upscale` the HR residual,
    mixing and composite, which reuse that blur's low-pass.
    """
    _validate_inputs(config, image, mask)
    times: dict[str, float] = {}
    t_all = time.perf_counter()

    t0 = time.perf_counter()
    x_lr, m_lr, low = downsample_to_lr(config, image, mask)
    coarse, features = coarse_forward(model.coarse, x_lr, m_lr)
    features = _features_for_grid(config, features)
    times["coarse"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    x_lr_hat, masked_map = npm_refine(coarse, x_lr, features, model.npm,
                                      m_lr, config.patch_size, config.d_k)
    times["refine"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    # the result overwrites the low-pass, which is dead once the residual is cut
    out = _compose_hr(image, low, x_lr_hat, masked_map, mask, config.patch_size,
                      config.composite, out=low)
    times["upscale"] = (time.perf_counter() - t0) * 1e3
    times["total"] = (time.perf_counter() - t_all) * 1e3
    return out, times


def run_pipeline(config: PipelineConfig, model: InpaintingModel,
                 image: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Inpaint a masked HR image; deterministic for fixed (config, model, input)."""
    out, _ = run_pipeline_timed(config, model, image, mask)
    return out
