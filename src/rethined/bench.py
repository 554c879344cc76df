"""Latency benchmark harness: warmup-then-measure stage timing on frozen
intermediates, closed-form FLOP estimates, CSV and Markdown reports.

Stages are timed independently (the total row times the whole chain), using a
monotonic clock, with median and p90 over the measured runs.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .attention import attention_scores, mask_attention, npm_refine, token_mix, coherence
from .coarse import FEATURE_CHANNELS, coarse_forward
from .masks import MaskSpec, generate_mask
from .patches import embed_and_condition, img2col, pixel_shuffle, tokenize_mask
from .pipeline import (
    InpaintingModel,
    PipelineConfig,
    _features_for_grid,
    downsample_to_lr,
    run_pipeline,
)
from .tensor_ops import DTYPE
from .upscale import compose_hr, sigma_for_factor

STAGES = ("coarse", "attention", "masking", "mixing", "upscale", "total")
DEFAULT_WARMUP = 5
DEFAULT_RUNS = 30


def attention_flops(n: int, d_k: int, c: int) -> int:
    """Closed-form attention cost: 2*N^2*d_k score FLOPs plus both N x (d_k+C)
    -> d_k projections at 2 FLOPs per MAC: the dense upper bound, which
    acceptance 07 pins.  mask_attention computes only the corrupt x clean
    scores, 2*|corrupt|*|clean|*d_k <= N^2*d_k/2 FLOPs."""
    return 2 * n * n * d_k + 2 * n * (d_k + c) * d_k * 2


def _gauss_taps(r: int) -> int:
    import math

    return 2 * math.ceil(3.0 * sigma_for_factor(r)) + 1


def flop_estimates(config: PipelineConfig, h_hr: int, w_hr: int) -> Dict[str, int]:
    """Rough per-stage FLOP counts; the attention entry is attention_flops,
    the dense upper bound."""
    n = config.n_patches
    p = config.patch_size
    d_k = config.d_k
    c = FEATURE_CHANNELS
    lr = config.lr_size
    r_h, r_w = h_hr // lr, w_hr // lr
    hr_px = 3 * h_hr * w_hr
    lr_px = 3 * lr * lr

    # one separable HR blur per request, run by downsample_to_lr under coarse;
    # counted as direct taps (a multiply-add each), not as the GEMM band the
    # blur runs, which spends (64 + 2r - 1) multiply-adds per output
    blur_hr = 2 * (_gauss_taps(r_h) + _gauss_taps(r_w)) * hr_px
    conv = 0
    for c_in, c_out, size in ((4, 16, lr), (16, 32, lr // 2), (32, 64, lr // 4),
                              (64, 32, lr // 8), (32, 16, lr // 4)):
        conv += 2 * c_in * 9 * size * size             # depthwise 3x3
        conv += 2 * c_in * c_out * size * size         # pointwise
    conv += 2 * 16 * 3 * lr * lr                       # final 1x1 at full LR res
    coarse = blur_hr + conv + 8 * lr_px

    masking = 3 * n * n
    mixing = 2 * n * n * 3 * p * p + 4 * 3 * lr_px
    d_hr = 3 * (p * r_h) * (p * r_w)
    upscale = 2 * n * n * d_hr + 8 * hr_px + 2 * hr_px
    att = attention_flops(n, d_k, c)
    return {
        "coarse": coarse,
        "attention": att,
        "masking": masking,
        "mixing": mixing,
        "upscale": upscale,
        "total": coarse + att + masking + mixing + upscale,
    }


@dataclass
class StageStats:
    median_ms: float
    p90_ms: float
    flops: int


@dataclass
class ResolutionReport:
    resolution: int
    n_patches: int
    d_k: int
    stages: Dict[str, StageStats]


@dataclass
class BenchReport:
    warmup: int
    runs: int
    lr_size: int
    patch_size: int
    rows: List[ResolutionReport] = field(default_factory=list)


def _time_call(fn, warmup: int, runs: int) -> List[float]:
    for _ in range(warmup):
        fn()
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def measure_stages(config: PipelineConfig, model: InpaintingModel,
                   image: np.ndarray, mask: np.ndarray,
                   runs: int = DEFAULT_RUNS, warmup: int = DEFAULT_WARMUP,
                   hr_runs: Optional[int] = None,
                   hr_warmup: Optional[int] = None) -> Dict[str, List[float]]:
    """Per-stage wall-time samples (ms) on frozen intermediates.

    hr_runs/hr_warmup override the run counts for stages whose cost scales
    with the HR pixel count (coarse, upscale, total).
    """
    hr_runs = runs if hr_runs is None else hr_runs
    hr_warmup = warmup if hr_warmup is None else hr_warmup
    p = config.patch_size

    x_lr, m_lr, low = downsample_to_lr(config, image, mask)
    coarse_img, feats = coarse_forward(model.coarse, x_lr, m_lr)
    feats = _features_for_grid(config, feats)
    seq = img2col(coarse_img, p)
    tokens = embed_and_condition(seq, feats, model.npm.embed)
    m_vec = tokenize_mask(m_lr, p)
    amap = attention_scores(tokens, model.npm.proj)
    masked_map = mask_attention(amap, m_vec)
    values = img2col(x_lr, p)
    x_lr_hat, _ = npm_refine(coarse_img, x_lr, feats, model.npm, m_lr, p, config.d_k)

    def stage_coarse():
        xl, ml, _ = downsample_to_lr(config, image, mask)
        _features_for_grid(config, coarse_forward(model.coarse, xl, ml)[1])

    def stage_attention():
        s = img2col(coarse_img, p)
        t = embed_and_condition(s, feats, model.npm.embed)
        attention_scores(t, model.npm.proj)

    def stage_masking():
        mask_attention(amap, tokenize_mask(m_lr, p))

    def stage_mixing():
        coherence(pixel_shuffle(token_mix(masked_map, values)), m_vec, p)

    def stage_upscale():
        compose_hr(image, low, x_lr_hat, masked_map, mask, p, composite=config.composite)

    def stage_total():
        run_pipeline(config, model, image, mask)

    samples = {}
    samples["coarse"] = _time_call(stage_coarse, hr_warmup, hr_runs)
    samples["attention"] = _time_call(stage_attention, warmup, runs)
    samples["masking"] = _time_call(stage_masking, warmup, runs)
    samples["mixing"] = _time_call(stage_mixing, warmup, runs)
    samples["upscale"] = _time_call(stage_upscale, hr_warmup, hr_runs)
    samples["total"] = _time_call(stage_total, hr_warmup, hr_runs)
    return samples


def _p90(xs: List[float]) -> float:
    ys = sorted(xs)
    idx = min(int(round(0.9 * (len(ys) - 1))), len(ys) - 1)
    return ys[idx]


def synthetic_inputs(config: PipelineConfig, resolution: int, seed: int = 0):
    """Deterministic image/mask pair for benchmarking at a given resolution."""
    if resolution % config.lr_size:
        raise ValueError(
            f"resolution {resolution} is not a multiple of lr_size {config.lr_size}"
        )
    rng = np.random.default_rng(seed)
    image = rng.random((3, resolution, resolution)).astype(DTYPE)
    mask = generate_mask(MaskSpec(seed=seed), resolution, resolution)
    return image * (1.0 - mask), mask


def run_bench(config: PipelineConfig, model: InpaintingModel, resolutions: List[int],
              runs: int = DEFAULT_RUNS, warmup: int = DEFAULT_WARMUP,
              hr_runs: Optional[int] = None, seed: int = 0) -> BenchReport:
    report = BenchReport(warmup=warmup, runs=runs, lr_size=config.lr_size,
                         patch_size=config.patch_size)
    for res in resolutions:
        image, mask = synthetic_inputs(config, res, seed)
        samples = measure_stages(config, model, image, mask, runs=runs,
                                 warmup=warmup, hr_runs=hr_runs)
        flops = flop_estimates(config, res, res)
        stages = {
            name: StageStats(
                median_ms=statistics.median(samples[name]),
                p90_ms=_p90(samples[name]),
                flops=flops[name],
            )
            for name in STAGES
        }
        report.rows.append(ResolutionReport(
            resolution=res, n_patches=config.n_patches, d_k=config.d_k, stages=stages,
        ))
    return report


def report_to_csv(report: BenchReport) -> str:
    lines = ["resolution,stage,median_ms,p90_ms,flops"]
    for row in report.rows:
        for name in STAGES:
            st = row.stages[name]
            lines.append(f"{row.resolution},{name},{st.median_ms:.3f},{st.p90_ms:.3f},{st.flops}")
    return "\n".join(lines) + "\n"


def report_to_markdown(report: BenchReport) -> str:
    out = [
        f"# Latency report (lr={report.lr_size}, P={report.patch_size}, "
        f"warmup={report.warmup}, runs={report.runs})",
        "",
        "| resolution | N | d_k | stage | median ms | p90 ms | est. FLOPs |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in report.rows:
        for name in STAGES:
            st = row.stages[name]
            out.append(
                f"| {row.resolution} | {row.n_patches} | {row.d_k} | {name} "
                f"| {st.median_ms:.3f} | {st.p90_ms:.3f} | {st.flops} |"
            )
    return "\n".join(out) + "\n"
