"""Latency benchmark harness: whole requests timed by the pipeline's own
stage clock, closed-form FLOP estimates, CSV and Markdown reports.

Each resolution runs warmup + runs requests through run_pipeline_timed; every
row (coarse, refine, upscale, total) is the median and p90 of the measured
requests' own stage times, so all rows come from the same requests.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .coarse import BLOCK_PLAN, FEATURE_CHANNELS
from .masks import MaskSpec, generate_mask
from .pipeline import InpaintingModel, PipelineConfig, run_pipeline_timed
from .tensor_ops import DTYPE, _lr_band_width
from .upscale import sigma_for_factor

STAGES = ("coarse", "refine", "upscale", "total")
DEFAULT_WARMUP = 5
DEFAULT_RUNS = 30


def attention_flops(n: int, d_k: int, c: int) -> int:
    """Closed-form attention cost: 2*N^2*d_k score FLOPs plus both N x (d_k+C)
    -> d_k projections at 2 FLOPs per MAC: the dense upper bound, which
    acceptance 07 pins.  mask_attention computes only the corrupt x clean
    scores, 2*|corrupt|*|clean|*d_k <= N^2*d_k/2 FLOPs."""
    return 2 * n * n * d_k + 2 * n * (d_k + c) * d_k * 2


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

    # at r = 1 the image is its own LR input: no operator runs and the
    # residual is zero, so the HR mix does not run either
    r1 = r_h == r_w == 1
    # x_lr = A_h x A_w^T, run by downsample_to_lr under coarse: the H pass
    # takes lr x K_h multiply-adds per HR column, the W pass K_w per LR pixel
    lr_op = 0 if r1 else 2 * 3 * lr * (_lr_band_width(h_hr, sigma_for_factor(r_h)) * w_hr
                                       + lr * _lr_band_width(w_hr, sigma_for_factor(r_w)))
    # coarse_forward evaluates blocks 0-2 only at the pixels they keep (1/2,
    # 1/4 and 1/8 of LR), block 3 at 1/8 and block 4 at 1/4 (after a 2x
    # upsample), and the final 1x1 at 1/4 before the 4x upsample
    conv = 0
    for (c_in, c_out), scale in zip(BLOCK_PLAN, (2, 4, 8, 8, 4)):
        size = lr // scale
        conv += 2 * c_in * 9 * size * size             # depthwise 3x3
        conv += 2 * c_in * c_out * size * size         # pointwise
    conv += 2 * BLOCK_PLAN[-1][1] * 3 * (lr // 4) ** 2  # final 1x1
    coarse = lr_op + conv + 8 * lr_px

    masking = 3 * n * n
    mixing = 2 * n * n * 3 * p * p + 4 * 3 * lr_px
    # compose_hr, dense bounds: the mix of x (n^2 rows x 3 ph pw), the LR
    # differences' GEMM (n^2 rows x 3 q^2) and B D, b_w then b_h on each
    # q x q window, 2 q (1 + q / ph) per pixel; then the add, composite and clip
    ph, q = p * r_h, p + 2
    lr_correction = 2 * n * n * 3 * q * q + 2 * q * hr_px + 2 * q * q * 3 * (h_hr // ph) * w_hr
    upscale = (0 if r1 else 2 * n * n * 3 * ph * (p * r_w) + lr_correction) + 2 * hr_px
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
              seed: int = 0) -> BenchReport:
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    report = BenchReport(warmup=warmup, runs=runs, lr_size=config.lr_size,
                         patch_size=config.patch_size)
    for res in resolutions:
        image, mask = synthetic_inputs(config, res, seed)
        timed = [run_pipeline_timed(config, model, image, mask)[1]
                 for _ in range(warmup + runs)][warmup:]
        samples = {name: [t[name] for t in timed] for name in STAGES}
        est = flop_estimates(config, res, res)
        flops = dict(est, refine=est["attention"] + est["masking"] + est["mixing"])
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
