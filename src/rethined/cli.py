"""Command-line interface: inpaint, fuse, genmask, metrics and bench."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from .image_io import read_image, read_mask, write_image, write_mask
from .masks import MaskCoverageError, MaskSpec, generate_mask, mask_coverage
from .metrics import l1, psnr, ssim
from .pipeline import (
    PipelineConfig,
    check_shapes,
    config_for_model,
    fuse_pipeline_model,
    load_model,
    random_model,
    run_pipeline,
    save_model,
)
from .spectral import focal_frequency_loss


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr", type=int, default=256, help="LR working size (default 256)")
    p.add_argument("--weights", type=Path, default=None,
                   help="RTHD weight container; its shapes fix P and d_k")
    p.add_argument("--seed", type=int, default=7,
                   help="seed for the random model (P = 8, d_k = 64) when no weights are given")


def _build(args, composite: bool = True):
    # commands run the fused network, one convolution per stage, as perfbench does
    model = (random_model(PipelineConfig(lr_size=args.lr), seed=args.seed) if args.weights is None
             else load_model(args.weights))
    config = config_for_model(model, lr_size=args.lr, composite=composite)
    return config, model if model.coarse.fused else fuse_pipeline_model(model)


def _cmd_inpaint(args) -> int:
    config, model = _build(args, composite=not args.no_composite)
    image = read_image(args.image)
    mask = read_mask(args.mask)
    check_shapes(image, mask)  # before the product, whose broadcast error says less
    masked = image * (1.0 - mask)
    out = run_pipeline(config, model, masked, mask)
    write_image(out, args.out)
    print(json.dumps({
        "out": str(args.out),
        "resolution": [int(s) for s in image.shape[1:]],
        "lr_size": config.lr_size,
        "patch_size": config.patch_size,
        "d_k": config.d_k,
        "n_patches": config.n_patches,
        "composite": config.composite,
        "random_weights": args.weights is None,
    }))
    return 0


def _cmd_fuse(args) -> int:
    model = load_model(args.input)
    save_model(fuse_pipeline_model(model), args.out)
    print(json.dumps({"out": str(args.out), "fused": True}))
    return 0


def _cmd_genmask(args) -> int:
    mask = generate_mask(MaskSpec(seed=args.seed), args.h, args.w)
    write_mask(mask, args.out)
    print(json.dumps({"out": str(args.out), "coverage": round(mask_coverage(mask), 4)}))
    return 0


def _cmd_metrics(args) -> int:
    a = read_image(args.a)
    b = read_image(args.b)
    db = psnr(a, b)
    print(json.dumps({
        "l1": l1(a, b),
        "ssim": ssim(a, b),
        "psnr": "inf" if db == float("inf") else db,
        "ffl": focal_frequency_loss(a, b),
    }))
    return 0


def _cmd_bench(args) -> int:
    config, model = _build(args)
    resolutions = [int(tok) for tok in args.res.split(",") if tok]
    report = bench_mod.run_bench(config, model, resolutions,
                                 runs=args.runs, warmup=args.warmup, seed=args.seed)
    csv_text = bench_mod.report_to_csv(report)
    args.report.write_text(csv_text)
    md_path = args.report.with_suffix(".md")
    md_path.write_text(bench_mod.report_to_markdown(report))
    print(json.dumps({"csv": str(args.report), "markdown": str(md_path),
                      "resolutions": resolutions}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rethined",
        description="High-resolution inpainting: coarse completion, masked patch "
                    "attention, attention-reusing high-frequency upscaling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inpaint", help="inpaint a masked PPM image")
    p.add_argument("--image", type=Path, required=True, help="input P6 PPM")
    p.add_argument("--mask", type=Path, required=True, help="input P5 PGM (255 = corrupted)")
    p.add_argument("--out", type=Path, required=True, help="output P6 PPM")
    _add_config_flags(p)
    p.add_argument("--no-composite", action="store_true",
                   help="skip overwriting known pixels with the originals")
    p.set_defaults(fn=_cmd_inpaint)

    p = sub.add_parser("fuse", help="fuse conv+BN+skip branches for inference")
    p.add_argument("--in", dest="input", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(fn=_cmd_fuse)

    p = sub.add_parser("genmask", help="generate a free-form mask (30-50% coverage)")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(fn=_cmd_genmask)

    p = sub.add_parser("metrics", help="print L1/SSIM/PSNR/FFL between two PPMs as JSON")
    p.add_argument("--a", type=Path, required=True)
    p.add_argument("--b", type=Path, required=True)
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("bench", help="per-stage latency of whole requests per resolution")
    p.add_argument("--res", type=str, required=True, help="comma-separated resolutions")
    p.add_argument("--report", type=Path, required=True, help="CSV output path")
    p.add_argument("--runs", type=int, default=bench_mod.DEFAULT_RUNS,
                   help="timed requests per resolution")
    p.add_argument("--warmup", type=int, default=bench_mod.DEFAULT_WARMUP,
                   help="untimed requests per resolution before the timed ones")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, MaskCoverageError) as exc:  # bad input: one line, no traceback
        print(f"rethined: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
