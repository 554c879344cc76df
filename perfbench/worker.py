"""One workload process: set up rethined, then serve requests in a closed loop.

Started by run.py, once per set-up measurement.  It prints `ready` when the
first timed request could be sent; with --setup-only it exits there.
Otherwise it times requests for --seconds, checks every output against the
benchmark's own copy of the source, and prints one JSON line of raw results.

A request is what `rethined inpaint` does after set-up: read_image and
read_mask, mask the image, run_pipeline with the default PipelineConfig, and
write_image of the result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import re
import resource
import sys
import time
from pathlib import Path

import spans


def import_rethined(root: Path):
    """Import rethined from the checkout's src/, never from anywhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import rethined

    if not Path(rethined.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"rethined imported from {rethined.__file__}, not {src}")
    return rethined


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


class Pair:
    def __init__(self, inputs: Path, index: int):
        stem = inputs / f"pair{index}"
        self.image = stem.with_suffix(".ppm")
        self.mask = stem.with_suffix(".pgm")
        self.out = inputs / f"out{index}.ppm"
        self.source_path = stem.with_suffix(".npz")

    def source(self):
        """(source uint8 [H, W, 3], known bool [H, W]) written by run.py.

        Read on each use, not kept, so peak_rss_mb does not count it.
        """
        import numpy as np

        with np.load(self.source_path) as data:
            return data["source"], ~data["mask"]


PPM_HEADER = re.compile(rb"P6\s+(\d+)\s+(\d+)\s+255\s")


def check_output(out, pair: Pair, psnr: dict, index: int):
    """Problems with one output; an empty list means it passed.

    A passing output's psnr_db is stored under `index` the first time.
    """
    import numpy as np

    source, known = pair.source()
    h, w, _ = source.shape
    if out.shape != (3, h, w):
        return [f"shape {out.shape} != {(3, h, w)}"]
    problems = []
    if not np.isfinite(out).all():
        problems.append("non-finite values")
    elif out.min() < 0.0 or out.max() > 1.0:
        problems.append(f"values outside [0, 1]: {out.min()}..{out.max()}")
    reference = source.transpose(2, 0, 1).astype(np.float32) / np.float32(255.0)
    if not np.array_equal(out[:, known], reference[:, known]):
        problems.append("known pixels differ from the input")
    blob = pair.out.read_bytes()
    header = PPM_HEADER.match(blob)
    if header is None or (int(header[1]), int(header[2])) != (w, h):
        problems.append("written file is not a PPM of the input's extents")
    else:
        written = np.frombuffer(blob, np.uint8, h * w * 3, header.end()).reshape(h, w, 3)
        if not np.array_equal(written[known], source[known]):
            problems.append("written file differs from the input at known pixels")
    if not problems and index not in psnr:
        psnr[index] = psnr_db(out, source, known)
    return problems


def psnr_db(out, source, known) -> float:
    """PSNR against the unmasked source over the pixels the program filled.

    Known pixels are bit-exact (checked above); counting them would only add
    a term in the mask coverage, which varies with the seed.
    """
    import numpy as np

    hole = ~known
    diff = out[:, hole].astype(np.float64) - source[hole].T.astype(np.float64) / 255.0
    return 10.0 * np.log10(1.0 / float(np.mean(diff * diff)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t_setup = time.perf_counter()
    rethined = import_rethined(args.root)
    from rethined import image_io, pipeline

    tracer = spans.Tracer() if args.trace else None
    model_path = args.inputs / "model.rthd"
    missing = []
    if tracer is not None:
        tracer.group = "setup"
        with spans.patched(tracer, spans.SETUP_SPANS) as missing_setup:
            model = pipeline.fuse_pipeline_model(pipeline.load_model(model_path))
        missing += missing_setup
    else:
        model = pipeline.fuse_pipeline_model(pipeline.load_model(model_path))
    config = pipeline.PipelineConfig()
    pairs = [Pair(args.inputs, i) for i in range(args.pairs)]

    def request(pair: Pair):
        t0 = time.perf_counter()
        image = image_io.read_image(pair.image)
        mask = image_io.read_mask(pair.mask)
        out = pipeline.run_pipeline(config, model, image * (1.0 - mask), mask)
        image_io.write_image(out, pair.out)
        return (time.perf_counter() - t0) * 1e3, out

    _, warm_out = request(pairs[0])
    setup_ms = (time.perf_counter() - t_setup) * 1e3
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import numpy as np

    attempted, errors, psnr = 0, [], {}

    def serve(pair: Pair, index: int):
        """One checked request; returns its latency in ms, or None if it failed."""
        nonlocal attempted
        attempted += 1
        try:
            ms, out = request(pair)
            problems = check_output(out, pair, psnr, index)
        except Exception as exc:  # a failing request is counted, the run goes on
            errors.append(f"pair {index}: {type(exc).__name__}: {exc}")
            return None
        if problems:
            errors.append(f"pair {index}: " + "; ".join(problems))
            return None
        return ms

    corrupted = []

    def phase(seconds: float, trace: bool):
        """Closed loop for `seconds`, and at least once over every pair."""
        latencies = {}
        deadline = time.perf_counter() + seconds
        k = 0
        while k < len(pairs) or time.perf_counter() < deadline:
            if trace:
                tracer.group = k
            ms = serve(pairs[k % len(pairs)], k % len(pairs))
            if ms is not None:
                latencies[k] = ms
                kept = tracer.kept.pop("patches.tokenize_mask", None) if trace else None
                if kept is not None:
                    corrupted.append(float(kept.mean()))
            k += 1
        return latencies

    # the warm-up output is checked like any other, after set-up is timed
    attempted += 1
    problems = check_output(warm_out, pairs[0], psnr, 0)
    if problems:
        errors.append("warm-up: " + "; ".join(problems))
    first_sha256 = hashlib.sha256(np.ascontiguousarray(warm_out, "<f4").tobytes()).hexdigest()
    del warm_out

    result = {"setup_ms": setup_ms, "blas_threads": blas_threads()}
    if tracer is None:
        latencies = phase(args.seconds, trace=False)
    else:
        # untraced first, for the tracing overhead, then the same load traced
        latencies = phase(args.seconds / 2, trace=False)
        with spans.patched(tracer, spans.REQUEST_SPANS) as missing_request:
            traced = phase(args.seconds / 2, trace=True)
        missing += missing_request
        per_layer = spans.span_metrics(tracer, traced, setup_ms)
        known = [p.source()[1] for p in pairs]
        per_layer["masks.coverage"] = (1.0 - float(np.mean(known)), "share")
        per_layer["patches.tokenize_mask.corrupted_share"] = (
            float(np.mean(corrupted)) if corrupted else 0.0, "share")
        h, w = known[0].shape
        try:
            from rethined.bench import flop_estimates
            flops = float(flop_estimates(config, h, w)["total"])
        except ImportError:
            flops = 0.0
            missing.append("bench.flop_estimates")
        per_layer["bench.flop_estimates.total"] = (flops, "flop")
        result["traced_ms"] = list(traced.values())
        result["per_layer"] = per_layer
        result["missing_spans"] = missing
    result.update({
        "latencies_ms": list(latencies.values()),
        "attempted": attempted,
        "errors": errors,
        "psnr_db": [psnr[i] for i in sorted(psnr)],
        "pairs_checked": len(psnr),
        "first_output_sha256": first_sha256,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rethined_version": rethined.__version__,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
