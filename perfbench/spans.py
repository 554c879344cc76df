"""Span recording around calls into rethined, from outside the package.

`patched` swaps each traced function, in every rethined module namespace that
holds it, for a wrapper that records a span; the originals are restored on
exit, so untraced requests run the unwrapped code.  Each span records wall
time, its parent span and the tracemalloc peak above the level at entry.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
import tracemalloc

# Spans recorded once per set-up, not per request.
SETUP_SPANS = ("weights_io.load_tensors", "coarse.fuse_model")

# Spans recorded per request, outermost first.
REQUEST_SPANS = (
    "image_io.read_image", "image_io.read_mask", "image_io.write_image",
    "pipeline.run_pipeline",
    "pipeline.downsample_to_lr", "coarse.coarse_forward",
    "attention.npm_refine", "upscale.compose_hr",
    "patches.img2col", "patches.embed_and_condition", "patches.tokenize_mask",
    "attention.attention_scores", "attention.mask_attention",
    "attention.token_mix", "attention.coherence",
    "tensor_ops.gaussian_blur", "upscale.hr_patches", "upscale.hf_token_mix",
    "upscale.hr_pixel_shuffle", "tensor_ops.bilinear_resize",
)

# Top-level spans whose sum should cover the whole request.
TOP_LEVEL = ("image_io.read_image", "image_io.read_mask", "image_io.write_image",
             "pipeline.run_pipeline")

SPAN_VALUES = (("ms", "ms"), ("self_ms", "ms"), ("share", "share"),
               ("calls", "count"), ("peak_alloc_mb", "MB"))

# Results kept for counters read after the request, outside every span.
KEPT_RESULTS = ("patches.tokenize_mask",)

MB = 1024.0 * 1024.0


class Tracer:
    """In-memory span log; `group` labels the spans of one request or set-up."""

    def __init__(self):
        self.spans = []      # (group, span_id, parent_id, name, t0, t1, peak_bytes)
        self.kept = {}       # name -> last result, for names in KEPT_RESULTS
        self.group = None
        self._stack = []     # open frames: [span_id, cur_bytes_at_entry, peak_seen]
        self._next_id = 0

    def _enter(self):
        cur, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], peak)
        tracemalloc.reset_peak()
        frame = [self._next_id, cur, cur]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name, t0, t1):
        peak = max(frame[2], tracemalloc.get_traced_memory()[1])
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((self.group, frame[0], parent, name, t0, t1, peak - frame[1]))
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], peak)
        tracemalloc.reset_peak()

    def wrap(self, name, fn):
        keep = name in KEPT_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, name, t0, time.perf_counter())
            if keep:
                self.kept[name] = result
            return result

        return traced


def _rethined_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "rethined" or n.startswith("rethined."))]


@contextlib.contextmanager
def patched(tracer, names):
    """Trace `names` ("module.function") while the block runs.

    Yields the names that no longer exist in rethined; they report zeros, so a
    later refactor shows up in the report instead of breaking the run.
    """
    swaps, missing = [], []
    try:
        for name in names:
            mod_name, fn_name = name.split(".")
            fn = getattr(importlib.import_module(f"rethined.{mod_name}"), fn_name, None)
            if not callable(fn):
                missing.append(name)
                continue
            wrapper = tracer.wrap(name, fn)
            for module in _rethined_modules():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        swaps.append((module, attr, fn))
        tracemalloc.start()
        yield missing
    finally:
        tracemalloc.stop()
        for module, attr, fn in reversed(swaps):
            setattr(module, attr, fn)


def _per_group(spans, group):
    """name -> (total ms, self ms, calls, peak MB) over the spans of one group."""
    mine = [s for s in spans if s[0] == group]
    child_ms = {}
    for _g, _sid, parent, _n, t0, t1, _p in mine:
        if parent is not None:
            child_ms[parent] = child_ms.get(parent, 0.0) + (t1 - t0) * 1e3
    out = {}
    for _g, sid, _parent, name, t0, t1, peak in mine:
        ms = (t1 - t0) * 1e3
        tot, self_ms, calls, pk = out.get(name, (0.0, 0.0, 0, 0.0))
        out[name] = (tot + ms, self_ms + ms - child_ms.get(sid, 0.0), calls + 1,
                     max(pk, peak / MB))
    return out


def span_metrics(tracer, request_ms, setup_ms):
    """Per-layer metrics: the median over requests of each span's values.

    `request_ms` maps each request group to its wall time; set-up spans are
    reported per set-up, with their share taken of the set-up time.
    """
    metrics = {}
    per_request = [(_per_group(tracer.spans, g), ms) for g, ms in request_ms.items()]
    setup = _per_group(tracer.spans, "setup")
    for name in SETUP_SPANS + REQUEST_SPANS:
        if name in SETUP_SPANS:
            rows = [setup.get(name, (0.0, 0.0, 0, 0.0)) + (setup_ms,)]
        else:
            rows = [p.get(name, (0.0, 0.0, 0, 0.0)) + (ms,) for p, ms in per_request]
        values = {
            "ms": [r[0] for r in rows],
            "self_ms": [r[1] for r in rows],
            "share": [r[0] / r[4] for r in rows],
            "calls": [r[2] for r in rows],
            "peak_alloc_mb": [r[3] for r in rows],
        }
        for key, unit in SPAN_VALUES:
            metrics[f"{name}.{key}"] = (statistics.median(values[key]), unit)
    coverage = [sum(p.get(n, (0.0,))[0] for n in TOP_LEVEL) / ms for p, ms in per_request]
    metrics["bench.span_coverage"] = (statistics.median(coverage), "share")
    return metrics
