"""rethined end-to-end benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload hr2048 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; it times the checkout's own src/ as it
is.  The run generates the workload's inputs from --seed (untimed), measures
set-up in fresh worker processes, then one worker serves requests in a closed
loop for --seconds and checks every output.  It prints a readable report,
keeps the full record in .bench_work/results/, and prints as its last line a
JSON object with the end-to-end metrics (--trace 0) or the per-layer split
(--trace 1).  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

MODEL_SEED = 7          # the model is fixed; only the inputs follow --seed
SETUPS = 3              # fresh processes whose set-up time gives setup_s
RUN_LIMIT_S = 170       # every worker is killed past this, so a run ends in time
P90_MIN_SAMPLES = 100   # below this, latency_p90_ms is printed as unresolved

# name -> (extent, MaskSpec overrides, input pairs); README.md says why each
WORKLOADS = {
    "hr2048": (2048, {}, 3),
    "lr256": (256, {}, 16),
    "hr1024-object": (1024, {"num_strokes": (1, 2), "target_coverage": (0.05, 0.15)}, 8),
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def synthetic_source(np, rng, size: int):
    """A smooth colour field with flat-coloured rectangles and grain, uint8 [H, W, 3]."""
    knots = 12
    t = np.linspace(0.0, knots - 1.0, size)
    lo = np.minimum(t.astype(int), knots - 2)
    interp = np.zeros((size, knots))
    interp[np.arange(size), lo] = 1.0 - (t - lo)
    interp[np.arange(size), lo + 1] = t - lo
    field = np.stack([interp @ rng.random((knots, knots)) @ interp.T for _ in range(3)], axis=-1)
    for _ in range(8):
        y0, x0 = rng.integers(0, size, 2)
        h, w = rng.integers(size // 16, size // 4, 2)
        field[y0:y0 + h, x0:x0 + w] = rng.random(3)
    field += rng.standard_normal(field.shape, dtype=np.float32) * 0.03
    return np.clip(np.rint(field * 255.0), 0, 255).astype(np.uint8)


def make_inputs(rethined, workload: str, seed: int, inputs: Path) -> None:
    """Write the model and every input pair, all determined by `seed`."""
    import numpy as np

    size, overrides, n_pairs = WORKLOADS[workload]
    config = rethined.PipelineConfig()
    rethined.save_model(rethined.random_model(config, seed=MODEL_SEED), inputs / "model.rthd")
    rng = np.random.default_rng(seed)
    for i in range(n_pairs):
        source = synthetic_source(np, rng, size)
        spec = rethined.MaskSpec(seed=int(rng.integers(2 ** 31)), **overrides)
        mask = rethined.generate_mask(spec, size, size)[0] == 1
        stem = inputs / f"pair{i}"
        stem.with_suffix(".ppm").write_bytes(
            f"P6\n{size} {size}\n255\n".encode() + source.tobytes())
        stem.with_suffix(".pgm").write_bytes(
            f"P5\n{size} {size}\n255\n".encode() + (mask * np.uint8(255)).tobytes())
        np.savez(stem.with_suffix(".npz"), source=source, mask=mask)


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "client": "one client, closed loop",
        "src_timed": "unmodified src/ of this checkout, timed from outside",
        "uses_bench_measure_stages": False,
    }


class Worker:
    """A worker process; `setup_s` runs from its spawn until it reports ready."""

    def __init__(self, args, inputs: Path, deadline: float, setup_only: bool):
        _, _, n_pairs = WORKLOADS[args.workload]
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--inputs", str(inputs), "--pairs", str(n_pairs),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if setup_only:
            cmd.append("--setup-only")
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            readable, _, _ = select.select([self.proc.stdout], [], [], self._left())
            line = self.proc.stdout.readline() if readable else ""
            self.setup_s = time.perf_counter() - t0
            if line.strip() != "ready":
                raise RuntimeError(f"worker did not become ready (exit {self.proc.poll()})")
        except BaseException:
            self.stop()
            raise

    def _left(self) -> float:
        return max(0.0, self.deadline - time.monotonic())

    def result(self):
        """Wait for the worker to exit; its last output line, parsed, if any."""
        try:
            out, _ = self.proc.communicate(timeout=self._left())
        finally:
            self.stop()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(workload: str, res: dict, setup_times) -> dict:
    size, _, _ = WORKLOADS[workload]
    lat = res["latencies_ms"]
    p50 = statistics.median(lat)
    return {
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (quantile(lat, 0.9), "ms"),
        "throughput_mpix_s": (size * size / 1e6 / (statistics.fmean(lat) / 1e3), "Mpix/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
        "psnr_db": (statistics.fmean(res["psnr_db"]) if res["psnr_db"] else 0.0, "dB"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    # a terminated run still stops its worker and removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "rethined" / "__init__.py").is_file():
        return fail(f"no rethined sources under {ROOT / 'src'}; run inside a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    rethined = worker.import_rethined(ROOT)
    inputs = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    try:
        make_inputs(rethined, args.workload, args.seed, inputs)
        setup_times = []
        for _ in range(0 if args.trace else SETUPS - 1):
            w = Worker(args, inputs, deadline, setup_only=True)
            setup_times.append(w.setup_s)
            w.result()
        w = Worker(args, inputs, deadline, setup_only=False)
        setup_times.append(w.setup_s)
        res = w.result()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    if not res["latencies_ms"] or (args.trace and not res["traced_ms"]):
        return fail("no timed request succeeded: " + "; ".join(res["errors"][:5]))
    _, _, n_pairs = WORKLOADS[args.workload]
    env = environment(args)
    env["blas_threads"] = res["blas_threads"]
    env["rethined"] = res["rethined_version"]
    metrics = end_to_end(args.workload, res, setup_times)
    failed = len(res["errors"])
    n = len(res["latencies_ms"])
    if args.trace:
        traced_p50 = statistics.median(res["traced_ms"])
        layers = {k: tuple(v) for k, v in res["per_layer"].items()}
        layers["bench.trace_overhead_ms"] = (traced_p50 - metrics["latency_p50_ms"][0], "ms")
    record = {
        "environment": env,
        "correct": failed == 0 and res["pairs_checked"] == n_pairs,
        "attempted": res["attempted"],
        "failed": failed,
        "failed_share": failed / res["attempted"],
        "errors": res["errors"][:20],
        "first_output_sha256": res["first_output_sha256"],
        "latency_samples": n,
        "latencies_ms": res["latencies_ms"],
        "latency_p90_resolved": n >= P90_MIN_SAMPLES,
        "setup_s_samples": setup_times,
        "psnr_db_per_pair": res["psnr_db"],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.trace:
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["missing_spans"] = res["missing_spans"]
        record["traced_samples"] = len(res["traced_ms"])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rethined {env['rethined']}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name.startswith("latency"):
            note = f"  (n={n} timed requests)"
            if name == "latency_p90_ms" and n < P90_MIN_SAMPLES:
                note += f"  unresolved: fewer than {P90_MIN_SAMPLES} samples"
        if name == "setup_s":
            note = f"  (median of {len(setup_times)} fresh processes)"
        print(f"  {name:<20} {value:12.4f} {unit}{note}")
    print(f"  {'failed_share':<20} {record['failed_share']:12.4f} share"
          f"  ({failed} of {res['attempted']} requests)")
    for err in record["errors"]:
        print(f"    error: {err}")
    print(f"  first_output_sha256  {record['first_output_sha256']}")
    print(f"  environment          {json.dumps(env)}")
    if args.trace:
        print(f"  per-layer split over {record['traced_samples']} traced requests:")
        for name, (value, unit) in layers.items():
            print(f"    {name:<48} {value:14.4f} {unit}")
        if record["missing_spans"]:
            print(f"  spans not found in rethined: {', '.join(record['missing_spans'])}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record               {path.relative_to(ROOT)}")

    reported = layers if args.trace else metrics
    got = {k: u for k, (_, u) in reported.items()}
    if got != wanted:
        return fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(wanted.items())}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
