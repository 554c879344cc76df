"""Free-form mask generation: random-walk brush strokes rejected until the
corrupted fraction lands in the 30-50% coverage band.

Masks are binary [1, H, W] tensors with 1 marking a corrupted pixel, fully
deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .tensor_ops import DTYPE


BRUSH_RADIUS = (8, 40)      # at 256x256, scaled by min(H, W)/256
WALK_LENGTH = (4, 12)       # segments per stroke
ANGLE_JITTER = 0.8          # radians a segment turns at most
MAX_ATTEMPTS = 64


class MaskCoverageError(RuntimeError):
    """Raised when no attempt reaches the target coverage band."""


@dataclass(frozen=True)
class MaskSpec:
    seed: int = 0
    num_strokes: Tuple[int, int] = (1, 6)
    target_coverage: Tuple[float, float] = (0.30, 0.50)


def mask_coverage(mask: np.ndarray) -> float:
    return float(mask.mean())


def _stamp_disc(grid: np.ndarray, cy: float, cx: float, radius: int) -> None:
    h, w = grid.shape
    icy, icx = int(round(cy)), int(round(cx))
    y0, y1 = max(icy - radius, 0), min(icy + radius + 1, h)
    x0, x1 = max(icx - radius, 0), min(icx + radius + 1, w)
    if y0 >= y1 or x0 >= x1:
        return
    yy = np.arange(y0, y1) - icy
    xx = np.arange(x0, x1) - icx
    disc = (yy * yy)[:, None] + (xx * xx)[None, :] <= radius * radius
    grid[y0:y1, x0:x1] |= disc


def _draw_stroke(grid: np.ndarray, rng: np.random.Generator, rmin: int, rmax: int) -> None:
    h, w = grid.shape
    radius = int(rng.integers(rmin, rmax + 1))
    y = rng.uniform(0, h)
    x = rng.uniform(0, w)
    theta = rng.uniform(0, 2 * np.pi)
    segments = int(rng.integers(WALK_LENGTH[0], WALK_LENGTH[1] + 1))
    _stamp_disc(grid, y, x, radius)
    for _ in range(segments):
        theta += rng.uniform(-ANGLE_JITTER, ANGLE_JITTER)
        length = rng.uniform(1.0, 2.0) * radius
        steps = max(int(length / max(radius * 0.5, 1.0)), 1)
        dy = np.sin(theta) * length / steps
        dx = np.cos(theta) * length / steps
        for _ in range(steps):
            y = min(max(y + dy, 0.0), h - 1.0)
            x = min(max(x + dx, 0.0), w - 1.0)
            _stamp_disc(grid, y, x, radius)


def generate_mask(spec: MaskSpec, h: int, w: int) -> np.ndarray:
    """Deterministically draw brush strokes until coverage enters the target
    band; overshoot retries with a fresh sub-seed, up to the attempt budget."""
    if h < 64 or w < 64:
        raise ValueError("mask extents must be at least 64 pixels")
    if spec.seed < 0:
        raise ValueError("seed must be a non-negative integer")
    lo, hi = spec.target_coverage
    scale = min(h, w) / 256.0
    rmin = max(int(round(BRUSH_RADIUS[0] * scale)), 2)
    rmax = max(int(round(BRUSH_RADIUS[1] * scale)), rmin)

    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng([spec.seed, attempt])
        grid = np.zeros((h, w), dtype=bool)
        planned = int(rng.integers(spec.num_strokes[0], spec.num_strokes[1] + 1))
        drawn = 0
        overshoot = False
        while True:
            _draw_stroke(grid, rng, rmin, rmax)
            drawn += 1
            cov = grid.mean()
            if cov > hi:
                overshoot = True
                break
            if cov >= lo and drawn >= min(planned, 64):
                break
            if drawn >= 64:
                break
        if not overshoot and lo <= grid.mean() <= hi:
            return grid[None].astype(DTYPE)
    raise MaskCoverageError(
        f"could not reach coverage [{lo}, {hi}] at {h}x{w} within "
        f"{MAX_ATTEMPTS} attempts (seed {spec.seed})"
    )
