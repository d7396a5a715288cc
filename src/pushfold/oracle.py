"""Monte Carlo baseline: sample the input density by inverting its exact
CDF, push the samples through the map, and estimate the output density
from a normalized histogram.  ``compare`` measures it against the exact
bin masses of the direct path's pushforward CDF.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .density import DensitySpec
from .maps import GridSpec, MapDefinition, eval_map, sample_map

CDF_GRID_POINTS = 4096
# 32768 float64 samples keep each RK4 temporary at 256 KB, so a chunk's
# working set fits a 2 MB L2; smaller chunks lose more to GIL handoffs
# between short numpy calls than they gain in cache.
_CHUNK = 32768
# 1000 times the reference configs' 10^6 samples; on an RK4 map that
# is already about an hour of pushforward on two cores
MAX_SAMPLES = 10**9
# 200 times the reference configs' bins; at MAX_SAMPLES still 1000
# samples per bin, and each bin-sized array at most 8 MB
MAX_BINS = 10**6


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings; an [mc] config section overrides these
    defaults key by key.  ``n_samples`` is at most ``MAX_SAMPLES`` and
    ``n_bins`` at most ``MAX_BINS``."""

    n_samples: int = 1_000_000
    n_bins: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n_samples > MAX_SAMPLES:
            raise ValueError(f"n_samples must be at most {MAX_SAMPLES}, "
                             f"got {self.n_samples}")
        if not self.n_samples >= self.n_bins >= 2:
            raise ValueError("need n_samples >= n_bins >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_bins > MAX_BINS:
            raise ValueError(f"n_bins must be at most {MAX_BINS}, got {self.n_bins}")


@dataclass(frozen=True, eq=False)
class Histogram:
    """Uniform-bin density estimate over the sampled map range.

    heights[i] = count_i / (n_samples * bin width); clamped_fraction is
    the share of pushforward values that fell marginally outside the
    scanned range and were clamped into the boundary bins, so every
    sample is binned.
    """

    edges: np.ndarray
    heights: np.ndarray
    clamped_fraction: float

    def __post_init__(self):
        self.edges.setflags(write=False)
        self.heights.setflags(write=False)


class InverseCdfSampler:
    """Draw from a density spec by inverting its exact CDF.

    The spec's exact CDF is taken on a uniform grid of CDF_GRID_POINTS
    points and inverted by monotone linear interpolation of uniform
    deviates; the stream is fully determined by the seed.
    Each deviate takes one PCG64 output, so ``start`` skips the stream's
    first ``start`` draws.
    """

    def __init__(self, spec: DensitySpec, seed: int, start: int = 0):
        xs = np.linspace(spec.alpha, spec.beta, CDF_GRID_POINTS)
        self._xs = xs
        self._cdf = spec._raw_cdf(xs) / spec.normalization
        self._rng = np.random.Generator(np.random.PCG64(seed).advance(start))

    def draw(self, n: int) -> np.ndarray:
        u = self._rng.random(n)
        return np.interp(u, self._cdf, self._xs)


def mc_density(
    map_def: MapDefinition,
    spec: DensitySpec,
    cfg: McConfig,
    scan_grid: GridSpec | None = None,
    threads: int = 1,
) -> Histogram:
    """Histogram density of the pushforward of cfg.n_samples draws.

    The bin range [g_min, g_max] comes from a preliminary uniform-grid
    scan of the map; values jittering marginally outside it are clamped
    into the boundary bins.  The command line scans on the experiment's
    own grid, so the bins span the range the direct path samples; other
    callers may omit ``scan_grid`` for 400 subdivisions.

    The draws are streamed: a pool of workers each draws one
    ``_CHUNK``-sized chunk from the chunk's offset in the seed's stream,
    pushes it through the map and bins it.  ``threads`` caps the workers
    (fewer than one raises ValueError); the pool runs no more of them than
    there are CPUs available to the process or chunks to push.  The pool
    is fed one window of 16 chunk offsets per worker at a time, and a
    chunk is drawn only when a worker takes it up, so memory is bounded
    by workers x chunk whatever ``n_samples`` is.  The chunks are slices
    of one random stream and the per-chunk counts are integers, so the
    histogram does not depend on the chunk size or the worker count.
    Results are read in stream order, so an error raised in a chunk (a
    ``DivergenceError`` of the integrator, say) is the one of the first
    failing chunk in stream order.
    """
    if threads < 1:
        raise ValueError(f"need at least one worker thread, got {threads}")
    scan = sample_map(map_def, scan_grid or GridSpec(400))
    g_min, g_max = scan.g_min, scan.g_max
    edges = np.linspace(g_min, g_max, cfg.n_bins + 1)

    starts = range(0, cfg.n_samples, _CHUNK)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(threads, cpus, len(starts))

    def push_and_bin(start):
        chunk = InverseCdfSampler(spec, cfg.seed, start).draw(
            min(_CHUNK, cfg.n_samples - start))
        y = np.asarray(eval_map(map_def, chunk), dtype=float)
        clamped = int((y < g_min).sum() + (y > g_max).sum())
        counts, _ = np.histogram(np.clip(y, g_min, g_max), bins=edges)
        return counts, clamped

    counts = np.zeros(cfg.n_bins, dtype=np.int64)
    clamped = 0
    # within a window a faster worker takes more chunks, and only the last
    # ones wait for the slowest; 1 or 4 chunks per worker made pendulum at
    # 10^6 samples ~5% slower on 2 vCPUs.  Beside the workers' chunks, a
    # window holds its futures and the bin counts of chunks done early.
    window = 16 * workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for first in range(0, len(starts), window):
            for c, cl in pool.map(push_and_bin, starts[first:first + window]):
                counts += c
                clamped += cl

    width = (g_max - g_min) / cfg.n_bins
    heights = counts / (cfg.n_samples * width)
    return Histogram(
        edges=edges,
        heights=heights,
        clamped_fraction=float(clamped / cfg.n_samples),
    )


@dataclass(frozen=True)
class ComparisonMetrics:
    l1: float
    sup: float


def compare(cdf_at_edges, hist: Histogram) -> ComparisonMetrics:
    """Distance of the histogram from the exact one, diff(F_Y) / widths,
    with F_Y given at its edges: l1 is the width-weighted sum of the
    absolute differences, sup their maximum."""
    widths = np.diff(hist.edges)
    diff = np.abs(np.diff(cdf_at_edges) / widths - hist.heights)
    return ComparisonMetrics(l1=float((diff * widths).sum()), sup=float(diff.max()))
