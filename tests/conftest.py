"""Shared fixtures: the experiment zoo and its (expensive) pipeline runs."""

import os
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from pushfold import (
    GridSpec,
    TableMap,
    build_layer_table,
    build_unfolded,
    compare,
    detect_extrema,
    pushforward_cdf,
    pushforward_density,
    mc_density,
    sample_map,
)
from pushfold.cli import Experiment

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"

MC_SEED = 12345


def make_sampled(xs, ys):
    """SampledMap straight from arrays, bypassing a map definition."""
    from pushfold import SampledMap

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return SampledMap(xs=xs, ys=ys, g_min=float(ys.min()), g_max=float(ys.max()))


def ripple_map(n_div=2000):
    """Quadratic trend with a cosine ripple: seven monotone branches on
    [1, 21], including two pairs of extrema sharing an image value."""
    xs = np.linspace(1.0, 21.0, n_div + 1)
    ys = 0.5 * (0.08 * (xs - 7.0) ** 2 - 4.0 * np.cos(xs - 7.0) + 5.0)
    return make_sampled(xs, ys)


def random_piecewise_cubic(rng, n_knots=None):
    """C1 piecewise-cubic with random Hermite data, sampled on a grid."""
    if n_knots is None:
        n_knots = rng.integers(4, 9)
    tk = np.linspace(0.0, 1.0, n_knots)
    vk = rng.normal(size=n_knots)
    sk = rng.normal(scale=3.0, size=n_knots)
    xs = np.linspace(0.0, 1.0, 201)
    seg = np.clip(np.searchsorted(tk, xs, side="right") - 1, 0, n_knots - 2)
    h = tk[seg + 1] - tk[seg]
    t = (xs - tk[seg]) / h
    h00 = 2 * t ** 3 - 3 * t ** 2 + 1
    h10 = t ** 3 - 2 * t ** 2 + t
    h01 = -2 * t ** 3 + 3 * t ** 2
    h11 = t ** 3 - t ** 2
    ys = (h00 * vk[seg] + h10 * h * sk[seg]
          + h01 * vk[seg + 1] + h11 * h * sk[seg + 1])
    return make_sampled(xs, ys)


# the reference experiments and the config file each is read from
CONFIG_NAMES = {"logistic": "logistic3", "duffing": "duffing", "pendulum": "pendulum",
                "oscillator": "oscillator", "parabola": "parabola"}


def experiments():
    """The five reference experiments, parsed from configs/ as the CLI
    parses them."""
    return {name: Experiment(str(CONFIG_DIR / f"{stem}.cfg"))
            for name, stem in CONFIG_NAMES.items()}


def experiment_defs():
    """The five reference experiments: (map, density, grid)."""
    return {name: (exp.map_def, exp.density, exp.grid)
            for name, exp in experiments().items()}


def fine_grid_maps(n_div=200_000):
    """The maps of the fine-grid benchmark, sampled at n_div."""
    defs = experiment_defs()
    return {name: sample_map(defs[name][0], GridSpec(n_div))
            for name in ("logistic", "oscillator", "parabola")}


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@dataclass
class PipelineRun:
    sm: object
    part: object
    table: object
    um: object
    curve: object
    seconds: float


@pytest.fixture(scope="session")
def pipelines():
    """Full direct-pushforward runs of all five experiments, timed."""
    out = {}
    for name, (map_def, spec, grid) in experiment_defs().items():
        t0 = time.perf_counter()
        sm = sample_map(map_def, grid)
        part = detect_extrema(sm)
        table = build_layer_table(part)
        um = build_unfolded(sm, part)
        curve = pushforward_density(part, table, um, spec)
        out[name] = PipelineRun(sm, part, table, um, curve,
                                time.perf_counter() - t0)
    return out


@dataclass
class ComparisonRun:
    hist: object
    metrics: object
    seconds: float


@pytest.fixture(scope="session")
def comparisons(pipelines):
    """Monte Carlo baselines, each run as its config's [mc] section says,
    vs the exact bin masses of each pipeline's pushforward CDF."""
    out = {}
    for name, exp in experiments().items():
        t0 = time.perf_counter()
        hist = mc_density(exp.map_def, exp.density, exp.mc, scan_grid=exp.grid,
                          threads=os.cpu_count() or 1)
        seconds = time.perf_counter() - t0
        run = pipelines[name]
        metrics = compare(pushforward_cdf(run.part, run.um, exp.density, hist.edges), hist)
        out[name] = ComparisonRun(hist, metrics, seconds)
    return out


@pytest.fixture
def parabola_coarse():
    """x^2 on [-1, 1] sampled with n_div = 4."""
    tm = TableMap.from_samples(np.linspace(-1, 1, 401),
                               np.linspace(-1, 1, 401) ** 2)
    return sample_map(tm, GridSpec(4))


@pytest.fixture
def parabola_fine():
    tm = TableMap.from_samples(np.linspace(-1, 1, 401),
                               np.linspace(-1, 1, 401) ** 2)
    return sample_map(tm, GridSpec(400))


@pytest.fixture
def identity_map():
    tm = TableMap.from_samples([0.0, 1.0], [0.0, 1.0])
    return sample_map(tm, GridSpec(4))
