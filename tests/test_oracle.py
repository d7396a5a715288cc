import os
import time
import tracemalloc

import numpy as np
import pytest
from conftest import CONFIG_DIR, experiment_defs
from reference import bin_average, cell_cdf, logistic_cdf, simpson_integral, table_cdf

import pushfold.oracle as oracle
from pushfold import (
    DivergenceError,
    GridSpec,
    Histogram,
    InverseCdfSampler,
    McConfig,
    Oscillator,
    SinPlusTwo,
    TableDensity,
    TableMap,
    Uniform,
    build_layer_table,
    build_unfolded,
    compare,
    detect_extrema,
    eval_map,
    mc_density,
    pushforward_cdf,
    pushforward_density,
    sample_map,
)
from pushfold.cli import Experiment, main


def ks_statistic(samples, cdf):
    """Kolmogorov-Smirnov distance of samples against a CDF callable."""
    xs = np.sort(samples)
    n = len(xs)
    F = np.asarray(cdf(xs), dtype=float)
    up = np.max(np.arange(1, n + 1) / n - F)
    down = np.max(F - np.arange(0, n) / n)
    return max(up, down)


def numeric_cdf(sampler, x):
    """The numeric CDF that ``sampler`` inverts, at x."""
    return np.interp(x, sampler._xs, sampler._cdf)


# one density of each kind: uniform, sin_plus_two and table
DENSITIES = [
    Uniform(alpha=0.0, beta=1.0),
    SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0),
    TableDensity(alpha=0.0, beta=1.0, xs=np.linspace(0, 1, 33),
                 weights=1.0 + np.linspace(0, 1, 33) ** 2),
]


class TestInverseCdfSampler:
    @pytest.mark.parametrize("spec", DENSITIES, ids=lambda spec: type(spec).__name__)
    def test_inverts_the_exact_cdf(self, spec):
        sampler = InverseCdfSampler(spec, seed=0)
        exact = spec._raw_cdf(sampler._xs) / spec.normalization
        assert sampler._cdf.tobytes() == exact.tobytes()

    def test_uniform_returns_the_deviates(self):
        spec = Uniform(alpha=0.0, beta=1.0)
        sampler = InverseCdfSampler(spec, seed=31)
        xs = sampler.draw(20000)
        u = np.random.default_rng(31).random(20000)
        assert np.max(np.abs(xs - u)) < 1e-9

    def test_first_moment_matches_quadrature(self):
        spec = SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0)
        sampler = InverseCdfSampler(spec, seed=202)
        xs = sampler.draw(1_000_000)
        mean_exact = simpson_integral(lambda x: x * spec.pdf(x), 0.0, 1.0)
        se = xs.std() / np.sqrt(len(xs))
        assert abs(xs.mean() - mean_exact) < 3 * se

    def test_same_seed_same_stream(self):
        spec = SinPlusTwo(alpha=0.0, beta=5.0, omega=5.0)
        a = InverseCdfSampler(spec, seed=7).draw(1000)
        b = InverseCdfSampler(spec, seed=7).draw(1000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("a,b", [(1, 1), (1000, 4097), (32768, 1), (12345, 54321)])
    def test_split_draws_continue_the_stream(self, a, b):
        spec = SinPlusTwo(alpha=0.0, beta=5.0, omega=5.0)
        split = InverseCdfSampler(spec, seed=11)
        whole = InverseCdfSampler(spec, seed=11).draw(a + b)
        assert np.array_equal(np.concatenate([split.draw(a), split.draw(b)]), whole)

    @pytest.mark.parametrize("start", [0, 1, 4097, 32768, 1_000_003])
    @pytest.mark.parametrize("spec", DENSITIES, ids=lambda spec: type(spec).__name__)
    def test_start_skips_that_many_draws(self, spec, start):
        tail = InverseCdfSampler(spec, seed=11, start=start).draw(7)
        whole = InverseCdfSampler(spec, seed=11).draw(start + 7)
        assert np.array_equal(tail, whole[start:])

    def test_ks_all_variants(self):
        n = 1_000_000
        # the inversion reproduces its own CDF exactly, so the statistic
        # is that of the raw uniform stream; the frozen seeds avoid the
        # 1% false-alarm region of the exact null
        for k, spec in enumerate(DENSITIES):
            sampler = InverseCdfSampler(spec, seed=2000 + k)
            xs = sampler.draw(n)
            stat = ks_statistic(xs, lambda x: numeric_cdf(sampler, x))
            assert stat < 1.63 / np.sqrt(n), type(spec).__name__


class TestMcDensity:
    def test_identity_map_is_flat(self):
        tm = TableMap.from_samples([0.0, 1.0], [0.0, 1.0])
        cfg = McConfig(n_samples=1_000_000, n_bins=100, seed=8)
        hist = mc_density(tm, Uniform(alpha=0.0, beta=1.0), cfg)
        assert np.all(np.abs(hist.heights - 1.0) < 0.05)

    def test_mass_identity_is_exact(self):
        tm = TableMap.from_samples([0.0, 1.0], [0.0, 1.0])
        cfg = McConfig(n_samples=200_000, n_bins=50, seed=9)
        hist = mc_density(tm, Uniform(alpha=0.0, beta=1.0), cfg)
        widths = np.diff(hist.edges)
        # clamping bins every sample
        assert abs(float((hist.heights * widths).sum()) - 1.0) < 1e-12

    def test_parabola_tracks_analytic_density(self):
        xs = np.linspace(-1.0, 1.0, 401)
        tm = TableMap.from_samples(xs, xs ** 2)
        cfg = McConfig(n_samples=1_000_000, n_bins=200, seed=12345)
        hist = mc_density(tm, Uniform(alpha=-1.0, beta=1.0), cfg,
                          scan_grid=GridSpec(400))
        # exact bin-averaged density of 1/(2 sqrt y): (sqrt(b)-sqrt(a))/w
        lo, hi = hist.edges[:-1], hist.edges[1:]
        w = hi - lo
        exact = (np.sqrt(hi) - np.sqrt(np.maximum(lo, 0.0))) / w
        l1 = float(np.sum(np.abs(hist.heights - exact) * w))
        assert l1 < 0.05

    def test_logistic_mass_is_one(self, comparisons):
        hist = comparisons["logistic"].hist
        assert abs(float((hist.heights * np.diff(hist.edges)).sum()) - 1.0) < 1e-12

    def test_seed_determinism(self):
        tm = TableMap.from_samples([0.0, 1.0], [0.0, 1.0])
        cfg = McConfig(n_samples=100_000, n_bins=40, seed=77)
        a = mc_density(tm, Uniform(alpha=0.0, beta=1.0), cfg)
        b = mc_density(tm, Uniform(alpha=0.0, beta=1.0), cfg)
        assert np.array_equal(a.heights, b.heights)
        assert a.clamped_fraction == b.clamped_fraction

    def test_thread_count_does_not_change_results(self):
        xs = np.linspace(-1.0, 1.0, 401)
        tm = TableMap.from_samples(xs, xs ** 2)
        cfg = McConfig(n_samples=300_000, n_bins=60, seed=5)
        a = mc_density(tm, Uniform(alpha=-1.0, beta=1.0), cfg, threads=1)
        b = mc_density(tm, Uniform(alpha=-1.0, beta=1.0), cfg, threads=4)
        assert np.array_equal(a.heights, b.heights)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(n_samples=10, n_bins=20, seed=0)
        McConfig(n_samples=oracle.MAX_SAMPLES, n_bins=oracle.MAX_BINS)
        with pytest.raises(ValueError, match="n_bins must be at most 1000000, got 1000001"):
            McConfig(n_samples=oracle.MAX_SAMPLES, n_bins=oracle.MAX_BINS + 1)
        # the bin cap is checked last, so a config that fails another
        # check keeps that check's message
        with pytest.raises(ValueError, match="need n_samples >= n_bins >= 2"):
            McConfig(n_samples=10, n_bins=10**7)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            McConfig(n_samples=10**7, n_bins=10**7, seed=-1)


# the oscillator config's folding map: interior extrema put samples
# marginally outside the 400-point scan range, so clamping is exercised
STREAM_MAP = Oscillator(alpha=2.0, beta=4.0, gain=1.0, amplitude=2.0, omega=6.0, time=1.0)
STREAM_SPEC = SinPlusTwo(alpha=2.0, beta=4.0, omega=5.0)


def one_shot_histogram(map_def, spec, cfg):
    """The unstreamed oracle: every draw at once, one eval_map, one histogram."""
    scan = sample_map(map_def, GridSpec(400))
    g_min, g_max = scan.g_min, scan.g_max
    edges = np.linspace(g_min, g_max, cfg.n_bins + 1)
    y = eval_map(map_def, InverseCdfSampler(spec, cfg.seed).draw(cfg.n_samples))
    counts, _ = np.histogram(np.clip(y, g_min, g_max), bins=edges)
    clamped = int((y < g_min).sum() + (y > g_max).sum())
    heights = counts / (cfg.n_samples * ((g_max - g_min) / cfg.n_bins))
    return edges, heights, clamped / cfg.n_samples


class TestStreamedMcDensity:
    @pytest.mark.parametrize("n_samples", [999, 100_003])
    @pytest.mark.parametrize("chunk", [1000, 4097, 32768])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_matches_the_one_shot_reference(self, monkeypatch, n_samples, chunk, threads):
        cfg = McConfig(n_samples=n_samples, n_bins=60, seed=21)
        edges, heights, clamped_fraction = one_shot_histogram(STREAM_MAP, STREAM_SPEC, cfg)
        assert clamped_fraction > 0.0
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        hist = mc_density(STREAM_MAP, STREAM_SPEC, cfg, threads=threads)
        assert np.array_equal(hist.edges, edges)
        assert np.array_equal(hist.heights, heights)
        assert hist.clamped_fraction == clamped_fraction

    def test_memory_does_not_grow_with_the_sample_count(self, monkeypatch):
        # The map sleeps 20 ms per chunk, longer than a draw, as the
        # random-ODE maps do; a scheduler that drew ahead of the workers
        # would then pile up drawn chunks.
        def slow_map(map_def, x):
            time.sleep(0.02)
            return eval_map(map_def, x)

        monkeypatch.setattr(oracle, "eval_map", slow_map)
        # Counted in chunk arrays of _CHUNK float64.  Each worker holds
        # its own chunk (while drawing, the uniform deviates and their
        # inverse-CDF images) and three more arrays (the map's
        # temporaries, then its values, their clipped copy and the
        # histogram's sorted copy): threads + 3 * threads arrays.  The
        # pool holds no chunk outside its workers; the budget still
        # admits threads + 1 chunks drawn ahead of them and the 2 arrays
        # of one more draw, so drawing ahead within that bound passes and
        # piling up does not.  One more array covers the small objects.
        threads = 2
        arrays = (threads + 1 + threads) + 2 + 3 * threads + 1
        budget = arrays * oracle._CHUNK * 8
        for n_samples in (2 ** 18, 2 ** 22):
            cfg = McConfig(n_samples=n_samples, n_bins=50, seed=3)
            tracemalloc.start()
            try:
                mc_density(STREAM_MAP, STREAM_SPEC, cfg, threads=threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= budget, (n_samples, peak, budget)

    def test_workers_are_bounded_by_cpus_and_chunks(self, monkeypatch):
        # a stand-in pool that records its size and runs each mapped call
        # at once, so no thread is started whatever size is asked for
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(oracle, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(oracle, "_CHUNK", 1000)
        cpus = len(os.sched_getaffinity(0))
        for chunks, workers in ((1, 1), (cpus + 2, cpus)):
            cfg = McConfig(n_samples=1000 * chunks - 1, n_bins=60, seed=21)
            hist = mc_density(STREAM_MAP, STREAM_SPEC, cfg, threads=10**6)
            assert sizes.pop() == workers <= os.cpu_count()
            assert np.array_equal(hist.heights,
                                  one_shot_histogram(STREAM_MAP, STREAM_SPEC, cfg)[1])

    @pytest.mark.parametrize("threads", [0, -4])
    def test_fewer_than_one_worker_rejected(self, threads):
        cfg = McConfig(n_samples=100, n_bins=5, seed=3)
        with pytest.raises(ValueError, match=f"at least one worker thread, got {threads}"):
            mc_density(STREAM_MAP, STREAM_SPEC, cfg, threads=threads)

    def test_divergence_in_a_worker_chunk_exits_4(self, tmp_path, capsys, monkeypatch):
        # every chunk diverges at t = its first sample; the error must
        # come from the first chunk of the stream
        def diverge(map_def, x):
            raise DivergenceError(float(x[0]))

        cfg = CONFIG_DIR / "oscillator.cfg"
        exp = Experiment(str(cfg))
        first = InverseCdfSampler(exp.density, exp.mc.seed).draw(1)[0]
        monkeypatch.setattr(oracle, "_CHUNK", 1000)
        monkeypatch.setattr(oracle, "eval_map", diverge)
        assert main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--threads", "3"]) == 4
        err = capsys.readouterr().err
        assert f"numerical failure: state became non-finite at t={first:g}" in err
        assert not (tmp_path / "o" / "hist.csv").exists()


class TestCompare:
    # a constant density on [0, 2] has the CDF value * y at the edges

    @staticmethod
    def constant_hist(lo, hi, value, bins=20):
        edges = np.linspace(lo, hi, bins + 1)
        return Histogram(edges=edges, heights=np.full(bins, value), clamped_fraction=0.0)

    def test_identical_constants_have_zero_distance(self):
        hist = self.constant_hist(0.0, 2.0, 0.5)
        m = compare(0.5 * hist.edges, hist)
        assert m.l1 == 0.0 and m.sup == 0.0

    def test_offset_constants(self):
        hist = self.constant_hist(0.0, 2.0, 0.5)
        m = compare(0.75 * hist.edges, hist)
        assert m.l1 == pytest.approx(0.5, abs=1e-12)
        assert m.sup == pytest.approx(0.25, abs=1e-12)

    def test_every_config_is_within_monte_carlo_noise(self, comparisons):
        # 10^6 samples read 0.0114-0.0154 against the exact bin masses;
        # the midpoint curve's bin averages read 0.0223-0.0346
        for name, run in comparisons.items():
            assert run.metrics.l1 < 0.018, (name, run.metrics.l1)

    def test_parabola_pipeline_vs_histogram(self, comparisons):
        assert comparisons["parabola"].metrics.l1 < 0.05

    def test_duffing_pipeline_vs_histogram(self, comparisons):
        assert comparisons["duffing"].metrics.l1 < 0.08


class TestCostClaim:
    """The paper's case for FDF: a few hundred map evaluations give a
    smaller error than 10^6 Monte Carlo samples (ROADMAP item 9)."""

    @staticmethod
    def bin_masses(cdf):
        """Bin masses from a CDF at the edges; the boundary bins take the
        tails, as mc_density clamps them in."""
        return np.diff(np.concatenate([[0.0], cdf[1:-1], [1.0]]))

    @staticmethod
    def exact_cdf(name, map_def, spec, grid, edges):
        """Item 2's exact CDF for logistic and parabola; for the others the
        per-cell CDF of a 100x grid of the same map."""
        if name == "logistic":
            return logistic_cdf(map_def.rate, map_def.iterations, spec, edges)
        if name == "parabola":
            return table_cdf(map_def, spec, edges)
        return cell_cdf(sample_map(map_def, GridSpec(100 * grid.n_div)), spec, edges)

    def test_direct_at_twice_the_grid_beats_monte_carlo(self, comparisons):
        # l1 measured: Monte Carlo 8.9e-3-1.14e-2, direct 1.2e-3-3.7e-3
        # (2e-14 on the table map)
        rows = []
        for name, (map_def, spec, grid) in experiment_defs().items():
            hist = comparisons[name].hist
            exact = self.bin_masses(self.exact_cdf(name, map_def, spec, grid, hist.edges))
            sm = sample_map(map_def, GridSpec(2 * grid.n_div))
            part = detect_extrema(sm)
            direct = self.bin_masses(
                pushforward_cdf(part, build_unfolded(sm, part), spec, hist.edges))
            rows.append((name, np.abs(hist.heights * np.diff(hist.edges) - exact).sum(),
                         np.abs(direct - exact).sum(), len(sm.xs)))
        print("\nconfig      MC l1 (10^6 samples)  direct l1  map evaluations")
        for row in rows:
            print("{:<10}  {:.2e}              {:.1e}    {}".format(*row))
        for name, mc_l1, direct_l1, _ in rows:
            assert direct_l1 < 0.5 * mc_l1, (name, mc_l1, direct_l1)


class TestExactLogisticReference:
    RATE = 3.9

    @staticmethod
    def exact_histogram(edges):
        """Bin heights of the exact pushforward of the logistic3 config;
        the boundary bins take the tails, as mc_density clamps them in."""
        map_def, spec, _ = experiment_defs()["logistic"]
        cdf = logistic_cdf(map_def.rate, map_def.iterations, spec, edges)
        cdf[0], cdf[-1] = 0.0, 1.0
        return Histogram(edges=edges, heights=np.diff(cdf) / np.diff(edges),
                         clamped_fraction=0.0)

    @pytest.mark.parametrize("iterations", [1, 3, 9])
    def test_cdf_runs_from_zero_to_one(self, iterations):
        spec = SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0)
        ys = np.linspace(0.0, self.RATE / 4.0, 201)
        cdf = logistic_cdf(self.RATE, iterations, spec, ys)
        assert cdf[0] == 0.0 and cdf[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(cdf) >= 0.0)

    def test_zero_omega_is_the_uniform_cdf(self):
        ys = np.linspace(0.0, self.RATE / 4.0, 201)
        flat = logistic_cdf(self.RATE, 3, SinPlusTwo(alpha=0.2, beta=0.9, omega=0.0), ys)
        uniform = logistic_cdf(self.RATE, 3, Uniform(alpha=0.2, beta=0.9), ys)
        assert np.allclose(flat, uniform, rtol=0.0, atol=1e-15)

    def test_monte_carlo_histogram_is_within_its_noise(self, comparisons):
        # 10^6 samples put the histogram 0.0096 from the exact one in l1
        hist = comparisons["logistic"].hist
        exact = self.exact_histogram(hist.edges)
        l1 = float(np.sum(np.abs(hist.heights - exact.heights) * np.diff(hist.edges)))
        assert l1 < 0.011

    @pytest.mark.parametrize("n_div,measured", [(400, 0.0240), (4000, 0.0328)])
    def test_midpoint_curve_distance_is_pinned(self, n_div, measured):
        # l1 of the midpoint curve's bin averages against the exact
        # histogram: a finer grid does not bring the curve closer to the truth
        map_def, spec, _ = experiment_defs()["logistic"]
        sm = sample_map(map_def, GridSpec(n_div))
        part = detect_extrema(sm)
        curve = pushforward_density(part, build_layer_table(part), build_unfolded(sm, part),
                                    spec, cells=500)
        edges = np.linspace(0.0, map_def.rate / 4.0, 201)
        diff = bin_average(curve, edges) - self.exact_histogram(edges).heights
        assert np.sum(np.abs(diff) * np.diff(edges)) <= 1.1 * measured
