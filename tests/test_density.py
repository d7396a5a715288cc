import functools
import math

import numpy as np
import pytest
from conftest import (
    experiment_defs,
    make_sampled,
    random_piecewise_cubic,
    ripple_map,
    traced_peak,
)
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from reference import (
    cell_cdf,
    cell_density,
    curve_mass,
    index_set,
    index_sets,
    input_cdf,
    logistic_cdf,
    offset_cdf,
    simpson_integral,
    table_cdf,
)

from pushfold import density
from pushfold import (
    DENSITY_KINDS,
    MAP_KINDS,
    DegenerateInputError,
    DensitySpec,
    GridSpec,
    Logistic,
    MapDefinition,
    SinPlusTwo,
    TableConstructionError,
    TableDensity,
    TableMap,
    UnfoldError,
    Uniform,
    build_layer_table,
    build_unfolded,
    detect_extrema,
    layer_membership,
    pushforward_cdf,
    pushforward_density,
    sample_map,
    transition_check,
    u_of_y,
)
from pushfold.unfold import eta_derivative, eta_eval


def pipeline(sm, spec, **kw):
    p = detect_extrema(sm)
    t = build_layer_table(p)
    um = build_unfolded(sm, p)
    return p, t, um, pushforward_density(p, t, um, spec, **kw)


class TestDensitySpec:
    def test_sin_plus_two_normalization_closed_form(self):
        spec = SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0)
        exact = 2.0 + (1.0 - math.cos(5.0)) / 5.0
        assert abs(spec.normalization - exact) < 1e-10
        assert spec.pdf(0.0) == pytest.approx(2.0 / exact, abs=1e-10)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (2.0, 4.0), (0.0, 5.0), (-1.0, 1.99)])
    @pytest.mark.parametrize("omega", [0.5, 5.0, 40.0, -3.0])
    def test_sin_plus_two_normalization_is_exact(self, alpha, beta, omega):
        spec = SinPlusTwo(alpha=alpha, beta=beta, omega=omega)
        exact = 2.0 * (beta - alpha) + (math.cos(omega * alpha) - math.cos(omega * beta)) / omega
        assert spec.normalization == pytest.approx(exact, rel=1e-14)

    def test_sin_plus_two_without_oscillation(self):
        assert SinPlusTwo(alpha=-1.0, beta=2.0, omega=0.0).normalization == 6.0

    def test_uniform_unit_interval(self):
        spec = Uniform(alpha=0.0, beta=1.0)
        assert spec.normalization == 1.0
        assert spec.pdf(0.3) == 1.0

    def test_uniform_wide_interval(self):
        spec = Uniform(alpha=-1.0, beta=1.0)
        assert spec.pdf(0.0) == 0.5
        assert Uniform(alpha=0.1, beta=0.7).normalization == 0.7 - 0.1

    def test_normalized_integral_is_one(self):
        for spec in (SinPlusTwo(alpha=0.0, beta=5.0, omega=5.0),
                     Uniform(alpha=-1.0, beta=1.0),
                     TableDensity(alpha=0.0, beta=1.0,
                                  xs=np.linspace(0, 1, 11),
                                  weights=np.linspace(0.5, 1.5, 11))):
            total = simpson_integral(spec.pdf, spec.alpha, spec.beta)
            assert abs(total - 1.0) < 1e-10

    def test_table_normalization_is_the_exact_trapezoid(self):
        # a 2e-5-wide spike between Simpson nodes, and a tent on a domain
        # other than [0, 1]
        spike = TableDensity(alpha=0.0, beta=1.0,
                             xs=np.array([0.0, 0.49999, 0.5, 0.50001, 1.0]),
                             weights=np.array([0.01, 0.01, 1.0, 0.01, 0.01]))
        assert spike.normalization == pytest.approx(0.0100099, rel=1e-12)
        tent = TableDensity(alpha=0.25, beta=0.75, xs=np.array([0.25, 0.5, 0.75]),
                            weights=np.array([1.0, 2.0, 1.0]))
        assert tent.normalization == pytest.approx(0.75, rel=1e-15)

    @pytest.mark.parametrize("spec", [
        Uniform(alpha=-1.0, beta=1.0), Uniform(alpha=0.1, beta=0.7),
        SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0), SinPlusTwo(alpha=2.0, beta=4.0, omega=-3.0),
        SinPlusTwo(alpha=0.0, beta=5.0, omega=40.0), SinPlusTwo(alpha=-1.0, beta=2.0, omega=0.0),
    ])
    def test_raw_cdf_is_the_closed_form(self, spec):
        xs = np.linspace(spec.alpha, spec.beta, 101)
        assert spec._raw_cdf(spec.alpha) == 0.0
        assert np.allclose(spec._raw_cdf(xs) / spec.normalization, input_cdf(spec, xs),
                           rtol=0.0, atol=1e-14)

    def test_table_raw_cdf_is_the_fine_trapezoid(self):
        # kinks between the x of the fine grid
        spec = TableDensity(alpha=0.0, beta=1.4,
                            xs=np.array([0.0, 0.13, 0.5, 0.77, 1.0, 1.4]),
                            weights=np.array([0.2, 1.5, 0.1, 2.0, 0.7, 3.0]))
        fine = np.linspace(spec.alpha, spec.beta, 180_001)
        w = spec._raw(fine)
        trapezoid = np.append(0.0, np.cumsum(np.diff(fine) * (w[:-1] + w[1:]) / 2.0))
        assert spec._raw_cdf(spec.alpha) == 0.0
        assert np.allclose(spec._raw_cdf(fine[::1000]), trapezoid[::1000], rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("spec", [
        Uniform(alpha=0.1, beta=0.7), SinPlusTwo(alpha=0.0, beta=5.0, omega=5.0),
        SinPlusTwo(alpha=-1.0, beta=2.0, omega=0.0),
        TableDensity(alpha=0.0, beta=1.0, xs=np.linspace(0, 1, 33),
                     weights=1.0 + np.linspace(0, 1, 33) ** 2),
    ], ids=lambda spec: type(spec).__name__)
    def test_normalization_is_the_raw_cdf_at_beta(self, spec):
        assert spec.normalization == spec._raw_cdf(spec.beta)

    def test_table_raw_cdf_does_not_rebuild_the_knots(self):
        # F_Y calls _raw_cdf once per branch, so the knots and their
        # trapezoid sums are built once, not per call
        xs = np.linspace(0.0, 1.0, 100_000)
        spec = TableDensity(alpha=0.0, beta=1.0, xs=xs, weights=1.0 + xs ** 2)
        value, peak = traced_peak(spec._raw_cdf, 0.3)
        assert value == pytest.approx(0.3 + 0.3 ** 3 / 3.0, abs=1e-9)
        assert peak < xs.nbytes, peak

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            TableDensity(alpha=0.0, beta=1.0,
                         xs=np.array([0.0, 1.0]), weights=np.array([1.0, -0.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_table_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TableDensity(alpha=0.0, beta=1.0,
                         xs=np.array([0.0, 0.5, 1.0]),
                         weights=np.array([1.0, bad, 1.0]))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            TableDensity(alpha=0.0, beta=1.0,
                         xs=np.array([0.0, 1.0]), weights=np.array([0.0, 0.0]))

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, 1.0)])
    def test_empty_domain_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match=r"need alpha < beta, got \["):
            Uniform(alpha=alpha, beta=beta)

    def test_table_columns_must_match(self):
        with pytest.raises(ValueError, match="matching x and value columns"):
            TableDensity(alpha=0.0, beta=1.0,
                         xs=np.array([0.0, 0.5, 1.0]), weights=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("lo,hi", [(0.2, 0.8), (-0.5, 1.5), (0.0, 0.9), (0.1, 1.0)])
    @pytest.mark.parametrize("kind", [TableMap, TableDensity], ids=lambda kind: kind.__name__)
    def test_table_must_span_the_domain(self, kind, lo, hi):
        # a density table narrower than its domain has no weights past its ends
        with pytest.raises(ValueError,
                           match=rf"table spans \[{lo:g}, {hi:g}\] but the domain is \[0, 1\]"):
            kind(0.0, 1.0, np.linspace(lo, hi, 11), np.ones(11))

    def test_table_x_must_increase(self):
        with pytest.raises(ValueError, match="x values must be strictly increasing"):
            TableDensity(alpha=0.0, beta=1.0,
                         xs=np.array([0.0, 0.5, 0.5, 1.0]), weights=np.ones(4))

    def test_kind_tables_name_every_class(self):
        def leaves(cls):
            subs = cls.__subclasses__()
            return set().union(*map(leaves, subs)) if subs else {cls}

        assert set(DENSITY_KINDS.values()) == leaves(DensitySpec)
        assert set(MAP_KINDS.values()) == leaves(MapDefinition)
        assert len(set(DENSITY_KINDS.values())) == len(DENSITY_KINDS)
        assert len(set(MAP_KINDS.values())) == len(MAP_KINDS)


class TestFdfDensity:
    def test_linear_map_is_flat(self):
        xs = np.linspace(0.0, 1.0, 101)
        sm = make_sampled(xs, 2.0 * xs)
        _, _, _, curve = pipeline(sm, Uniform(alpha=0.0, beta=1.0))
        assert np.all(curve.mu_ys == 0.5)
        assert curve_mass(curve) == pytest.approx(1.0, abs=1e-12)

    def test_parabola_matches_change_of_variables(self, parabola_fine):
        # analytic density of x^2 under uniform input: 1/(2 sqrt(y))
        _, _, _, curve = pipeline(parabola_fine, Uniform(alpha=-1.0, beta=1.0))
        target = 0.25
        q = int(np.argmin(np.abs(curve.ys - target)))
        y = curve.ys[q]
        assert abs(curve.mu_ys[q] - 1.0 / (2.0 * math.sqrt(y))) < 0.02 / (2.0 * math.sqrt(y))

    def test_parabola_mass(self, parabola_fine):
        _, _, _, curve = pipeline(parabola_fine, Uniform(alpha=-1.0, beta=1.0))
        assert 0.97 <= curve.mass <= 1.03

    def test_logistic_mass(self, pipelines):
        assert 0.98 <= pipelines["logistic"].curve.mass <= 1.02

    def test_nonnegative_everywhere(self, pipelines):
        for run in pipelines.values():
            assert np.all(run.curve.mu_ys >= 0.0)

    def test_no_point_on_an_edge(self, pipelines):
        for run in pipelines.values():
            curve = run.curve
            assert not np.isin(curve.ys, curve.edges).any()
            assert np.all(np.diff(curve.ys) > 0)

    def test_summands_match_index_set(self, pipelines):
        # recompute a few points by explicit branch summation
        run = pipelines["oscillator"]
        p, t, um, curve = run.part, run.table, run.um, run.curve
        spec = SinPlusTwo(alpha=2.0, beta=4.0, omega=5.0)
        rng = np.random.default_rng(5)
        for q in rng.integers(0, len(curve.ys), size=12):
            y = float(curve.ys[q])
            branches = index_set(y, t, p)
            assert branches == index_sets(t)[curve.interval_ids[q]]
            total = 0.0
            for j in branches:
                u = u_of_y(y, j, p)
                total += float(spec.pdf(eta_eval(um, u))) * eta_derivative(um, u)
            assert total == pytest.approx(float(curve.mu_ys[q]), rel=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 12: cells next to a critical value collapsed by "
               "value_tol evaluate covering branches past their image; 36 of "
               "313292 (cell, branch) pairs here, none at 500 cells")
    def test_every_summand_lies_inside_its_branch_image(self):
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=7)
        p, t, _, curve = pipeline(sample_map(m, GridSpec(20_000)),
                                  SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0), cells=5000)
        cell, j = np.nonzero(t.covering[curve.interval_ids])
        outside = ~layer_membership(curve.ys[cell], j + 1, p)
        assert not outside.any(), f"{outside.sum()} of {len(cell)} pairs past their image"

    def test_monotone_map_reduces_to_single_branch_formula(self):
        # strictly increasing map: direct change of variables applies
        xs = np.linspace(0.0, 1.0, 101)
        sm = make_sampled(xs, 2.0 * xs)
        spec = SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0)
        _, _, _, curve = pipeline(sm, spec)
        direct = spec.pdf(curve.ys / 2.0) * 0.5
        np.testing.assert_allclose(curve.mu_ys, direct, rtol=1e-6)

    def test_cells_scale_with_interval_length(self, pipelines):
        run = pipelines["duffing"]
        curve = run.curve
        widths = np.diff(curve.edges)
        counts = np.bincount(curve.interval_ids)
        for w, c in zip(widths, counts):
            assert c == max(1, round(w / curve.delta))

    def test_analytic_jacobian_agrees(self, pipelines):
        run = pipelines["oscillator"]
        spec = SinPlusTwo(alpha=2.0, beta=4.0, omega=5.0)
        map_def = None
        from conftest import experiment_defs
        map_def = experiment_defs()["oscillator"][0]
        curve = pushforward_density(run.part, run.table, run.um, spec,
                                    gprime=map_def.derivative)
        assert curve.mass == pytest.approx(run.curve.mass, abs=0.02)
        smooth = np.abs(curve.ys - 2.5) < 0.2
        np.testing.assert_allclose(curve.mu_ys[smooth], run.curve.mu_ys[smooth],
                                   rtol=0.05)

    def test_zero_cells(self, parabola_coarse):
        with pytest.raises(ValueError, match="need at least one cell, got 0"):
            pipeline(parabola_coarse, Uniform(alpha=-1.0, beta=1.0), cells=0)


def reference_pushforward(p, t, um, spec, delta, gprime=None):
    """Oracle for the blocked evaluation: one eta_eval/eta_derivative
    call per (interval, branch) pair, summed branch by branch."""
    mu_out = []
    for i in range(len(t.values) - 1):
        lo, hi = t.values[i], t.values[i + 1]
        n_cells = max(1, int(round((hi - lo) / delta)))
        y = lo + (np.arange(n_cells) + 0.5) * ((hi - lo) / n_cells)
        acc = np.zeros(n_cells)
        for j in sorted(index_sets(t)[i]):
            sign = np.sign(p.lambdas[j - 1])
            u = p.masses[j - 1] + (y - p.g_alphas[j - 1]) * sign
            x = eta_eval(um, u)
            if gprime is None:
                jac = eta_derivative(um, u)
            else:
                with np.errstate(divide="ignore"):
                    jac = 1.0 / np.abs(np.asarray(gprime(x), dtype=float))
            acc += spec.pdf(x) * jac
        mu_out.append(acc)
    return np.concatenate(mu_out)


def assert_matches_reference(sm, spec, gprime=None, cells=density.DEFAULT_CELLS):
    """Blocked and per-branch evaluation agree bit for bit."""
    p, t, um, curve = pipeline(sm, spec, cells=cells, gprime=gprime)
    expected = reference_pushforward(p, t, um, spec, curve.delta, gprime)
    assert curve.mu_ys.tobytes() == expected.tobytes()
    return t, curve


def sampled_gradient(sm):
    """A dg/dx callable for maps without a closed form."""
    slope = np.gradient(sm.ys, sm.xs)
    return lambda x: np.interp(x, sm.xs, slope)


class TestBlockedPushforward:
    @pytest.mark.parametrize("jacobian", ["interpolant", "analytic"])
    @pytest.mark.parametrize("name", sorted(experiment_defs()))
    def test_reference_experiments(self, name, jacobian):
        map_def, spec, grid = experiment_defs()[name]
        sm = sample_map(map_def, grid)
        gprime = None
        if jacobian == "analytic":
            gprime = map_def.derivative or sampled_gradient(sm)
        assert_matches_reference(sm, spec, gprime)

    @pytest.mark.parametrize("jacobian", ["interpolant", "analytic"])
    @pytest.mark.parametrize("iterations", [5, 6, 7, 8, 9])
    def test_logistic_iterations(self, iterations, jacobian):
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=iterations)
        gprime = m.derivative if jacobian == "analytic" else None
        assert_matches_reference(sample_map(m, GridSpec(20000)),
                                 SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0),
                                 gprime)

    def test_ripple_and_random_cubics(self):
        sm = ripple_map()
        spec = SinPlusTwo(alpha=1.0, beta=21.0, omega=5.0)
        assert_matches_reference(sm, spec)
        assert_matches_reference(sm, spec, sampled_gradient(sm))
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(40):
            sm = random_piecewise_cubic(rng)
            spec = SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0)
            try:
                assert_matches_reference(sm, spec)
            except TableConstructionError:
                continue
            assert_matches_reference(sm, spec, sampled_gradient(sm))
            checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("iterations, n_div, cells", [
        (9, 20000, 1), (9, 20000, 37), (9, 20000, 5000),
        (3, 10211, 1), (3, 10211, 37), (3, 10211, 500), (3, 10211, 5000),
    ])
    def test_cell_counts(self, iterations, n_div, cells):
        # 288 branches give blocks of 28 cells and 8 branches of 1024:
        # few cells make a block span intervals, many make most blocks
        # end inside one; 10211 is an odd grid that straddles x = 1/2
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=iterations)
        assert_matches_reference(sample_map(m, GridSpec(n_div)),
                                 SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0), cells=cells)

    @pytest.mark.parametrize("budget", [1, 3, 5, 16, 4095])
    def test_block_boundaries(self, budget, monkeypatch):
        # logistic third iterate: 8 branches and index sets of 2, 6 and
        # 8, so small budgets give blocks of one cell, and budgets past 8
        # blocks that end inside an interval or span several
        monkeypatch.setattr(density, "PAIR_BLOCK", budget)
        calls = []
        monkeypatch.setattr(density, "eta_eval",
                            lambda um, u: calls.append(len(u)) or eta_eval(um, u))
        sm = sample_map(Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=3),
                        GridSpec(400))
        t, curve = assert_matches_reference(
            sm, SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0))
        assert [len(s) for s in index_sets(t)] == [2, 6, 8]
        k = t.covering.shape[1]
        assert k == 8
        assert len(calls) == -(-len(curve.ys) // max(1, budget // k))
        assert max(calls) <= max(budget, k)

    @pytest.mark.parametrize("cells", [500, 5000, 50000])
    def test_memory_is_bounded_by_the_block(self, cells):
        # 258 branches cover the widest interval of the ninth iterate;
        # past the output and its per-interval pieces, the temporaries
        # are a fixed number of PAIR_BLOCK-sized float arrays
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=9)
        sm = sample_map(m, GridSpec(20000))
        p = detect_extrema(sm)
        t = build_layer_table(p)
        um = build_unfolded(sm, p)
        spec = SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0)
        curve, peak = traced_peak(pushforward_density, p, t, um, spec, cells)
        output = curve.ys.nbytes + curve.mu_ys.nbytes + curve.interval_ids.nbytes
        assert peak <= 2 * output + 16 * 8 * density.PAIR_BLOCK, (peak, output)


class TestCurveMass:
    def test_constant_curve_integrates_to_one(self):
        xs = np.linspace(0.0, 1.0, 101)
        sm = make_sampled(xs, 2.0 * xs)
        _, _, _, curve = pipeline(sm, Uniform(alpha=0.0, beta=1.0))
        assert curve_mass(curve) == pytest.approx(1.0, abs=1e-12)

    def test_experiment_masses_within_band(self, pipelines):
        for name, run in pipelines.items():
            assert 0.97 <= curve_mass(run.curve) <= 1.03, name

    def test_stored_mass_matches(self, pipelines):
        for run in pipelines.values():
            assert run.curve.mass == curve_mass(run.curve)
        # the many-branches benchmark inputs, 96 to 288 branches
        for iterations in (7, 8, 9):
            m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=iterations)
            _, _, _, curve = pipeline(sample_map(m, GridSpec(20000)),
                                      SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0))
            assert curve.mass == curve_mass(curve), iterations


def cdf_cases():
    """The five reference experiments, parabola and logistic on odd grids
    that straddle their extremum, and the many-branches benchmark inputs."""
    defs = experiment_defs()
    cases = dict(defs)
    for name in ("parabola", "logistic"):
        for n_div in (401, 10211):
            cases[f"{name}-{n_div}"] = defs[name][:2] + (GridSpec(n_div),)
    spec = defs["logistic"][1]
    for iterations in (7, 8, 9):
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=iterations)
        cases[f"logistic{iterations}-20000"] = (m, spec, GridSpec(20000))
    return cases


class TestPushforwardCdf:
    @staticmethod
    def unfolded(map_def, grid):
        sm = sample_map(map_def, grid)
        p = detect_extrema(sm)
        return sm, p, build_unfolded(sm, p)

    @pytest.mark.parametrize("name", list(cdf_cases()))
    def test_runs_from_zero_to_one(self, name):
        map_def, spec, grid = cdf_cases()[name]
        sm, p, um = self.unfolded(map_def, grid)
        ys = np.linspace(sm.g_min, sm.g_max, 2001)
        cdf = pushforward_cdf(p, um, spec, ys)
        assert cdf[0] == 0.0
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(cdf) >= 0.0)

    @pytest.mark.parametrize("name", list(cdf_cases()))
    def test_equals_the_branch_direction_form_to_the_bit(self, name):
        # clipping each preimage to the branch's unfolded span is the
        # signed offset clipped to the branch image, and the preimage of
        # -inf is the branch start, so the two forms round alike
        map_def, spec, grid = cdf_cases()[name]
        sm, p, um = self.unfolded(map_def, grid)
        width = sm.g_max - sm.g_min
        for ys in (np.linspace(sm.g_min - 0.1 * width, sm.g_max + 0.1 * width, 2001),
                   p.g_alphas, np.array([sm.g_min]), np.array([sm.g_max])):
            assert (pushforward_cdf(p, um, spec, ys).tobytes()
                    == offset_cdf(p, um, spec, ys).tobytes())
        y = 0.5 * (sm.g_min + sm.g_max)
        assert pushforward_cdf(p, um, spec, y) == offset_cdf(p, um, spec, y)

    @pytest.mark.parametrize("n_div,exact", [(400, True), (1000, False)])
    def test_table_map_on_its_own_knots_is_exact(self, n_div, exact):
        # parabola.csv has 401 knots: 400 divisions sample the map on
        # them, 1000 divisions cut its segments (3.9e-5 off)
        table_map, spec, _ = experiment_defs()["parabola"]
        sm, p, um = self.unfolded(table_map, GridSpec(n_div))
        ys = np.linspace(sm.g_min, sm.g_max, 1001)
        err = np.max(np.abs(pushforward_cdf(p, um, spec, ys) - table_cdf(table_map, spec, ys)))
        assert (err <= 1e-14) == exact, err

    @pytest.mark.parametrize("iterations,n_div,measured", [
        (3, 400, 6.58e-3), (3, 4000, 8.91e-5), (9, 20000, 2.86e-3)])
    def test_logistic_bin_masses_are_pinned(self, iterations, n_div, measured):
        # l1 of the bin masses against the exact ones, 200 bins on [0, r/4];
        # F_Y reads no index set, so it holds at 9 iterations, where the
        # 288 sampled branches fail transition_check
        spec = experiment_defs()["logistic"][1]
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=iterations)
        _, p, um = self.unfolded(m, GridSpec(n_div))
        edges = np.linspace(0.0, m.rate / 4.0, 201)
        exact = logistic_cdf(m.rate, iterations, spec, edges)
        l1 = np.sum(np.abs(np.diff(pushforward_cdf(p, um, spec, edges)) - np.diff(exact)))
        assert l1 <= 1.1 * measured
        assert transition_check(build_layer_table(p)) == (iterations == 3)


@functools.lru_cache(maxsize=None)
def cell_case(name):
    """A named F_Y case unfolded, with the samples the unfolding kept."""
    if name == "ripple":
        sm, spec = ripple_map(), SinPlusTwo(alpha=1.0, beta=21.0, omega=5.0)
    else:
        map_def, spec, grid = cdf_cases()[name]
        sm = sample_map(map_def, grid)
    return (sm, spec) + unfolded_with_kept_samples(sm)


def unfolded_with_kept_samples(sm):
    """Partition and unfolded map of sm, and sm without the samples the
    unfolding drops: on a grid that straddles an extremum the knot
    beside it goes, and F_Y is then the pushforward through the rest."""
    p = detect_extrema(sm)
    um = build_unfolded(sm, p)
    kept = np.isin(sm.xs, um.knots_x)
    return p, um, make_sampled(sm.xs[kept], sm.ys[kept])


def assert_matches_cell_cdf(sm, spec, p, um, kept, quantiles):
    """pushforward_cdf against the per-cell F_Y at the given quantiles of
    the sampled range widened by a tenth each side, 2001 points across
    it, the branch-bound images and about 2000 of the sampled values."""
    width = sm.g_max - sm.g_min
    ys = np.concatenate([sm.g_min + width * np.asarray(quantiles),
                         np.linspace(sm.g_min - 0.1 * width, sm.g_max + 0.1 * width, 2001),
                         p.g_alphas, sm.ys[::max(1, len(sm.ys) // 2000)]])
    err = np.abs(pushforward_cdf(p, um, spec, ys) - cell_cdf(kept, spec, ys))
    # each preimage is rounded to eps * S in the unfolded coordinate,
    # which moves F_Y by that much times the density: up to 1.3e-12 at
    # the sampled values beside the highest peaks of logistic 9
    tol = 1e-12 + np.finfo(float).eps * um.total_variation * cell_density(kept, spec, ys)
    worst = int(np.argmax(err - tol))
    assert err[worst] <= tol[worst], (ys[worst], err[worst], tol[worst])


QUANTILES = st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=64)


class TestCellCdf:
    """pushforward_cdf equals the partition-free per-cell F_Y."""

    @pytest.mark.parametrize("name", ["ripple"] + list(cdf_cases()))
    @settings(max_examples=20, deadline=None)
    @given(quantiles=QUANTILES)
    def test_named_maps(self, name, quantiles):
        assert_matches_cell_cdf(*cell_case(name), quantiles)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), quantiles=QUANTILES)
    def test_random_piecewise_cubics(self, seed, quantiles):
        sm = random_piecewise_cubic(np.random.default_rng(seed))
        try:
            unfolded = unfolded_with_kept_samples(sm)
        except UnfoldError:
            reject()
        assert_matches_cell_cdf(sm, SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0),
                                *unfolded, quantiles)

    def test_odd_grids_drop_a_sample_beside_the_extremum(self):
        # through the whole sampled interpolant, the cell whose knot the
        # unfolding dropped moves F_Y by O(h) just past the extremum's
        # value: 2.5e-3 and 3.0e-3 at 401
        for name in ("parabola-401", "logistic-401"):
            sm, spec, p, um, kept = cell_case(name)
            assert len(kept.xs) == len(sm.xs) - 1
            ys = np.sort(sm.ys)
            err = np.abs(pushforward_cdf(p, um, spec, ys) - cell_cdf(sm, spec, ys))
            assert 2e-3 < err.max() < 4e-3, (name, err.max())


@pytest.mark.parametrize("name", ["ripple", *experiment_defs(), "logistic7-20000",
                                  "logistic8-20000", "logistic9-20000"])
def test_curve_is_the_cell_density_at_its_points(name):
    # the exact density of the sampled interpolant, to 4.3e-11 relative
    # at 500 cells; at 5000 cells logistic 7, 8 and 9 miss it in 7, 8 and
    # 16 cells beside merged critical values (ROADMAP item 12)
    sm, spec, p, um, _ = cell_case(name)
    curve = pushforward_density(p, build_layer_table(p), um, spec)
    np.testing.assert_allclose(curve.mu_ys, cell_density(sm, spec, curve.ys), rtol=1e-9)


class TestDegenerateDensity:
    def test_zero_normalization(self):
        with pytest.raises((DegenerateInputError, ValueError)):
            TableDensity(alpha=0.0, beta=1.0,
                         xs=np.array([0.0, 1.0]), weights=np.array([0.0, 0.0]))
