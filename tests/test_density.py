import math

import numpy as np
import pytest
from conftest import make_sampled

from pushfold import (
    DegenerateInputError,
    SinPlusTwo,
    TableDensity,
    Uniform,
    analytic_derivative,
    build_density_spec,
    build_layer_table,
    build_unfolded,
    curve_mass,
    detect_extrema,
    pushforward_density,
    index_set,
    simpson_integral,
    u_of_y,
)
from pushfold.unfold import eta_derivative, eta_eval


def pipeline(sm, spec, **kw):
    p = detect_extrema(sm)
    t = build_layer_table(p)
    um = build_unfolded(sm, p)
    return p, t, um, pushforward_density(sm, p, t, um, spec, **kw)


class TestDensitySpec:
    def test_sin_plus_two_normalization_closed_form(self):
        spec = SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0)
        exact = 2.0 + (1.0 - math.cos(5.0)) / 5.0
        assert abs(spec.normalization - exact) < 1e-10
        assert spec.pdf(0.0) == pytest.approx(2.0 / exact, abs=1e-10)

    def test_uniform_unit_interval(self):
        spec = Uniform(alpha=0.0, beta=1.0)
        assert spec.normalization == 1.0
        assert spec.pdf(0.3) == 1.0

    def test_uniform_wide_interval(self):
        spec = Uniform(alpha=-1.0, beta=1.0)
        assert spec.pdf(0.0) == 0.5

    def test_normalized_integral_is_one(self):
        for spec in (SinPlusTwo(alpha=0.0, beta=5.0, omega=5.0),
                     Uniform(alpha=-1.0, beta=1.0),
                     TableDensity(alpha=0.0, beta=1.0,
                                  xs=np.linspace(0, 1, 11),
                                  weights=np.linspace(0.5, 1.5, 11))):
            total = simpson_integral(spec.pdf, spec.alpha, spec.beta)
            assert abs(total - 1.0) < 1e-10

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

    def test_factory(self):
        spec = build_density_spec("sin_plus_two", 0.0, 1.0, omega=5.0)
        assert isinstance(spec, SinPlusTwo)
        with pytest.raises(ValueError):
            build_density_spec("gaussian", 0.0, 1.0)


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
            assert branches == t.index_sets[curve.interval_ids[q]]
            total = 0.0
            for j in branches:
                u = u_of_y(y, j, p)
                total += float(spec.pdf(eta_eval(um, u))) * eta_derivative(um, u)
            assert total == pytest.approx(float(curve.mu_ys[q]), rel=1e-12)

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
        curve = pushforward_density(run.sm, run.part, run.table, run.um, spec,
                            gprime=analytic_derivative(map_def))
        assert curve.mass == pytest.approx(run.curve.mass, abs=0.02)
        smooth = np.abs(curve.ys - 2.5) < 0.2
        np.testing.assert_allclose(curve.mu_ys[smooth], run.curve.mu_ys[smooth],
                                   rtol=0.05)

    def test_bad_delta(self, parabola_coarse):
        with pytest.raises(ValueError):
            pipeline(parabola_coarse, Uniform(alpha=-1.0, beta=1.0), delta=-1.0)


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


class TestDegenerateDensity:
    def test_zero_normalization(self):
        with pytest.raises((DegenerateInputError, ValueError)):
            TableDensity(alpha=0.0, beta=1.0,
                         xs=np.array([0.0, 1.0]), weights=np.array([0.0, 0.0]))
