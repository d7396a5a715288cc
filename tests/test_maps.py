import math

import numpy as np
import pytest
from conftest import traced_peak

from pushfold import (
    DivergenceError,
    Duffing,
    GridSpec,
    Logistic,
    Oscillator,
    Pendulum,
    TableMap,
    eval_map,
    integrate_ivp,
    sample_map,
)
from pushfold.maps import MAX_STEPS, step_count


def logistic(rate, iterations):
    return Logistic(alpha=0.0, beta=1.0, rate=rate, iterations=iterations)


def oscillator(gain, amplitude, omega, time):
    return Oscillator(alpha=0.0, beta=4.0, gain=gain, amplitude=amplitude,
                      omega=omega, time=time)


class TestLogisticIterate:
    def test_single_step_at_half(self):
        assert eval_map(logistic(3.9, 1), 0.5) == 0.975

    def test_zero_is_fixed(self):
        assert eval_map(logistic(3.9, 3), 0.0) == 0.0

    def test_rate_two_fixed_point(self):
        assert eval_map(logistic(2.0, 1), 0.5) == 0.5

    def test_matches_explicit_composition(self):
        x = 0.37
        y = 3.9 * x * (1 - x)
        y = 3.9 * y * (1 - y)
        y = 3.9 * y * (1 - y)
        assert eval_map(logistic(3.9, 3), 0.37) == y

    def test_array_matches_the_formula_and_keeps_the_input(self):
        xs = np.linspace(0.0, 1.0, 1001)
        before = xs.copy()
        y = xs
        for _ in range(3):
            y = 3.9 * y * (1.0 - y)
        assert eval_map(logistic(3.9, 3), xs).tobytes() == y.tobytes()
        assert np.array_equal(xs, before)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_state_outside_unit_interval(self, bad):
        with pytest.raises(ValueError):
            eval_map(logistic(3.9, 1), bad)
        with pytest.raises(ValueError):
            Logistic(alpha=min(bad, 0.0), beta=max(bad, 1.0), rate=3.9, iterations=1)

    def test_bad_rate_and_count(self):
        with pytest.raises(ValueError):
            logistic(4.5, 1)
        with pytest.raises(ValueError):
            logistic(3.9, 0)


class TestOscillatorMap:
    def test_phase_folding_value(self):
        # gain*x + amplitude*cos(omega*(time + x)) at the reference point
        expected = 2.0 + 2.0 * math.cos(6.0 * 3.0)
        assert eval_map(oscillator(1.0, 2.0, 6.0, 1.0), 2.0) == pytest.approx(expected, abs=1e-12)

    def test_zero_amplitude_is_linear(self):
        assert eval_map(oscillator(1.0, 0.0, 6.0, 1.0), 3.0) == 3.0

    def test_zero_phase(self):
        assert eval_map(oscillator(1.0, 2.0, 6.0, 0.0), 0.0) == 2.0

    def test_vectorized(self):
        m = oscillator(1.0, 2.0, 6.0, 1.0)
        xs = np.array([2.0, 3.0, 4.0])
        ys = eval_map(m, xs)
        assert ys.shape == xs.shape
        assert ys[0] == eval_map(m, 2.0)


class TestIntegrateIvp:
    def test_pendulum_equilibrium(self):
        sys = Pendulum(alpha=0.0, beta=2.0, t_final=18.0, step=0.09)
        y, v = integrate_ivp(sys, 0.0, 0.0, 18.0, 0.09)
        assert y == 0.0 and v == 0.0

    def test_duffing_origin_equilibrium(self):
        sys = Duffing(alpha=0.0, beta=5.0, t_final=5.0, step=5.0 / 300.0)
        y, v = integrate_ivp(sys, 0.0, 0.0, 5.0, 5.0 / 300.0)
        assert y == 0.0 and v == 0.0

    def test_duffing_energy_conservation(self):
        sys = Duffing(alpha=0.0, beta=5.0, t_final=5.0, step=5.0 / 300.0)
        y, v = integrate_ivp(sys, 0.0, 1.0, 5.0, 5.0 / 300.0)
        assert abs(0.5 * v * v + y ** 4 - 0.5) < 1e-4

    def test_energy_drift_across_speeds(self):
        # relative drift of 0.5 v^2 + y^4 stays below 1e-3 on [1, 5]
        sys = Duffing(alpha=0.0, beta=5.0, t_final=5.0, step=5.0 / 300.0)
        phis = np.linspace(1.0, 5.0, 41)
        y, v = integrate_ivp(sys, np.zeros_like(phis), phis, 5.0, 5.0 / 300.0)
        e0 = 0.5 * phis ** 2
        e1 = 0.5 * v ** 2 + y ** 4
        assert np.max(np.abs(e1 - e0) / e0) < 1e-3

    def test_non_integer_step_count_lands_on_t_final(self):
        # 1.0 / 0.3 -> 4 steps of 0.25; check against a direct 4-step run
        sys = Pendulum(alpha=0.0, beta=2.0, t_final=18.0, step=0.09)
        a = integrate_ivp(sys, 0.0, 1.0, 1.0, 0.3)
        b = integrate_ivp(sys, 0.0, 1.0, 1.0, 0.25)
        assert a == b

    @pytest.mark.parametrize("t_final,step", [(5.0, 0.0), (5.0, -0.1), (0.0, 0.1)])
    def test_non_positive_step_or_time_rejected(self, t_final, step):
        sys = Duffing(alpha=0.0, beta=5.0, t_final=5.0, step=5.0 / 300.0)
        with pytest.raises(ValueError, match="step and t_final must be positive"):
            integrate_ivp(sys, 0.0, 1.0, t_final, step)

    @pytest.mark.parametrize("kind", [Duffing, Pendulum])
    @pytest.mark.parametrize("t_final,step", [(5.0, 0.0), (5.0, -0.1), (0.0, 0.1), (-5.0, 0.1)])
    def test_second_order_needs_positive_step_and_time(self, kind, t_final, step):
        with pytest.raises(ValueError, match="step and t_final must be positive"):
            kind(alpha=0.0, beta=1.0, t_final=t_final, step=step)

    def test_step_count_rule(self):
        # exact divisions are not inflated by float noise; fractional
        # ones round the step down to fit
        assert step_count(5.0, 5.0 / 300.0) == 300
        assert step_count(18.0, 18.0 / 200.0) == 200
        assert step_count(1.0, 0.1) == 10  # 1/0.1 = 10.000000000000002
        assert step_count(1.0, 0.3) == 4
        assert step_count(0.05, 1.0) == 1

    def test_step_count_cap(self):
        assert step_count(1e6, 1.0) == MAX_STEPS == 10**6
        for t_final in (1e6 + 1.0, 1e300, np.inf, np.nan):
            with pytest.raises(ValueError, match="overflows the step count"):
                step_count(t_final, 1.0)

    def test_deterministic(self):
        sys = Pendulum(alpha=0.0, beta=2.0, t_final=18.0, step=0.09)
        runs = {integrate_ivp(sys, 0.0, 1.7, 18.0, 0.09) for _ in range(3)}
        assert len(runs) == 1

    def test_divergence_reports_time(self):
        sys = Duffing(alpha=0.0, beta=5.0, t_final=5.0, step=5.0 / 300.0)
        with pytest.raises(DivergenceError) as exc:
            integrate_ivp(sys, 0.0, 1e200, 10.0, 0.5)
        assert 0.0 < exc.value.t <= 10.0

    def test_array_matches_scalar(self):
        sys = Duffing(alpha=0.0, beta=5.0, t_final=5.0, step=5.0 / 300.0)
        ys, vs = integrate_ivp(sys, np.zeros(3), np.array([1.0, 2.0, 3.0]),
                               5.0, 5.0 / 300.0)
        y1, v1 = integrate_ivp(sys, 0.0, 2.0, 5.0, 5.0 / 300.0)
        assert ys[1] == y1 and vs[1] == v1


# The allocating RK4 loop and accelerations that integrate_ivp replaced;
# the in-place loop keeps every operation and operand order, so it must
# agree with these to the bit.
REFERENCE_ACCEL = {Duffing: lambda y: -4.0 * y * y * y,
                   Pendulum: lambda y: -np.sin(y)}


def reference_ivp(system, y0, v0, t_final, step):
    accel = REFERENCE_ACCEL[type(system)]
    scalar = np.isscalar(y0) and np.isscalar(v0)
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    v = np.atleast_1d(np.asarray(v0, dtype=float)).copy()
    n_steps = step_count(t_final, step)
    h = t_final / n_steps
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            k1y, k1v = v, accel(y)
            y2 = y + (0.5 * h) * k1y
            k2y, k2v = v + (0.5 * h) * k1v, accel(y2)
            y3 = y + (0.5 * h) * k2y
            k3y, k3v = v + (0.5 * h) * k2v, accel(y3)
            y4 = y + h * k3y
            k4y, k4v = v + h * k3v, accel(y4)
            y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if not (np.isfinite(y).all() and np.isfinite(v).all()):
                raise DivergenceError((i + 1) * h)
    if scalar:
        return float(y[0]), float(v[0])
    return y, v


DUFFING = Duffing(alpha=0.0, beta=5.0, t_final=5.0, step=5.0 / 300.0)
PENDULUM = Pendulum(alpha=0.0, beta=1.99, t_final=18.0, step=18.0 / 200.0)
REFERENCE_GRIDS = [(DUFFING, 300), (PENDULUM, 200)]


def assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert type(g) is type(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def both_ways(system, y0, v0, t_final, step):
    return (integrate_ivp(system, y0, v0, t_final, step),
            reference_ivp(system, y0, v0, t_final, step))


class TestInPlaceRk4MatchesReference:
    @pytest.mark.parametrize("system", [DUFFING, PENDULUM], ids=["duffing", "pendulum"])
    @pytest.mark.parametrize("v0", [0.0, 0.7, 1.99, 4.3])
    def test_scalar(self, system, v0):
        assert_same_bits(*both_ways(system, 0.0, v0, system.t_final, system.step))

    @pytest.mark.parametrize("system,n_div", REFERENCE_GRIDS, ids=["duffing", "pendulum"])
    def test_reference_grid(self, system, n_div):
        xs = sample_map(system, GridSpec(n_div)).xs
        assert_same_bits(*both_ways(system, np.zeros_like(xs), xs, system.t_final, system.step))

    @pytest.mark.parametrize("system", [DUFFING, PENDULUM], ids=["duffing", "pendulum"])
    def test_random_chunk(self, system):
        xs = np.random.default_rng(7).uniform(system.alpha, system.beta, 32768)
        assert_same_bits(*both_ways(system, np.zeros_like(xs), xs, system.t_final, system.step))

    @pytest.mark.parametrize("system", [DUFFING, PENDULUM], ids=["duffing", "pendulum"])
    def test_non_integer_step_count(self, system):
        xs = np.linspace(0.5, 1.5, 11)
        assert_same_bits(*both_ways(system, np.zeros_like(xs), xs, 1.0, 0.3))
        assert_same_bits(*both_ways(system, 0.0, 1.2, 1.0, 0.3))

    # (system, initial speeds, t_final, step): Duffing overflows in its
    # first step from 1e200 and after three steps from 20; the pendulum's
    # position passes the float range after 36 steps from 1e307
    @pytest.mark.parametrize("system,v0,t_final,step", [
        (DUFFING, 1e200, 10.0, 0.5),
        (DUFFING, np.array([1.0, 2.0, 20.0, 3.0]), 10.0, 0.5),
        (PENDULUM, 1e307, 30.0, 0.5),
        (PENDULUM, np.array([1.0, 1e307, 1.5]), 30.0, 0.5),
    ], ids=["duffing-scalar", "duffing-one-of-four", "pendulum-scalar",
            "pendulum-one-of-three"])
    def test_divergence_time(self, system, v0, t_final, step):
        y0 = np.zeros_like(v0) if np.ndim(v0) else 0.0
        with pytest.raises(DivergenceError) as want:
            reference_ivp(system, y0, v0, t_final, step)
        with pytest.raises(DivergenceError) as got:
            integrate_ivp(system, y0, v0, t_final, step)
        assert got.value.t == want.value.t
        if np.ndim(v0):
            assert step < got.value.t < t_final

    @pytest.mark.parametrize("system", [DUFFING, PENDULUM], ids=["duffing", "pendulum"])
    def test_accel_fills_and_returns_out(self, system):
        y = np.random.default_rng(3).uniform(-3.0, 3.0, 1000)
        y_before = y.copy()
        out = np.full_like(y, np.nan)
        assert system.accel(y, out) is out
        assert np.array_equal(y, y_before)
        assert out.tobytes() == REFERENCE_ACCEL[type(system)](y).tobytes()


class TestEvalMap:
    def test_logistic_third_iterate(self):
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=3)
        y = 0.5
        for _ in range(3):
            y = 3.9 * y * (1.0 - y)
        assert eval_map(m, 0.5) == y

    def test_oscillator(self):
        m = Oscillator(alpha=2.0, beta=4.0, gain=1.0, amplitude=2.0,
                       omega=6.0, time=1.0)
        assert eval_map(m, 2.0) == 1.0 * 2.0 + 2.0 * np.cos(6.0 * (1.0 + 2.0))

    def test_table_linear_interpolation(self):
        m = TableMap.from_samples([0.0, 1.0], [0.0, 1.0])
        assert eval_map(m, 0.5) == 0.5

    def test_outside_domain(self):
        m = TableMap.from_samples([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            eval_map(m, 1.5)

    def test_ode_variant_projects_position(self):
        m = Duffing(alpha=0.0, beta=5.0, t_final=5.0, step=5.0 / 300.0)
        y, _ = integrate_ivp(m, 0.0, 2.5, 5.0, 5.0 / 300.0)
        assert eval_map(m, 2.5) == y


class TestSampleMap:
    def test_table_identity_grid(self, identity_map):
        assert np.array_equal(identity_map.xs, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.array_equal(identity_map.ys, identity_map.xs)

    def test_grid_is_uniform_with_exact_endpoints(self):
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=3)
        sm = sample_map(m, GridSpec(400))
        assert sm.xs[0] == 0.0 and sm.xs[-1] == 1.0
        spacing = np.diff(sm.xs)
        assert np.all(np.abs(spacing - 1.0 / 400) < 1e-15)

    def test_logistic_grid_range(self):
        # The analytic supremum of the third iterate is 0.975, attained
        # at off-grid preimages of 0.5; the 401-point grid max is a
        # frozen deterministic value a few 1e-6 below it.
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=3)
        sm = sample_map(m, GridSpec(400))
        assert sm.g_min == 0.0
        assert abs(sm.g_max - 0.9749964387318727) < 1e-12
        assert 0.0 < 0.975 - sm.g_max < 5e-6

    def test_duffing_range_matches_reference(self):
        m = Duffing(alpha=0.0, beta=5.0, t_final=5.0, step=5.0 / 300.0)
        sm = sample_map(m, GridSpec(300))
        assert abs(sm.g_min - (-1.3015)) < 1e-2
        assert abs(sm.g_max - 1.6717) < 1e-2

    def test_deterministic(self):
        m = Pendulum(alpha=0.0, beta=1.99, t_final=18.0, step=0.09)
        a = sample_map(m, GridSpec(200))
        b = sample_map(m, GridSpec(200))
        assert np.array_equal(a.ys, b.ys)

    def test_names_the_first_non_finite_value(self, recwarn):
        # gain*x overflows from x = 3.6 on
        m = Oscillator(alpha=2.0, beta=4.0, gain=5e307, amplitude=2.0, omega=6.0, time=1.0)
        with pytest.raises(FloatingPointError, match=r"g\(x\) = inf is not finite at x = 3\.6$"):
            sample_map(m, GridSpec(200))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_names_an_overflowing_range(self, recwarn):
        m = TableMap.from_samples(np.linspace(0.0, 1.0, 5),
                                  [-0.8e308, 1e308, 0.95e308, 0.9e308, 0.9e308])
        with pytest.raises(FloatingPointError, match=r"^range g_max - g_min = inf is not finite$"):
            sample_map(m, GridSpec(4))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_grid_spec_minimum(self):
        with pytest.raises(ValueError):
            GridSpec(3)


class TestAnalyticDerivative:
    def test_logistic_chain_rule(self):
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=3)
        d = m.derivative
        x = 0.31
        h = 1e-7
        fd = (eval_map(m, x + h) - eval_map(m, x - h)) / (2 * h)
        assert d(x) == pytest.approx(fd, rel=1e-5)

    def test_oscillator(self):
        m = Oscillator(alpha=2.0, beta=4.0, gain=1.0, amplitude=2.0,
                       omega=6.0, time=1.0)
        d = m.derivative
        x = 2.7
        h = 1e-7
        fd = (eval_map(m, x + h) - eval_map(m, x - h)) / (2 * h)
        assert d(x) == pytest.approx(fd, rel=1e-5)

    def test_none_for_sampled_variants(self):
        duffing = Duffing(alpha=0.0, beta=5.0, t_final=5.0, step=5.0 / 300.0)
        assert duffing.derivative is None
        assert TableMap.from_samples([0, 1], [0, 1]).derivative is None


class TestTableMap:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            TableMap.from_samples([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TableMap.from_samples([0.0, 0.5, 1.0], [0.0, bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            TableMap.from_samples([0.0, bad, 1.0], [0.0, 0.5, 1.0])

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            TableMap(alpha=0.0, beta=2.0,
                     xs=np.array([0.0, 1.0]), ys=np.array([0.0, 1.0]))

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError, match="matching x/y columns"):
            TableMap.from_samples([0.0, 0.5, 1.0], [0.0, 1.0])

    def test_evaluation_does_not_copy_the_columns(self):
        # np.interp copies a read-only argument on every call, so one
        # point of a long table must cost less than one column
        xs = np.linspace(0.0, 1.0, 100_001)
        m = TableMap.from_samples(xs, xs ** 2)
        value, peak = traced_peak(eval_map, m, 0.5)
        assert value == pytest.approx(0.25)
        assert peak < m.xs.nbytes, peak
