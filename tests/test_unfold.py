import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import (
    experiment_defs,
    fine_grid_maps,
    make_sampled,
    ripple_map,
    traced_peak,
)

from pushfold import unfold
from pushfold import (
    GridSpec,
    Logistic,
    RangeError,
    TableMap,
    UnfoldedMap,
    UnfoldError,
    build_layer_table,
    build_unfolded,
    detect_extrema,
    eta_derivative,
    eta_eval,
    pushforward_density,
    sample_map,
)


def build(sm):
    p = detect_extrema(sm)
    return p, build_unfolded(sm, p)


class TestBuildUnfolded:
    def test_identity_is_unchanged(self, identity_map):
        _, um = build(identity_map)
        assert np.array_equal(um.knots_u, identity_map.xs)
        assert um.total_variation == 1.0

    def test_parabola_closed_form(self, parabola_coarse):
        _, um = build(parabola_coarse)
        assert np.array_equal(um.knots_u, [0.0, 0.75, 1.0, 1.25, 2.0])
        assert np.array_equal(um.crease_us, [1.0])

    def test_decreasing_branch_reflects(self):
        sm = make_sampled(np.linspace(0, 1, 5), 1.0 - np.linspace(0, 1, 5))
        _, um = build(sm)
        assert np.array_equal(um.knots_u, sm.xs)
        assert um.total_variation == 1.0

    def test_top_knot_equals_total_variation_exactly(self):
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=3)
        sm = sample_map(m, GridSpec(400))
        p, um = build(sm)
        assert um.knots_u[0] == 0.0
        assert um.knots_u[-1] == p.total_variation

    def test_flat_pair_inside_branch_is_rejected(self):
        sm = make_sampled([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0])
        p = detect_extrema(sm)  # merge fuses the flat pair into one branch
        with pytest.raises(UnfoldError):
            build_unfolded(sm, p)

    @pytest.mark.parametrize("bound", [3, 4])
    def test_tie_at_an_extremum_drops_the_knot_beside_the_bound(self, bound):
        # the two middle samples tie at the maximum; whichever of them is
        # the branch bound stays a knot, the other one goes
        sm = make_sampled(np.arange(8.0), [0.0, 1.0, 2.0, 3.0, 3.0, 2.0, 1.0, 0.0])
        p = detect_extrema(sm)
        p = dataclasses.replace(p, alpha_indices=np.array([0, bound, 7]),
                                alphas=sm.xs[[0, bound, 7]])
        um = build_unfolded(sm, p)
        kept = [i for i in range(8) if i != 7 - bound]
        assert np.array_equal(um.knots_x, sm.xs[kept])
        assert np.array_equal(um.knots_u, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert np.array_equal(um.crease_us, [3.0])

    @pytest.mark.parametrize("ys", [[0, 1, 2, 3, 4, 4, 4, 3, 2, 1, 0],
                                    [4, 3, 2, 1, 0, 0, 0, 1, 2, 3, 4],
                                    [0, 1, 2, 2, 2, 1, 0, 1, 2, 3]])
    def test_plateau_at_an_extremum_is_rejected(self, ys):
        # three equal samples: Y has an atom there, not a density
        sm = make_sampled(np.linspace(0.0, 1.0, len(ys)), np.array(ys, dtype=float))
        with pytest.raises(UnfoldError):
            build(sm)

    @pytest.mark.parametrize("name", ["parabola", "logistic2", "logistic3"])
    def test_every_grid_size_runs(self, name):
        # odd grids straddle the extremum of parabola and logistic, and
        # the samples either side of it can tie
        defs = experiment_defs()
        m, spec, _ = defs["parabola" if name == "parabola" else "logistic"]
        if name == "logistic2":
            m = dataclasses.replace(m, iterations=2)
        for n_div in [*range(200, 2200), 10211]:
            sm = sample_map(m, GridSpec(n_div))
            p, um = build(sm)
            curve = pushforward_density(p, build_layer_table(p), um, spec)
            assert 0.97 <= curve.mass <= 1.03, n_div

    @pytest.mark.parametrize("knots_u", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]])
    def test_constructor_rejects_knots_not_strictly_increasing(self, knots_u):
        ku = np.asarray(knots_u)
        with pytest.raises(UnfoldError):
            UnfoldedMap(knots_u=ku, knots_x=np.arange(float(len(ku))),
                        crease_us=np.empty(0))

    def test_knots_match_the_branch_formula(self):
        # masses[j] + |g(x_i) - g at the branch start|, bit for bit
        sms = [sample_map(d[0], GridSpec(1000)) for d in experiment_defs().values()]
        for sm in sms + [ripple_map()]:
            p, um = build(sm)
            expected = np.empty_like(sm.ys)
            for j in range(p.n_branches):
                seg = slice(p.alpha_indices[j], p.alpha_indices[j + 1] + 1)
                expected[seg] = p.masses[j] + np.abs(sm.ys[seg] - p.g_alphas[j])
            assert um.knots_u.tobytes() == expected.tobytes()

    def test_peak_is_the_output_and_at_most_a_tenth_of_a_megabyte(self):
        for name, sm in fine_grid_maps().items():
            p = detect_extrema(sm)
            um, peak = traced_peak(build_unfolded, sm, p)
            assert peak <= um.knots_u.nbytes + 100_000, (name, peak)

    @pytest.mark.parametrize("bad", range(1, 10))
    def test_increase_is_checked_across_pieces(self, monkeypatch, bad):
        monkeypatch.setattr(unfold, "_CHECK_PIECE", 3)
        ku = np.arange(10.0)
        UnfoldedMap(knots_u=ku.copy(), knots_x=ku.copy(), crease_us=np.empty(0))
        ku[bad] = ku[bad - 1]
        with pytest.raises(UnfoldError):
            UnfoldedMap(knots_u=ku, knots_x=np.arange(10.0), crease_us=np.empty(0))

    def test_slope_magnitudes_match_map(self):
        # within every branch the unfolded increments are the absolute
        # map increments, up to one rounding of the branch offset
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=3)
        sm = sample_map(m, GridSpec(400))
        _, um = build(sm)
        np.testing.assert_allclose(
            np.diff(um.knots_u), np.abs(np.diff(sm.ys)), rtol=1e-12, atol=1e-15
        )


class TestEtaEval:
    def test_queries_do_not_copy_the_knots(self):
        # np.interp copies a read-only knot array on every call, so the
        # knots of a fine grid must reach it writable
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=3)
        _, um = build(sample_map(m, GridSpec(200_000)))
        u = np.linspace(0.0, um.total_variation, 100)
        tracemalloc.start()
        try:
            eta_eval(um, u)
            eta_derivative(um, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < um.knots_u.nbytes // 10, peak

    def test_identity(self, identity_map):
        _, um = build(identity_map)
        assert eta_eval(um, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_endpoints_exact(self, parabola_fine):
        _, um = build(parabola_fine)
        assert eta_eval(um, 0.0) == -1.0
        assert eta_eval(um, um.total_variation) == 1.0

    def test_round_trip_at_knots_exact(self):
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=3)
        sm = sample_map(m, GridSpec(400))
        _, um = build(sm)
        xs = eta_eval(um, um.knots_u)
        assert np.array_equal(xs, um.knots_x)

    def test_parabola_inverse_coarse(self, parabola_coarse):
        _, um = build(parabola_coarse)
        assert eta_eval(um, 0.75) == -0.5

    def test_parabola_inverse_fine(self, parabola_fine):
        _, um = build(parabola_fine)
        assert eta_eval(um, 0.75) == pytest.approx(-0.5, abs=1e-4)

    def test_range_error_beyond_slack(self, parabola_fine):
        _, um = build(parabola_fine)
        with pytest.raises(RangeError):
            eta_eval(um, um.total_variation * 1.001)
        with pytest.raises(RangeError):
            eta_eval(um, -0.001 * um.total_variation)

    def test_clamp_within_slack(self, parabola_fine):
        _, um = build(parabola_fine)
        s = um.total_variation
        assert eta_eval(um, s + 0.5e-12 * s) == 1.0

    def test_refinement_halves_error(self):
        # against the closed-form inverse of x^2 on [-1, 1]; the max
        # error sits in the crease-adjacent segment, where the
        # piecewise-linear scheme is first order, so doubling the grid
        # halves it (away from the crease it is second order)
        def analytic(u):
            return np.where(u <= 1.0,
                            -np.sqrt(np.maximum(1.0 - u, 0.0)),
                            np.sqrt(np.maximum(u - 1.0, 0.0)))

        errors = []
        for n_div in (100, 200, 400):
            xs = np.linspace(-1, 1, n_div + 1)
            sm = make_sampled(xs, xs ** 2)
            _, um = build(sm)
            us = np.concatenate([np.linspace(0.0, 2.0, 2001),
                                 1.0 + np.linspace(-0.03, 0.03, 6001)])
            errors.append(np.max(np.abs(eta_eval(um, us) - analytic(us))))
        assert 1.7 < errors[0] / errors[1] < 2.6
        assert 1.7 < errors[1] / errors[2] < 2.6


class TestQueryCheck:
    """The range check that eta_eval and eta_derivative share."""

    @pytest.fixture
    def um(self):
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=3)
        return build(sample_map(m, GridSpec(400)))[1]

    def test_in_range_queries_are_not_copied(self, um):
        u = np.linspace(0.0, um.total_variation, 100_000)
        checked, peak = traced_peak(unfold._checked, um, u)
        assert checked is u
        assert peak < u.nbytes // 10, peak
        # eta_eval adds only its result
        x, peak = traced_peak(eta_eval, um, u)
        assert peak < x.nbytes + u.nbytes // 10, peak
        # one query inside the slack costs eta_derivative the clipped
        # copy, which in-range queries do not make
        edge = u.copy()
        edge[-1] += 0.5 * unfold._END_SLACK * um.total_variation
        _, peak_in = traced_peak(eta_derivative, um, u)
        _, peak_edge = traced_peak(eta_derivative, um, edge)
        assert peak_edge - peak_in > 0.9 * u.nbytes, (peak_in, peak_edge)

    @pytest.mark.parametrize("fn", [eta_eval, eta_derivative])
    def test_empty_queries_give_an_empty_array(self, um, fn):
        out = fn(um, np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize("fn", [eta_eval, eta_derivative])
    def test_queries_at_the_slack_are_clipped_one_ulp_beyond_raise(self, um, fn):
        top = um.total_variation
        slack = unfold._END_SLACK * top
        for edge, end, outward in ((-slack, 0.0, -np.inf), (top + slack, top, np.inf)):
            assert fn(um, edge) == fn(um, end)
            assert np.array_equal(fn(um, np.array([0.5 * top, edge])),
                                  fn(um, np.array([0.5 * top, end])))
            with pytest.raises(RangeError):
                fn(um, np.nextafter(edge, outward))
            with pytest.raises(RangeError):
                fn(um, np.array([0.5 * top, np.nextafter(edge, outward)]))

    def test_nan_queries(self, um):
        top = um.total_variation
        mid = 0.5 * top
        assert np.isnan(eta_eval(um, np.nan))
        x = eta_eval(um, np.array([np.nan, mid]))
        assert np.isnan(x[0]) and x[1] == eta_eval(um, mid)
        assert np.isnan(eta_eval(um, np.array([np.nan, np.nan]))).all()
        # searchsorted places NaN past the top knot: the last segment
        last = eta_derivative(um, top)
        assert eta_derivative(um, np.nan) == last
        assert np.array_equal(eta_derivative(um, np.array([np.nan, mid])),
                              [last, eta_derivative(um, mid)])
        assert np.array_equal(eta_derivative(um, np.array([np.nan, np.nan])),
                              [last, last])
        # a NaN does not hide a query out of range
        for fn in (eta_eval, eta_derivative):
            with pytest.raises(RangeError):
                fn(um, np.array([np.nan, -1.0]))
            with pytest.raises(RangeError):
                fn(um, np.array([top + 1.0, np.nan]))


class TestEtaDerivative:
    def test_identity_slope(self, identity_map):
        _, um = build(identity_map)
        assert eta_derivative(um, 0.37) == 1.0

    def test_linear_map_slope(self):
        sm = make_sampled(np.linspace(0, 1, 9), 2.0 * np.linspace(0, 1, 9))
        _, um = build(sm)
        assert eta_derivative(um, 0.5) == 0.5

    def test_knot_uses_right_segment(self, parabola_coarse):
        _, um = build(parabola_coarse)
        # at u = 0.75 (a knot) the segment to the right has du = 0.25
        assert eta_derivative(um, 0.75) == 0.5 / 0.25

    def test_top_of_range_uses_last_segment(self, parabola_coarse):
        _, um = build(parabola_coarse)
        assert eta_derivative(um, 2.0) == eta_derivative(um, 1.9)

    def test_telescoping_integral(self):
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=3)
        sm = sample_map(m, GridSpec(400))
        _, um = build(sm)
        du = np.diff(um.knots_u)
        mids = um.knots_u[:-1] + 0.5 * du
        integral = float(np.sum(eta_derivative(um, mids) * du))
        assert abs(integral - 1.0) < 1e-9

    def test_slope_tracks_inverse_gradient_near_crease(self, parabola_fine):
        # approach the fold at u = 1 on a log-spaced ladder; interpolant
        # slope must match 1/|2x| at x = eta(u) within 10%
        _, um = build(parabola_fine)
        offsets = np.logspace(-3, -0.5, 12)
        us = 1.0 + offsets
        slopes = eta_derivative(um, us)
        xs = eta_eval(um, us)
        analytic = 1.0 / np.abs(2.0 * xs)
        assert np.max(np.abs(slopes - analytic) / analytic) < 0.10

    def test_slope_grows_with_refinement_at_crease(self):
        tm = TableMap.from_samples(np.linspace(-1, 1, 1601),
                                   np.linspace(-1, 1, 1601) ** 2)
        slopes = []
        for n_div in (100, 200, 400):
            sm = sample_map(tm, GridSpec(n_div))
            _, um = build(sm)
            slopes.append(eta_derivative(um, 1.0))
        assert slopes[0] < slopes[1] < slopes[2]


# The interpolant as it was written out by hand before eta_eval became
# np.interp: the reference for the knot-exactness and ulp-bound tests.
def reference_bracket(um, u):
    ua = np.atleast_1d(np.asarray(u, dtype=float))
    ua = np.clip(ua, 0.0, um.total_variation)
    idx = np.searchsorted(um.knots_u, ua, side="right") - 1
    return ua, np.clip(idx, 0, len(um.knots_u) - 2)


def reference_eta_eval(um, u):
    ua, idx = reference_bracket(um, u)
    ku, kx = um.knots_u, um.knots_x
    x = kx[idx] + (ua - ku[idx]) * (kx[idx + 1] - kx[idx]) / (ku[idx + 1] - ku[idx])
    return np.where(ua >= ku[-1], kx[-1], x)


def reference_eta_derivative(um, u):
    ua, idx = reference_bracket(um, u)
    ku, kx = um.knots_u, um.knots_x
    return (kx[idx + 1] - kx[idx]) / (ku[idx + 1] - ku[idx])


def _unfolded_cases():
    cases = {name: (lambda m=m, g=g: sample_map(m, g))
             for name, (m, _, g) in experiment_defs().items()}
    for it in (7, 8, 9):
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=it)
        cases[f"logistic-it{it}"] = lambda m=m: sample_map(m, GridSpec(20000))
    cases["ripple"] = ripple_map
    return cases


UNFOLDED_CASES = _unfolded_cases()


@pytest.fixture(scope="module", params=sorted(UNFOLDED_CASES))
def unfolded_queries(request):
    """An unfolded map and queries across its range: random points, both
    ends, the ends pushed out by the accepted 1e-12 slack, and every knot."""
    _, um = build(UNFOLDED_CASES[request.param]())
    top = um.total_variation
    rng = np.random.default_rng(7)
    us = np.concatenate([
        rng.uniform(0.0, top, 20000),
        [0.0, top, -1e-12 * top, top + 1e-12 * top],
        um.knots_u,
    ])
    return um, us


class TestInterpAgainstReference:
    def test_eval_exact_on_every_knot(self, unfolded_queries):
        um, _ = unfolded_queries
        assert np.array_equal(eta_eval(um, um.knots_u), um.knots_x)

    def test_eval_within_two_ulp(self, unfolded_queries):
        um, us = unfolded_queries
        x, ref = eta_eval(um, us), reference_eta_eval(um, us)
        ulp = np.spacing(np.maximum(np.abs(x), np.abs(ref)))
        assert np.all(np.abs(x - ref) <= 2 * ulp)

    def test_ends_hit_end_knots(self, unfolded_queries):
        um, _ = unfolded_queries
        top = um.total_variation
        assert eta_eval(um, -1e-12 * top) == um.knots_x[0]
        assert eta_eval(um, top + 1e-12 * top) == um.knots_x[-1]

    def test_derivative_bit_identical(self, unfolded_queries):
        um, us = unfolded_queries
        assert np.array_equal(eta_derivative(um, us),
                              reference_eta_derivative(um, us))
