"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Heavy pipeline and Monte Carlo runs come from the session fixtures in
conftest so each experiment is computed exactly once for the whole
suite.  Criterion 1's exact-maximum clause is asserted literally and
marked as a known failure: the sampled third-iterate maximum is a
deterministic 3.6e-6 below the analytic value because no grid point of
the 401-point grid maps onto it (see notes on the decision record).
"""

import numpy as np
import pytest
from conftest import MC_SEED, REPO_ROOT, experiment_defs, random_piecewise_cubic
from reference import index_set, index_sets, value_tol_abs

from pushfold import (
    GridSpec,
    McConfig,
    SinPlusTwo,
    TableMap,
    Uniform,
    build_layer_table,
    detect_extrema,
    eta_eval,
    pushforward_density,
    mc_density,
    sample_map,
    transition_check,
)
from pushfold.unfold import build_unfolded


def report(tag, passed, detail=""):
    print(f"[criterion {tag}] {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {tag}: {detail}"


def interior_jumps(curve, factor=5.0):
    """Interior edges where the boundary gap exceeds ``factor`` times the
    median point-to-point variation of both adjacent intervals."""
    found = []
    n_intervals = len(curve.edges) - 1
    for i in range(n_intervals - 1):
        left = curve.mu_ys[curve.interval_ids == i]
        right = curve.mu_ys[curve.interval_ids == i + 1]
        if len(left) < 3 or len(right) < 3:
            continue
        gap = abs(left[-1] - right[0])
        variation = max(np.median(np.abs(np.diff(left))),
                        np.median(np.abs(np.diff(right))))
        if gap > factor * max(variation, 1e-300):
            found.append((i + 1, gap / variation))
    return found


class TestCriterion1Logistic:
    def test_range_critical_values_runtime(self, pipelines):
        run = pipelines["logistic"]
        ok_min = abs(run.sm.g_min - 0.0) <= 1e-12
        ok_b = len(run.table.values) == 4
        ok_time = run.seconds < 1.0
        report("1 (logistic: g_min, |B|=4, runtime)",
               ok_min and ok_b and ok_time,
               f"g_min={run.sm.g_min:.2e} |B|={len(run.table.values)} "
               f"runtime={run.seconds:.3f}s")

    @pytest.mark.xfail(
        strict=True,
        reason="sampled maximum of the third iterate is 3.56e-6 below the "
               "analytic 0.975: the maximizers are the four roots of "
               "L(L(x))=1/2, none of which lies on the 401-point grid; "
               "exact equality is unattainable under exact composition",
    )
    def test_grid_maximum_exactly_three_quarters_of_rate(self, pipelines):
        run = pipelines["logistic"]
        passed = run.sm.g_max == 0.975
        print(f"[criterion 1 (logistic: g_max exact)] "
              f"{'PASS' if passed else 'FAIL'} g_max={run.sm.g_max!r} "
              f"deficit={0.975 - run.sm.g_max:.3e} (known spec defect)")
        assert passed


class TestCriterion2Duffing:
    def test_range_critical_values_runtime(self, pipelines):
        run = pipelines["duffing"]
        ok = (abs(run.sm.g_min - (-1.3015)) <= 1e-2
              and abs(run.sm.g_max - 1.6717) <= 1e-2
              and len(run.table.values) == 7
              and run.seconds < 10.0)
        report("2 (duffing)", ok,
               f"g_min={run.sm.g_min:.4f} g_max={run.sm.g_max:.4f} "
               f"|B|={len(run.table.values)} runtime={run.seconds:.3f}s")


class TestCriterion3Pendulum:
    def test_range_critical_values_runtime(self, pipelines):
        run = pipelines["pendulum"]
        ok = (abs(run.sm.g_min - (-2.5019)) <= 1e-2
              and abs(run.sm.g_max - 2.9224) <= 1e-2
              and len(run.table.values) == 5
              and run.seconds < 10.0)
        report("3 (pendulum)", ok,
               f"g_min={run.sm.g_min:.4f} g_max={run.sm.g_max:.4f} "
               f"|B|={len(run.table.values)} runtime={run.seconds:.3f}s")


class TestCriterion4Oscillator:
    def test_critical_values_and_jump(self, pipelines):
        run = pipelines["oscillator"]
        jumps = interior_jumps(run.curve)
        ok = len(run.table.values) == 6 and len(jumps) >= 1
        detail = (f"|B|={len(run.table.values)} jumps at "
                  + ", ".join(f"edge {i} (x{r:.0f})" for i, r in jumps))
        report("4 (oscillator)", ok, detail)

    def test_jump_sits_at_an_endpoint_image(self, pipelines):
        # the discontinuities stem from the domain-endpoint images lying
        # strictly inside the range
        run = pipelines["oscillator"]
        endpoint_images = {run.part.g_alphas[0], run.part.g_alphas[-1]}
        jump_edges = {run.curve.edges[i] for i, _ in interior_jumps(run.curve)}
        assert any(
            any(abs(b - e) <= value_tol_abs(run.table) for e in endpoint_images)
            for b in jump_edges
        )


class TestCriterion5OracleEquivalence:
    def test_l1_and_runtime(self, pipelines, comparisons):
        total = 0.0
        details = []
        ok = True
        for name in experiment_defs():
            m = comparisons[name]
            total += m.seconds + pipelines[name].seconds
            details.append(f"{name}: l1={m.metrics.l1:.4f}")
            ok = ok and m.metrics.l1 < 0.08
        ok = ok and total < 60.0
        report("5 (curve vs histogram)", ok,
               "; ".join(details) + f"; total={total:.1f}s")


class TestCriterion6AnalyticOracle:
    def test_parabola_against_change_of_variables(self, pipelines):
        curve = pipelines["parabola"].curve
        window = (curve.ys >= 0.05) & (curve.ys <= 0.95)
        exact = 1.0 / (2.0 * np.sqrt(curve.ys[window]))
        rel = np.max(np.abs(curve.mu_ys[window] - exact) / exact)
        report("6 (analytic parabola)", rel < 0.02, f"max rel err={rel:.4f}")


class TestCriterion7Properties:
    def test_index_sets_constant_on_intervals(self):
        # 100 random piecewise-cubic maps, ten draws per open interval
        rng = np.random.default_rng(424242)
        checked = 0
        for _ in range(100):
            sm = random_piecewise_cubic(rng)
            p = detect_extrema(sm)
            t = build_layer_table(p, value_tol=1e-9)
            for i in range(len(t.values) - 1):
                lo = t.values[i] + 1e-9 * (t.g_max - t.g_min)
                hi = t.values[i + 1] - 1e-9 * (t.g_max - t.g_min)
                if lo >= hi:
                    continue
                for y in rng.uniform(lo, hi, size=10):
                    assert index_set(float(y), t, p) == index_sets(t)[i]
                    checked += 1
        report("7a (interval constancy)", checked > 1000,
               f"{checked} draws checked across 100 maps")

    def test_counting_rules_on_map_zoo(self, pipelines):
        ok = all(transition_check(run.table) for run in pipelines.values())
        report("7b (counting rules on zoo)", ok,
               ", ".join(pipelines.keys()))

    def test_curve_masses(self, pipelines):
        masses = {n: run.curve.mass for n, run in pipelines.items()}
        ok = all(0.97 <= m <= 1.03 for m in masses.values())
        report("7c (curve masses)", ok,
               " ".join(f"{n}={m:.4f}" for n, m in masses.items()))

    def test_monotone_reduction(self):
        xs = np.linspace(0.0, 1.0, 101)
        tm = TableMap.from_samples(xs, 2.0 * xs)
        sm = sample_map(tm, GridSpec(100))
        p = detect_extrema(sm)
        t = build_layer_table(p)
        um = build_unfolded(sm, p)
        spec = SinPlusTwo(alpha=0.0, beta=1.0, omega=5.0)
        curve = pushforward_density(p, t, um, spec)
        direct = spec.pdf(curve.ys / 2.0) * 0.5
        rel = np.max(np.abs(curve.mu_ys - direct) / direct)
        report("7d (monotone reduction)", rel < 1e-6, f"max rel err={rel:.2e}")

    def test_inverse_round_trip_exact_at_knots(self, pipelines):
        um = pipelines["logistic"].um
        ok = np.array_equal(eta_eval(um, um.knots_u), um.knots_x)
        report("7e (inverse round trip)", ok, f"{len(um.knots_u)} knots")

    def test_mc_seed_determinism(self):
        xs = np.linspace(-1.0, 1.0, 401)
        tm = TableMap.from_samples(xs, xs ** 2)
        cfg = McConfig(n_samples=100_000, n_bins=50, seed=MC_SEED)
        spec = Uniform(alpha=-1.0, beta=1.0)
        a = mc_density(tm, spec, cfg)
        b = mc_density(tm, spec, cfg)
        ok = np.array_equal(a.heights, b.heights)
        report("7f (seed determinism)", ok, f"seed={MC_SEED}")


class TestCriterion8CostReport:
    def test_wall_times_reported(self, pipelines, comparisons):
        lines = []
        for name in experiment_defs():
            f = pipelines[name].seconds
            m = comparisons[name].seconds
            lines.append(f"{name}: direct={f:.3f}s monte-carlo={m:.3f}s")
        ok = all(pipelines[n].seconds > 0 and comparisons[n].seconds > 0
                 for n in experiment_defs())
        report("8 (cost report)", ok, " | ".join(lines))


def test_readme_python_quick_start_runs(capsys):
    # an API rename breaks this test rather than the README
    readme = (REPO_ROOT / "README.md").read_text()
    quick_start = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    code = quick_start.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    mass = float(capsys.readouterr().out.split()[0])
    assert abs(mass - 1.0) < 0.02, mass
