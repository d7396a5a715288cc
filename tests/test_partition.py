import dataclasses
import re
import time

import numpy as np
import pytest
from conftest import (
    experiment_defs,
    fine_grid_maps,
    make_sampled,
    random_piecewise_cubic,
    ripple_map,
    traced_peak,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    BoundaryClassification,
    classifications,
    closed_membership,
    index_set,
    index_sets,
    midpoints,
    total,
    value_tol_abs,
)

from pushfold import partition
from pushfold import (
    BranchError,
    DegenerateInputError,
    GridSpec,
    Logistic,
    RangeError,
    TableConstructionError,
    build_layer_table,
    detect_extrema,
    layer_membership,
    sample_map,
    transition_check,
    u_of_y,
)


class TestDetectExtrema:
    def test_monotone_identity(self, identity_map):
        p = detect_extrema(identity_map)
        assert p.n_branches == 1
        assert np.array_equal(p.alphas, [0.0, 1.0])
        assert np.array_equal(p.lambdas, [1.0])
        assert p.total_variation == 1.0

    def test_parabola_on_grid(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        assert np.array_equal(p.alphas, [-1.0, 0.0, 1.0])
        assert np.array_equal(p.lambdas, [-1.0, 1.0])
        assert p.total_variation == 2.0
        assert np.array_equal(p.masses, [0.0, 1.0, 2.0])

    def test_logistic_extrema_match_fine_scan(self):
        # oracle: count sign changes of first differences on a 10x grid
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=3)
        coarse = detect_extrema(sample_map(m, GridSpec(400)))
        fine = sample_map(m, GridSpec(4000))
        d = np.diff(fine.ys)
        fine_count = int(np.sum(d[:-1] * d[1:] <= 0.0))
        assert coarse.n_branches - 1 == fine_count

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160])
    @pytest.mark.parametrize("shape", ["parabola", "tent"])
    def test_branches_do_not_depend_on_the_scale(self, shape, scale):
        # products of differences at these scales underflow to zero; the
        # signs of the differences do not
        xs = np.linspace(-1.0, 1.0, 401)
        ys = xs ** 2 if shape == "parabola" else 1.0 - np.abs(xs)
        scaled = scale * ys
        assert np.abs(scaled[scaled != 0.0]).min() >= np.finfo(float).tiny
        expected = detect_extrema(make_sampled(xs, ys)).alpha_indices
        assert np.array_equal(detect_extrema(make_sampled(xs, scaled)).alpha_indices, expected)

    def test_constant_map_is_degenerate(self):
        sm = make_sampled(np.linspace(0, 1, 5), np.full(5, 2.0))
        with pytest.raises(DegenerateInputError):
            detect_extrema(sm)

    def test_mirror_symmetry(self):
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=3)
        sm = sample_map(m, GridSpec(400))
        mirrored = make_sampled(sm.xs, -sm.ys)
        a = detect_extrema(sm)
        b = detect_extrema(mirrored)
        assert np.array_equal(a.alpha_indices, b.alpha_indices)
        assert np.array_equal(a.lambdas, -b.lambdas)

    def test_flat_pair_fuses_into_monotone_run(self):
        # rise, flat, rise: no genuine extremum survives the merge
        sm = make_sampled([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 1.0, 2.0, 3.0])
        p = detect_extrema(sm)
        assert p.n_branches == 1

    def test_plateau_middles_dropped(self):
        sm = make_sampled(np.arange(7.0), [0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0])
        p = detect_extrema(sm)
        assert p.n_branches == 1

    def test_left_to_right_mass_accumulation(self):
        p = detect_extrema(ripple_map())
        total = 0.0
        for lam in p.lambdas:
            total += abs(lam)
        assert p.masses[-1] == total
        assert p.total_variation == total

    def test_interior_increments_alternate(self):
        for sm_builder in (ripple_map,):
            p = detect_extrema(sm_builder())
            assert np.all(p.lambdas[:-1] * p.lambdas[1:] < 0)
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=3)
        p = detect_extrema(sample_map(m, GridSpec(400)))
        assert np.all(p.lambdas[:-1] * p.lambdas[1:] < 0)


def reference_detect_extrema(sm):
    """Oracle for detect_extrema: the plateau filter, the flat-pair rule
    and the fuse loop that rescans from the first branch after every
    fusion, as plain loops.  Returns the alpha indices."""
    ys = sm.ys
    value_range = sm.g_max - sm.g_min
    if value_range == 0.0:
        raise DegenerateInputError("map is constant on the whole grid")
    tol = partition.MERGE_TOL * value_range
    plateau = np.zeros(len(ys), dtype=bool)
    plateau[1:-1] = (ys[:-2] == ys[1:-1]) & (ys[1:-1] == ys[2:])
    kept = np.flatnonzero(~plateau)
    d = np.diff(ys[kept])
    flagged = [0]
    s = np.sign(d)
    for t in (np.flatnonzero(s[:-1] * s[1:] <= 0.0) + 1).tolist():
        if t > 1 and flagged[-1] == t - 1 and d[t - 1] == 0.0:
            # flat pair: the earlier index already represents it
            continue
        flagged.append(t)
    idx = kept[flagged + [len(kept) - 1]].tolist()
    while True:
        lam = np.diff(ys[idx])
        kill = None
        for j in range(len(lam)):
            if abs(lam[j]) < tol:
                # absorb the flat branch into a neighbor: drop whichever
                # of its bounds is interior
                if j + 1 < len(idx) - 1:
                    kill = j + 1
                elif j > 0:
                    kill = j
                break
        if kill is None:
            for j in range(len(lam) - 1):
                if np.sign(lam[j]) * np.sign(lam[j + 1]) > 0.0:
                    kill = j + 1
                    break
        if kill is None:
            break
        if len(idx) <= 2:
            raise DegenerateInputError("all branches merged away")
        del idx[kill]
    lam = np.diff(ys[idx])
    if len(lam) == 0 or np.all(np.abs(lam) < tol):
        raise DegenerateInputError("all branches merged away")
    return idx


def assert_matches_reference(sm):
    """Same alpha indices as the reference, or the same exception."""
    try:
        expected = reference_detect_extrema(sm)
    except DegenerateInputError as exc:
        with pytest.raises(DegenerateInputError, match=re.escape(str(exc))):
            detect_extrema(sm)
        return
    p = detect_extrema(sm)
    assert p.alpha_indices.tolist() == expected
    assert p.lambdas.tobytes() == np.diff(sm.ys[expected]).tobytes()


def jittered(rng, ys, scale):
    """ys plus uniform noise of up to scale merge tolerances on a random
    half of the points."""
    ys = np.asarray(ys, dtype=float)
    tol = partition.MERGE_TOL * (ys.max() - ys.min())
    noise = rng.uniform(-scale, scale, size=len(ys)) * tol
    return ys + np.where(rng.random(len(ys)) < 0.5, noise, 0.0)


def flat_half_jitter_map(n_div):
    """Zero plus jitter spanning less than half a merge tolerance on the
    left half of [0, 1], and a single hump of sin(2 pi (x - 1/2)) on the
    right half: three bounds, and about two thirds of the flat half
    flagged."""
    xs = np.linspace(0.0, 1.0, n_div + 1)
    ys = np.sin(2.0 * np.pi * (xs - 0.5))
    flat = xs < 0.5
    rng = np.random.default_rng(8)
    ys[flat] = rng.uniform(-0.2, 0.2, size=flat.sum()) * partition.MERGE_TOL
    return make_sampled(xs, ys)


class TestExtremumFlagsMatchReference:
    """detect_extrema keeps the extremum flags of the reference rules."""

    @pytest.mark.parametrize("name", sorted(experiment_defs()))
    @pytest.mark.parametrize("n_div", [4, 5, 7, 16, 101, 1000])
    def test_reference_experiments(self, name, n_div):
        map_def, _, _ = experiment_defs()[name]
        assert_matches_reference(sample_map(map_def, GridSpec(n_div)))

    def test_ripple_and_random_cubics(self):
        for n_div in (4, 50, 2000):
            assert_matches_reference(ripple_map(n_div))
        rng = np.random.default_rng(11)
        for _ in range(40):
            assert_matches_reference(random_piecewise_cubic(rng))

    def test_short_sequences_with_ties_and_plateaus(self):
        rng = np.random.default_rng(2024)
        for k in range(3200):
            n = int(rng.integers(3, 41))
            if k % 2:
                ys = rng.integers(0, 4, size=n).astype(float)
            else:
                ys = np.round(rng.uniform(-0.5, 0.5, size=n), 1)
            assert_matches_reference(make_sampled(np.arange(n), ys))

    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
    def test_short_sequences_with_sub_tolerance_jitter(self, scale):
        # jitter around the merge tolerance makes short branches of
        # nonzero length, not only the zero-length ones of exact ties
        rng = np.random.default_rng(int(10 * scale))
        for k in range(1500):
            n = int(rng.integers(3, 41))
            if k % 2:
                ys = rng.integers(0, 4, size=n).astype(float)
            else:
                ys = np.repeat(rng.normal(size=n), rng.integers(1, 4, size=n))
            assert_matches_reference(
                make_sampled(np.arange(len(ys)), jittered(rng, ys, scale)))

    def test_branch_moving_exactly_the_tolerance_is_kept(self):
        sm = make_sampled(np.arange(4.0), [0.0, partition.MERGE_TOL, 0.0, 1.0])
        assert_matches_reference(sm)
        assert detect_extrema(sm).alpha_indices.tolist() == [0, 1, 2, 3]

    def test_jittered_maps(self):
        rng = np.random.default_rng(5)
        ripple = ripple_map(500)
        for scale in (0.3, 1.0, 3.0):
            for sm in (ripple, random_piecewise_cubic(rng)):
                assert_matches_reference(make_sampled(sm.xs, jittered(rng, sm.ys, scale)))
        assert_matches_reference(flat_half_jitter_map(2000))


class TestFlagPieces:
    """detect_extrema flags turns by comparing neighbours, with no sign
    products and no temporary as long as the grid, on maps pieced
    together from cubics, ripples, short runs and repeated rows."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_pieces_keep_the_reference_flags(self, seed):
        # the reference multiplies the signs of the differences
        for n_div in (4, 50, 2000):
            assert_matches_reference(ripple_map(n_div))
        rng = np.random.default_rng(seed)
        for _ in range(10):
            assert_matches_reference(random_piecewise_cubic(rng))
        for k in range(400):
            n = int(rng.integers(3, 20))
            ys = rng.integers(0, 4, size=n) * [1.0, 1e-300, 1e-160, 1e300][k % 4]
            assert_matches_reference(make_sampled(np.arange(n), ys))

    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_underflowing_products_flag_across_pieces(self, copies):
        # the product of the differences either side of point 2 rounds
        # to zero, but the map rises through it, so only the 5e-10 peak
        # of each copy of the row (and the -1 it shares with the next)
        # is flagged
        row = [-1.0, -1e-300, 0.0, 1e-300, 2e-300, 5e-10, -1.0]
        ys = row + row[1:] * (copies - 1)
        sm = make_sampled(np.arange(len(ys)), ys)
        assert_matches_reference(sm)
        expected = [0] + [i + 6 * j for j in range(copies) for i in (5, 6)]
        assert detect_extrema(sm).alpha_indices.tolist() == expected

    def test_peak_below_one_grid_array(self):
        for name, sm in fine_grid_maps().items():
            _, peak = traced_peak(detect_extrema, sm)
            assert peak < sm.ys.nbytes, (name, peak, sm.ys.nbytes)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 3), min_size=3, max_size=40),
       st.sampled_from([0.0, 0.3, 1.0, 3.0]), st.integers(0, 2**32 - 1))
def test_every_branch_moves_at_least_the_merge_tolerance(levels, scale, seed):
    # so with a finite range some branch is always left, and no grid
    # needs an "all branches merged away" exit
    sm = make_sampled(np.arange(len(levels)),
                      jittered(np.random.default_rng(seed), levels, scale))
    if sm.g_max == sm.g_min:
        with pytest.raises(DegenerateInputError, match="constant"):
            detect_extrema(sm)
        return
    p = detect_extrema(sm)
    assert np.all(np.abs(p.lambdas) >= partition.MERGE_TOL * (sm.g_max - sm.g_min))


class TestOverflow:
    """Values near the float range partition without a warning, and a
    total variation past it is named."""

    def test_products_past_the_float_range_keep_their_sign(self, recwarn):
        sm = make_sampled(np.arange(5.0), [0.0, 1e200, 0.0, 1e200, 0.0])
        p = detect_extrema(sm)
        assert p.alpha_indices.tolist() == [0, 1, 2, 3, 4]
        assert p.total_variation == 4e200
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_clusters_and_midpoints_near_the_largest_float(self, recwarn):
        sm = make_sampled(np.arange(5.0), [0.9e308, 1e308, 0.9e308, 1e308, 0.9e308])
        table = build_layer_table(detect_extrema(sm))
        assert np.array_equal(table.values, [0.9e308, 1e308])
        assert np.array_equal(midpoints(table), [0.95e308])
        assert table.covering.all() and transition_check(table)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("ys", [[0.0, 1e308, 0.0, 1e308, 0.0],
                                    [0.0, 1.5e308, 0.0, 0.0, 0.0],
                                    [0.0, 1e308, 0.5e308, 1.7e308, 0.0]])
    def test_overflowing_total_variation_is_named(self, recwarn, ys):
        sm = make_sampled(np.arange(5.0), ys)
        with pytest.raises(FloatingPointError,
                           match=r"^total variation inf of the sampled map is not finite$"):
            detect_extrema(sm)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(2.0 ** -1020, 2.0 ** 1015),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12), st.booleans())
def test_cluster_means_are_the_plain_means(base, offsets, negate):
    # the images 0, v_1, 0, v_2, ..., v_k, 0, 2 * base: the v_i form the
    # one middle cluster, whose value is their mean; their halves and
    # sums stay normal floats
    vs = base * (1.0 + 1e-3 * np.array(offsets))
    ys = np.append(np.column_stack([np.zeros_like(vs), vs]).ravel(), [0.0, 2.0 * base])
    sign = -1.0 if negate else 1.0
    table = build_layer_table(detect_extrema(make_sampled(np.arange(len(ys)), sign * ys)))
    assert len(table.values) == 3
    assert table.values[1].tobytes() == np.sort(sign * vs).mean().tobytes()


def test_jitter_on_a_flat_half_partitions_in_linear_time():
    # the fuse loop that rescanned after every fusion took 3 s here on a
    # 2-vCPU Xeon; the two passes take about 4 ms
    sm = flat_half_jitter_map(32000)
    t0 = time.perf_counter()
    p = detect_extrema(sm)
    assert time.perf_counter() - t0 < 0.5
    assert p.alpha_indices.tolist() == [0, 24000, 32000]


class TestVectorizedBranchQueries:
    """Array calls of layer_membership and u_of_y agree element by
    element with their scalar calls."""

    def test_broadcast_matches_scalar_calls(self):
        p = detect_extrema(ripple_map())
        ys = np.concatenate([np.linspace(0.0, 12.0, 41), p.g_alphas])
        branches = np.arange(1, p.n_branches + 1)
        for membership in (layer_membership, closed_membership):
            grid = membership(ys[:, None], branches, p)
            assert grid.shape == (len(ys), p.n_branches)
            for (q, c), inside in np.ndenumerate(grid):
                assert inside == membership(float(ys[q]), int(branches[c]), p)
        us = u_of_y(ys[:, None], branches, p)
        closed = closed_membership(ys[:, None], branches, p)
        for (q, c), u in np.ndenumerate(us):
            if closed[q, c]:
                assert u == u_of_y(float(ys[q]), int(branches[c]), p)

    def test_pairs_of_equal_shape(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        u = u_of_y(np.array([0.25, 0.25, 1.0]), np.array([1, 2, 2]), p)
        assert u.tolist() == [0.75, 1.25, 2.0]

    def test_unchecked_extends_the_branch_line(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        assert u_of_y(1.5, 1, p) == -0.5
        assert u_of_y(-0.5, 2, p) == 0.5

    def test_branch_index_out_of_range(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        with pytest.raises(BranchError, match="branch index 3 outside 1..2"):
            layer_membership(0.5, np.array([1, 3, 0]), p)
        with pytest.raises(BranchError):
            u_of_y(0.5, 0, p)


class TestLayerMembership:
    def test_inside_decreasing_branch(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        assert layer_membership(0.25, 1, p)

    def test_boundary_excluded(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        assert not layer_membership(1.0, 1, p)
        for j in range(1, p.n_branches + 1):
            for end in p.g_alphas[j - 1:j + 1]:
                assert not layer_membership(float(end), j, p)
                assert closed_membership(float(end), j, p)

    def test_below_branch_image(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        assert not layer_membership(-0.5, 2, p)


class TestUOfY:
    def test_decreasing_branch(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        assert u_of_y(0.25, 1, p) == 0.75

    def test_increasing_branch(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        assert u_of_y(0.25, 2, p) == 1.25

    def test_branch_start_maps_to_mass(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        for j in range(1, p.n_branches + 1):
            assert u_of_y(float(p.g_alphas[j - 1]), j, p) == p.masses[j - 1]

    def test_strictly_between_masses(self):
        p = detect_extrema(ripple_map())
        rng = np.random.default_rng(7)
        for j in range(1, p.n_branches + 1):
            lo = min(p.g_alphas[j - 1], p.g_alphas[j])
            hi = max(p.g_alphas[j - 1], p.g_alphas[j])
            for y in rng.uniform(lo + 1e-9, hi - 1e-9, size=5):
                u = u_of_y(float(y), j, p)
                assert p.masses[j - 1] < u < p.masses[j]


class TestLayerTable:
    def test_parabola(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        t = build_layer_table(p)
        assert np.array_equal(t.values, [0.0, 1.0])
        assert np.array_equal(midpoints(t), [0.5])
        assert index_sets(t) == (frozenset({1, 2}),)

    def test_monotone_identity(self, identity_map):
        p = detect_extrema(identity_map)
        t = build_layer_table(p)
        assert np.array_equal(t.values, [0.0, 1.0])
        assert index_sets(t) == (frozenset({1}),)

    def test_extreme_values_are_sampled_range(self):
        sm = ripple_map()
        p = detect_extrema(sm)
        t = build_layer_table(p)
        assert t.g_min == sm.g_min
        assert t.g_max == sm.g_max

    def test_ripple_index_sets(self):
        # seven branches; the second interval is covered by the first
        # five branches, the second-to-last by branches 5..7
        p = detect_extrema(ripple_map())
        t = build_layer_table(p)
        assert p.n_branches == 7
        assert index_set(3.0, t, p) == frozenset({1, 2, 3, 4, 5})
        assert index_set(7.0, t, p) == frozenset({5, 6, 7})

    def test_near_equal_extrema_collapse(self):
        # the ripple's symmetric extrema pairs split by grid error only
        p = detect_extrema(ripple_map())
        t = build_layer_table(p)
        assert len(t.values) == 6


def reference_layer_table(p, value_tol=partition.DEFAULT_VALUE_TOL):
    """Oracle for build_layer_table: the clustering, index sets and
    classifications as plain loops over branches and critical values."""

    def inside(y, j):
        lam = p.lambdas[j - 1]
        t = (y - p.g_alphas[j - 1]) * np.sign(lam)
        return bool(0.0 < t < abs(lam))

    ga = p.g_alphas
    g_min, g_max = float(ga.min()), float(ga.max())
    tol_abs = value_tol * (g_max - g_min)
    order = np.argsort(ga, kind="stable")
    sorted_vals = ga[order]
    clusters = [[0]]
    for t in range(1, len(sorted_vals)):
        if sorted_vals[t] - sorted_vals[clusters[-1][0]] > tol_abs:
            clusters.append([t])
        else:
            clusters[-1].append(t)
    values = np.empty(len(clusters))
    member_of = np.empty(len(ga), dtype=int)
    for ci, members in enumerate(clusters):
        if ci == 0:
            values[ci] = g_min
        elif ci == len(clusters) - 1:
            values[ci] = g_max
        else:
            values[ci] = sorted_vals[members].mean()
        for t in members:
            member_of[order[t]] = ci
    k = p.n_branches
    for j in range(k):
        if member_of[j] == member_of[j + 1]:
            raise TableConstructionError(
                f"branch {j + 1} spans less than the duplicate-collapse "
                f"tolerance {tol_abs:g}; lower value_tol or merge the branch")
    midpoints = 0.5 * (values[:-1] + values[1:])
    sets = []
    for c in midpoints:
        covering = frozenset(j for j in range(1, k + 1) if inside(float(c), j))
        if not covering:
            raise TableConstructionError(f"no branch covers the interval around {c}")
        sets.append(covering)
    records = []
    for ci in range(len(values)):
        counts = dict.fromkeys(("interior_minima", "interior_maxima",
                                "endpoint_minima", "endpoint_maxima"), 0)
        for j in range(k + 1):
            if member_of[j] != ci:
                continue
            if j == 0:
                kind = "minima" if p.lambdas[0] > 0 else "maxima"
            else:
                kind = "minima" if p.lambdas[j - 1] < 0 else "maxima"
            where = "endpoint" if j in (0, k) else "interior"
            counts[f"{where}_{kind}"] += 1
        regular = sum(1 for j in range(1, k + 1)
                      if member_of[j - 1] != ci and member_of[j] != ci
                      and inside(float(values[ci]), j))
        records.append(BoundaryClassification(regular=regular, **counts))
    return values, midpoints, tuple(sets), tuple(records), tol_abs


def assert_table_matches_reference(p, value_tol=partition.DEFAULT_VALUE_TOL):
    try:
        expected = reference_layer_table(p, value_tol)
    except TableConstructionError as exc:
        with pytest.raises(TableConstructionError, match=re.escape(str(exc))):
            build_layer_table(p, value_tol)
        return False
    t = build_layer_table(p, value_tol)
    values, mids, sets, records, tol_abs = expected
    assert t.values.tobytes() == values.tobytes()
    assert midpoints(t).tobytes() == mids.tobytes()
    assert index_sets(t) == sets
    assert classifications(t) == records
    for c in classifications(t):
        assert all(type(v) is int for v in dataclasses.astuple(c))
    assert value_tol_abs(t, value_tol) == tol_abs
    return True


class TestLayerTableMatchesReference:
    @pytest.mark.parametrize("name", sorted(experiment_defs()))
    def test_reference_experiments(self, name):
        map_def, _, grid = experiment_defs()[name]
        assert assert_table_matches_reference(detect_extrema(sample_map(map_def, grid)))

    @pytest.mark.parametrize("iterations", [5, 6, 7, 8, 9])
    def test_logistic_iterations(self, iterations):
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=iterations)
        for n_div in (2000, 20000):
            assert assert_table_matches_reference(
                detect_extrema(sample_map(m, GridSpec(n_div))))

    def test_ripple_and_random_cubics(self):
        p = detect_extrema(ripple_map())
        for value_tol in (1e-9, 1e-3, 5e-2):
            assert_table_matches_reference(p, value_tol)
        rng = np.random.default_rng(17)
        built = failed = 0
        for _ in range(60):
            p = detect_extrema(random_piecewise_cubic(rng))
            for value_tol in (1e-9, partition.DEFAULT_VALUE_TOL, 2e-2):
                if assert_table_matches_reference(p, value_tol):
                    built += 1
                else:
                    failed += 1
        assert built > 100 and failed > 0


class TestIndexSet:
    def test_open_interval(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        t = build_layer_table(p)
        assert index_set(0.25, t, p) == frozenset({1, 2})

    def test_outside_range(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        t = build_layer_table(p)
        with pytest.raises(RangeError):
            index_set(2.0, t, p)

    def test_at_critical_value_uses_closed_bounds(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        t = build_layer_table(p)
        assert index_set(1.0, t, p) == frozenset({1, 2})
        assert index_set(0.0, t, p) == frozenset({1, 2})

    def test_constant_on_each_interval(self):
        # index sets drawn anywhere inside an interval equal the stored
        # midpoint set, for a population of random piecewise-cubic maps;
        # random maps carry no grid-split duplicate values, so the fine
        # dedup tolerance applies
        rng = np.random.default_rng(20240601)
        for _ in range(25):
            sm = random_piecewise_cubic(rng)
            p = detect_extrema(sm)
            t = build_layer_table(p, value_tol=1e-9)
            for i in range(len(t.values) - 1):
                lo = t.values[i] + 2 * value_tol_abs(t, 1e-9)
                hi = t.values[i + 1] - 2 * value_tol_abs(t, 1e-9)
                if lo >= hi:
                    continue
                for y in rng.uniform(lo, hi, size=10):
                    assert index_set(float(y), t, p) == index_sets(t)[i]


class TestTransitionCheck:
    def test_parabola(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        t = build_layer_table(p)
        assert transition_check(t)

    def test_ripple(self):
        p = detect_extrema(ripple_map())
        t = build_layer_table(p)
        assert transition_check(t)

    def test_ripple_one_two_three_crossing(self):
        # crossing an interior minimum flanked by one regular crossing,
        # the branch count steps 1 -> 2 -> 3 from below to above
        p = detect_extrema(ripple_map())
        t = build_layer_table(p)
        i = int(np.argmin(np.abs(t.values - 6.5687)))
        cls = classifications(t)[i]
        assert cls.interior_minima == 1 and cls.regular == 1
        assert len(index_sets(t)[i - 1]) == 1
        assert total(cls) == 2
        assert len(index_sets(t)[i]) == 3

    def test_random_maps(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            sm = random_piecewise_cubic(rng)
            p = detect_extrema(sm)
            t = build_layer_table(p, value_tol=1e-9)
            assert transition_check(t)

    def test_swallowed_branch_is_rejected(self):
        # seed chosen so one random map has a branch narrower than the
        # default collapse tolerance: its endpoints merge into a single
        # critical value that cannot be classified consistently
        from pushfold import TableConstructionError

        rng = np.random.default_rng(99)
        maps = [random_piecewise_cubic(rng) for _ in range(4)]
        p = detect_extrema(maps[3])
        with pytest.raises(TableConstructionError):
            build_layer_table(p)

    def test_corrupted_table_fails(self, parabola_coarse):
        p = detect_extrema(parabola_coarse)
        t = build_layer_table(p)
        bad = dataclasses.replace(
            t,
            values=t.values.copy(),
            covering=np.array([[True]]),
        )
        assert not transition_check(bad)


def reference_transition_check(table):
    """Oracle for transition_check: both count relations at each critical
    value in turn, from the index sets and the classification records."""
    sets, records = index_sets(table), classifications(table)
    ell = len(table.values) - 1
    for i in range(ell + 1):
        cls = records[i]
        below = len(sets[i - 1]) if i >= 1 else 0
        above = len(sets[i]) if i <= ell - 1 else 0
        if above != cls.regular + 2 * cls.interior_minima + cls.endpoint_minima:
            return False
        if below != cls.regular + 2 * cls.interior_maxima + cls.endpoint_maxima:
            return False
    return True


def assert_check_matches_reference(t):
    verdict = transition_check(t)
    assert type(verdict) is bool
    assert verdict == reference_transition_check(t)
    return verdict


class TestTransitionCheckMatchesReference:
    @pytest.mark.parametrize("name", sorted(experiment_defs()))
    def test_reference_experiments(self, name):
        map_def, _, grid = experiment_defs()[name]
        t = build_layer_table(detect_extrema(sample_map(map_def, grid)))
        assert assert_check_matches_reference(t)

    @pytest.mark.parametrize("iterations", [5, 6, 7, 8, 9])
    def test_logistic_iterations(self, iterations):
        m = Logistic(alpha=0.0, beta=1.0, rate=3.9, iterations=iterations)
        verdicts = [assert_check_matches_reference(
            build_layer_table(detect_extrema(sample_map(m, GridSpec(n_div)))))
            for n_div in (2000, 20000)]
        # the sampled critical values of the eighth and ninth iterates
        # break the counting rule at 2*10^4 subdivisions
        assert verdicts[1] == (iterations < 8)

    def test_ripple_and_random_cubics(self):
        assert assert_check_matches_reference(build_layer_table(detect_extrema(ripple_map())))
        rng = np.random.default_rng(99)
        for _ in range(25):
            p = detect_extrema(random_piecewise_cubic(rng))
            assert assert_check_matches_reference(build_layer_table(p, value_tol=1e-9))

    @pytest.mark.parametrize("kind", ["endpoint_minima", "endpoint_maxima"])
    @pytest.mark.parametrize("where", ["first", "interior", "last"])
    def test_corrupted_counts(self, kind, where):
        # one extra endpoint minimum breaks only the relation above the
        # critical value, one extra endpoint maximum only the one below
        t = build_layer_table(detect_extrema(ripple_map()))
        i = {"first": 0, "interior": len(t.values) // 2, "last": len(t.values) - 1}[where]
        counts = t.counts.copy()
        counts[i, partition.PREIMAGE_KINDS.index(kind)] += 1
        bad = dataclasses.replace(t, counts=counts)
        assert not assert_check_matches_reference(bad)

    @pytest.mark.parametrize("where", ["first", "interior", "last"])
    def test_corrupted_covering(self, where):
        # a branch dropped from interval i changes the count above
        # critical value i and below critical value i + 1
        t = build_layer_table(detect_extrema(ripple_map()))
        i = {"first": 0, "interior": len(t.covering) // 2, "last": len(t.covering) - 1}[where]
        covering = t.covering.copy()
        covering[i, np.flatnonzero(covering[i])[0]] = False
        bad = dataclasses.replace(t, covering=covering)
        assert not assert_check_matches_reference(bad)


def test_layer_table_arrays_are_read_only(parabola_coarse):
    t = build_layer_table(detect_extrema(parabola_coarse))
    assert t.covering.dtype == bool
    assert t.covering.shape == (len(t.values) - 1, 2)
    assert t.counts.shape == (len(t.values), len(partition.PREIMAGE_KINDS))
    for arr in (t.values, t.covering, t.counts):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
