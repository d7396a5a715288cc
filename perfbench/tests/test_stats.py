import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench.run import non_finite
from perfbench.stats import TAIL_BEYOND, calibration_seconds, covered, self_time, tail
from perfbench.tracing import REQUIRED, Span, Tracer, layer_metrics, missing_spans


@pytest.mark.parametrize("n", [20, 21, 40, 57, 200])
def test_tail_leaves_exactly_ten_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]
    percentile, value = tail(values)
    assert sum(v > value for v in values) == TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - TAIL_BEYOND) / n)
    assert percentile >= 50.0


def test_tail_percentiles_at_known_counts():
    assert tail(range(1, 41)) == (75.0, 30)
    assert tail(range(1, 101)) == (90.0, 90)


@pytest.mark.parametrize("n", [1, 2, 12, 19])
def test_tail_below_twenty_ops_is_the_median(n):
    values = list(range(n))
    assert tail(values) == (50.0, sorted(values)[n // 2] if n % 2 else (n - 1) / 2)


def test_calibration_is_a_positive_time():
    assert 0.0 < calibration_seconds() < 1.0


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(3.0, 7.0), (3.5, 7.5), (1.0, 2.0), (4.0, 5.0)]) == 5.5


def test_self_time_clips_children_to_the_parent():
    assert self_time(2.0, 8.0, [(1.0, 3.0), (7.5, 9.0)]) == 6.0 - 1.0 - 0.5
    assert self_time(2.0, 8.0, [(8.0, 9.0), (0.0, 2.0)]) == 6.0


def _tree():
    """One op of a compare run: two worker threads overlap inside mc_density."""
    main, a, b = 1, 2, 3
    rows = [
        (1, "op", 0.0, 10.0, None, main, 1, None),
        (2, "cli.Experiment", 0.0, 1.0, 1, main, 1, None),
        (3, "maps.sample_map", 1.0, 2.0, 1, main, 1, None),
        (4, "maps.eval_map", 1.25, 1.75, 3, main, 1, {"points": 11, "rk4_steps": 0}),
        (5, "oracle.mc_density", 2.0, 8.0, 1, main, 1,
         {"clamped_fraction": 0.25}),
        (6, "oracle.draw", 2.0, 3.0, 5, main, 1, None),
        (7, "maps.eval_map", 3.0, 7.0, 5, a, 1, {"points": 100, "rk4_steps": 300}),
        (8, "maps.eval_map", 3.5, 7.5, 5, b, 1, {"points": 100, "rk4_steps": 300}),
        (9, "density.pushforward_density", 8.0, 9.0, 1, main, 1, {"points": 7}),
        (10, "unfold.eta_eval", 8.25, 8.5, 9, main, 1, None),
        (11, "unfold.eta_derivative", 8.5, 8.75, 9, main, 1, None),
    ]
    return [Span._make(r) for r in rows]


def test_layer_self_times_on_a_synthetic_tree():
    m = layer_metrics(_tree(), threads=2)
    # mc_density minus draw [2,3] and the union of the two chunks [3,7.5]
    assert m["oracle.mc_density.self_s"] == 6.0 - 1.0 - 4.5
    assert m["oracle.pushforward.efficiency"] == (4.0 + 4.0) / (2 * 4.5)
    assert m["maps.eval_map.busy_s"] == 0.5 + 4.0 + 4.0
    assert m["density.pushforward_density.self_s"] == 0.5
    assert m["unfold.eta.calls"] == 2
    # the op's uncovered time: [9, 10]
    assert m["cli.self_s"] == 1.0
    assert m["maps.points"] == 211
    assert m["maps.rk4_steps"] == 600
    assert m["oracle.clamped_fraction"] == 0.25


def test_coverage_guard_names_the_calls_never_reached():
    spans = [Span._make((i, name, 0.0, 1.0, None, 1, 1, None))
             for i, name in enumerate(REQUIRED)]
    assert missing_spans(spans, "density") == []
    assert missing_spans(spans, "compare") == [
        "oracle.mc_density", "oracle.draw", "oracle.compare"]
    assert missing_spans(spans[1:], "density") == ["cli.Experiment"]


def test_worker_spans_are_children_of_the_waiting_call():
    tracer = Tracer()

    def leaf(x):
        return threading.get_ident()

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda x: tracer.call("leaf", leaf, (x,)), range(4)))

    tracer.call("op", lambda: tracer.call("fan_out", fan_out))
    spans = {s.name: s for s in tracer.spans if s.name != "leaf"}
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 4
    assert all(s.parent == spans["fan_out"].id and s.op == 1 for s in leaves)
    assert spans["fan_out"].parent == spans["op"].id


@pytest.mark.parametrize("name,data,bad", [
    ("mu_y.csv", b"y,mu_y,interval_id\n0.5,1.25e-05,0\n", False),
    ("mu_y.csv", b"y,mu_y,interval_id\n0.5,nan,0\n", True),
    ("eta.csv", b"u,x\n0,-inf\n", True),
    ("eta.csv", b"u,x\n", True),
    ("meta.json", b'{"mass": 0.98}', False),
    ("meta.json", b'{"mass": NaN}', True),
    ("meta.json", b'{"mass": 1e999}', True),
])
def test_non_finite_artifacts_are_caught(name, data, bad):
    assert (non_finite(name, data) is not None) == bad
