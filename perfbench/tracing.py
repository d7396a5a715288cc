"""Spans around the benchmark's calls into each pushfold module.

Nothing in the package is edited: ``installed`` swaps each public
function for a recording wrapper in the module namespace that calls it
(``pushfold.cli``, ``pushfold.density``, ``pushfold.oracle``, and
``pushfold.maps`` so that ``sample_map``'s own ``eval_map`` call is
seen), and restores the originals afterwards.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from typing import NamedTuple

from perfbench.stats import self_time


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int
    counts: dict | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one op is one root span named ``op``.

    A span's parent is the innermost open span on its thread. A worker
    thread with no open span takes the innermost open span of the thread
    that started the op, which is the call waiting for the workers.
    Spans are kept as plain tuples, which the garbage collector stops
    scanning, so a long traced run does not slow down as spans pile up.
    """

    def __init__(self):
        self._rows: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._op_stack: list[int] = []

    @property
    def spans(self) -> list[Span]:
        return [Span._make(row) for row in self._rows]

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) inside a span; count(args, result) adds counts."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if name == "op":
            self._op += 1
            self._op_stack = stack
        lineage = stack or self._op_stack
        parent = lineage[-1] if lineage else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
        counts = None if count is None else count(args, result)
        # list.append is atomic, so worker threads need no lock here
        self._rows.append((span_id, name, start, end, parent,
                           threading.get_ident(), self._op, counts))
        return result

    def dump(self) -> dict:
        """Spans as plain JSON-ready columns."""
        return {"columns": list(Span._fields), "rows": self._rows}


def _eval_counts(args, result):
    import pushfold.maps as maps

    map_def, x = args[0], args[1]
    points = int(getattr(x, "size", 1))
    steps = 0
    if isinstance(map_def, (maps.Duffing, maps.Pendulum)):
        steps = points * maps.step_count(map_def.t_final, map_def.step)
    return {"points": points, "rk4_steps": steps}


def _targets():
    """(module, attribute, span name, count) for every wrapped call site."""
    import pushfold.cli as cli
    import pushfold.density as density
    import pushfold.maps as maps
    import pushfold.oracle as oracle

    return [
        (cli, "Experiment", "cli.Experiment", None),
        (cli, "sample_map", "maps.sample_map", None),
        (oracle, "sample_map", "maps.sample_map", None),
        (maps, "eval_map", "maps.eval_map", _eval_counts),
        (oracle, "eval_map", "maps.eval_map", _eval_counts),
        (cli, "detect_extrema", "partition.detect_extrema",
         lambda a, r: {"branches": int(r.n_branches)}),
        (cli, "build_layer_table", "partition.build_layer_table",
         lambda a, r: {"intervals": len(r.values) - 1}),
        (cli, "build_unfolded", "unfold.build_unfolded", None),
        (cli, "pushforward_density", "density.pushforward_density",
         lambda a, r: {"points": len(r.ys)}),
        (density, "eta_eval", "unfold.eta_eval", None),
        (density, "eta_derivative", "unfold.eta_derivative", None),
        (cli, "mc_density", "oracle.mc_density",
         lambda a, r: {"clamped_fraction": float(r.clamped_fraction)}),
        (cli, "compare", "oracle.compare", None),
    ]


def _wrap(tracer, name, fn, count):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the wrapped pushfold calls through tracer while inside."""
    import pushfold.oracle as oracle

    saved = []
    for module, attr, name, count in _targets():
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(tracer, name, original, count))

    sampler = oracle.InverseCdfSampler

    class TracedSampler(sampler):
        def draw(self, n):
            return tracer.call("oracle.draw", sampler.draw, (self, n))

    saved.append((oracle, "InverseCdfSampler", sampler))
    oracle.InverseCdfSampler = TracedSampler
    try:
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


REQUIRED = (
    "cli.Experiment", "maps.sample_map", "maps.eval_map",
    "partition.detect_extrema", "partition.build_layer_table",
    "unfold.build_unfolded", "density.pushforward_density",
    "unfold.eta_eval", "unfold.eta_derivative",
)
REQUIRED_MC = ("oracle.mc_density", "oracle.draw", "oracle.compare")


def missing_spans(spans, command: str) -> list:
    """Wrapped calls an op of this subcommand must reach but never did."""
    required = REQUIRED + (REQUIRED_MC if command == "compare" else ())
    seen = {s.name for s in spans}
    return [name for name in required if name not in seen]


def layer_metrics(spans, threads: int) -> dict:
    """Per-op layer metrics from the spans of whole ops.

    Times are busy seconds; ``self_s`` subtracts the named child spans,
    merged where worker threads overlap. Counts are exact.
    """
    ops = [s for s in spans if s.name == "op"]
    if not ops:
        raise ValueError("no traced ops")
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    in_op: dict[int, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)
        if s.name != "op":
            in_op.setdefault(s.op, []).append(s)

    def busy(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s.counts[key] for s in by_name.get(name, ()))

    def self_s(name, child_names):
        return sum(
            self_time(s.start, s.end, [(c.start, c.end) for c in children.get(s.id, ())
                                       if c.name in child_names])
            for s in by_name.get(name, ()))

    eta = ("unfold.eta_eval", "unfold.eta_derivative")
    push_busy = push_wall = 0.0
    for mc in by_name.get("oracle.mc_density", ()):
        chunks = [c for c in children.get(mc.id, ()) if c.name == "maps.eval_map"]
        if chunks:
            push_busy += sum(c.seconds for c in chunks)
            push_wall += max(c.end for c in chunks) - min(c.start for c in chunks)
    mc_calls = by_name.get("oracle.mc_density", ())

    raw = {
        "maps.sample_map.s": busy("maps.sample_map"),
        "maps.eval_map.busy_s": busy("maps.eval_map"),
        "maps.points": total("maps.eval_map", "points"),
        "maps.rk4_steps": total("maps.eval_map", "rk4_steps"),
        "partition.detect_extrema.s": busy("partition.detect_extrema"),
        "partition.build_layer_table.s": busy("partition.build_layer_table"),
        "partition.branches": total("partition.detect_extrema", "branches"),
        "partition.intervals": total("partition.build_layer_table", "intervals"),
        "unfold.build_unfolded.s": busy("unfold.build_unfolded"),
        "unfold.eta.calls": sum(len(by_name.get(n, ())) for n in eta),
        "unfold.eta.s": sum(busy(n) for n in eta),
        "density.pushforward_density.self_s": self_s("density.pushforward_density", eta),
        "density.points": total("density.pushforward_density", "points"),
        "oracle.mc_density.self_s": self_s("oracle.mc_density",
                                           ("oracle.draw", "maps.eval_map")),
        "oracle.draw.s": busy("oracle.draw"),
        "oracle.compare.s": busy("oracle.compare"),
        "cli.Experiment.s": busy("cli.Experiment"),
        "cli.self_s": sum(self_time(op.start, op.end,
                                    [(c.start, c.end) for c in in_op.get(op.op, ())])
                          for op in ops),
    }
    out = {name: value / len(ops) for name, value in raw.items()}
    out["oracle.pushforward.efficiency"] = (
        push_busy / (threads * push_wall) if push_wall > 0 else 0.0)
    out["oracle.clamped_fraction"] = (
        sum(s.counts["clamped_fraction"] for s in mc_calls) / len(mc_calls)
        if mc_calls else 0.0)
    return out
