"""Benchmark of the pushfold command line, run in-process.

    python3 perfbench/run.py --workload fine-grid --seed 1 --seconds 36 --trace 0

Runs one workload (see workloads.py and README.md) as a closed loop: one
client sends ``pushfold.cli.main([...])`` ops back to back, in rounds of
one op per input. Every op's artifacts are checked. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics. The last line of
standard output is the result as one JSON object; the full record,
with the environment, is the line before it and goes to
``.perfbench/<workload>-seed<seed>-trace<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".perfbench"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import stats, tracing, workloads  # noqa: E402

# Seed masses are 0.970 to 0.989; the largest defect, 0.0296, is on
# logistic with 9 iterations. The tolerance leaves room for grid effects.
MASS_TOL = 0.05
L1_GATE = 0.08  # the l1 gate of tests/test_acceptance.py
SETUP_REPEATS = 7

ARTIFACTS = {
    "density": ("eta.csv", "mu_y.csv", "meta.json", "timings.json"),
    "compare": ("mu_y.csv", "hist.csv", "metrics.json", "timings.json"),
}
UNTIMED = "timings.json"  # wall times; outside the byte-identical contract

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "mass_defect": "ratio",
}
# Reported in the record but not in the result line: each is 0, or not
# defined, on some workload.
RECORD_UNITS = {"fail_frac": "ratio", "l1": "ratio", "invariant_breaches": "count"}
LAYER_UNITS = {
    "maps.sample_map.s": "s", "maps.eval_map.busy_s": "s", "maps.points": "count",
    "maps.rk4_steps": "count", "partition.detect_extrema.s": "s",
    "partition.build_layer_table.s": "s", "partition.branches": "count",
    "partition.intervals": "count", "unfold.build_unfolded.s": "s",
    "unfold.eta.calls": "count", "unfold.eta.s": "s",
    "density.pushforward_density.self_s": "s", "density.points": "count",
    "oracle.mc_density.self_s": "s", "oracle.draw.s": "s",
    "oracle.pushforward.efficiency": "ratio", "oracle.compare.s": "s",
    "oracle.clamped_fraction": "ratio", "cli.Experiment.s": "s", "cli.self_s": "s",
    "cli.bytes_written": "count", "trace.overhead": "ratio",
}

_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import pushfold.cli
for cfg in sys.argv[2:]:
    pushfold.cli.Experiment(cfg, seed_override=int(sys.argv[1]))
print(time.perf_counter() - start)
"""


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def non_finite(name: str, data: bytes) -> str | None:
    """Why an artifact is empty, malformed or holds a non-finite number, else None."""
    if name.endswith(".csv"):
        _, _, body = data.partition(b"\n")
        if not body.strip():
            return f"{name} has no rows"
        # floats are written with format(v, ".17g"): nan and inf hold letters
        if body.translate(None, b"0123456789.eE+-,\n"):
            return f"{name} holds a non-numeric or non-finite value"
        return None

    def bad_float(text):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(text)
        return value

    def bad_constant(text):
        raise ValueError(text)

    try:
        json.loads(data, parse_float=bad_float, parse_constant=bad_constant)
    except ValueError as exc:
        return f"{name} is not finite JSON: {exc}"
    return None


class Op:
    """Runs and checks the ops on one input config."""

    def __init__(self, command, cfg: Path, out: Path, seed: int, threads: int):
        self.command = command
        self.name = cfg.stem
        self.out = out
        self.argv = [command, "--config", str(cfg), "--out", str(out),
                     "--seed", str(seed), "--threads", str(threads)]
        self.reference = None  # artifact digests of the first op
        self.first_json = {}   # parsed JSON artifacts of the first op

    def run(self, cli, tracer=None):
        """One op; returns (wall seconds, failure reason or None, bytes written)."""
        shutil.rmtree(self.out, ignore_errors=True)
        log = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                if tracer is None:
                    code = cli.main(self.argv)
                else:
                    code = tracer.call("op", cli.main, (self.argv,))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            seconds = time.perf_counter() - start
            return seconds, f"raised {type(exc).__name__}: {exc}", 0
        seconds = time.perf_counter() - start
        if code != 0:
            return seconds, f"exit code {code}: {log.getvalue().strip()[-200:]}", 0
        problem, written = self.check()
        return seconds, problem, written

    def check(self):
        """Failure reason or None, and the artifact bytes written."""
        digests, parsed, written = {}, {}, 0
        for name in ARTIFACTS[self.command]:
            path = self.out / name
            if not path.is_file():
                return f"{name} missing", written
            data = path.read_bytes()
            problem = non_finite(name, data)
            if problem:
                return problem, written
            if name.endswith(".json"):
                parsed[name] = json.loads(data)
            if name != UNTIMED:
                written += len(data)
                digests[name] = hashlib.sha256(data).hexdigest()
        if self.reference is None:
            self.reference, self.first_json = digests, parsed
        changed = [n for n in digests if digests[n] != self.reference[n]]
        if changed:
            return f"not byte-identical to the first op: {changed}", written
        if self.command == "density":
            mass = parsed["meta.json"].get("mass")
            if not isinstance(mass, float) or abs(mass - 1.0) > MASS_TOL:
                return f"mass {mass} not within 1 +- {MASS_TOL}", written
        else:
            l1 = parsed["metrics.json"].get("l1")
            if not isinstance(l1, float) or not l1 < L1_GATE:
                return f"l1 {l1} not below {L1_GATE}", written
        return None, written


def host_scale() -> float:
    """Reference over current calibration time: below 1 while the host is slow."""
    return stats.CALIBRATION_REF_S / stats.calibration_seconds()


def setup_seconds(cfgs, seed) -> float:
    """Fresh-process time to import pushfold and build every input's Experiment."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(seed), *map(str, cfgs)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
        capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()[-300:]}")
    return float(done.stdout.split()[-1])


def invariant_breaches(pf, cfgs) -> int:
    """Inputs whose layer table fails pushfold.transition_check."""
    breaches = 0
    for cfg in cfgs:
        exp = pf.cli.Experiment(str(cfg))
        part = pf.detect_extrema(pf.sample_map(exp.map_def, exp.grid))
        breaches += not pf.transition_check(pf.build_layer_table(part))
    return breaches


def environment(threads: int) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)), "threads": threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_model": cpu, "caches": caches, "platform": platform.platform(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args) -> dict:
    if not (SRC / "pushfold" / "__init__.py").is_file() or not CONFIGS.is_dir():
        raise BenchError(f"no pushfold sources at {SRC} or no configs at {CONFIGS}")
    sys.path.insert(0, str(SRC))
    import pushfold as pf
    import pushfold.cli as cli

    if not Path(pf.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported pushfold from {pf.__file__}, not from {SRC}")

    workload = workloads.WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cfgs = workloads.generate_configs(workload, CONFIGS, run_dir / "configs")
    ops = [Op(workload.command, cfg, run_dir / "out" / cfg.stem, args.seed, threads)
           for cfg in cfgs]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "command": workload.command,
              "inputs": [op.name for op in ops], "environment": environment(threads)}

    failures = []
    attempted = 0

    def one_round(tracer=None):
        """Runs one op per input; returns (seconds, host scale, bytes written) each."""
        nonlocal attempted
        timings = []
        for op in ops:
            scale = host_scale()
            seconds, problem, written = op.run(cli, tracer)
            attempted += 1
            if problem:
                failures.append(f"{op.name}: {problem}")
            timings.append((seconds, scale, written))
        return timings

    def setup_run():
        scale = host_scale()
        seconds = setup_seconds(cfgs, args.seed)
        setup.append((seconds, scale))

    # set-up probes are spread over the run, one between rounds, so that
    # they sample the host's fast and slow phases as the ops do
    setup = []
    if args.trace == 0:
        setup_run()
    one_round()  # warm-up; its artifacts are the byte-identity reference

    timed, traced, untraced = [], [], []
    tracer = tracing.Tracer()
    loop_start = time.perf_counter()
    passes = 0

    def next_pass_fits():
        # a pass that would end past --seconds is not started, after two
        elapsed = time.perf_counter() - loop_start
        return passes < 2 or elapsed * (passes + 1) / passes <= args.seconds

    while next_pass_fits():
        passes += 1
        if args.trace == 0:
            timed += one_round()
            if len(setup) < SETUP_REPEATS:
                setup_run()
            continue
        untraced += one_round()
        with tracing.installed(tracer):
            traced += one_round(tracer)

    if args.trace:
        missing = tracing.missing_spans(tracer.spans, workload.command)
        if missing:
            raise BenchError(f"traced ops never reached {missing}; "
                             "update the wrapped call sites in perfbench/tracing.py")
        layers = tracing.layer_metrics(tracer.spans, threads)
        layers["cli.bytes_written"] = sum(w for _, _, w in traced) / len(traced)
        rate = len(traced) / sum(s for s, _, _ in traced)
        base = len(untraced) / sum(s for s, _, _ in untraced)
        layers["trace.overhead"] = 1.0 - rate / base
        record["ops"] = {"traced": len(traced), "untraced": len(untraced)}
        record["per_layer"] = layers
        with open(run_dir / "spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
        metrics = {n: metric(layers[n], u) for n, u in LAYER_UNITS.items()}
    else:
        while len(setup) < SETUP_REPEATS:
            setup_run()
        # every time is scaled by the host speed measured just before it:
        # the host's slow phases (README.md) move every plain statistic
        # of a run by more than any bound allows
        wall = [s for s, _, _ in timed]
        host = [s * k for s, k, _ in timed]
        percentile, tail = stats.tail(host)
        masses = []
        if workload.command == "density":
            masses = [op.first_json.get("meta.json", {}).get("mass") for op in ops]
        else:
            # compare writes no meta.json: the same direct path run once by
            # `density` on each input gives the mass
            for op in ops:
                aux = Op("density", Path(op.argv[2]), run_dir / "aux" / op.name,
                         args.seed, threads)
                _, problem, _ = aux.run(cli)
                attempted += 1
                if problem:
                    failures.append(f"{op.name} (density, for mass): {problem}")
                masses.append(aux.first_json.get("meta.json", {}).get("mass"))
        l1s = [op.first_json.get("metrics.json", {}).get("l1") for op in ops]
        values = {
            "ops_per_s": len(host) / sum(host),
            "op_p50_s": statistics.median(host),
            "op_tail_s": tail,
            "setup_s": statistics.median(s * k for s, k in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # an input with no readable mass counts as missing all of it
            "mass_defect": max(1.0 if m is None else abs(1.0 - m) for m in masses),
            "fail_frac": len(failures) / attempted,
            "l1": max(l1s) if workload.command == "compare" and None not in l1s else None,
            "invariant_breaches": invariant_breaches(pf, cfgs),
        }
        record["ops"] = {"timed": len(timed), "per_input": len(timed) // len(ops),
                         "tail_percentile": percentile}
        record["wall"] = {"ops_per_s": len(wall) / sum(wall),
                          "op_p50_s": statistics.median(wall),
                          "op_tail_s": stats.tail(wall)[1],
                          "setup_s": statistics.median(s for s, _ in setup)}
        record["op_seconds"] = wall
        record["op_host_scale"] = [k for _, k, _ in timed]
        record["setup_runs"] = setup
        record["end_to_end"] = {n: metric(values[n], u)
                                for n, u in {**END_TO_END_UNITS, **RECORD_UNITS}.items()}
        metrics = {n: metric(values[n], u) for n, u in END_TO_END_UNITS.items()}

    record["attempted"] = attempted
    record["failures"] = failures
    shutil.rmtree(run_dir / "out", ignore_errors=True)
    shutil.rmtree(run_dir / "aux", ignore_errors=True)
    with open(run_dir / "result.json", "w") as fh:
        json.dump(record, fh, indent=1)
    record["result"] = {"correct": not failures, "attempted": attempted,
                        "failed": len(failures), "metrics": metrics}
    return record


def report(record) -> None:
    """Human-readable summary of one run."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  ops {record['ops']}  attempted {record['attempted']}")
    table = record.get("end_to_end") or {
        n: metric(v, LAYER_UNITS[n]) for n, v in record["per_layer"].items()}
    for name, m in table.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:36s} {value:>14s} {m['unit']}")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(record)
    result = record.pop("result")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
