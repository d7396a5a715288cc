"""Command-line front end.

Subcommands chain the pipeline stages (sample -> partition -> unfold ->
density, plus the Monte Carlo baseline and curve-vs-histogram metrics)
and persist every artifact as CSV/JSON.  Experiments are described by a
flat key-section config file; see README for the format and the five
checked-in experiment configs.

Exit codes: 0 success, 2 config error, 3 degenerate input, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .density import (
    DEFAULT_CELLS,
    DensitySpec,
    SinPlusTwo,
    TableDensity,
    Uniform,
    pushforward_density,
)
from .errors import (
    BranchError,
    ConfigError,
    DegenerateInputError,
    DivergenceError,
    RangeError,
    TableConstructionError,
    UnfoldError,
)
from .maps import (
    Duffing,
    GridSpec,
    Logistic,
    MapDefinition,
    Oscillator,
    Pendulum,
    analytic_derivative,
    sample_map,
    table_from_csv,
)
from .oracle import McConfig, compare, mc_density
from .partition import build_layer_table, detect_extrema
from .unfold import build_unfolded

_FLOAT_FMT = ".17g"

_SECTION_KEYS = {
    "map": {"kind", "alpha", "beta", "rate", "iterations", "gain", "amplitude",
            "omega", "time", "t_final", "step", "path"},
    "density": {"kind", "omega", "path"},
    "grid": {"n_div"},
    "pushforward": {"delta_cells", "jacobian"},
    "mc": {"n_samples", "n_bins", "seed"},
    "output": set(),
}


def _fmt(v: float) -> str:
    return format(float(v), _FLOAT_FMT)


def _parse_number(section: dict, key: str, default: str | None = None) -> float:
    """Finite float value of section[key], allowing a/b fractions for
    exact step sizes."""
    text = section[key] if default is None else section.get(key, default)
    if "/" in text:
        num, den = (float(part) for part in text.split("/", 1))
        if den == 0.0:
            raise ValueError(f"zero denominator in {key} = {text}")
        value = num / den
    else:
        value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{key} = {text} is not a finite number")
    return value


def _read_config(path: str) -> dict:
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    sections = {}
    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        keys = dict(parser.items(name))
        unknown = set(keys) - _SECTION_KEYS[name]
        if unknown:
            raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")
        sections[name] = keys
    for required in ("map", "density", "grid"):
        if required not in sections:
            raise ConfigError(f"config is missing the [{required}] section")
    return sections


def _build_map(section: dict, config_dir: str) -> MapDefinition:
    try:
        kind = section["kind"]
        if kind == "table":
            path = os.path.join(config_dir, section["path"])
            if not os.path.exists(path):
                raise ConfigError(f"table file {path!r} does not exist")
            return table_from_csv(path)
        alpha = _parse_number(section, "alpha")
        beta = _parse_number(section, "beta")
        if kind == "logistic":
            return Logistic(alpha=alpha, beta=beta,
                            rate=_parse_number(section, "rate"),
                            iterations=int(section["iterations"]))
        if kind == "oscillator":
            return Oscillator(alpha=alpha, beta=beta,
                              gain=_parse_number(section, "gain"),
                              amplitude=_parse_number(section, "amplitude"),
                              omega=_parse_number(section, "omega"),
                              time=_parse_number(section, "time"))
        if kind == "duffing":
            return Duffing(alpha=alpha, beta=beta,
                           t_final=_parse_number(section, "t_final"),
                           step=_parse_number(section, "step"))
        if kind == "pendulum":
            return Pendulum(alpha=alpha, beta=beta,
                            t_final=_parse_number(section, "t_final"),
                            step=_parse_number(section, "step"))
        raise ConfigError(f"unknown map kind {section.get('kind')!r}")
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad [map] section: {exc}") from exc


def _build_density(section: dict, map_def: MapDefinition, config_dir: str) -> DensitySpec:
    try:
        kind = section["kind"]
        if kind == "sin_plus_two":
            return SinPlusTwo(alpha=map_def.alpha, beta=map_def.beta,
                              omega=_parse_number(section, "omega", "5"))
        if kind == "uniform":
            return Uniform(alpha=map_def.alpha, beta=map_def.beta)
        if kind == "table":
            path = os.path.join(config_dir, section["path"])
            if not os.path.exists(path):
                raise ConfigError(f"density table file {path!r} does not exist")
            tm = table_from_csv(path)
            if (tm.alpha, tm.beta) != (map_def.alpha, map_def.beta):
                raise ConfigError(
                    f"density table spans [{tm.alpha:g}, {tm.beta:g}] but the map "
                    f"domain is [{map_def.alpha:g}, {map_def.beta:g}]")
            return TableDensity(alpha=tm.alpha, beta=tm.beta,
                                xs=tm.xs.copy(), weights=tm.ys.copy())
        raise ConfigError(f"unknown density kind {kind!r}")
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad [density] section: {exc}") from exc


class Experiment:
    """Everything a subcommand needs, parsed from one config file."""

    def __init__(self, config_path: str, seed_override: int | None = None):
        sections = _read_config(config_path)
        config_dir = os.path.dirname(os.path.abspath(config_path))
        self.map_def = _build_map(sections["map"], config_dir)
        self.density = _build_density(sections["density"], self.map_def, config_dir)
        try:
            self.grid = GridSpec(int(sections["grid"]["n_div"]))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad [grid] section: {exc}") from exc
        pf_section = sections.get("pushforward", {})
        try:
            self.delta_cells = int(pf_section.get("delta_cells", str(DEFAULT_CELLS)))
            if self.delta_cells <= 0:
                raise ValueError("delta_cells must be positive")
            self.jacobian = pf_section.get("jacobian", "interpolant")
            if self.jacobian not in ("interpolant", "analytic"):
                raise ValueError(f"unknown jacobian source {self.jacobian!r}")
        except ValueError as exc:
            raise ConfigError(f"bad [pushforward] section: {exc}") from exc
        self.mc = None
        if "mc" in sections:
            try:
                m = sections["mc"]
                self.mc = McConfig(
                    n_samples=int(m.get("n_samples", "1000000")),
                    n_bins=int(m.get("n_bins", "200")),
                    seed=int(m.get("seed", "0")),
                )
            except ValueError as exc:
                raise ConfigError(f"bad [mc] section: {exc}") from exc
        if seed_override is not None and self.mc is not None:
            self.mc = McConfig(n_samples=self.mc.n_samples,
                               n_bins=self.mc.n_bins, seed=seed_override)
        self.fingerprint = hashlib.sha256(
            json.dumps({s: dict(sorted(v.items())) for s, v in sections.items()},
                       sort_keys=True).encode()
        ).hexdigest()[:16]

    def gprime(self):
        if self.jacobian != "analytic":
            return None
        deriv = analytic_derivative(self.map_def)
        if deriv is None:
            raise ConfigError(
                f"map kind {type(self.map_def).__name__} has no analytic derivative"
            )
        return deriv


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: str, columns) -> None:
    """One row per index: integer columns as %d, the rest as %.17g."""
    columns = [np.asarray(c) for c in columns]
    row_fmt = ",".join("%d" if c.dtype.kind in "iu" else "%" + _FLOAT_FMT
                       for c in columns) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(row_fmt % row)


def read_eta_csv(path: str):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1]


def read_curve_csv(path: str):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1], data[:, 2].astype(int)


def read_hist_csv(path: str):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    edges = np.concatenate([data[:, 0], [data[-1, 1]]])
    return edges, data[:, 2]


def _partition_payload(part, table) -> dict:
    return {
        "k": int(part.n_branches),
        "ell": int(len(table.values) - 1),
        "S": part.total_variation,
        "alphas": part.alphas.tolist(),
        "g_alphas": part.g_alphas.tolist(),
        "lambdas": part.lambdas.tolist(),
        "ms": part.masses.tolist(),
        "b": table.values.tolist(),
        "index_sets": [sorted(s) for s in table.index_sets],
        "classifications": [
            {
                "interior_minima": c.interior_minima,
                "interior_maxima": c.interior_maxima,
                "regular": c.regular,
                "endpoint_minima": c.endpoint_minima,
                "endpoint_maxima": c.endpoint_maxima,
            }
            for c in table.classifications
        ],
    }


def _run_direct_stages(exp: Experiment):
    """Sample, partition, unfold, evaluate; returns artifacts and timing."""
    t0 = time.perf_counter()
    sm = sample_map(exp.map_def, exp.grid)
    part = detect_extrema(sm)
    table = build_layer_table(part)
    um = build_unfolded(sm, part)
    delta = (table.g_max - table.g_min) / exp.delta_cells
    curve = pushforward_density(sm, part, table, um, exp.density, delta=delta,
                        gprime=exp.gprime())
    elapsed = time.perf_counter() - t0
    return sm, part, table, um, curve, elapsed


def cmd_partition(exp: Experiment, out_dir: str) -> int:
    sm = sample_map(exp.map_def, exp.grid)
    part = detect_extrema(sm)
    table = build_layer_table(part)
    _write_json(os.path.join(out_dir, "partition.json"),
                _partition_payload(part, table))
    print(f"k = {part.n_branches}")
    print(f"ell = {len(table.values) - 1}")
    print(f"S = {_fmt(part.total_variation)}")
    print("b = " + " ".join(_fmt(v) for v in table.values))
    return 0


def cmd_unfold(exp: Experiment, out_dir: str) -> int:
    sm = sample_map(exp.map_def, exp.grid)
    part = detect_extrema(sm)
    um = build_unfolded(sm, part)
    _write_csv(os.path.join(out_dir, "eta.csv"), "u,x",
               (um.knots_u, um.knots_x))
    print(f"wrote eta.csv with {len(um.knots_u)} knots, S = {_fmt(um.total_variation)}")
    return 0


def cmd_density(exp: Experiment, out_dir: str) -> int:
    sm, part, table, um, curve, elapsed = _run_direct_stages(exp)
    _write_csv(os.path.join(out_dir, "eta.csv"), "u,x",
               (um.knots_u, um.knots_x))
    _write_csv(os.path.join(out_dir, "mu_y.csv"), "y,mu_y,interval_id",
               (curve.ys, curve.mu_ys, curve.interval_ids))
    _write_json(os.path.join(out_dir, "meta.json"), {
        "delta": curve.delta,
        "mass": curve.mass,
        "n_div": exp.grid.n_div,
        "map_fingerprint": exp.fingerprint,
    })
    _write_json(os.path.join(out_dir, "timings.json"), {"direct_seconds": elapsed})
    print(f"mass = {curve.mass:.6f}  points = {len(curve.ys)}  "
          f"direct time = {elapsed:.3f} s")
    return 0


def cmd_mc(exp: Experiment, out_dir: str, threads: int) -> int:
    if exp.mc is None:
        raise ConfigError("config has no [mc] section")
    t0 = time.perf_counter()
    hist = mc_density(exp.map_def, exp.density, exp.mc,
                      scan_grid=exp.grid, threads=threads)
    elapsed = time.perf_counter() - t0
    _write_csv(os.path.join(out_dir, "hist.csv"), "bin_left,bin_right,height",
               (hist.edges[:-1], hist.edges[1:], hist.heights))
    _write_json(os.path.join(out_dir, "timings.json"), {"mc_seconds": elapsed})
    print(f"histogram mass = {hist.mass:.6f}  clamped = {hist.clamped_fraction:.2e}  "
          f"mc time = {elapsed:.3f} s")
    return 0


def cmd_compare(exp: Experiment, out_dir: str, threads: int) -> int:
    if exp.mc is None:
        raise ConfigError("config has no [mc] section; compare needs one")
    sm, part, table, um, curve, direct_seconds = _run_direct_stages(exp)
    t0 = time.perf_counter()
    hist = mc_density(exp.map_def, exp.density, exp.mc,
                      scan_grid=exp.grid, threads=threads)
    mc_seconds = time.perf_counter() - t0
    metrics = compare(curve, hist)
    _write_csv(os.path.join(out_dir, "mu_y.csv"), "y,mu_y,interval_id",
               (curve.ys, curve.mu_ys, curve.interval_ids))
    _write_csv(os.path.join(out_dir, "hist.csv"), "bin_left,bin_right,height",
               (hist.edges[:-1], hist.edges[1:], hist.heights))
    _write_json(os.path.join(out_dir, "metrics.json"), {
        "l1": metrics.l1,
        "sup": metrics.sup,
        "n_samples": exp.mc.n_samples,
        "n_bins": exp.mc.n_bins,
        "seed": exp.mc.seed,
        "clamped_fraction": hist.clamped_fraction,
    })
    _write_json(os.path.join(out_dir, "timings.json"),
                {"direct_seconds": direct_seconds, "mc_seconds": mc_seconds})
    print(f"l1 = {metrics.l1:.4f}  sup = {metrics.sup:.4f}")
    print(f"direct time = {direct_seconds:.3f} s  mc time = {mc_seconds:.3f} s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pushfold",
        description="Pushforward densities of piecewise-monotone maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("partition", "unfold", "density", "mc", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the Monte Carlo seed from the config")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="worker cap for the Monte Carlo pushforward")
    args = parser.parse_args(argv)

    try:
        exp = Experiment(args.config, seed_override=args.seed)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "partition":
            return cmd_partition(exp, args.out)
        if args.command == "unfold":
            return cmd_unfold(exp, args.out)
        if args.command == "density":
            return cmd_density(exp, args.out)
        if args.command == "mc":
            return cmd_mc(exp, args.out, args.threads)
        return cmd_compare(exp, args.out, args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        print("usage: pushfold <command> --config FILE --out DIR", file=sys.stderr)
        return 2
    except DegenerateInputError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 3
    except (DivergenceError, RangeError, BranchError,
            TableConstructionError, UnfoldError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
