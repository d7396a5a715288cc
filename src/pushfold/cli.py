"""Command-line front end.

Commands chain the pipeline stages (sample -> partition -> unfold ->
density, plus the Monte Carlo baseline and its distance from the exact
bin masses of F_Y) and persist every artifact as CSV/JSON.  Experiments
are described by a flat key-section config file; see README for the
format and the five checked-in experiment configs.

One argument parser serves every command: the command name is a
positional argument and the four options (--config, --out, --seed,
--threads) are shared, so they may come before or after it.
``partition``, ``unfold`` and ``density`` ignore --seed and --threads.

Exit codes: 0 success, 2 config or usage error (an array too large for
memory included), 3 degenerate input, 4 numerical failure (any
``NumericalError`` or ``FloatingPointError``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .csvfmt import write_rows
from .density import DEFAULT_CELLS, DENSITY_KINDS, pushforward_cdf, pushforward_density
from .errors import ConfigError, DegenerateInputError, NumericalError
from .maps import MAP_KINDS, GridSpec, sample_map, table_from_csv
from .oracle import McConfig, compare, mc_density
from .partition import PREIMAGE_KINDS, build_layer_table, detect_extrema
from .unfold import build_unfolded

_FLOAT_FMT = ".17g"

# [map] and [density] take the keys of their kind; see _build_variant
_SECTION_KEYS = {
    "map": None,
    "density": None,
    "grid": {"n_div"},
    "pushforward": {"delta_cells", "jacobian"},
    "mc": {"n_samples", "n_bins", "seed"},
}


def _fmt(v: float) -> str:
    return format(float(v), _FLOAT_FMT)


def _parse_number(section: dict, key: str) -> float:
    """Finite float value of section[key], allowing a/b fractions for
    exact step sizes."""
    text = section[key]
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
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    sections = {}
    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        keys = dict(parser.items(name))
        unknown = set(keys) - (_SECTION_KEYS[name] or set(keys))
        if unknown:
            raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")
        sections[name] = keys
    for required in ("map", "density", "grid"):
        if required not in sections:
            raise ConfigError(f"config is missing the [{required}] section")
    return sections


def _build_variant(name: str, kinds: dict, section: dict, config_dir: str,
                   domain: tuple | None = None):
    """The variant a [map] or [density] section names by its kind.

    The keys are the kind's init fields, required where the field has no
    default; a table kind reads ``path`` instead.  A density passes the
    map's (alpha, beta) as ``domain`` rather than taking them as keys.
    """
    try:
        kind = section["kind"]
        if kind not in kinds:
            raise ConfigError(f"unknown {name} kind {kind!r}")
        cls = kinds[kind]
        fields = [f for f in dataclasses.fields(cls) if f.init
                  and not (domain and f.name in ("alpha", "beta"))]
        from_file = kind == "table"
        keys = {"path"} if from_file else {f.name for f in fields}
        unknown = set(section) - keys - {"kind"}
        if unknown:
            raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")
        if from_file:
            tm = table_from_csv(os.path.join(config_dir, section["path"]))
            # both table kinds take (alpha, beta, xs, values)
            return cls(*(domain or (tm.alpha, tm.beta)), tm.xs, tm.ys)
        values = {f.name: int(section[f.name]) if f.type in (int, "int")
                  else _parse_number(section, f.name)
                  for f in fields
                  if f.name in section or f.default is dataclasses.MISSING}
        return cls(*(domain or ()), **values)
    except (KeyError, ValueError, OSError) as exc:
        raise ConfigError(f"bad [{name}] section: {exc}") from exc


class Experiment:
    """Everything a subcommand needs, parsed from one config file."""

    def __init__(self, config_path: str, seed_override: int | None = None):
        sections = _read_config(config_path)
        config_dir = os.path.dirname(os.path.abspath(config_path))
        self.map_def = _build_variant("map", MAP_KINDS, sections["map"], config_dir)
        self.density = _build_variant("density", DENSITY_KINDS, sections["density"],
                                      config_dir, (self.map_def.alpha, self.map_def.beta))
        try:
            self.grid = GridSpec(int(sections["grid"]["n_div"]))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad [grid] section: {exc}") from exc
        pf_section = sections.get("pushforward", {})
        try:
            self.delta_cells = int(pf_section.get("delta_cells", str(DEFAULT_CELLS)))
            if self.delta_cells <= 0:
                raise ValueError("delta_cells must be positive")
            jacobian = pf_section.get("jacobian", "interpolant")
            if jacobian not in ("interpolant", "analytic"):
                raise ValueError(f"unknown jacobian source {jacobian!r}")
            # dg/dx for the analytic Jacobian, None for the interpolant
            self.gprime = None
            if jacobian == "analytic":
                self.gprime = self.map_def.derivative
                if self.gprime is None:
                    raise ValueError(f"map kind {sections['map']['kind']!r} has no "
                                     "analytic derivative")
        except ValueError as exc:
            raise ConfigError(f"bad [pushforward] section: {exc}") from exc
        self.mc = None
        if "mc" in sections:
            try:
                self.mc = McConfig(**{k: int(v) for k, v in sections["mc"].items()})
            except ValueError as exc:
                raise ConfigError(f"bad [mc] section: {exc}") from exc
            if seed_override is not None:
                try:
                    self.mc = dataclasses.replace(self.mc, seed=seed_override)
                except ValueError as exc:
                    raise ConfigError(f"bad --seed: {exc}") from exc
        self.fingerprint = hashlib.sha256(
            json.dumps({s: dict(sorted(v.items())) for s, v in sections.items()},
                       sort_keys=True).encode()
        ).hexdigest()[:16]


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: str, columns) -> None:
    """One row per index: integer columns as %d, the rest as %.17g."""
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        write_rows(fh, columns)


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
        "index_sets": [(np.flatnonzero(row) + 1).tolist() for row in table.covering],
        "classifications": [dict(zip(PREIMAGE_KINDS, row))
                            for row in table.counts.tolist()],
    }


def _run_direct_stages(exp: Experiment):
    """Sample, partition, unfold, evaluate; returns part, um, curve, seconds."""
    t0 = time.perf_counter()
    sm = sample_map(exp.map_def, exp.grid)
    part = detect_extrema(sm)
    um = build_unfolded(sm, part)
    table = build_layer_table(part)
    curve = pushforward_density(part, table, um, exp.density,
                                cells=exp.delta_cells, gprime=exp.gprime)
    elapsed = time.perf_counter() - t0
    return part, um, curve, elapsed


def cmd_partition(exp: Experiment, out_dir: str, threads: int) -> None:
    sm = sample_map(exp.map_def, exp.grid)
    part = detect_extrema(sm)
    table = build_layer_table(part)
    _write_json(os.path.join(out_dir, "partition.json"),
                _partition_payload(part, table))
    print(f"k = {part.n_branches}")
    print(f"ell = {len(table.values) - 1}")
    print(f"S = {_fmt(part.total_variation)}")
    print("b = " + " ".join(_fmt(v) for v in table.values))


def cmd_unfold(exp: Experiment, out_dir: str, threads: int) -> None:
    sm = sample_map(exp.map_def, exp.grid)
    part = detect_extrema(sm)
    um = build_unfolded(sm, part)
    _write_csv(os.path.join(out_dir, "eta.csv"), "u,x",
               (um.knots_u, um.knots_x))
    print(f"wrote eta.csv with {len(um.knots_u)} knots, S = {_fmt(um.total_variation)}")


def cmd_density(exp: Experiment, out_dir: str, threads: int) -> None:
    _, um, curve, elapsed = _run_direct_stages(exp)
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


def _run_mc(exp: Experiment, out_dir: str, threads: int):
    """Monte Carlo histogram, written to hist.csv; returns it and its timing."""
    if exp.mc is None:
        raise ConfigError("config has no [mc] section")
    t0 = time.perf_counter()
    hist = mc_density(exp.map_def, exp.density, exp.mc,
                      scan_grid=exp.grid, threads=threads)
    elapsed = time.perf_counter() - t0
    _write_csv(os.path.join(out_dir, "hist.csv"), "bin_left,bin_right,height",
               (hist.edges[:-1], hist.edges[1:], hist.heights))
    return hist, elapsed


def cmd_mc(exp: Experiment, out_dir: str, threads: int) -> None:
    hist, elapsed = _run_mc(exp, out_dir, threads)
    _write_json(os.path.join(out_dir, "timings.json"), {"mc_seconds": elapsed})
    print(f"clamped = {hist.clamped_fraction:.2e}  mc time = {elapsed:.3f} s")


def cmd_compare(exp: Experiment, out_dir: str, threads: int) -> None:
    if exp.mc is None:
        raise ConfigError("config has no [mc] section; compare needs one")
    part, um, curve, direct_seconds = _run_direct_stages(exp)
    hist, mc_seconds = _run_mc(exp, out_dir, threads)
    metrics = compare(pushforward_cdf(part, um, exp.density, hist.edges), hist)
    _write_csv(os.path.join(out_dir, "mu_y.csv"), "y,mu_y,interval_id",
               (curve.ys, curve.mu_ys, curve.interval_ids))
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


_COMMANDS = {"partition": cmd_partition, "unfold": cmd_unfold, "density": cmd_density,
             "mc": cmd_mc, "compare": cmd_compare}


def _worker_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pushfold",
        description="Pushforward densities of piecewise-monotone maps.",
    )
    parser.add_argument("command", help="pipeline stage to run",
                        choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the Monte Carlo seed from the config "
                             "(mc and compare only)")
    parser.add_argument("--threads", type=_worker_count, default=os.cpu_count() or 1,
                        help="worker cap for the Monte Carlo pushforward "
                             "(mc and compare only)")
    args = parser.parse_args(argv)

    try:
        exp = Experiment(args.config, seed_override=args.seed)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            parser.error(f"--out {args.out}: {exc.strerror}")
        _COMMANDS[args.command](exp, args.out, args.threads)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        print("usage: pushfold <command> --config FILE --out DIR", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: the config's sizes need more memory than there is: {exc}",
              file=sys.stderr)
        return 2
    except DegenerateInputError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
