"""The benchmark's workloads and the configs they run.

Every input config is a checked-in config under ``configs/`` with only
the named keys rewritten, so a workload stays tied to the reference
experiments the acceptance suite checks.
"""

from __future__ import annotations

import re
import shutil
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Input:
    name: str  # file name of the generated config, without .cfg
    base: str  # checked-in config it is derived from, without .cfg
    changes: dict  # {(section, key): new value}


@dataclass(frozen=True)
class Workload:
    command: str  # pushfold subcommand one op runs
    inputs: tuple


# Sized so that one op on every input fits several times into a run of a
# few tens of seconds on 2 cores; see README.md for why each axis matters.
WORKLOADS = {
    "fine-grid": Workload(
        command="density",
        inputs=tuple(
            Input(base, base, {("grid", "n_div"): "200000"})
            for base in ("logistic3", "oscillator", "parabola")
        ),
    ),
    "many-branches": Workload(
        command="density",
        inputs=tuple(
            Input(f"logistic3-it{it}", "logistic3",
                  {("map", "iterations"): str(it), ("grid", "n_div"): "20000"})
            for it in (7, 8, 9)
        ),
    ),
    "ode-mc": Workload(
        command="compare",
        inputs=tuple(
            Input(base, base, {("mc", "n_samples"): "262144"})
            for base in ("duffing", "pendulum")
        ),
    ),
}

_SECTION = re.compile(r"^\[(?P<name>[^\]]+)\]\s*$")
_KEY = re.compile(r"^(?P<key>[A-Za-z_][A-Za-z0-9_]*)(?P<sep>\s*=\s*)(?P<value>.*)$")


def rewrite_config(text: str, changes: dict) -> str:
    """Return config text with only the named ``(section, key)`` values replaced.

    Every other byte is kept. Raises ValueError when a named key does
    not occur exactly once in its section.
    """
    seen = dict.fromkeys(changes, 0)
    section = None
    lines = []
    for line in text.splitlines(keepends=True):
        body = line.rstrip("\r\n")
        head = _SECTION.match(body)
        if head:
            section = head["name"]
        else:
            kv = _KEY.match(body)
            if kv and (section, kv["key"]) in changes:
                seen[(section, kv["key"])] += 1
                new = changes[(section, kv["key"])]
                line = f"{kv['key']}{kv['sep']}{new}{line[len(body):]}"
        lines.append(line)
    wrong = [f"[{s}] {k}" for (s, k), n in seen.items() if n != 1]
    if wrong:
        raise ValueError(f"keys not found exactly once: {', '.join(wrong)}")
    return "".join(lines)


def generate_configs(workload: Workload, configs_dir: Path, out_dir: Path) -> list:
    """Write the workload's input configs into out_dir; return their paths.

    Data files the checked-in configs name by relative path (the
    parabola table) are copied alongside, unchanged.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for data in configs_dir.glob("*.csv"):
        shutil.copyfile(data, out_dir / data.name)
    paths = []
    for inp in workload.inputs:
        text = (configs_dir / f"{inp.base}.cfg").read_text()
        path = out_dir / f"{inp.name}.cfg"
        path.write_text(rewrite_config(text, inp.changes))
        paths.append(path)
    return paths
