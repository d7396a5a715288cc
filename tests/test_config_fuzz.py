"""Config fuzzing: any config built from the known sections, keys and
edge-case values exits with 0, 2, 3 or 4, never with a traceback.

Grid, sample, step and cell counts stay small, so one example runs in a
few milliseconds.
"""

import shutil
import tempfile
from pathlib import Path

from conftest import CONFIG_DIR
from hypothesis import given, settings
from hypothesis import strategies as st

from pushfold.cli import main

# values a defect may give any key, "kind" and "path" included
EDGE_VALUES = ("nan", "1/0", "1e999", "1e308", "", "-1", "0", "inf", "x", "1/3")

# kind -> {key: ordinary values}; any choice of ordinary values is valid
MAP_KEYS = {
    "logistic": {"alpha": ("0", "0.25"), "beta": ("1", "0.75"),
                 "rate": ("3.9", "4", "2.5"), "iterations": ("1", "2", "3")},
    "oscillator": {"alpha": ("2", "0"), "beta": ("4", "5"), "gain": ("1", "-2"),
                   "amplitude": ("2", "0"), "omega": ("6", "0.5"),
                   "time": ("1", "0.3")},
    "duffing": {"alpha": ("0",), "beta": ("5", "1"), "t_final": ("1", "2"),
                "step": ("1/8", "0.5")},
    "pendulum": {"alpha": ("0",), "beta": ("1.99", "3.1"), "t_final": ("2", "1"),
                 "step": ("1/8", "0.25")},
    "table": {"path": ("parabola.csv",)},
}
DENSITY_KEYS = {
    "sin_plus_two": {"omega": ("5", "0", "1e308")},
    "uniform": {},
    "table": {"path": ("weights.csv",)},
}
FIXED_SECTIONS = {
    "grid": {"n_div": ("4", "5", "8", "40", "41")},
    "pushforward": {"delta_cells": ("5", "40"),
                    "jacobian": ("interpolant", "analytic")},
    "mc": {"n_samples": ("500", "2000"), "n_bins": ("2", "10"),
           "seed": ("0", "7")},
}
# more defect values: a missing and a short table file, a foreign word
EXTRA_VALUES = ("missing.csv", "short.csv", "extra")
TABLE_FILES = {
    "weights.csv": "x,w\n-1,1\n0,2\n1,1\n",
    "short.csv": "x,y\n0,0\n",
}


@st.composite
def config_text(draw) -> str:
    """An ordinary config of a drawn map and density kind, then up to
    three defects: an edge-case value, a foreign kind, key or section, a
    missing or short table file, a dropped key or a dropped section."""
    kinds = {name: draw(st.sampled_from(sorted(table)))
             for name, table in (("map", MAP_KEYS), ("density", DENSITY_KEYS))}
    keys = {"map": MAP_KEYS[kinds["map"]], "density": DENSITY_KEYS[kinds["density"]],
            **FIXED_SECTIONS}
    sections = {name: {k: draw(st.sampled_from(v)) for k, v in table.items()}
                for name, table in keys.items()}
    for name, kind in kinds.items():
        sections[name]["kind"] = kind
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2, 3)))):
        name = draw(st.sampled_from(sorted(keys) * 3 + ["bogus"]))
        section = sections.setdefault(name, {})
        defect = draw(st.sampled_from(("value", "value", "drop key", "drop section")))
        if defect == "value":
            key = draw(st.sampled_from(sorted(section) + ["extra"]))
            section[key] = draw(st.sampled_from(EDGE_VALUES + EXTRA_VALUES))
        elif defect == "drop key" and section:
            del section[draw(st.sampled_from(sorted(section)))]
        elif defect == "drop section":
            del sections[name]
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                   + "\n" for name, body in sections.items())


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=config_text(),
       command=st.sampled_from(["partition", "unfold", "density", "mc", "compare"]))
def test_config_exits_with_a_known_code(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copy(CONFIG_DIR / "parabola.csv", tmp)
        for name, body in TABLE_FILES.items():
            (tmp / name).write_text(body)
        (tmp / "fuzz.cfg").write_text(text)
        code = main([command, "--config", str(tmp / "fuzz.cfg"),
                     "--out", str(tmp / "out"), "--threads", "1"])
    assert code in (0, 2, 3, 4)
