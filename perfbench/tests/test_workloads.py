import configparser
from pathlib import Path

import pytest

from perfbench.workloads import WORKLOADS, generate_configs, rewrite_config

CONFIGS = Path(__file__).resolve().parents[2] / "configs"


def _sections(text):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return {name: dict(parser.items(name)) for name in parser.sections()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_configs_differ_only_in_named_keys(workload, tmp_path):
    wl = WORKLOADS[workload]
    paths = generate_configs(wl, CONFIGS, tmp_path)
    assert [p.stem for p in paths] == [inp.name for inp in wl.inputs]
    for inp, path in zip(wl.inputs, paths):
        base_text = (CONFIGS / f"{inp.base}.cfg").read_text()
        text = path.read_text()
        base, new = _sections(base_text), _sections(text)
        for (section, key), value in inp.changes.items():
            assert base[section][key] != value
            assert new[section][key] == value
            new[section][key] = base[section][key]
        assert new == base
        changed = [a for a, b in zip(base_text.splitlines(), text.splitlines()) if a != b]
        assert len(changed) == len(inp.changes)
        assert len(base_text.splitlines()) == len(text.splitlines())


def test_data_files_are_copied_unchanged(tmp_path):
    generate_configs(WORKLOADS["fine-grid"], CONFIGS, tmp_path)
    assert (tmp_path / "parabola.csv").read_bytes() == (CONFIGS / "parabola.csv").read_bytes()


def test_rewrite_is_section_aware_and_rejects_missing_keys():
    text = "[a]\nn = 1\n[b]\nn = 2\n"
    assert rewrite_config(text, {("b", "n"): "5"}) == "[a]\nn = 1\n[b]\nn = 5\n"
    with pytest.raises(ValueError, match=r"\[c\] n"):
        rewrite_config(text, {("c", "n"): "5"})


def test_benchmark_json_matches_the_code():
    import json

    from perfbench.run import END_TO_END_UNITS, LAYER_UNITS

    bench = json.loads((CONFIGS.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
