import inspect
import json
import shutil
import threading
import time
import tracemalloc

import numpy as np
import pytest
from conftest import CONFIG_DIR
from hypothesis import given, settings
from hypothesis import strategies as st

import pushfold.cli as cli
from pushfold import csvfmt, errors
from pushfold.cli import _write_csv, main
from pushfold.partition import PREIMAGE_KINDS


def run(*argv):
    return main([str(a) for a in argv])


def read_eta_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1]


def read_curve_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1], data[:, 2].astype(int)


def read_hist_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    edges = np.concatenate([data[:, 0], [data[-1, 1]]])
    return edges, data[:, 2]


def write_config(path, body):
    path.write_text(body)
    return path


IDENTITY_CSV = "x,y\n" + "".join(f"{v},{v}\n" for v in np.linspace(0, 1, 41))

IDENTITY_CFG = """\
[map]
kind = table
path = identity.csv

[density]
kind = uniform

[grid]
n_div = 40

[mc]
n_samples = 100000
n_bins = 40
seed = 4242
"""


@pytest.fixture
def identity_config(tmp_path):
    (tmp_path / "identity.csv").write_text(IDENTITY_CSV)
    return write_config(tmp_path / "identity.cfg", IDENTITY_CFG)


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, identity_config, capsys):
        bad = identity_config.read_text().replace("[grid]", "[grid]\nn_divv = 7")
        cfg = write_config(tmp_path / "bad.cfg", bad)
        assert run("partition", "--config", cfg, "--out", tmp_path / "o") == 2

    def test_missing_section(self, tmp_path):
        cfg = write_config(tmp_path / "bad.cfg", "[map]\nkind = logistic\n")
        assert run("partition", "--config", cfg, "--out", tmp_path / "o") == 2

    def test_missing_table_file(self, tmp_path, capsys):
        # open's OSError names the file
        cfg = write_config(tmp_path / "bad.cfg", IDENTITY_CFG)
        assert run("partition", "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "No such file" in err and str(tmp_path / "identity.csv") in err

    def test_compare_without_mc_block(self, tmp_path, capsys):
        body = IDENTITY_CFG.split("[mc]")[0]
        (tmp_path / "identity.csv").write_text(IDENTITY_CSV)
        cfg = write_config(tmp_path / "nomc.cfg", body)
        assert run("compare", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "usage" in capsys.readouterr().err

    def test_nonexistent_config(self, tmp_path):
        assert run("partition", "--config", tmp_path / "nope.cfg",
                   "--out", tmp_path / "o") == 2

    def test_zero_denominator_is_a_config_error(self, tmp_path, capsys):
        body = (CONFIG_DIR / "duffing.cfg").read_text()
        body = "\n".join("step = 5/0" if line.startswith("step") else line
                         for line in body.splitlines())
        cfg = write_config(tmp_path / "zero.cfg", body)
        assert run("partition", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_nan_in_map_table_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "identity.csv").write_text(
            IDENTITY_CSV.replace("0.5,0.5", "0.5,nan"))
        cfg = write_config(tmp_path / "identity.cfg", IDENTITY_CFG)
        assert run("density", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "finite" in capsys.readouterr().err

    def test_nan_in_density_table_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "identity.csv").write_text(IDENTITY_CSV)
        (tmp_path / "weights.csv").write_text(
            IDENTITY_CSV.replace("0.5,0.5", "0.5,nan"))
        body = IDENTITY_CFG.replace("kind = uniform",
                                    "kind = table\npath = weights.csv")
        cfg = write_config(tmp_path / "weighted.cfg", body)
        out = tmp_path / "o"
        assert run("density", "--config", cfg, "--out", out) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "mu_y.csv").exists()


    @pytest.mark.parametrize("config,key,value", [
        ("logistic3", "omega", "nan"),
        ("logistic3", "rate", "-inf"),
        ("oscillator", "gain", "nan"),
        ("oscillator", "time", "nan"),
        ("oscillator", "amplitude", "inf"),
        ("duffing", "step", "5/nan"),
        ("duffing", "t_final", "1e999"),
    ])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys,
                                                 config, key, value):
        body = "\n".join(f"{key} = {value}" if line.split(" = ")[0] == key else line
                         for line in (CONFIG_DIR / f"{config}.cfg").read_text().splitlines())
        cfg = write_config(tmp_path / "bad.cfg", body)
        out = tmp_path / "o"
        assert run("density", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{key} = {value} is not a finite number" in err
        assert not (out / "mu_y.csv").exists()

    @pytest.mark.parametrize("command", ["partition", "density"])
    def test_step_count_overflow_is_a_config_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "bad.cfg", reference_config(
            "duffing", [("t_final = 5", "t_final = 1e308"), ("step = 5/300", "step = 1/8")]))
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "t_final / step overflows the step count" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind,t_final,step,n_div", [
        ("duffing", "5", "5/300", "300"), ("pendulum", "18", "18/200", "200")],
        ids=["duffing", "pendulum"])
    @pytest.mark.parametrize("command", ["partition", "density"])
    def test_step_count_past_the_cap_is_a_config_error(self, tmp_path, capsys, command,
                                                       kind, t_final, step, n_div):
        # finite, but 10^300 RK4 steps would never finish
        cfg = write_config(tmp_path / "long.cfg", reference_config(kind, [
            (f"t_final = {t_final}", "t_final = 1e300"), (f"step = {step}", "step = 1"),
            (f"n_div = {n_div}", "n_div = 4")]))
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert ("t_final / step overflows the step count: 1e+300 is more than "
                "1000000 RK4 steps") in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["partition", "density"])
    def test_iterations_past_the_cap_is_a_config_error(self, tmp_path, capsys, command):
        # 10^12 logistic iterations would never finish, even on five points
        cfg = write_config(tmp_path / "long.cfg", reference_config("logistic3", [
            ("iterations = 3", "iterations = 1000000000000"), ("n_div = 400", "n_div = 4")]))
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert ("bad [map] section: iterations must lie in 1..1000000, "
                "got 1000000000000") in err and "Traceback" not in err

    @pytest.mark.parametrize("command,edits", [
        ("partition", [("n_div = 400", "n_div = 100000000000000000")]),
        ("density", [("delta_cells = 500", "delta_cells = 100000000000000000")]),
        ("density", [("delta_cells = 500", f"delta_cells = {10 ** 30}")]),
    ], ids=["n_div", "delta_cells", "delta_cells_past_int64"])
    def test_an_array_too_large_for_memory_is_a_config_error(self, tmp_path, capsys,
                                                             command, edits):
        # 8*10^17 bytes fit in no 64-bit address space, so numpy refuses
        # the array at once and nothing is touched
        shutil.copy(CONFIG_DIR / "parabola.csv", tmp_path)
        cfg = write_config(tmp_path / "huge.cfg", reference_config("parabola", edits))
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "config error: the config's sizes need more memory than there is" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["mc", "compare"])
    @pytest.mark.parametrize("n_bins", ["200", "100000000000000000"],
                             ids=["n_samples", "n_bins"])
    def test_a_sample_count_past_the_cap_is_a_config_error(self, tmp_path, capsys,
                                                           command, n_bins):
        # 10^17 samples would stream for ever; with 10^17 bins too, the
        # cap on the samples is the defect reported
        shutil.copy(CONFIG_DIR / "parabola.csv", tmp_path)
        cfg = write_config(tmp_path / "many.cfg", reference_config("parabola", [
            ("n_samples = 1000000", "n_samples = 100000000000000000"),
            ("n_bins = 200", f"n_bins = {n_bins}")]))
        out = tmp_path / "o"
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            assert run(command, "--config", cfg, "--out", out) == 2
            seconds.append(time.perf_counter() - t0)
        assert min(seconds) < 0.005, seconds
        err = capsys.readouterr().err
        assert err.count("config error: bad [mc] section: n_samples must be at most "
                         "1000000000, got 100000000000000000") == 3
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command", ["mc", "compare"])
    def test_a_bin_count_past_the_cap_is_a_config_error(self, tmp_path, capsys, command):
        # 10^9 bins pass the sample cap at 10^9 samples but would ask for
        # several 8 GB bin-sized arrays; the bin cap refuses them at once
        shutil.copy(CONFIG_DIR / "parabola.csv", tmp_path)
        cfg = write_config(tmp_path / "bins.cfg", reference_config("parabola", [
            ("n_samples = 1000000", "n_samples = 1000000000"),
            ("n_bins = 200", "n_bins = 1000000000")]))
        out = tmp_path / "o"
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            assert run(command, "--config", cfg, "--out", out) == 2
            seconds.append(time.perf_counter() - t0)
        assert min(seconds) < 0.005, seconds
        err = capsys.readouterr().err
        assert err.count("config error: bad [mc] section: n_bins must be at most "
                         "1000000, got 1000000000") == 3
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command,message", [
        ("mc", "config has no [mc] section"),
        ("compare", "config has no [mc] section; compare needs one"),
    ], ids=["mc", "compare"])
    def test_mc_commands_need_an_mc_section(self, tmp_path, capsys, command, message):
        (tmp_path / "identity.csv").write_text(IDENTITY_CSV)
        cfg = write_config(tmp_path / "nomc.cfg", IDENTITY_CFG.split("[mc]")[0])
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {message}", "usage: pushfold <command> --config FILE --out DIR"]
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("lo,hi,code", [
        (0.2, 0.8, 2), (-0.5, 1.5, 2), (0.0, 0.9, 2), (0.0, 1.0, 0)])
    @pytest.mark.parametrize("command", ["density", "compare"])
    def test_density_table_must_span_the_map_domain(self, tmp_path, capsys,
                                                    lo, hi, code, command):
        (tmp_path / "identity.csv").write_text(IDENTITY_CSV)
        (tmp_path / "weights.csv").write_text(
            "x,w\n" + "".join(f"{x},1\n" for x in np.linspace(lo, hi, 11)))
        body = IDENTITY_CFG.replace("kind = uniform",
                                    "kind = table\npath = weights.csv")
        cfg = write_config(tmp_path / "weighted.cfg", body)
        out = tmp_path / "o"
        assert run(command, "--config", cfg, "--out", out) == code
        err = capsys.readouterr().err
        if code:
            assert "bad [density] section" in err
            assert f"table spans [{lo:g}, {hi:g}] but the domain is [0, 1]" in err
            assert not (out / "mu_y.csv").exists()


def reference_config(name, replace=()):
    """Text of a checked-in config with (old, new) substring edits."""
    body = (CONFIG_DIR / f"{name}.cfg").read_text()
    for old, new in replace:
        assert old in body
        body = body.replace(old, new, 1)
    return body


MAP_SECTIONS = {
    "logistic": "kind = logistic\nalpha = 0\nbeta = 1\nrate = 3.9\niterations = 3\n",
    "oscillator": ("kind = oscillator\nalpha = 2\nbeta = 4\ngain = 1\n"
                   "amplitude = 2\nomega = 6\ntime = 1\n"),
    "duffing": "kind = duffing\nalpha = 0\nbeta = 5\nt_final = 5\nstep = 5/300\n",
    "pendulum": "kind = pendulum\nalpha = 0\nbeta = 1.99\nt_final = 18\nstep = 18/200\n",
    "table": "kind = table\npath = identity.csv\n",
}

DENSITY_SECTIONS = {
    "sin_plus_two": "kind = sin_plus_two\nomega = 5\n",
    "uniform": "kind = uniform\n",
    "table": "kind = table\npath = weights.csv\n",
}


def variant_config(tmp_path, map_section, density_section):
    """A config with the given [map] and [density] bodies, next to
    identity map and flat weight tables on [0, 1]."""
    (tmp_path / "identity.csv").write_text(IDENTITY_CSV)
    (tmp_path / "weights.csv").write_text(IDENTITY_CSV.replace("x,y", "x,w"))
    body = (f"[map]\n{map_section}\n[density]\n{density_section}\n"
            "[grid]\nn_div = 40\n")
    return write_config(tmp_path / "variant.cfg", body)


def assert_config_error(tmp_path, capsys, cfg, *extra):
    out = tmp_path / "o"
    assert run("partition", "--config", cfg, "--out", out, *extra) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (out / "partition.json").exists()
    return err


class TestConfigDefects:
    """Every defect in a config or its files exits 2 without a traceback."""

    @pytest.mark.parametrize("kind,key", [
        ("logistic", "gain = 1"), ("oscillator", "rate = 3.9"),
        ("duffing", "iterations = 2"), ("pendulum", "omega = 1"),
        ("table", "alpha = 0"),
    ])
    def test_foreign_map_key(self, tmp_path, capsys, kind, key):
        cfg = variant_config(tmp_path, MAP_SECTIONS[kind] + key + "\n",
                             DENSITY_SECTIONS["uniform"])
        err = assert_config_error(tmp_path, capsys, cfg)
        assert f"unknown keys in [map]: ['{key.split()[0]}']" in err

    @pytest.mark.parametrize("kind,key", [
        ("sin_plus_two", "path = weights.csv"), ("uniform", "omega = 7"),
        ("table", "omega = 5"), ("uniform", "alpha = 0"),
    ])
    def test_foreign_density_key(self, tmp_path, capsys, kind, key):
        cfg = variant_config(tmp_path, MAP_SECTIONS["logistic"],
                             DENSITY_SECTIONS[kind] + key + "\n")
        err = assert_config_error(tmp_path, capsys, cfg)
        assert f"unknown keys in [density]: ['{key.split()[0]}']" in err

    @pytest.mark.parametrize("kind", ["duffing", "pendulum"])
    @pytest.mark.parametrize("key", ["step = 0", "step = -1/10", "t_final = 0"])
    def test_non_positive_step_or_time(self, tmp_path, capsys, kind, key):
        body = "\n".join(key if line.startswith(key.split()[0] + " ") else line
                         for line in MAP_SECTIONS[kind].splitlines()) + "\n"
        cfg = variant_config(tmp_path, body, DENSITY_SECTIONS["uniform"])
        err = assert_config_error(tmp_path, capsys, cfg)
        assert "bad [map] section: step and t_final must be positive" in err

    @pytest.mark.parametrize("map_kind,density_kind", [
        *((kind, "uniform") for kind in sorted(MAP_SECTIONS)),
        *(("logistic", kind) for kind in sorted(DENSITY_SECTIONS)),
    ])
    def test_own_keys_accepted(self, tmp_path, map_kind, density_kind):
        cfg = variant_config(tmp_path, MAP_SECTIONS[map_kind],
                             DENSITY_SECTIONS[density_kind])
        assert run("partition", "--config", cfg, "--out", tmp_path / "o") == 0

    @pytest.mark.parametrize("kind,key", [
        (kind, line.split(" = ")[0])
        for kind, body in sorted(MAP_SECTIONS.items())
        for line in body.splitlines() if not line.startswith("kind")
    ])
    def test_missing_map_key(self, tmp_path, capsys, kind, key):
        body = "".join(line + "\n" for line in MAP_SECTIONS[kind].splitlines()
                       if not line.startswith(key + " "))
        cfg = variant_config(tmp_path, body, DENSITY_SECTIONS["uniform"])
        err = assert_config_error(tmp_path, capsys, cfg)
        assert f"bad [map] section: '{key}'" in err

    @pytest.mark.parametrize("section,kind", [("map", "logistic"),
                                              ("density", "sin_plus_two")])
    def test_unknown_kind(self, tmp_path, capsys, section, kind):
        cfg = write_config(tmp_path / "bad.cfg", reference_config(
            "logistic3", [(f"kind = {kind}", "kind = gaussian")]))
        err = assert_config_error(tmp_path, capsys, cfg)
        assert f"unknown {section} kind 'gaussian'" in err

    @pytest.mark.parametrize("body", [
        reference_config("logistic3", [("kind = logistic", "kind = logistic\nkind = table")]),
        "kind = logistic\n" + reference_config("logistic3"),
        reference_config("logistic3", [("[grid]", "[grid]\nn_div 400")]),
        reference_config("logistic3") + "\n[output]\n",
    ], ids=["duplicate-key", "key-before-section", "line-without-equals",
            "output-section"])
    def test_malformed_config(self, tmp_path, capsys, body):
        assert_config_error(tmp_path, capsys, write_config(tmp_path / "bad.cfg", body))

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe" + reference_config("logistic3").encode())
        assert_config_error(tmp_path, capsys, cfg)

    @pytest.mark.parametrize("table,message", [
        pytest.param("", "data rows", id="empty"),
        pytest.param("x,y\n", "data rows", id="header-only"),
        pytest.param("x,y\n0,0\n0.5\n1,1\n", "data rows", id="short-row"),
        # read with its first row as the header, this would be a table on [0.5, 1]
        pytest.param("0,0\n0.5,1\n1,0\n", "header", id="headerless"),
    ])
    @pytest.mark.parametrize("section", ["map", "density"])
    def test_short_table_file(self, tmp_path, capsys, table, message, section):
        name = "identity.csv" if section == "map" else "weights.csv"
        cfg = variant_config(tmp_path, MAP_SECTIONS["table"], DENSITY_SECTIONS["table"])
        (tmp_path / name).write_text(table)
        err = assert_config_error(tmp_path, capsys, cfg)
        assert f"bad [{section}] section" in err
        assert message in err and name in err

    @pytest.mark.parametrize("edit", [("alpha = 0", "alpha = -0.5"),
                                      ("beta = 1", "beta = 1.5")])
    def test_logistic_domain_outside_unit_interval(self, tmp_path, capsys, edit):
        cfg = write_config(tmp_path / "bad.cfg", reference_config("logistic3", [edit]))
        err = assert_config_error(tmp_path, capsys, cfg)
        assert "must lie in [0, 1]" in err

    def test_negative_config_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", reference_config(
            "logistic3", [("seed = 12345", "seed = -1")]))
        assert "seed must be >= 0" in assert_config_error(tmp_path, capsys, cfg)

    def test_negative_seed_override(self, tmp_path, capsys):
        err = assert_config_error(tmp_path, capsys, CONFIG_DIR / "logistic3.cfg",
                                  "--seed", -3)
        assert "bad --seed: seed must be >= 0" in err and "[mc]" not in err

    @pytest.mark.parametrize("command", ["partition", "unfold", "density", "mc", "compare"])
    @pytest.mark.parametrize("kind", ["duffing", "pendulum", "table"])
    def test_analytic_jacobian_needs_a_derivative(self, tmp_path, capsys, kind, command):
        cfg = variant_config(tmp_path, MAP_SECTIONS[kind], DENSITY_SECTIONS["uniform"])
        cfg.write_text(cfg.read_text() + "[pushforward]\njacobian = analytic\n"
                       "[mc]\nn_samples = 1000\n")
        out = tmp_path / "o"
        assert run(command, "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"map kind '{kind}' has no analytic derivative" in err
        assert "Traceback" not in err and not out.exists()


class TestDensityDefaults:
    def test_omitted_omega_is_five(self, tmp_path):
        cfg = write_config(tmp_path / "default.cfg", reference_config(
            "logistic3", [("kind = sin_plus_two\nomega = 5\n", "kind = sin_plus_two\n")]))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("density", "--config", CONFIG_DIR / "logistic3.cfg", "--out", a) == 0
        assert run("density", "--config", cfg, "--out", b) == 0
        for name in ("eta.csv", "mu_y.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        meta_a = json.loads((a / "meta.json").read_text())
        meta_b = json.loads((b / "meta.json").read_text())
        assert meta_a.pop("map_fingerprint") != meta_b.pop("map_fingerprint")
        assert meta_a == meta_b


class TestMcDefaults:
    def test_omitted_n_bins_and_seed_are_200_and_0(self, tmp_path):
        mc = "n_samples = 1000000\nn_bins = 200\nseed = 12345\n"
        explicit = reference_config(
            "logistic3", [(mc, "n_samples = 100000\nn_bins = 200\nseed = 0\n")])
        omitted = reference_config("logistic3", [(mc, "n_samples = 100000\n")])
        for name, body in (("a", explicit), ("b", omitted)):
            cfg = write_config(tmp_path / f"{name}.cfg", body)
            assert run("mc", "--config", cfg, "--out", tmp_path / name) == 0
        assert ((tmp_path / "a" / "hist.csv").read_bytes()
                == (tmp_path / "b" / "hist.csv").read_bytes())


class TestCsvWriter:
    """_write_csv writes each float as format(float(v), ".17g") and each
    integer as str(v), the format the artifacts have always used."""

    FLOATS = np.array([-0.0, 5e-324, 1e-300, 1 / 3, 0.1, 1e16, 1e22, -2.5])

    @staticmethod
    def reference(header, columns):
        rows = (",".join(str(v) if isinstance(v, (int, np.integer))
                         else format(float(v), ".17g") for v in row)
                for row in zip(*columns))
        return "".join(line + "\n" for line in (header, *rows)).encode()

    @pytest.mark.parametrize("header,columns", [
        ("u,x", (FLOATS, -FLOATS[::-1])),
        ("y,mu_y,interval_id",
         (FLOATS, FLOATS ** 2,
          np.array([0, 1, 2, 7, 2**40, 2**62, 3, 3], dtype=np.int64))),
        ("y,mu_y,interval_id",
         (np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))),
    ])
    def test_matches_reference_bytes(self, tmp_path, header, columns):
        path = tmp_path / "t.csv"
        _write_csv(path, header, columns)
        assert path.read_bytes() == self.reference(header, columns)


def reference_write_csv(path, header, columns):
    """The per-row writer the artifacts were first written with: integer
    columns as %d, the rest as %.17g, one ``%`` per row."""
    columns = [np.asarray(c) for c in columns]
    row_fmt = ",".join("%d" if c.dtype.kind in "iu" else "%.17g"
                       for c in columns) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(row_fmt % row)


def written_like_reference(directory, columns):
    header = ",".join("abc"[:len(columns)])
    new, ref = directory / "new.csv", directory / "ref.csv"
    _write_csv(new, header, columns)
    reference_write_csv(ref, header, columns)
    return new.read_bytes() == ref.read_bytes()


def exact_ties():
    """Doubles with exactly 18 significant digits, the last a 5: odd m / 2^j
    with m * 5^j an 18-digit integer, so the 17-digit rounding is a tie."""
    rng = np.random.default_rng(7)
    ties = []
    for j in range(1, 12):
        low, high = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        if low < high:
            ties.append((rng.integers(low, high, 150) | 1) / 2.0 ** j)
    return np.concatenate(ties)


def powers_of_ten():
    """10^k for every k a double reaches, with both neighbours."""
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)
INT64S = st.integers(-2 ** 63, 2 ** 63 - 1)


class TestBlockWriter:
    """_write_csv writes the same bytes as the per-row reference writer."""

    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        return tmp_path_factory.mktemp("writer")

    @given(n_rows=st.integers(0, 40), kinds=st.lists(st.sampled_from("fi"),
                                                     min_size=1, max_size=3),
           data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_random_columns(self, directory, n_rows, kinds, data):
        columns = [np.array(data.draw(st.lists(FINITE_FLOATS if k == "f" else INT64S,
                                               min_size=n_rows, max_size=n_rows)),
                            dtype=np.float64 if k == "f" else np.int64)
                   for k in kinds]
        assert written_like_reference(directory, columns)

    @pytest.mark.parametrize("values", [
        exact_ties(),
        powers_of_ten(),
        np.array([1e22, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 62, -0.0, 0.0,
                  5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    ], ids=["ties", "powers-of-ten", "edges"])
    def test_hard_floats(self, directory, values):
        assert written_like_reference(directory, (values, -values))

    def test_integers_around_two_to_the_53(self, directory):
        ints = np.array([0, 1, -1, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, -(2 ** 53) - 1,
                         2 ** 62, -(2 ** 63), 2 ** 63 - 1], dtype=np.int64)
        assert written_like_reference(directory, (ints.astype(float), ints))

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_block_boundaries(self, directory, offset):
        # 0 rows, or one block and a row less, exactly, or more, for one
        # to three columns; the last column holds a value that Python
        # spells out on each side of the block edge
        for kinds in ("f", "fi", "ffi"):
            block = csvfmt.BLOCK_VALUES // len(kinds)
            n_rows = 0 if offset is None else block + offset
            rng = np.random.default_rng(n_rows)
            floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-30, 30, n_rows)
            ints = rng.integers(-10, 10, n_rows)
            edges = [i for i in (0, n_rows // 2, block - 1, block) if i < n_rows]
            if kinds[-1] == "f":
                floats[edges] = 5e-324
            else:
                ints[edges] = [2 ** 53 + 1, -(2 ** 62), 2 ** 63 - 1, -(2 ** 53) - 3][:len(edges)]
            columns = [floats * (j + 1) for j in range(len(kinds) - 1)]
            columns.append(floats if kinds[-1] == "f" else ints)
            assert written_like_reference(directory, columns), kinds
            assert written_like_reference(directory, [c[:1] for c in columns]), kinds

    @given(block_values=st.integers(1, 7), n_rows=st.integers(0, 12),
           kinds=st.lists(st.sampled_from("fi"), min_size=1, max_size=3), data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_random_columns_in_small_blocks(self, directory, block_values, n_rows,
                                             kinds, data):
        # blocks of one to seven values (one row when a row holds more),
        # so mixed columns cross many block edges
        columns = [np.array(data.draw(st.lists(FINITE_FLOATS if k == "f" else INT64S,
                                               min_size=n_rows, max_size=n_rows)),
                            dtype=np.float64 if k == "f" else np.int64)
                   for k in kinds]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csvfmt, "BLOCK_VALUES", block_values)
            assert written_like_reference(directory, columns)

    def test_artifact_columns_of_the_reference_configs(self, directory, pipelines):
        for run_ in pipelines.values():
            um, curve = run_.um, run_.curve
            assert written_like_reference(directory, (um.knots_u, um.knots_x))
            assert written_like_reference(
                directory, (curve.ys, curve.mu_ys, curve.interval_ids))

    def test_memory_does_not_grow_with_the_row_count(self, directory):
        # the writer's working set is a fixed set of block buffers; ten
        # times the rows may add no more than 288 KB
        block_bytes = 294912

        def traced_peak(n_rows):
            columns = (np.linspace(0.0, 3.7, n_rows), np.linspace(0.0, 1.0, n_rows) ** 2)
            tracemalloc.start()
            try:
                _write_csv(directory / "m.csv", "u,x", columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = traced_peak(20001), traced_peak(200001)
        assert abs(large - small) <= block_bytes, (small, large, block_bytes)


def spike_config(tmp_path):
    """logistic3 under a table density whose mass is a spike at x = 0.5,
    strictly between two points of the sampler's CDF grid."""
    (tmp_path / "w.csv").write_text(
        "x,w\n0,0\n0.49999,0\n0.5,1\n0.50001,0\n1,0\n")
    return write_config(tmp_path / "spike.cfg", reference_config("logistic3", [
        ("kind = sin_plus_two\nomega = 5", "kind = table\npath = w.csv"),
        ("n_samples = 1000000", "n_samples = 100000"),
    ]))


class TestDegenerateInput:
    def test_constant_map_exits_3(self, tmp_path):
        rows = "x,y\n" + "".join(f"{v},1.0\n" for v in np.linspace(0, 1, 21))
        (tmp_path / "flat.csv").write_text(rows)
        cfg = write_config(tmp_path / "flat.cfg", """\
[map]
kind = table
path = flat.csv

[density]
kind = uniform

[grid]
n_div = 20
""")
        assert run("partition", "--config", cfg, "--out", tmp_path / "o") == 3

    def test_non_finite_normalization_exits_3(self, tmp_path, capsys, recwarn):
        # sin(omega*x) overflows to nan on [0, 5]
        cfg = write_config(tmp_path / "huge.cfg", reference_config(
            "duffing", [("omega = 5", "omega = 1e308")]))
        assert run("density", "--config", cfg, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert "normalization constant nan is not finite and positive" in err
        assert not (tmp_path / "o" / "meta.json").exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command,message", [
        ("compare", "pushforward curve mass 0.0 is not finite and positive"),
        ("density", "pushforward curve mass 0.0 is not finite and positive"),
    ])
    def test_mass_between_grid_points_exits_3(self, tmp_path, capsys, recwarn,
                                              command, message):
        # the spike at 0.5 has positive exact mass, so normalization
        # succeeds, but it sits between every preimage
        cfg = spike_config(tmp_path)
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 3
        assert message in capsys.readouterr().err
        assert list((tmp_path / "o").iterdir()) == []
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_monte_carlo_samples_a_spike_between_grid_points(self, tmp_path, capsys, recwarn):
        # the sampler inverts the exact CDF, so the spike's mass is drawn
        # although it sits between two of its grid points
        cfg = spike_config(tmp_path)
        assert run("mc", "--config", cfg, "--out", tmp_path / "o") == 0
        assert capsys.readouterr().err == ""
        edges, heights = read_hist_csv(tmp_path / "o" / "hist.csv")
        g_half = 0.5  # three logistic steps from x = 0.5
        for _ in range(3):
            g_half = 3.9 * g_half * (1.0 - g_half)
        (full,) = np.flatnonzero(heights)
        assert edges[full] <= g_half < edges[full + 1]
        assert heights[full] * (edges[full + 1] - edges[full]) == pytest.approx(1.0, abs=1e-12)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# a table map sampled on its five knots; (i)-(iv) overflow the total
# variation or the range, (v) and (vi) stay finite, and the products of
# the differences of (vii) underflow
OVERFLOW_ROWS = {
    "i": ("0,1e308,0,1e308,0", "total variation inf of the sampled map is not finite"),
    "ii": ("0,1.5e308,0,0,0", "total variation inf of the sampled map is not finite"),
    "iii": ("-0.8e308,1e308,0.95e308,0.9e308,0.9e308", "range g_max - g_min = inf is not finite"),
    "iv": ("0,1e308,0.5e308,1.7e308,0", "total variation inf of the sampled map is not finite"),
    "v": ("0,1e200,0,1e200,0", None),
    "vi": ("0.9e308,1e308,0.9e308,1e308,0.9e308", None),
    "vii": ("0,1e-200,2e-200,1e-200,0", None),
}


def json_numbers(value):
    """Every number in a parsed JSON document."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in json_numbers(item)]
    return [value] if isinstance(value, (int, float)) else []


def overflow_config(tmp_path, case):
    ys = OVERFLOW_ROWS[case][0].split(",")
    (tmp_path / "m.csv").write_text(
        "x,y\n" + "".join(f"{k / 4},{y}\n" for k, y in enumerate(ys)))
    return write_config(tmp_path / "m.cfg", """\
[map]
kind = table
path = m.csv

[density]
kind = uniform

[grid]
n_div = 4

[mc]
n_samples = 1000
n_bins = 10
seed = 1
""")


def assert_runs_finite(tmp_path, recwarn, command, case):
    """command exits 0 on an overflow row, writing only finite numbers
    and warning nothing."""
    cfg = overflow_config(tmp_path, case)
    assert run(command, "--config", cfg, "--out", tmp_path / "o") == 0
    for path in (tmp_path / "o").iterdir():
        if path.suffix == ".csv":
            values = np.loadtxt(path, delimiter=",", skiprows=1)
        else:
            values = np.array(json_numbers(json.loads(path.read_text())), dtype=float)
        assert np.isfinite(values).all(), path.name
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestOverflowingTableMap:
    """A range or total variation past the float range exits 4 naming
    it; values that stay inside it run without a warning."""

    @pytest.mark.parametrize("command", ["partition", "unfold", "density", "compare"])
    @pytest.mark.parametrize("case", ["i", "ii", "iii", "iv"])
    def test_names_what_overflows(self, tmp_path, capsys, recwarn, command, case):
        cfg = overflow_config(tmp_path, case)
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 4
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {OVERFLOW_ROWS[case][1]}\n"), err
        assert list((tmp_path / "o").iterdir()) == []
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("case,code", [("i", 0), ("ii", 0), ("iii", 4), ("iv", 0)])
    def test_monte_carlo_needs_only_the_range(self, tmp_path, capsys, recwarn, case, code):
        cfg = overflow_config(tmp_path, case)
        assert run("mc", "--config", cfg, "--out", tmp_path / "o") == code
        if code:
            assert OVERFLOW_ROWS[case][1] in capsys.readouterr().err
        else:
            _, heights = read_hist_csv(tmp_path / "o" / "hist.csv")
            assert np.isfinite(heights).all()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["partition", "unfold", "density", "mc", "compare"])
    def test_large_finite_values_run(self, tmp_path, recwarn, command):
        assert_runs_finite(tmp_path, recwarn, command, "v")

    @pytest.mark.parametrize("command", ["partition", "unfold", "density", "mc", "compare"])
    def test_values_near_the_largest_float_run(self, tmp_path, recwarn, command):
        # the sum of the 0.9e308 cluster and of two neighbouring critical
        # values passes the largest float; their means do not
        assert_runs_finite(tmp_path, recwarn, command, "vi")

    def test_values_near_the_smallest_float_partition_like_unscaled(self, tmp_path):
        # products of the differences of (vii) underflow to zero
        cfg = overflow_config(tmp_path, "vii")
        assert run("partition", "--config", cfg, "--out", tmp_path / "o") == 0
        payload = json.loads((tmp_path / "o" / "partition.json").read_text())
        assert (payload["k"], payload["ell"]) == (2, 1)


class TestNumericalFailure:
    @pytest.mark.parametrize("command", ["partition", "mc"])
    def test_non_finite_map_sample_exits_4(self, tmp_path, capsys, recwarn, command):
        cfg = write_config(tmp_path / "huge.cfg", reference_config(
            "oscillator", [("gain = 1", "gain = 1e308")]))
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 4
        err = capsys.readouterr().err
        assert "numerical failure: g(x) = inf is not finite at x = 2.0" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("cells", [500, pytest.param(5000, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 12: 0.5 and 0.5004 merge into the critical "
                            "value 0.5002, and the first cell above it lies below "
                            "branch 1's start, so u_of_y gives a negative u (exit 4)"))])
    def test_a_cell_below_the_first_branch_start(self, tmp_path, capsys, cells):
        (tmp_path / "m.csv").write_text("x,y\n0,0.5004\n0.25,1\n0.5,0\n0.75,0.5\n1,0.2\n")
        cfg = write_config(tmp_path / "m.cfg", f"""\
[map]
kind = table
path = m.csv

[density]
kind = uniform

[grid]
n_div = 400

[pushforward]
delta_cells = {cells}

[mc]
n_samples = 10000
n_bins = 50
seed = 1
""")
        for command in ("density", "compare"):
            code = run(command, "--config", cfg, "--out", tmp_path / command)
            assert code == 0, (command, capsys.readouterr().err)

    def test_divergent_integration_exits_4(self, tmp_path, capsys):
        # an absurd initial-velocity range blows up the cubic restoring
        # force within a few oversized steps
        cfg = write_config(tmp_path / "blow.cfg", """\
[map]
kind = duffing
alpha = 0
beta = 1e200
t_final = 10
step = 0.5

[density]
kind = uniform

[grid]
n_div = 10
""")
        assert run("partition", "--config", cfg, "--out", tmp_path / "o") == 4
        assert "non-finite" in capsys.readouterr().err


ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if cls.__module__ == errors.__name__]
EXIT_CODES = {errors.ConfigError: (2, "config error"), MemoryError: (2, "config error"),
              errors.DegenerateInputError: (3, "degenerate input")}


class TestExitCodes:
    @pytest.mark.parametrize("error", ERROR_CLASSES + [FloatingPointError, MemoryError],
                             ids=lambda cls: cls.__name__)
    def test_every_error_maps_to_its_exit_code(self, tmp_path, identity_config, capsys,
                                               monkeypatch, error):
        def fail(*args):
            raise error(0.5) if error is errors.DivergenceError else error("boom")

        monkeypatch.setattr(cli, "sample_map", fail)
        code, label = EXIT_CODES.get(error, (4, "numerical failure"))
        assert run("partition", "--config", identity_config,
                   "--out", tmp_path / "o") == code
        err = capsys.readouterr().err
        assert err.startswith(f"{label}: ") and "Traceback" not in err

    def test_every_other_error_is_numerical(self):
        numerical = set(ERROR_CLASSES) - {errors.ConfigError, errors.DegenerateInputError,
                                          errors.NumericalError}
        assert len(numerical) == 5
        assert all(issubclass(cls, errors.NumericalError) for cls in numerical)


class TestPartitionCommand:
    def test_logistic_reports_four_critical_values(self, tmp_path, capsys):
        assert run("partition", "--config", CONFIG_DIR / "logistic3.cfg",
                   "--out", tmp_path) == 0
        out = capsys.readouterr().out
        assert "k = 8" in out
        assert "ell = 3" in out
        payload = json.loads((tmp_path / "partition.json").read_text())
        assert len(payload["b"]) == 4
        assert payload["k"] == 8

    def test_oscillator_reports_six(self, tmp_path):
        assert run("partition", "--config", CONFIG_DIR / "oscillator.cfg",
                   "--out", tmp_path) == 0
        payload = json.loads((tmp_path / "partition.json").read_text())
        assert len(payload["b"]) == 6
        assert len(payload["index_sets"]) == 5
        assert len(payload["ms"]) == payload["k"] + 1

    def test_duffing_reports_seven(self, tmp_path):
        assert run("partition", "--config", CONFIG_DIR / "duffing.cfg",
                   "--out", tmp_path) == 0
        payload = json.loads((tmp_path / "partition.json").read_text())
        assert len(payload["b"]) == 7

    def test_pendulum_reports_five(self, tmp_path):
        assert run("partition", "--config", CONFIG_DIR / "pendulum.cfg",
                   "--out", tmp_path) == 0
        payload = json.loads((tmp_path / "partition.json").read_text())
        assert len(payload["b"]) == 5

    @pytest.mark.parametrize("name", ["duffing", "logistic3", "oscillator",
                                      "parabola", "pendulum"])
    def test_classifications_name_the_preimage_kinds(self, tmp_path, name):
        assert run("partition", "--config", CONFIG_DIR / f"{name}.cfg",
                   "--out", tmp_path) == 0
        payload = json.loads((tmp_path / "partition.json").read_text())
        assert len(payload["classifications"]) == len(payload["b"])
        for cls in payload["classifications"]:
            assert sorted(cls) == sorted(PREIMAGE_KINDS)
            assert all(type(v) is int for v in cls.values())


class TestDensityCommand:
    def test_identity_uniform_is_flat(self, tmp_path, identity_config):
        out = tmp_path / "out"
        assert run("density", "--config", identity_config, "--out", out) == 0
        ys, mu, ids = read_curve_csv(out / "mu_y.csv")
        assert np.all(np.abs(mu - 1.0) < 1e-12)
        meta = json.loads((out / "meta.json").read_text())
        assert abs(meta["mass"] - 1.0) < 1e-9
        assert meta["n_div"] == 40

    def test_artifacts_round_trip(self, tmp_path):
        out = tmp_path / "out"
        assert run("density", "--config", CONFIG_DIR / "oscillator.cfg",
                   "--out", out) == 0
        us, xs = read_eta_csv(out / "eta.csv")
        assert np.all(np.diff(us) > 0)
        assert np.all(np.diff(xs) > 0)
        ys, mu, ids = read_curve_csv(out / "mu_y.csv")
        assert len(ys) == len(mu) == len(ids)
        assert np.all(np.diff(ys) > 0)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("density", "--config", CONFIG_DIR / "oscillator.cfg",
                       "--out", out) == 0
        for name in ("eta.csv", "mu_y.csv", "meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_interval_count_matches_critical_values(self, tmp_path):
        out = tmp_path / "out"
        assert run("density", "--config", CONFIG_DIR / "oscillator.cfg",
                   "--out", out) == 0
        _, _, ids = read_curve_csv(out / "mu_y.csv")
        assert ids.max() == 4  # five intervals between six critical values

    def test_csv_round_trips_the_in_process_curve(self, tmp_path):
        from conftest import experiment_defs
        from pushfold import (build_layer_table, build_unfolded,
                              detect_extrema, pushforward_density, sample_map)

        out = tmp_path / "out"
        assert run("density", "--config", CONFIG_DIR / "oscillator.cfg",
                   "--out", out) == 0
        ys, mu, ids = read_curve_csv(out / "mu_y.csv")
        map_def, spec, grid = experiment_defs()["oscillator"]
        sm = sample_map(map_def, grid)
        p = detect_extrema(sm)
        t = build_layer_table(p)
        um = build_unfolded(sm, p)
        curve = pushforward_density(p, t, um, spec)
        assert np.array_equal(ys, curve.ys)
        assert np.array_equal(mu, curve.mu_ys)
        assert np.array_equal(ids, curve.interval_ids)

    def test_analytic_jacobian_config(self, tmp_path):
        body = (CONFIG_DIR / "oscillator.cfg").read_text().replace(
            "delta_cells = 500", "delta_cells = 500\njacobian = analytic")
        cfg = write_config(tmp_path / "osc_analytic.cfg", body)
        out = tmp_path / "out"
        assert run("density", "--config", cfg, "--out", out) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert 0.95 < meta["mass"] < 1.05

    @pytest.mark.parametrize("name,replace", [
        *(pytest.param(name, (), id=name)
          for name in ("duffing", "logistic3", "oscillator", "parabola", "pendulum")),
        pytest.param("logistic3", (("iterations = 3", "iterations = 9"),
                                   ("n_div = 400", "n_div = 20000")), id="logistic9-20000"),
    ])
    def test_eta_csv_is_the_unfold_artifact(self, tmp_path, name, replace):
        # density writes the same unfolded knots as unfold, beside its density
        shutil.copy(CONFIG_DIR / "parabola.csv", tmp_path)
        cfg = write_config(tmp_path / "run.cfg", reference_config(name, replace))
        for command in ("unfold", "density"):
            assert run(command, "--config", cfg, "--out", tmp_path / command) == 0
        assert ((tmp_path / "density" / "eta.csv").read_bytes()
                == (tmp_path / "unfold" / "eta.csv").read_bytes())

    @pytest.mark.parametrize("error,code,label", [
        (errors.NumericalError, 4, "numerical failure"),
        (MemoryError, 2, "config error"),
    ])
    def test_a_density_error_keeps_its_exit_code_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, error, code, label):
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, "pushforward_density", fail)
        out = tmp_path / "o"
        assert run("density", "--config", CONFIG_DIR / "oscillator.cfg",
                   "--out", out) == code
        assert capsys.readouterr().err.startswith(f"{label}: ")
        assert list(out.iterdir()) == []

    def test_a_failed_eta_write_propagates(self, tmp_path, monkeypatch):
        def write_rows(fh, columns):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_rows", write_rows)
        with pytest.raises(OSError, match="No space left"):
            run("density", "--config", CONFIG_DIR / "oscillator.cfg",
                "--out", tmp_path / "o")

    def test_the_density_is_evaluated_on_the_main_thread(self, tmp_path, monkeypatch):
        threads = []
        density = cli.pushforward_density

        def recording_density(*args, **kwargs):
            threads.append(threading.current_thread())
            return density(*args, **kwargs)

        monkeypatch.setattr(cli, "pushforward_density", recording_density)
        assert run("density", "--config", CONFIG_DIR / "oscillator.cfg",
                   "--out", tmp_path / "o") == 0
        assert threads == [threading.main_thread()]


class TestUnfoldCommand:
    def test_writes_monotone_knots(self, tmp_path):
        assert run("unfold", "--config", CONFIG_DIR / "logistic3.cfg",
                   "--out", tmp_path) == 0
        us, xs = read_eta_csv(tmp_path / "eta.csv")
        assert us[0] == 0.0
        assert np.all(np.diff(us) > 0)
        assert len(us) == 401


class TestMcAndCompare:
    def test_mc_histogram_round_trip(self, tmp_path, identity_config):
        out = tmp_path / "out"
        assert run("mc", "--config", identity_config, "--out", out,
                   "--threads", 1) == 0
        edges, heights = read_hist_csv(out / "hist.csv")
        assert len(heights) == 40
        assert abs(float(np.sum(heights * np.diff(edges))) - 1.0) < 1e-9

    def test_compare_writes_metrics(self, tmp_path, identity_config, capsys):
        out = tmp_path / "out"
        assert run("compare", "--config", identity_config, "--out", out) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert np.isfinite(metrics["l1"])
        assert metrics["seed"] == 4242
        assert metrics["n_samples"] == 100000
        timings = json.loads((out / "timings.json").read_text())
        assert timings["direct_seconds"] > 0 and timings["mc_seconds"] > 0
        assert "l1 =" in capsys.readouterr().out

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_fewer_than_one_thread_is_a_usage_error(self, tmp_path, identity_config,
                                                    capsys, threads):
        with pytest.raises(SystemExit) as exc:
            run("mc", "--config", identity_config, "--out", tmp_path / "o",
                "--threads", threads)
        assert exc.value.code == 2
        assert f"must be at least 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_override(self, tmp_path, identity_config):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run("mc", "--config", identity_config, "--out", a,
                   "--seed", 1) == 0
        assert run("mc", "--config", identity_config, "--out", b,
                   "--seed", 1) == 0
        assert run("mc", "--config", identity_config, "--out", c,
                   "--seed", 2) == 0
        assert (a / "hist.csv").read_bytes() == (b / "hist.csv").read_bytes()
        assert (a / "hist.csv").read_bytes() != (c / "hist.csv").read_bytes()

    def test_compare_rerun_byte_identical_data(self, tmp_path, identity_config):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("compare", "--config", identity_config, "--out", out) == 0
        for name in ("mu_y.csv", "hist.csv", "metrics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


COMMANDS = ["partition", "unfold", "density", "mc", "compare"]


class TestArguments:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run(command, "-h")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: pushfold") and "--threads" in out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_options_may_precede_the_command(self, tmp_path, identity_config, command):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(command, "--config", identity_config, "--out", a,
                   "--seed", 7, "--threads", 1) == 0
        assert run("--config", identity_config, "--seed", 7, "--threads", 1,
                   "--out", b, command) == 0
        names = sorted(f.name for f in a.iterdir())
        assert names == sorted(f.name for f in b.iterdir())
        for name in names:
            if name != "timings.json":
                assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("argv,message", [
        ([], "the following arguments are required: command"),
        (["--config", "x.cfg", "--out", "OUT"], "the following arguments are required: command"),
        (["plot", "--config", "x.cfg", "--out", "OUT"], "argument command: invalid choice: 'plot'"),
    ], ids=["nothing", "no-command", "unknown"])
    def test_missing_or_unknown_command_is_a_usage_error(self, tmp_path, capsys,
                                                         argv, message):
        with pytest.raises(SystemExit) as exc:
            run(*(tmp_path / "o" if a == "OUT" else a for a in argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pushfold") and message in err
        assert not (tmp_path / "o").exists()


class TestOutDirectory:
    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["partition", "unfold", "density", "mc", "compare"])
    def test_unusable_out_is_a_usage_error(self, tmp_path, identity_config, capsys,
                                           command, under_file):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "o" if under_file else taken
        with pytest.raises(SystemExit) as exc:
            run(command, "--config", identity_config, "--out", out)
        assert exc.value.code == 2
        assert f"--out {out}: " in capsys.readouterr().err
        assert taken.read_text() == "kept\n"
