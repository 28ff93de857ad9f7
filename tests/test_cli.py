"""CLI: config parsing, presets, commands, exit codes, determinism, formats."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import proxint.cli
from proxint import (
    Heightmap,
    InteractionCurve,
    InvalidParameterError,
    ParseError,
    __version__,
    curve_to_csv,
    dome_distribution,
    empirical_distribution,
    heat_sio2_kernel,
    load_heightmap,
    pyramid_distribution,
    save_heightmap,
    shift_to_contact,
    sphere_distribution,
    synthesize_surface,
    truncated_gaussian_distribution,
)
from proxint._fmt import table
from proxint.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VERIFY,
    FMT,
    _parser,
    build_config,
    main,
    make_parser,
)
from proxint.distributions import distribution_to_text
from proxint.errors import ConfigError

from conftest import traced_peak


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SPHERE_DOME_CFG = """
[scenario]
dref = 300

[kernel]
preset = heat-sio2

[separations]
min = 1
max = 300
per_decade = 20

[curve.main]
base = sphere radius=50000
layer.1 = dome height=50
"""


# SPHERE_DOME_CFG in the rest of the config grammar: comment lines, "key:
# value", keys in upper case, and values continued on indented lines.
SPHERE_DOME_CFG_STYLED = """# heat transfer, sphere over a dome
[scenario]
DREF: 300

; the SiO2 kernel
[kernel]
Preset = heat-sio2

[separations]
min: 1
max = 300
    # a comment line within a value is skipped
per_decade=20

[curve.main]
base = sphere
    radius=50000
Layer.1: dome
    height=50
"""


# A stack whose exact convolution overflows, though each layer is valid.
OVERFLOW_STACK = "[curve.c]\nbase = sphere radius=4.02821e+135\nlayer.1 = pyramid height=2.28978e-144\n"


class TestConfig:
    def test_layer_parsing_and_override(self, tmp_path):
        cfg_path = write_config(tmp_path, SPHERE_DOME_CFG)
        args = type("A", (), {"config": cfg_path, "preset": None, "dref": 150.0})()
        from proxint.cli import load_config

        cfg = load_config(args)
        assert cfg.d_ref == 150.0  # flag beats file
        assert cfg.kernel.nu == 2.0 and cfg.kernel.alpha == pytest.approx(0.2558)
        assert len(cfg.curves) == 1
        assert cfg.curves[0].layers[0] == {"type": "sphere", "radius": 50000.0}
        assert cfg.curves[0].layers[1]["height"] == 50.0

    def test_bad_layer_field_path(self):
        with pytest.raises(ConfigError, match=r"curve\.x\.layer\.1\.height"):
            build_config({"curve.x": {"base": "sphere radius=1", "layer.1": "dome height=-2"}})

    def test_unknown_layer_type(self):
        with pytest.raises(ConfigError, match="unknown layer type"):
            build_config({"curve.x": {"base": "cylinder radius=1"}})

    def test_coarse_to_fine_ordering_enforced(self):
        with pytest.raises(ConfigError, match="coarse to fine"):
            build_config({
                "curve.x": {
                    "base": "sphere radius=50000",
                    "layer.1": "pyramid height=10",
                    "layer.2": "dome height=5000",
                }
            })

    def test_separations_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            build_config({"separations": {"list": "5,3,1"},
                          "curve.x": {"base": "sphere radius=1"}})

    @pytest.mark.parametrize("text, message", [
        ("1, x, 3", "separations.list: column 2: not a number: ' x'"),
        ("1,,3", "separations.list: column 2: not a number: ''"),
        ("1 2 inf", "separations.list: column 3: non-finite value 'inf'"),
        ("", "separations.list: no values"),
    ])
    def test_separations_list_fault_names_column(self, text, message):
        # The list is one row of numbers, read by the rule of every row.
        with pytest.raises(ConfigError) as info:
            build_config({"separations": {"list": text}, "curve.x": {"base": "sphere radius=1"}})
        assert str(info.value) == message

    def test_separations_list_commas_or_spaces(self):
        for text in ("1, 2.5, 40", "1 2.5 40"):
            cfg = build_config({"separations": {"list": text}, "curve.x": {"base": "sphere radius=1"}})
            assert cfg.separations.tolist() == [1.0, 2.5, 40.0]

    def test_unknown_preset(self):
        assert main(["sweep", "--preset", "nope", "--out", "x.csv"]) == EXIT_CONFIG

    @pytest.mark.parametrize("section, key, old, new", [
        ("scenario", "bins", "dref = 300", "dref = 300\nbins = 12.5"),
        ("separations", "per_decade", "per_decade = 20", "per_decade = 2.5"),
    ])
    def test_non_integer_count_is_config_error(self, tmp_path, capsys, section, key, old, new):
        cfg = write_config(tmp_path, SPHERE_DOME_CFG.replace(old, new))
        rc = main(["shape", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        assert f"{section}.{key}: not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv_tail", [
        ["shape", "--bins", "0"],
        ["heightmap", "map.txt", "--bins", "0"],
    ])
    def test_zero_bins_is_config_error(self, tmp_path, argv_tail):
        save_heightmap(Heightmap(1.0, 1.0, np.arange(16.0).reshape(4, 4)), tmp_path / "map.txt")
        cfg = write_config(tmp_path, SPHERE_DOME_CFG)
        argv = [a.replace("map.txt", str(tmp_path / "map.txt")) for a in argv_tail]
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG

    @pytest.mark.parametrize("section, line", [
        ("scenario", "beta = 2"),
        ("scenario", "seed = 7"),
        ("kernel", "gamma = 1"),
        ("separations", "step = 3"),
    ])
    def test_unknown_section_key_rejected(self, tmp_path, capsys, section, line):
        text = SPHERE_DOME_CFG.replace(f"[{section}]\n", f"[{section}]\n{line}\n", 1)
        cfg = write_config(tmp_path, text)
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        SPHERE_DOME_CFG + "layer.1 = dome height=40\n",
        "dref = 300\n" + SPHERE_DOME_CFG,
        "[scenario\n",
    ])
    def test_malformed_ini_is_config_error(self, tmp_path, text):
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG

    def test_nan_dref_flag_exits_config(self, tmp_path, capsys, deadline):
        with deadline(60.0):
            rc = main(["sweep", "--preset", "fig2", "--dref", "nan",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        assert "scenario.dref: must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("min = 1\nmax = 300\nper_decade = 20", "list = 1, 2, nan"),
        ("min = 1\nmax = 300\nper_decade = 20", "list = 1, inf"),
        ("min = 1", "min = nan"),
        ("max = 300", "max = inf"),
        ("dref = 300", "dref = nan"),
        ("dref = 300", "dref = 300\nfarfield = nan"),
    ])
    def test_non_finite_config_value_exits_config(self, tmp_path, capsys, old, new):
        cfg = write_config(tmp_path, SPHERE_DOME_CFG.replace(old, new))
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("layer, field", [
        ("rough sigma=nan s0=1", "sigma"),
        ("rough sigma=1 s0=inf", "s0"),
        ("dome height=inf", "height"),
        ("pyramid height=-inf", "height"),
    ])
    def test_non_finite_layer_field_exits_config(self, tmp_path, capsys, layer, field):
        cfg = write_config(tmp_path, SPHERE_DOME_CFG.replace("dome height=50", layer))
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err == f"config error: curve.main.layer.1.{field}: not a finite number: " \
            f"{layer.split(field + '=')[1].split()[0]!r}\n"

    # Layer fields of extreme magnitude: each is a config error that names
    # the layer field, under every command that builds the stack.
    @pytest.mark.parametrize("command", ["shape", "sweep"])
    @pytest.mark.parametrize("base, layer, message", [
        ("sphere radius=50000", "pyramid height=1e-300", "pyramid height 1e-300 is out of range"),
        ("sphere radius=50000", "dome height=1e300", "dome height 1e+300 is out of range"),
        ("sphere radius=50000", "rough sigma=1e-30 s0=1e300", "rough sigma 1e-30 is out of range"),
        ("sphere radius=50000", "rough sigma=1 s0=1e300", "rough s0 1e+300 is more than 1e+06 sigma"),
        ("sphere radius=1e-300", "rough sigma=5e4 s0=5e4", "sphere radius 1e-300 is out of range"),
    ])
    def test_extreme_layer_field_exits_config(self, tmp_path, capsys, command, base, layer, message):
        text = SPHERE_DOME_CFG.replace("sphere radius=50000", base).replace("dome height=50", layer)
        out = tmp_path / "x.csv"
        rc = main([command, "--config", write_config(tmp_path, text), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["shape", "sweep", "asympt"])
    @pytest.mark.parametrize("old, new, message", [
        ("min = 1\nmax = 300", "min = 5e-324\nmax = 1", "separations: max/min = 1/4.94066e-324 overflows"),
        ("min = 1\nmax = 300", "min = 1e-300\nmax = 1e300", "separations: max/min = 1e+300/1e-300 overflows"),
        ("per_decade = 20", f"per_decade = {10**400}", "separations.per_decade: too many points"),
    ])
    def test_separation_range_past_the_float_range_exits_config(self, tmp_path, capsys, command, old, new,
                                                                 message):
        out = tmp_path / "x.csv"
        cfg = write_config(tmp_path, SPHERE_DOME_CFG.replace(old, new))
        rc = main([command, "--config", cfg, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    def test_overflowing_area_exits_numeric_before_writing(self, tmp_path, capsys):
        # The exact area of this stack is beyond the float range.
        text = SPHERE_DOME_CFG.replace("sphere radius=50000", "sphere radius=1e150") \
            .replace("dome height=50", "dome height=1e150")
        out = tmp_path / "x.csv"
        rc = main(["shape", "--config", write_config(tmp_path, text), "--out", str(out)])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric error: projected area is not a finite float: inf\n"
        assert not out.exists()

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="senario: unknown section"):
            build_config({"senario": {"dref": "100"}, "curve.s": {"base": "sphere radius=1"}})

    def test_pyramid_tile_field_removed(self):
        with pytest.raises(ConfigError, match=r"layer\.1\.tile: unknown field"):
            build_config({"curve.x": {"base": "sphere radius=50000",
                                      "layer.1": "pyramid height=100 tile=500"}})

    # [kernel] lines -> the kernel part of the provenance line, or the start
    # of the config error, which names the key.
    @pytest.mark.parametrize("lines, expected", [
        ("preset = foo", "kernel.preset: unknown preset 'foo' (have casimir-ideal, custom, heat-sio2)"),
        ("preset = foo\nalpha = 2", "kernel.preset: unknown preset 'foo'"),
        ("nu = 3", "kernel=heat-sio2 alpha=0.2558 nu=3"),
        ("alpha = 2", "kernel.nu: "),
        ("alpha = 2\nnu = 2.5", "kernel=custom alpha=2 nu=2.5"),
        ("preset = casimir-ideal", "kernel.alpha: "),
        ("preset = casimir-ideal\nalpha = 2", "kernel=casimir-ideal alpha=2 nu=3"),
        ("preset = heat-sio2\nnu = 3", "kernel=heat-sio2 alpha=0.2558 nu=3"),
    ])
    def test_kernel_section(self, tmp_path, capsys, lines, expected):
        cfg = write_config(tmp_path, SPHERE_DOME_CFG.replace("preset = heat-sio2", lines))
        out = tmp_path / "x.csv"
        rc = main(["sweep", "--config", cfg, "--out", str(out)])
        if expected.startswith("kernel="):
            assert rc == EXIT_OK
            assert f" | sweep | {expected} dref=300 " in out.read_text().splitlines()[0]
        else:
            assert rc == EXIT_CONFIG
            assert capsys.readouterr().err.startswith(f"config error: {expected}")
            assert not out.exists()

    @pytest.mark.parametrize("spec, described, direct", [
        ("sphere radius=5e4", "sphere radius=50000", lambda: sphere_distribution(5e4)),
        ("dome height=50", "dome height=50", lambda: dome_distribution(50.0)),
        ("pyramid height=100", "pyramid height=100",
         lambda: pyramid_distribution(100.0, 1.0, per_unit_area=True)),
        ("rough s0=20 sigma=10", "rough s0=20 sigma=10",
         lambda: truncated_gaussian_distribution(10.0, 20.0)),
    ])
    def test_layer_table_matches_constructors(self, spec, described, direct):
        (stack,) = build_config({"curve.x": {"layer.1": spec}}).curves
        assert stack.describe() == described
        assert distribution_to_text(stack.build()) == distribution_to_text(direct())

    def test_empty_stack(self):
        (stack,) = build_config({"curve.x": {}}).curves
        with pytest.raises(ConfigError, match=r"^curve\.x: empty shape stack$"):
            stack.build()

    @given(st.sampled_from(["sphere", "dome", "pyramid", "rough", "cone", ""]),
           st.lists(st.tuples(st.sampled_from(["radius", "height", "sigma", "s0", "tile"]),
                              st.sampled_from(["1", "0", "-2", "nan", "inf", "x", "", "=3"])),
                    max_size=3),
           st.booleans())
    def test_layer_specs_parse_or_name_the_problem(self, kind, fields, as_base):
        spec = " ".join([kind, *(f"{k}={v}" for k, v in fields)])
        key = "base" if as_base else "layer.1"
        try:
            (stack,) = build_config({"curve.x": {key: spec}}).curves
        except ConfigError as exc:
            assert str(exc).startswith(f"curve.x.{key}")
        else:
            assert stack.describe().startswith(kind)

    def test_repeated_layer_field_names_it(self):
        with pytest.raises(ConfigError, match=r"^curve\.x\.layer\.1\.height: field given twice$"):
            build_config({"curve.x": {"base": "sphere radius=1", "layer.1": "dome height=1 height=2"}})

    @pytest.mark.parametrize("extra, named", [
        ({"min": "1"}, "min"),
        ({"max": "300", "per_decade": "20"}, "max, per_decade"),
    ])
    def test_separations_list_with_grid_keys_is_config_error(self, extra, named):
        with pytest.raises(ConfigError) as info:
            build_config({"separations": {"list": "1, 2", **extra}, "curve.x": {"base": "sphere radius=1"}})
        assert str(info.value) == f"separations.list: replaces min, max and per_decade, but {named} given too"

    def test_config_list_replaces_preset_grid(self, tmp_path):
        # A preset's grid keys give way to the file's list, as a preset's
        # other keys give way to the file's.
        cfg = write_config(tmp_path, "[separations]\nlist = 1, 2.5, 40\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--preset", "fig2", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert " d=[1,40]x3 " in out.with_name("x.dome.csv").read_text().splitlines()[0]

    # Each exit-2 branch of the config checks, through main: the edit to
    # SPHERE_DOME_CFG, extra arguments, and the whole message.
    @pytest.mark.parametrize("old, new, argv, message", [
        ("dome height=50", "dome height", [], "curve.main.layer.1: expected key=value, got 'height'"),
        ("preset = heat-sio2", "preset = heat-sio2\nalpha = -1", [],
         "kernel: kernel alpha must be positive and finite"),
        ("min = 1", "min = 300", [], "separations: need 0 < min < max"),
        ("per_decade = 20", "per_decade = 0", [], "separations.per_decade: must be positive"),
        ("base = sphere radius=50000", "base = dome height=5000", [],
         "curve.main.base: base-curvature layer must be a sphere"),
        ("layer.1 = dome height=50", "layer.1 = dome height=50\ncolour = red", [], "curve.main.colour: unknown key"),
        ("", "", ["--window", "1"], "window: expected LO,HI"),
        ("dref = 300", "dref = 300\nfarfield = -1", [], "scenario.farfield: must be positive and finite"),
    ])
    def test_config_check_exits_config_with_message(self, tmp_path, capsys, old, new, argv, message):
        cfg = write_config(tmp_path, SPHERE_DOME_CFG.replace(old, new))
        out = tmp_path / "x.csv"
        rc = main(["asympt", "--config", cfg, "--out", str(out), *argv])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestConfigGrammar:
    """read_ini: configparser's INI grammar, without configparser."""

    def test_styled_twin_reads_as_plain(self, tmp_path):
        plain = proxint.cli.read_ini(write_config(tmp_path, SPHERE_DOME_CFG, "plain.cfg"))
        styled = proxint.cli.read_ini(write_config(tmp_path, SPHERE_DOME_CFG_STYLED, "styled.cfg"))
        assert styled == {**plain, "curve.main": {"base": "sphere\nradius=50000", "layer.1": "dome\nheight=50"}}

    @pytest.mark.parametrize("command", ["sweep", "asympt"])
    def test_styled_twin_writes_the_same_bytes(self, tmp_path, command):
        outs = []
        for name, text in (("plain", SPHERE_DOME_CFG), ("styled", SPHERE_DOME_CFG_STYLED)):
            out = tmp_path / f"{name}.csv"
            cfg = write_config(tmp_path, text, f"{name}.cfg")
            assert main([command, "--config", cfg, "--out", str(out)]) in (EXIT_OK, EXIT_VERIFY)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("text, sections", [
        ("", {}),
        ("# only a comment\n", {}),
        ("[a]\n", {"a": {}}),
        ("[a]\nk =\n", {"a": {"k": ""}}),
        ("[a]\nk = x = y: z\n", {"a": {"k": "x = y: z"}}),
        ("[a]\nk: x = y\n", {"a": {"k": "x = y"}}),
        # Blank lines within a continued value are kept, trailing ones dropped.
        ("[a]\nk = x\n\n  y\n\n\n[b]\n", {"a": {"k": "x\n\ny"}, "b": {}}),
        # A key line as deeply indented as the last starts a new key.
        ("[a]\n  k = 1\n  j = 2\n", {"a": {"k": "1", "j": "2"}}),
        ("[a]\nk = 1\n  [b]\n", {"a": {"k": "1\n[b]"}}),
        # No "%" interpolation, and [DEFAULT] is a section like any other.
        ("[DEFAULT]\nk = 5%(x)s\n[Mixed]\nK = 1\n", {"DEFAULT": {"k": "5%(x)s"}, "Mixed": {"k": "1"}}),
        ("[a]\r\nk = 1\r\n", {"a": {"k": "1"}}),
    ])
    def test_sections(self, tmp_path, text, sections):
        path = tmp_path / "c.cfg"
        path.write_bytes(text.encode())
        assert proxint.cli.read_ini(str(path)) == sections

    @pytest.mark.parametrize("text, message", [
        ("[a]\n[b]\n[a]\n", "line 3: duplicate section [a]"),
        ("[a]\nK = 1\nk: 2\n", "line 3: duplicate key 'k' in [a]"),
        ("# c\nk = 1\n", "line 2: key before any [section]"),
        ("[scenario\n", "line 1: expected [section], key = value or a comment, got '[scenario'"),
        ("[a]\n\nword\n", "line 3: expected [section], key = value or a comment, got 'word'"),
        ("[a]\n= 1\n", "line 2: expected [section], key = value or a comment, got '= 1'"),
        ("[a] # c\n", "line 1: expected [section], key = value or a comment, got '[a] # c'"),
        ("[]\n", "line 1: expected [section], key = value or a comment, got '[]'"),
    ])
    def test_fault_names_its_line(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path, text)
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: config: {cfg}, {message}\n"


# Flags each subcommand accepts; every other flag is an argument error.
SUBCOMMAND_FLAGS = {
    "shape": {"--config", "--preset", "--out", "--bins"},
    "sweep": {"--config", "--preset", "--out", "--dref", "--farfield"},
    "heightmap": {"--config", "--preset", "--out", "--bins", "--dx", "--dy"},
    "asympt": {"--config", "--preset", "--out", "--tol", "--window"},
}


class TestFlags:
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_help_lists_exactly_the_used_flags(self, command, capsys):
        assert main([command, "--help"]) == EXIT_OK
        flags = set(re.findall(r"(?<![\w-])--[a-z]+", capsys.readouterr().out))
        assert flags == SUBCOMMAND_FLAGS[command] | {"--help"}

    @pytest.mark.parametrize("argv", [
        ["sweep", "--preset", "fig2", "--out", "x.csv", "--beta", "2"],
        ["sweep", "--preset", "fig2", "--out", "x.csv", "--seed", "1"],
        ["shape", "--preset", "fig1", "--out", "x.csv", "--dref", "100"],
        ["asympt", "--preset", "fig4", "--bins", "64"],
    ])
    def test_unused_flags_rejected(self, argv):
        assert main(argv) == EXIT_CONFIG

    def test_provenance_has_no_beta_or_seed(self, tmp_path):
        cfg = write_config(tmp_path, SPHERE_DOME_CFG)
        out = tmp_path / "a.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        first = out.read_text().splitlines()[0]
        assert "dref=300 bins=512" in first
        assert "beta" not in first and "seed" not in first


class TestShapeCommand:
    def test_single_curve_table(self, tmp_path):
        cfg = write_config(tmp_path, SPHERE_DOME_CFG)
        out = tmp_path / "shape.csv"
        assert main(["shape", "--config", cfg, "--out", str(out), "--bins", "64"]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# proxint")
        assert lines[1] == "s_nm,f"
        assert len(lines) == 2 + 64

    def test_fig1_preset_writes_four_curves(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["shape", "--preset", "fig1", "--out", str(out)]) == EXIT_OK
        for label in ("smooth", "dome", "pyramid", "rough"):
            assert (tmp_path / f"fig1.{label}.csv").exists()

    def test_sphere_alone_is_affine(self, tmp_path):
        cfg = write_config(tmp_path, "[curve.s]\nbase = sphere radius=50000\n")
        out = tmp_path / "s.csv"
        assert main(["shape", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = np.array([
            [float(t) for t in ln.split(",")]
            for ln in out.read_text().splitlines()[2:]
        ])
        # f = 2 pi (R - s) is a straight line
        coeffs = np.polyfit(data[:, 0], data[:, 1], 1)
        resid = data[:, 1] - np.polyval(coeffs, data[:, 0])
        assert np.abs(resid).max() < 1e-6 * data[:, 1].max()

    def test_exact_convolution_overflow_exits_numeric(self, tmp_path, capsys):
        # Each layer is valid, but scales 1e279 apart overflow the pair
        # algebra: one error line naming both supports, no warning, no CSV.
        out = tmp_path / "shape.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["shape", "--config", write_config(tmp_path, OVERFLOW_STACK), "--out", str(out)])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numeric error: exact convolution of supports [0, 4.02821e+135] and "
            "[0, 2.28978e-144] nm has a coefficient beyond the float range\n")
        assert [str(w.message) for w in caught] == []
        assert not out.exists()


class TestSweepCommand:
    def test_fig2_ordering_and_ratio_column(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["sweep", "--preset", "fig2", "--out", str(out)]) == EXIT_OK
        values = {}
        for label in ("smooth", "dome", "rough", "pyramid"):
            lines = (tmp_path / f"fig2.{label}.csv").read_text().splitlines()
            assert lines[1] == "d_nm,I_nW,ratio"
            first = [float(t) for t in lines[2].split(",")]
            assert first[0] == 1.0
            assert first[2] == pytest.approx(first[1] / 4200.0, rel=1e-12)
            values[label] = first[1]
        assert values["smooth"] > values["dome"] > values["rough"] > values["pyramid"]

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SPHERE_DOME_CFG)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_layer_order_gives_identical_rows(self, tmp_path):
        layers = {"pyramid": "pyramid height=100", "rough": "rough sigma=10 s0=20"}
        rows = []
        for first, second in (("pyramid", "rough"), ("rough", "pyramid")):
            text = SPHERE_DOME_CFG.replace(
                "layer.1 = dome height=50", f"layer.1 = {layers[first]}\nlayer.2 = {layers[second]}")
            out = tmp_path / f"{first}.csv"
            assert main(["sweep", "--config", write_config(tmp_path, text), "--out", str(out)]) == EXIT_OK
            rows.append(out.read_text().splitlines()[1:])
        assert rows[0] == rows[1]

    def test_17_digit_output(self, tmp_path):
        cfg = write_config(tmp_path, SPHERE_DOME_CFG)
        out = tmp_path / "a.csv"
        main(["sweep", "--config", cfg, "--out", str(out)])
        row = out.read_text().splitlines()[2].split(",")
        assert len(row[1]) >= 17  # 17 significant digits survive

    def test_single_separation(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[separations]\nlist = 10,11\n[curve.s]\nbase = sphere radius=50000\n",
        )
        out = tmp_path / "one.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 4


    @pytest.mark.parametrize("text, first", [
        # A subnormal separation: the kernel overflows and the row is nan.
        ("[separations]\nlist = 1e-320, 1e-300, 1\n[curve.s]\nbase = sphere radius=100\n", "1e-320"),
        # alpha near the float maximum overflows the far-branch product.
        ("[kernel]\nalpha = 1e308\nnu = 2\n[curve.s]\nbase = sphere radius=1e5\n"
         "layer.1 = rough sigma=10 s0=20\n", "1.0"),
    ], ids=["subnormal-d", "huge-alpha"])
    def test_non_finite_value_exits_numeric_without_csv(self, tmp_path, capsys, text, first):
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(["sweep", "--config", write_config(tmp_path, text), "--out", str(out)])
        assert rc == EXIT_NUMERIC
        assert not out.exists()
        assert f"numeric error: interaction is not a finite float at d={first} nm" in capsys.readouterr().err

    def test_overflow_prints_one_line_and_no_warning(self, tmp_path, capsys):
        # numpy's overflow warnings would reach stderr in a fresh process
        # before the error that names the separation.
        cfg = write_config(tmp_path, "[separations]\nlist = 1e-320, 1e-300, 1\n[curve.c]\nbase = sphere radius=100\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "curve.csv")])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric error: interaction is not a finite float at d=1e-320 nm\n"
        assert [str(w.message) for w in caught] == []

    def test_ratio_that_overflows_exits_numeric_without_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[scenario]\nfarfield = 1e-305\n[curve.s]\nbase = sphere radius=1e5\n")
        out = tmp_path / "curve.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
        assert not out.exists()
        assert capsys.readouterr().err == (
            "numeric error: ratio to the far-field constant 1e-305 is not a finite float at d=1.0 nm\n")


class TestHeightmapCommand:
    def test_pyramid_file_reports_case_two(self, tmp_path, capsys):
        hm = synthesize_surface(
            [{"type": "pyramid", "height": 5000.0, "tile": 5000.0}], n=512
        )
        path = tmp_path / "pyr.txt"
        save_heightmap(hm, path)
        out = tmp_path / "pyr.csv"
        rc = main(["heightmap", str(path), "--out", str(out), "--bins", "256"])
        assert rc == EXIT_OK
        assert "case_n=2" in out.read_text()
        assert "case number: 2" in capsys.readouterr().out

    def test_flat_file_delta_notice(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(["1.5,1.5,1.5"] * 3) + "\n")
        out = tmp_path / "flat_analysis.csv"
        rc = main(["heightmap", str(path), "--dx", "1", "--dy", "1", "--out", str(out)])
        assert rc == EXIT_OK
        assert "delta-like" in capsys.readouterr().out
        assert "delta-like" in out.read_text()

    def test_rough_file_sigma_recovered(self, tmp_path, capsys):
        hm = synthesize_surface(
            [{"type": "rough", "sigma": 10.0, "xi": 40.0}], n=256, extent=2560.0, seed=42
        )
        path = tmp_path / "rough.txt"
        save_heightmap(hm, path)
        out = tmp_path / "rough.csv"
        rc = main(["heightmap", str(path), "--out", str(out), "--bins", "64"])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        sigma = float(text.split("sigma=")[1].split()[0])
        assert sigma == pytest.approx(10.0, rel=0.15)

    def test_provenance_records_given_spacings(self, tmp_path):
        # The spacings scale f, so a first line that leaves them out would
        # read the same over different tables; without them it is as before.
        values = np.array([[0.0, 1, 2], [3, 4, 5], [6, 7, 9]])
        (tmp_path / "map.csv").write_text("0,1,2\n3,4,5\n6,7,9\n")
        save_heightmap(Heightmap(2.0, 2.0, values), tmp_path / "map.txt")

        def run(name, *spacing):
            out = tmp_path / "x.csv"
            assert main(["heightmap", str(tmp_path / name), *spacing, "--out", str(out)]) == EXIT_OK
            first, *rest = out.read_text().splitlines()
            return first, rest

        first1, table1 = run("map.csv", "--dx", "1", "--dy", "1")
        first2, table2 = run("map.csv", "--dx", "2", "--dy", "2")
        first_header, table_header = run("map.txt")
        assert first1.endswith(" | input=map.csv dx=1.0 dy=1.0")
        assert first2.endswith(" | input=map.csv dx=2.0 dy=2.0")
        assert first_header.endswith(" | input=map.txt")
        assert table1 != table2 and table2 == table_header

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,nan\n")
        rc = main(["heightmap", str(path), "--dx", "1", "--dy", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    def test_spacings_with_a_header_are_config_error(self, tmp_path, capsys):
        save_heightmap(Heightmap(2.0, 3.0, np.arange(16.0).reshape(4, 4)), tmp_path / "map.txt")
        out = tmp_path / "x.csv"
        rc = main(["heightmap", str(tmp_path / "map.txt"), "--dx", "5", "--dy", "7", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: line 1: the header gives dx=2 dy=3; "
                                           "dx and dy may be supplied only for a headerless file\n")
        assert not out.exists()

    @pytest.mark.parametrize("spacing", [
        ["--dx", "nan", "--dy", "1"],
        ["--dx", "inf", "--dy", "1"],
        ["--dx", "1", "--dy=-inf"],
    ])
    def test_non_finite_spacing_is_config_error(self, tmp_path, capsys, spacing):
        path = tmp_path / "map.csv"
        path.write_text("0,1,2\n3,4,5\n6,7,9\n")
        rc = main(["heightmap", str(path), *spacing, "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        assert "grid spacings must be positive and finite" in capsys.readouterr().err

    def test_non_finite_header_spacing_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "map.txt"
        path.write_text("# heightmap v1 nx=3 ny=3 dx=nan dy=1\n0 1 2\n3 4 5\n6 7 9\n")
        rc = main(["heightmap", str(path), "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        assert "grid spacings must be positive and finite" in capsys.readouterr().err

    # Spacings whose reciprocal or cell area leaves the normal floats: a
    # config error naming the spacing, before any binning (which would warn).
    @pytest.mark.parametrize("route", ["header", "flags"])
    @pytest.mark.parametrize("spacing, message", [
        ("1e-320", "grid spacing dx=1e-320: 1/dx is not a normal float"),
        ("1e300", "grid spacings dx=1e+300 dy=1e+300: cell area dx*dy is not a normal float"),
    ])
    def test_spacing_outside_normal_floats_is_config_error(self, tmp_path, capsys, route, spacing, message):
        rows = "0 1 2\n3 4 5\n6 7 9\n"
        out = tmp_path / "x.csv"
        if route == "header":
            path = tmp_path / "h3.txt"
            path.write_text(f"# heightmap v1 nx=3 ny=3 dx={spacing} dy={spacing}\n" + rows)
            argv = ["heightmap", str(path), "--out", str(out)]
        else:
            path = tmp_path / "h3.csv"
            path.write_text(rows.replace(" ", ","))
            argv = ["heightmap", str(path), "--dx", spacing, "--dy", spacing, "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    # Well-formed files whose analysis overflows: the span of the values,
    # then the squared slope.  One stderr line naming it, exit 3, no CSV.
    @pytest.mark.parametrize("rows, message", [
        ("1e308 -1e308\n0 1\n",
         "heightmap values span [-1e+308, 1e+308]: the span is not a finite float"),
        ("1e300 2e300\n3e300 4e300\n",
         "squared slope |grad S|^2 = inf at row 0, column 0: the slope^2-weighted area is not a finite float"),
    ], ids=["span", "slope"])
    def test_overflow_is_numeric_error(self, tmp_path, capsys, rows, message):
        path = tmp_path / "big.txt"
        path.write_text("# heightmap v1 nx=2 ny=2 dx=1 dy=1\n" + rows)
        out = tmp_path / "big.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["heightmap", str(path), "--out", str(out)])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == f"numeric error: {message}\n"
        assert not out.exists()

    # Well-formed scans whose bins fail: a bin width that underflows, and
    # densities per nm past the float range.
    @pytest.mark.parametrize("text, message", [
        ("# heightmap v1 nx=2 ny=2 dx=1 dy=1\n0 5e-324\n0 0\n",
         "heightmap span 5e-324 over 512 bins: the bin width is not a normal float"),
        ("# heightmap v1 nx=3 ny=3 dx=1e150 dy=1e150\n0 1e-10 2e-10\n3e-10 4e-10 5e-10\n6e-10 7e-10 8e-10\n",
         "bin width 1.5625e-12: a density f or g per nm is not a finite float"),
    ], ids=["subnormal-span", "density"])
    def test_bins_outside_the_floats_are_numeric_errors(self, tmp_path, capsys, text, message):
        path = tmp_path / "scan.txt"
        path.write_text(text)
        out = tmp_path / "scan.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["heightmap", str(path), "--out", str(out)])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == f"numeric error: {message}\n"
        assert not out.exists()

    def test_library_default_bins_as_the_command(self, tmp_path, capsys):
        # A 3x3 scan of 0.45 nm span: bins of span / 512 both ways.
        hm = shift_to_contact(Heightmap(1.0, 1.0, np.linspace(0.0, 0.45, 9).reshape(3, 3)))
        save_heightmap(hm, tmp_path / "scan.txt")
        assert main(["heightmap", str(tmp_path / "scan.txt"), "--out", str(tmp_path / "scan.csv")]) == EXIT_OK
        rows = [line for line in (tmp_path / "scan.csv").read_text().splitlines() if not line.startswith("#")]
        f_nm = [float(row.split(",")[1]) for row in rows[1:]]
        emp = empirical_distribution(hm)
        assert emp.bin_width == 0.45 / 512
        assert f_nm == (emp.weights / emp.bin_width).tolist()

    def test_memory_budget(self, tmp_path, capsys):
        # At 512^2 the command holds at most four grids' bytes at once.
        hm = synthesize_surface([{"type": "cap", "radius": 5e4},
                                 {"type": "pyramid", "height": 200.0, "tile": 500.0}],
                                n=512, extent=8000.0)
        save_heightmap(hm, tmp_path / "scan.txt")
        argv = ["heightmap", str(tmp_path / "scan.txt"), "--out", str(tmp_path / "out.csv")]
        assert traced_peak(lambda: main(argv)) <= 4 * hm.values.nbytes

    def test_low_relief_scan_fits(self, tmp_path, capsys):
        # Heights below 1e-12 nm: the fit runs in bin widths, with no bound
        # on sigma in nm, so it fits a spread this small as any other.
        vals = np.random.default_rng(0).uniform(0.0, 1e-12, (16, 16))
        save_heightmap(Heightmap(1.0, 1.0, vals), tmp_path / "low.txt")
        out = tmp_path / "low.csv"
        assert main(["heightmap", str(tmp_path / "low.txt"), "--out", str(out)]) == EXIT_OK
        fit = dict(tok.split("=") for tok in out.read_text().splitlines()[1].split()[2:])
        assert 1e-14 < float(fit["sigma"]) < 1e-12
        assert 0.0 <= float(fit["s0"]) < 1e-12
        assert capsys.readouterr().err == ""

    def test_fit_error_exit_code(self, tmp_path):
        # Two-level map: enough to histogram, too degenerate to fit.
        vals = np.zeros((8, 8))
        vals[:4] = 100.0
        save_heightmap(Heightmap(1.0, 1.0, vals), tmp_path / "two.txt")
        rc = main(["heightmap", str(tmp_path / "two.txt"),
                   "--out", str(tmp_path / "two.csv"), "--bins", "32"])
        assert rc == EXIT_NUMERIC


class TestPaths:
    """A named input, config or --out path that cannot be used exits 2 with
    one `config error:` line naming it."""

    @staticmethod
    def assert_config_error(rc, capsys, path):
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_missing_heightmap(self, tmp_path, capsys):
        path = tmp_path / "missing.csv"
        rc = main(["heightmap", str(path), "--dx", "1", "--dy", "1",
                   "--out", str(tmp_path / "o.csv")])
        self.assert_config_error(rc, capsys, path)

    def test_heightmap_is_directory(self, tmp_path, capsys):
        path = tmp_path / "scans"
        path.mkdir()
        rc = main(["heightmap", str(path), "--dx", "1", "--dy", "1",
                   "--out", str(tmp_path / "o.csv")])
        self.assert_config_error(rc, capsys, path)

    def test_undecodable_heightmap(self, tmp_path, capsys):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfe0,1\n2,3\n")
        rc = main(["heightmap", str(path), "--dx", "1", "--dy", "1",
                   "--out", str(tmp_path / "o.csv")])
        self.assert_config_error(rc, capsys, path)

    def test_missing_config(self, tmp_path, capsys):
        path = tmp_path / "missing.cfg"
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: config: cannot read {path}\n"

    def test_undecodable_config(self, tmp_path, capsys):
        path = tmp_path / "utf16.cfg"
        path.write_bytes(b"\xff\xfe[scenario]\n")
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        self.assert_config_error(rc, capsys, path)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--preset", "fig2"],
        ["shape", "--preset", "fig1"],
        ["asympt", "--preset", "fig4"],
        ["heightmap", "MAP"],
    ])
    def test_out_in_missing_directory(self, tmp_path, capsys, monkeypatch, argv):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for name in ("sweep", "load_heightmap"):
            monkeypatch.setattr(proxint.cli, name, forbidden)
        monkeypatch.setattr(proxint.cli.ShapeStack, "build", forbidden)
        save_heightmap(Heightmap(1.0, 1.0, np.arange(16.0).reshape(4, 4)), tmp_path / "map.txt")
        argv = [str(tmp_path / "map.txt") if a == "MAP" else a for a in argv]
        missing = tmp_path / "no" / "such"
        rc = main([*argv, "--out", str(missing / "x.csv")])
        self.assert_config_error(rc, capsys, missing)

    def test_out_is_directory(self, tmp_path, capsys):
        rc = main(["asympt", "--preset", "fig4", "--out", str(tmp_path)])
        self.assert_config_error(rc, capsys, tmp_path)


# Runs in a fresh interpreter: the sweep, asympt and shape recipes, the
# synthesis of a cap + rough scan, then its heightmap analysis, and the
# SciPy modules loaded after each.
STARTUP_SCRIPT = """
import json, sys
import proxint
import proxint.cli as cli
out = sys.argv[1]
scipy = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
codes = [cli.main(["sweep", "--preset", "fig2", "--out", out + "/fig2.csv"]),
         cli.main(["asympt", "--preset", "fig4", "--out", out + "/fig4.csv"]),
         cli.main(["shape", "--preset", "fig1", "--out", out + "/fig1.csv"])]
loaded = {"commands": scipy()}
hm = proxint.synthesize_surface(
    [{"type": "cap", "radius": 5000.0}, {"type": "rough", "sigma": 5.0, "xi": 20.0}],
    n=64, extent=640.0, seed=3)
loaded["synthesis"] = scipy()
proxint.save_heightmap(hm, out + "/scan.txt")
codes.append(cli.main(["heightmap", out + "/scan.txt", "--out", out + "/scan.csv", "--bins", "64"]))
loaded["heightmap"] = scipy()
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


class TestStartup:
    def test_no_command_or_synthesis_loads_scipy(self, tmp_path, deadline):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        with deadline(120):
            done = subprocess.run(
                [sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path)],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["codes"] == [EXIT_OK] * 4
        assert result["loaded"] == {"commands": [], "synthesis": [], "heightmap": []}
        assert "\n# gaussian-fit sigma=" in (tmp_path / "scan.csv").read_text()

    def test_no_command_loads_configparser(self, tmp_path, deadline):
        # The config reader is the CLI's own; configparser costs milliseconds
        # of start-up to import.
        save_heightmap(Heightmap(1.0, 1.0, np.arange(16.0).reshape(4, 4)), tmp_path / "map.txt")
        cfg = write_config(tmp_path, SPHERE_DOME_CFG_STYLED)
        script = (
            "import sys\n"
            "import proxint.cli as cli\n"
            "assert 'configparser' not in sys.modules\n"
            f"cfg, out = {cfg!r}, {str(tmp_path)!r}\n"
            "codes = [cli.main([c, '--config', cfg, '--out', f'{out}/{c}.csv']) for c in ('shape', 'sweep', 'asympt')]\n"
            "codes.append(cli.main(['heightmap', f'{out}/map.txt', '--config', cfg, '--out', f'{out}/map.csv']))\n"
            "print(codes, 'configparser' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        with deadline(120):
            done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                  capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        # asympt reads the config and runs to its end, where the smallest
        # decade of this stack fails verification.
        assert done.stdout.splitlines()[-1] == f"{[EXIT_OK, EXIT_OK, EXIT_VERIFY, EXIT_OK]} False"


class TestAsymptCommand:
    def test_sphere_power_law_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "[separations]\nmin = 1\nmax = 300\nper_decade = 30\n"
            "[curve.sphere]\nbase = sphere radius=50000\n",
        )
        out = tmp_path / "rep.csv"
        rc = main(["asympt", "--config", cfg, "--out", str(out), "--window", "1,30"])
        assert rc == EXIT_OK
        text = out.read_text()
        assert "form_pred" in text
        assert ",power-law,power-law," in text
        assert text.strip().endswith(",1")

    def test_sphere_dome_log_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[separations]\nmin = 1\nmax = 300\nper_decade = 30\n"
            "[curve.sd]\nbase = sphere radius=50000\nlayer.1 = dome height=5000\n",
        )
        rc = main(["asympt", "--config", cfg, "--window", "1,10"])
        assert rc == EXIT_OK

    def test_casimir_sphere_dome_power_law_passes(self, tmp_path):
        # Case 2 against nu = 3: the Gamma-form prefactor alpha f'(0) / 2.
        cfg = write_config(
            tmp_path,
            "[kernel]\npreset = casimir-ideal\nalpha = 1\n"
            "[separations]\nmin = 0.01\nmax = 300\nper_decade = 60\n"
            "[curve.sd]\nbase = sphere radius=91783.9\nlayer.1 = dome height=13.6919\n",
        )
        out = tmp_path / "rep.csv"
        assert main(["asympt", "--config", cfg, "--out", str(out)]) == EXIT_OK
        row = dict(zip(*(ln.split(",") for ln in out.read_text().splitlines()[1:3])))
        assert float(row["prefactor_pred"]) == pytest.approx(
            2 * np.pi * 91783.9 / 13.6919, rel=1e-12)

    def test_provenance_records_given_tol_and_window(self, tmp_path):
        # --tol and --window change the report, so its first line names
        # them when given; a run without them writes the line as before.
        firsts = {}
        for flags in ([], ["--tol", "0.5"], ["--window", "1,10"], ["--tol", "1e-3", "--window", "2,30"]):
            out = tmp_path / "rep.csv"
            assert main(["asympt", "--preset", "fig2", "--out", str(out), *flags]) in (EXIT_OK, EXIT_VERIFY)
            firsts[" ".join(flags)] = out.read_text().splitlines()[0]
        plain = firsts[""]
        assert plain.endswith(" d=[1,300]x150 farfield=4200")
        assert firsts["--tol 0.5"] == plain + " | tol=0.5"
        assert firsts["--window 1,10"] == plain + " | window=1.0,10.0"
        assert firsts["--tol 1e-3 --window 2,30"] == plain + " | tol=0.001 window=2.0,30.0"

    @pytest.mark.parametrize("flags", [
        ["--tol", "nan"], ["--tol", "0"], ["--window", "nan,1"], ["--window", "10,1"],
    ])
    def test_bad_tol_or_window_exits_config(self, flags):
        assert main(["asympt", "--preset", "fig4", *flags]) == EXIT_CONFIG

    def test_case_twelve_stack_classifies(self, tmp_path, capsys):
        # sphere (*) 11 domes is case 12; against nu = 2 the law is constant.
        layers = "".join(f"layer.{i} = dome height=50\n" for i in range(1, 12))
        cfg = write_config(tmp_path, f"[curve.stack]\nbase = sphere radius=50000\n{layers}")
        assert main(["asympt", "--config", cfg]) == EXIT_OK
        assert "(case 12)" in capsys.readouterr().out

    def test_rough_stack_case_four_constant_passes(self, tmp_path, capsys):
        # sphere (*) pyramid (*) rough is case 1 + 2 + 1 = 4; against nu = 2
        # the law is constant.
        cfg = write_config(
            tmp_path,
            "[separations]\nmin = 0.01\nmax = 300\nper_decade = 20\n"
            "[curve.spr]\nbase = sphere radius=50000\nlayer.1 = pyramid height=100\n"
            "layer.2 = rough sigma=10 s0=20\n",
        )
        assert main(["asympt", "--config", cfg]) == EXIT_OK
        assert "(case 4)" in capsys.readouterr().out

    def test_kernel_exponent_past_the_gamma_range(self, tmp_path):
        # Gamma(200) overflows a float; the predicted prefactor of the sphere
        # is still alpha 2 pi R Gamma(199) / Gamma(200) = 2 pi R / 199.
        cfg = write_config(tmp_path, "[kernel]\nalpha = 1\nnu = 200\n[curve.s]\nbase = sphere radius=100\n")
        out = tmp_path / "rep.csv"
        assert main(["asympt", "--config", cfg, "--out", str(out)]) == EXIT_OK
        row = dict(zip(*(ln.split(",") for ln in out.read_text().splitlines()[1:3])))
        assert float(row["prefactor_pred"]) == pytest.approx(2 * np.pi * 100 / 199, rel=1e-14)

    def test_prefactor_past_the_float_range_of_the_gamma_form(self, tmp_path):
        # alpha 2 pi R Gamma(132) would overflow before a division by
        # Gamma(133); the prefactor is 2 pi R / 132 = 4.76e84.
        cfg = write_config(tmp_path, "[kernel]\nalpha = 1\nnu = 133\n[curve.s]\nbase = sphere radius=1e86\n")
        out = tmp_path / "rep.csv"
        assert main(["asympt", "--config", cfg, "--out", str(out)]) == EXIT_OK
        row = dict(zip(*(ln.split(",") for ln in out.read_text().splitlines()[1:3])))
        assert float(row["prefactor_pred"]) == pytest.approx(2 * np.pi * 1e86 / 132, rel=1e-14)
        assert row["pass"] == "1"

    def test_prefactor_past_the_float_range_exits_numeric(self, tmp_path, capsys):
        # alpha 2 pi R itself overflows: no finite prefactor to predict.
        cfg = write_config(tmp_path, "[kernel]\npreset = casimir-ideal\nalpha = 3.21259e+212\n"
                                     "[curve.s]\nbase = sphere radius=3.7904e+113\n")
        out = tmp_path / "rep.csv"
        assert main(["asympt", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numeric error: predicted power-law prefactor is not a finite float "
            "(alpha=3.21259e+212, f^(0)(0)=2.3815785588333504e+114, nu=3.0)\n")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1e-300", "1e200"])
    def test_window_values_far_from_one(self, tmp_path, capsys, alpha):
        # The fit's norms square values of order alpha: they under- or
        # overflow unless the values are scaled first.
        cfg = write_config(tmp_path, f"[kernel]\nalpha = {alpha}\nnu = 2\n[curve.c]\nbase = sphere radius=100\n")
        out = tmp_path / "rep.csv"
        assert main(["asympt", "--config", cfg, "--out", str(out)]) == EXIT_OK
        row = dict(zip(*(ln.split(",") for ln in out.read_text().splitlines()[1:3])))
        assert row["form_fit"] == "power-law"
        assert float(row["prefactor_fit"]) == pytest.approx(float(row["prefactor_pred"]), rel=0.01)
        assert capsys.readouterr().err == ""

    def test_zero_first_segment_exits_numeric(self, tmp_path, capsys):
        # A rough layer with s0 > 8 sigma leaves f = 0 on [0, s0 - 8 sigma]:
        # no Taylor coefficient at s = 0 is non-zero.
        cfg = write_config(tmp_path, "[curve.s]\nbase = sphere radius=50000\nlayer.1 = rough sigma=1 s0=20\n")
        out = tmp_path / "rep.csv"
        assert main(["asympt", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric error: distribution is zero on its first segment [0, 12] nm\n"
        assert not out.exists()

    def test_underflowed_window_exits_numeric(self, tmp_path, capsys):
        # At nu = 1000 the sphere's I(d) underflows to 0 past about 2 nm of
        # the default [1, 10] nm window.
        cfg = write_config(tmp_path, "[kernel]\nalpha = 1\nnu = 1000\n[curve.s]\nbase = sphere radius=100\n")
        assert main(["asympt", "--config", cfg]) == EXIT_NUMERIC
        assert "numeric error: window [1, 10] holds a value that is zero or not finite" in capsys.readouterr().err

    def test_sweeps_only_the_window(self, monkeypatch):
        # fig4's separations run from 0.01 to 300 nm, 60 a decade; the fit
        # window is the smallest decade.
        seen, sweep = [], proxint.cli.sweep

        def spy(f, kernel, d_list):
            seen.append(np.asarray(d_list))
            return sweep(f, kernel, d_list)

        monkeypatch.setattr(proxint.cli, "sweep", spy)
        assert main(["asympt", "--preset", "fig4"]) == EXIT_OK
        assert seen and all(len(d) == 61 and d[0] == 0.01 and d[-1] <= 0.1 for d in seen)

    def test_window_with_too_few_points(self, capsys):
        assert main(["asympt", "--preset", "fig4", "--window", "1,1.1"]) == EXIT_NUMERIC
        assert "numeric error: need >= 8 points in window [1, 1.1], have 2" in capsys.readouterr().err

    def test_fig4_preset_constant_passes(self, tmp_path):
        assert main(["asympt", "--preset", "fig4"]) == EXIT_OK

    def test_verification_failure_exit_code(self, tmp_path):
        # An impossible tolerance forces a prefactor failure -> exit 4.
        cfg = write_config(
            tmp_path,
            "[separations]\nmin = 1\nmax = 300\nper_decade = 30\n"
            "[curve.sphere]\nbase = sphere radius=50000\n",
        )
        rc = main(["asympt", "--config", cfg, "--window", "1,30", "--tol", "1e-12"])
        assert rc == EXIT_VERIFY


class TestArgumentErrors:
    def test_missing_subcommand(self):
        assert main([]) == EXIT_CONFIG

    def test_no_curves(self, tmp_path):
        cfg = write_config(tmp_path, "[scenario]\ndref = 300\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


class TestParserReuse:
    """main builds its parser once per process; no call leaks into the next."""

    def test_flag_value_does_not_leak(self, tmp_path):
        cfg = write_config(tmp_path, SPHERE_DOME_CFG)
        out = tmp_path / "shape.csv"
        assert main(["shape", "--config", cfg, "--bins", "64", "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 2 + 64
        assert main(["shape", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 2 + 512

    def test_usage_error_then_valid_command(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--preset", "fig2", "--out", str(a)]) == EXIT_OK
        capsys.readouterr()
        assert main(["sweep", "--preset", "fig2", "--out", str(b), "--bins", "3"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "unrecognized arguments: --bins 3" in captured.err
        assert not list(tmp_path.glob("b*.csv"))
        assert main(["sweep", "--preset", "fig2", "--out", str(b)]) == EXIT_OK
        for label in ("smooth", "dome", "rough", "pyramid"):
            assert (tmp_path / f"b.{label}.csv").read_bytes() == \
                (tmp_path / f"a.{label}.csv").read_bytes()

    def test_version_and_help_after_a_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SPHERE_DOME_CFG)
        assert main(["shape", "--config", cfg, "--bins", "8", "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        capsys.readouterr()
        assert main(["--version"]) == EXIT_OK
        assert capsys.readouterr().out == f"proxint {__version__}\n"
        assert main(["sweep", "--help"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: proxint sweep")
        assert "--farfield" in captured.out and captured.err == ""

    def test_make_parser_builds_a_fresh_parser(self, tmp_path):
        assert make_parser() is not make_parser()
        assert _parser() is _parser()
        # What a caller does to its own parser never reaches main.
        make_parser().add_argument("--extra")
        assert main(["--extra", "1", "shape", "--preset", "fig1",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


class TestAllocationFailure:
    """A grid too large to allocate is a numeric error, not a traceback.

    Every size is 10^13 elements or more: numpy refuses it at once
    (72.8 TiB), so nothing is allocated."""

    @pytest.mark.parametrize("case", ["shape bins", "heightmap bins", "per_decade"])
    def test_memory_error_exits_numeric(self, tmp_path, capsys, case):
        out = tmp_path / "o.csv"
        if case == "shape bins":
            argv = ["shape", "--preset", "fig1", "--bins", "10000000000000"]
        elif case == "heightmap bins":
            scan = tmp_path / "map.txt"
            save_heightmap(Heightmap(1.0, 1.0, np.arange(16.0).reshape(4, 4)), scan)
            argv = ["heightmap", str(scan), "--bins", "10000000000000"]
        else:
            cfg = write_config(tmp_path, SPHERE_DOME_CFG.replace(
                "per_decade = 20", "per_decade = 10000000000000"))
            argv = ["sweep", "--config", cfg]
        assert main(argv + ["--out", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric error: Unable to allocate ")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("o*.csv"))


# The CLI contract over a bounded config grammar: layer fields, alpha,
# separations, dref and farfield log-uniform over 1e-300..1e300, a custom
# nu in [0, 200], at most 20 separations a decade and 64 shape rows.

_MAGNITUDES = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: float("%.6g" % 10.0**e))
_LAYER_KINDS = {"dome": ("height",), "pyramid": ("height",), "rough": ("sigma", "s0")}


@st.composite
def cli_configs(draw):
    """(config text, command) from the bounded grammar; one curve."""
    scenario = {"bins": draw(st.integers(min_value=1, max_value=64))}
    for key in ("dref", "farfield"):
        if draw(st.booleans()):
            scenario[key] = draw(_MAGNITUDES)
    kernel = draw(st.sampled_from(["heat-sio2", "casimir-ideal", "custom"]))
    kern = {"preset": kernel}
    if kernel != "heat-sio2":
        kern["alpha"] = draw(_MAGNITUDES)
    if kernel == "custom":
        kern["nu"] = draw(st.floats(min_value=0.0, max_value=200.0))
    lo = draw(_MAGNITUDES)
    seps = {"min": lo, "max": float("%.6g" % (lo * 10.0 ** draw(st.floats(min_value=0.1, max_value=4.0)))),
            "per_decade": draw(st.integers(min_value=1, max_value=20))}
    layers = []
    for kind in draw(st.lists(st.sampled_from(sorted(_LAYER_KINDS)), max_size=2)):
        fields = {name: draw(_MAGNITUDES) for name in _LAYER_KINDS[kind]}
        scale = fields["s0"] + 8.0 * fields["sigma"] if kind == "rough" else fields["height"]
        layers.append((scale, kind + "".join(f" {k}={v!r}" for k, v in fields.items())))
    # Coarse to fine, as the config requires.
    layers.sort(key=lambda layer: -layer[0])
    curve = {"base": f"sphere radius={draw(_MAGNITUDES)!r}"}
    curve.update({f"layer.{i}": spec for i, (_, spec) in enumerate(layers, start=1)})
    sections = {"scenario": scenario, "kernel": kern, "separations": seps, "curve.c": curve}
    # Outside the grammar, and so exit 2: a "%" in a value, or a [DEFAULT]
    # section, which configparser would interpolate or copy into each section.
    odd = draw(st.sampled_from([None, None, None, "%", "%(nu)s", "DEFAULT"]))
    if odd == "DEFAULT":
        sections = {"DEFAULT": dict([draw(st.sampled_from([("dref", "5"), ("base", "sphere radius=100")]))]),
                    **sections}
    elif odd:
        name = draw(st.sampled_from(sorted(sections)))
        key = draw(st.sampled_from(sorted(sections[name])))
        sections[name][key] = f"{sections[name][key]}{odd}"
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sec.items())
                   for name, sec in sections.items())
    return text, draw(st.sampled_from(["shape", "sweep", "asympt"]))


class TestContract:
    @settings(max_examples=50)
    @given(cli_configs())
    @example((OVERFLOW_STACK, "shape"))
    @example(("[curve.c]\nbase = sphere radius=5%\n", "sweep"))
    @example(("[curve.c]\nbase = sphere radius=%(nu)s\n", "shape"))
    @example(("[DEFAULT]\nbase = sphere radius=100\n[curve.c]\nlayer.1 = dome height=1\n", "sweep"))
    @example(("[separations]\nlist = 1, x\n[curve.c]\nbase = sphere radius=100\n", "sweep"))
    def test_exit_codes_and_finite_output(self, config):
        # Exit 0, 2, 3 or 4 and never an exception; no CSV on exit 2 or 3
        # (asympt writes its report on a failed verification, exit 4),
        # every number in a CSV finite, and no numpy warning escapes.  A
        # config outside the grammar exits 2.
        text, command = config
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), text)
            out = Path(tmp) / "out.csv"
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("error", RuntimeWarning)
                rc = main([command, "--config", cfg, "--out", str(out)])
            assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_VERIFY)
            if "%" in text or "[DEFAULT]" in text:
                assert rc == EXIT_CONFIG, text
            assert out.exists() == (rc in (EXIT_OK, EXIT_VERIFY))
            if not out.exists():
                return
            for line in out.read_text().splitlines():
                if line.startswith("#"):
                    continue
                for tok in line.split(","):
                    try:
                        value = float(tok)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (command, text, line)


# Reference writers, one "%.17g" call per numpy value, as the CSV writers
# once were: the one writer of rows must give the same bytes.

def _curve_to_csv_per_value(curve, provenance=None):
    cols = ["d_nm", "I_nW"]
    arrays = [curve.separations, curve.values]
    if curve.ratios is not None:
        cols.append("ratio")
        arrays.append(np.asarray(curve.ratios))
    lines = []
    if provenance:
        lines.append(f"# {provenance}")
    lines.append(",".join(cols))
    for row in zip(*arrays):
        lines.append(",".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def _shape_rows_per_value(s, f):
    return "".join(f"{FMT % si},{FMT % fi}\n" for si, fi in zip(s, f))


def _heightmap_rows_per_value(centers, fw, gw):
    return [f"{FMT % c},{FMT % fi},{FMT % gi}" for c, fi, gi in zip(centers, fw, gw)]


# Finite doubles over the whole range, with the subnormal, extreme and
# signed-zero values drawn often.
EXTREMES = [5e-324, -2.2250738585072014e-308, 1e300, -1e300, -0.0, 1.7976931348623157e308]
DOUBLES = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EXTREMES))
POSITIVE = st.one_of(
    st.floats(min_value=5e-324, allow_infinity=False),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308]),
)


@st.composite
def curves(draw):
    d = sorted(draw(st.lists(POSITIVE, min_size=1, max_size=8, unique=True)))
    column = arrays(float, len(d), elements=DOUBLES)
    ratios = draw(st.none() | column)
    return InteractionCurve(np.array(d), draw(column), heat_sio2_kernel(), ratios=ratios)


def _columns(k):
    return st.integers(0, 8).flatmap(
        lambda n: st.tuples(*[arrays(float, n, elements=DOUBLES)] * k))


class TestRowWriters:
    @given(curves(), st.sampled_from([None, "proxint 0 | sweep"]))
    def test_curve_to_csv_matches_per_value_writer(self, curve, provenance):
        assert curve_to_csv(curve, provenance) == _curve_to_csv_per_value(curve, provenance)

    def test_curve_to_csv_extremes_with_and_without_ratio(self):
        d = np.array([5e-324, 2.2250738585072014e-308, 1.0, 1e300, 1.7976931348623157e308])
        v = np.array([-0.0, 5e-324, -1e300, 1e300, 1.7976931348623157e308])
        for ratios in (None, v[::-1].copy()):
            curve = InteractionCurve(d, v, heat_sio2_kernel(), ratios=ratios)
            assert curve_to_csv(curve) == _curve_to_csv_per_value(curve)

    @given(_columns(2))
    def test_shape_rows_match_per_value_writer(self, columns):
        s, f = columns
        assert table([], (s, f)) == _shape_rows_per_value(s, f)

    @given(_columns(3))
    def test_heightmap_rows_match_per_value_writer(self, columns):
        assert table([], columns).splitlines() == _heightmap_rows_per_value(*columns)

    def test_rows_of_extremes(self):
        col = np.array(EXTREMES)
        assert table([], (col, -col, col[::-1])).splitlines() == _heightmap_rows_per_value(col, -col, col[::-1])


# Scans for the heightmap command: magnitudes log-uniform over 1e+-300 with
# either sign, flat grids, or spans of a few subnormals; spacings at the
# edges of the normal floats.  A headerless scan (dx, dy given) is a CSV.
NORMAL_EDGES = [2.2250738585072014e-308, 2.225073858507202e-308, 4.49423283715579e307,
                1.7976931348623157e308, 1.4916681462400413e-154, 1.3407807929942596e154, 1.0]
SPACINGS = st.one_of(st.sampled_from(NORMAL_EDGES),
                     st.floats(-307.0, 307.0).map(lambda e: 10.0**e))


@st.composite
def heightmap_scans(draw):
    ny, nx = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["log", "flat", "subnormal"]))
    if kind == "log":
        magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
        cell = st.one_of(st.just(0.0), st.tuples(st.sampled_from([-1.0, 1.0]), magnitude).map(math.prod))
        values = draw(st.lists(cell, min_size=nx * ny, max_size=nx * ny))
    elif kind == "flat":
        values = [draw(DOUBLES)] * (nx * ny)
    else:
        values = [k * 5e-324 for k in draw(st.lists(st.integers(0, 8), min_size=nx * ny, max_size=nx * ny))]
    dx, dy = draw(SPACINGS), draw(SPACINGS)
    rows = [values[j * nx:(j + 1) * nx] for j in range(ny)]
    if draw(st.booleans()):
        text = f"# heightmap v1 nx={nx} ny={ny} dx={dx!r} dy={dy!r}\n"
        text += "".join(" ".join(map(repr, row)) + "\n" for row in rows)
        dx = dy = None
    else:
        text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    return text, dx, dy, draw(st.none() | st.integers(1, 64))


SUBNORMAL_SPAN = ("# heightmap v1 nx=2 ny=2 dx=1 dy=1\n0 5e-324\n0 0\n", None, None, None)
# Bins of 6.25e198 nm: a Gaussian fit in nm would square their width.  The
# anisotropic spacing keeps |grad S|^2 finite.
WIDE_BINS = ("# heightmap v1 nx=16 ny=2 dx=1e50 dy=1e-50\n"
             + 2 * (" ".join(FMT % v for v in np.linspace(0.0, 1e200, 16)) + "\n"), None, None, 16)
# Bins of 1e-101 nm: the classifying fit's window, raised to its degree,
# underflows.
TINY_BINS = ("# heightmap v1 nx=4 ny=4 dx=1 dy=1\n"
             + "".join(" ".join(FMT % (k * 1e-101) for k in range(j, j + 4)) + "\n" for j in range(0, 16, 4)),
             None, None, 16)


class TestHeightmapContract:
    @settings(max_examples=150, derandomize=True)
    @given(heightmap_scans())
    @example(SUBNORMAL_SPAN)
    @example(WIDE_BINS)
    @example(TINY_BINS)
    def test_exit_codes_and_finite_output(self, scan):
        # A scan that loads exits 0 or 3, any other 2, never with an
        # exception or a numpy warning; exits 2 and 3 print one stderr line
        # and write no CSV, and every number in a CSV is finite.
        text, dx, dy, bins = scan
        argv = [] if dx is None else ["--dx", repr(dx), "--dy", repr(dy)]
        argv += [] if bins is None else ["--bins", str(bins)]
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "scan.txt", Path(tmp) / "out.csv"
            path.write_text(text)
            try:
                load_heightmap(path, dx, dy)
                codes = (EXIT_OK, EXIT_NUMERIC)
            except (ParseError, InvalidParameterError):
                codes = (EXIT_CONFIG,)
            stderr = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error", RuntimeWarning)
                rc = main(["heightmap", str(path), *argv, "--out", str(out)])
            assert rc in codes, (scan, stderr.getvalue())
            assert out.exists() == (rc == EXIT_OK)
            if rc != EXIT_OK:
                assert len(stderr.getvalue().splitlines()) == 1, stderr.getvalue()
                return
            for line in out.read_text().splitlines():
                if not line.startswith("#") and line != "s_nm,f_nm,g_nm":
                    assert all(math.isfinite(float(tok)) for tok in line.split(",")), (scan, line)
