"""CLI: config parsing, presets, commands, exit codes, determinism, formats."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import proxint.cli
from proxint import Heightmap, save_heightmap, synthesize_surface
from proxint.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VERIFY,
    build_config,
    main,
)
from proxint.errors import ConfigError


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


class TestConfig:
    def test_layer_parsing_and_override(self, tmp_path):
        cfg_path = write_config(tmp_path, SPHERE_DOME_CFG)
        args = type("A", (), {"config": cfg_path, "preset": None, "dref": 150.0})()
        from proxint.cli import load_config

        cfg = load_config(args)
        assert cfg.d_ref == 150.0  # flag beats file
        assert cfg.kernel.nu == 2.0 and cfg.kernel.alpha == pytest.approx(0.2558)
        assert len(cfg.curves) == 1
        assert cfg.curves[0].layers[0]["height"] == 50.0

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

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="senario: unknown section"):
            build_config({"senario": {"dref": "100"}, "curve.s": {"base": "sphere radius=1"}})

    def test_pyramid_tile_field_removed(self):
        with pytest.raises(ConfigError, match=r"layer\.1\.tile: unknown field"):
            build_config({"curve.x": {"base": "sphere radius=50000",
                                      "layer.1": "pyramid height=100 tile=500"}})


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

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,nan\n")
        rc = main(["heightmap", str(path), "--dx", "1", "--dy", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

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
# SciPy modules loaded by then, then a heightmap analysis (which needs SciPy).
STARTUP_SCRIPT = """
import json, sys
import proxint
import proxint.cli as cli
out, scan = sys.argv[1], sys.argv[2]
codes = [cli.main(["sweep", "--preset", "fig2", "--out", out + "/fig2.csv"]),
         cli.main(["asympt", "--preset", "fig4", "--out", out + "/fig4.csv"]),
         cli.main(["shape", "--preset", "fig1", "--out", out + "/fig1.csv"])]
scipy = sorted(m for m in sys.modules if m.startswith("scipy"))
heightmap = cli.main(["heightmap", scan, "--out", out + "/scan.csv", "--bins", "64"])
print(json.dumps({"codes": codes, "scipy": scipy, "heightmap": heightmap}))
"""


class TestStartup:
    def test_only_heightmap_loads_scipy(self, tmp_path, deadline):
        hm = synthesize_surface(
            [{"type": "cap", "radius": 5000.0}, {"type": "rough", "sigma": 5.0, "xi": 20.0}],
            n=64, extent=640.0, seed=3,
        )
        scan = tmp_path / "scan.txt"
        save_heightmap(hm, scan)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        with deadline(120):
            done = subprocess.run(
                [sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path), str(scan)],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["codes"] == [EXIT_OK] * 3
        assert result["scipy"] == []
        assert result["heightmap"] == EXIT_OK
        assert "\n# gaussian-fit sigma=" in (tmp_path / "scan.csv").read_text()


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
