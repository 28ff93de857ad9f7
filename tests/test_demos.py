"""Smoke tests: every demo runs end to end from a clean directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def run_demo(name, cwd, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    with deadline(120):
        done = subprocess.run(
            [sys.executable, str(REPO / "demos" / name)],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_demo_heightmap_runs(tmp_path, deadline):
    stdout = run_demo("demo_heightmap.py", tmp_path, deadline)
    assert "read back" in stdout
    assert (tmp_path / "demo_out" / "cap_pyramid.txt").stat().st_size > 0
    assert (tmp_path / "demo_out" / "cap_pyramid_distributions.csv").read_text().startswith("s_nm,")


# (demo, a line its output must contain, the files it writes under demo_out/)
DEMOS = [
    ("demo_distributions.py", "case 1 -> 2",
     ["distribution_smooth.csv", "distribution_dome.csv",
      "distribution_pyramid.csv", "distribution_rough.csv"]),
    ("demo_sweep.py", "Ordering at 1 nm:",
     ["sweep_smooth.csv", "sweep_dome-h50.csv", "sweep_rough-s0-2sig.csv",
      "sweep_rough-s0-3sig.csv", "sweep_pyramid-h100.csv"]),
    ("demo_scaling_laws.py", "fitted form over the smallest decade: constant", []),
]


@pytest.mark.parametrize("name, marker, files", DEMOS, ids=[d[0] for d in DEMOS])
def test_demo_runs(tmp_path, deadline, name, marker, files):
    stdout = run_demo(name, tmp_path, deadline)
    assert marker in stdout
    for file in files:
        assert (tmp_path / "demo_out" / file).stat().st_size > 0
