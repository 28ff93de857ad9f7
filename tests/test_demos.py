"""Smoke test: the heightmap demo runs end to end from a clean directory."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_demo_heightmap_runs(tmp_path, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    with deadline(120):
        done = subprocess.run(
            [sys.executable, str(REPO / "demos" / "demo_heightmap.py")],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
    assert done.returncode == 0, done.stderr
    assert "read back" in done.stdout
    assert (tmp_path / "demo_out" / "cap_pyramid.txt").stat().st_size > 0
    assert (tmp_path / "demo_out" / "cap_pyramid_distributions.csv").read_text().startswith("s_nm,")
