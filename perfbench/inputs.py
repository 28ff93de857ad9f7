"""Seeded inputs for the proxint benchmark workloads.

``generate(workload, seed, workdir)`` writes every input file the
workload's jobs read and returns a spec: a JSON-serialisable dict of the
drawn parameters, from which the references and the job list are built.
The same seed gives byte-identical files.  Every draw stays inside the
documented input ranges: modulation layers ordered coarse to fine, summed
case number at most 6 (the ``max_order`` of ``case_number``), and a
spherical cap whose corner stays inside its sphere.

The draws that set a job's cost (grid node counts, layer counts, kernel
mix, scan sizes) are fixed per workload; the seed moves the shapes within
them, so that every seed asks for about the same amount of work.
"""

from __future__ import annotations

import os

import numpy as np

WORKLOADS = ("sweep-sampled", "stacks-analytic", "scan-heightmap")

# Acceptance-C9 shapes for the exactness diagnostic: sphere 5e4 nm under
# a gentle dome tiling (h/l = 1/20) or a pyramid tiling (h = l).
DIAG_R = 50_000.0
DIAG_H = 5_000.0
DIAG_TILES = {"dome": 20 * DIAG_H, "pyramid": DIAG_H}
DIAG_N = 512
DIAG_SEPARATIONS = 25

# Seeded sphere (*) rough sweeps.  The numeric convolution grid has about
# 32 R / sigma nodes, so each slot fixes R / sigma (to 2%) and draws sigma:
# the slots' grids of ~4.8e4 and ~3.2e5 nodes sit on either side of fig2's
# 1.6e5; fig2-inset adds 6.4e5, past a 4 MiB L2 cache.
ROUGH_SLOTS = (
    {"ratio": 1500.0, "sigma": (7.0, 9.5)},
    {"ratio": 10000.0, "sigma": (3.0, 9.0)},
)

# Analytic stacks: every layer sequence whose case number (sphere 1, dome
# 1, pyramid 2) sums to at most 6, under both kernels, plus the one-layer
# stacks once more, so 30 stacks in all.
_SEQUENCES = (
    ("dome",), ("pyramid",),
    ("dome", "dome"), ("dome", "pyramid"), ("pyramid", "dome"), ("pyramid", "pyramid"),
    ("dome", "dome", "dome"), ("dome", "dome", "pyramid"), ("dome", "pyramid", "dome"),
    ("pyramid", "dome", "dome"), ("dome", "pyramid", "pyramid"),
    ("pyramid", "dome", "pyramid"), ("pyramid", "pyramid", "dome"),
)
STACK_TEMPLATE = tuple(
    (seq, kernel)
    for seq in _SEQUENCES + _SEQUENCES[:2]
    for kernel in ("heat-sio2", "casimir-ideal")
)
CASE = {"sphere": 1, "dome": 1, "pyramid": 2}
KERNELS = {"heat-sio2": (0.2558, 2.0), "casimir-ideal": (1.0, 3.0)}

# Heightmap scans: each surface at one size, each read in both formats.
SCANS = ("rough-256", "caprough-512", "cappyr-1024")


def _round(x: float) -> float:
    """Six significant digits, so the INI text and the spec hold one value."""
    return float("%.6g" % x)


def _ini(sections: dict) -> str:
    out = []
    for name, items in sections.items():
        out.append(f"[{name}]")
        out.extend(f"{k} = {v}" for k, v in items.items())
        out.append("")
    return "\n".join(out)


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def generate(workload: str, seed: int, workdir: str) -> dict:
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "sweep-sampled":
        return _sweep_sampled(rng, workdir)
    if workload == "stacks-analytic":
        return _stacks_analytic(rng, workdir)
    return _scan_heightmap(rng, seed, workdir)


def _sweep_sampled(rng, workdir: str) -> dict:
    from proxint.heightmap import save_heightmap, synthesize_surface

    scenarios = []
    for i, slot in enumerate(ROUGH_SLOTS):
        sigma = _round(rng.uniform(*slot["sigma"]))
        radius = _round(sigma * slot["ratio"] * rng.uniform(0.99, 1.01))
        s0 = _round(rng.uniform(0.0, 3.0 * sigma))
        name = f"rough{i}"
        _write(os.path.join(workdir, f"{name}.ini"), _ini({
            "scenario": {"dref": "300"},
            "kernel": {"preset": "heat-sio2"},
            "separations": {"min": "1", "max": "300", "per_decade": "60"},
            "curve.rough": {
                "base": f"sphere radius={radius:g}",
                "layer.1": f"rough sigma={sigma:g} s0={s0:g}",
            },
        }))
        scenarios.append({"name": name, "radius": radius, "sigma": sigma, "s0": s0})

    tiles = []
    for kind, tile in DIAG_TILES.items():
        hm = synthesize_surface([{"type": kind, "height": DIAG_H, "tile": tile}], n=DIAG_N)
        path = os.path.join(workdir, f"tile-{kind}.txt")
        save_heightmap(hm, path)
        tiles.append({"kind": kind, "height": DIAG_H, "tile": tile, "path": path})
    return {"workload": "sweep-sampled", "scenarios": scenarios, "tiles": tiles}


def _stacks_analytic(rng, workdir: str) -> dict:
    stacks = []
    for i in rng.permutation(len(STACK_TEMPLATE)):
        seq, kernel = STACK_TEMPLATE[i]
        radius = _round(np.exp(rng.uniform(np.log(2e4), np.log(2e5))))
        heights = sorted(
            (_round(np.exp(rng.uniform(np.log(10.0), np.log(2000.0)))) for _ in seq),
            reverse=True,
        )
        layers = [{"type": t, "height": h} for t, h in zip(seq, heights)]
        name = f"stack{len(stacks):02d}"
        curve = {"base": f"sphere radius={radius:g}"}
        for k, layer in enumerate(layers, start=1):
            curve[f"layer.{k}"] = f"{layer['type']} height={layer['height']:g}"
        alpha, nu = KERNELS[kernel]
        kern = {"preset": kernel}
        if kernel == "casimir-ideal":
            kern["alpha"] = f"{alpha:g}"
        _write(os.path.join(workdir, f"{name}.ini"), _ini({
            "scenario": {"dref": "300"},
            "kernel": kern,
            "separations": {"min": "0.01", "max": "300", "per_decade": "60"},
            "curve.stack": curve,
        }))
        stacks.append({
            "name": name, "radius": radius, "layers": layers,
            "kernel": kernel, "alpha": alpha, "nu": nu,
            "case": CASE["sphere"] + sum(CASE[t] for t in seq),
        })
    return {"workload": "stacks-analytic", "stacks": stacks}


def _scan_heightmap(rng, seed: int, workdir: str) -> dict:
    from proxint.heightmap import save_heightmap, synthesize_surface

    draws = {
        "rough-256": (256, 4000.0, [
            {"type": "rough", "sigma": _round(rng.uniform(2.0, 10.0)),
             "xi": _round(rng.uniform(40.0, 120.0))},
        ]),
        "caprough-512": (512, 8000.0, [
            {"type": "cap", "radius": _round(np.exp(rng.uniform(np.log(2e4), np.log(1e5))))},
            {"type": "rough", "sigma": _round(rng.uniform(2.0, 10.0)),
             "xi": _round(rng.uniform(60.0, 200.0))},
        ]),
        # The acceptance-C8 geometry: 32 x 32 pyramid tiles of 32 cells
        # under a cap, so the empirical f can be held against the analytic
        # convolution.
        "cappyr-1024": (1024, 16000.0, [
            {"type": "cap", "radius": _round(rng.uniform(4e4, 6e4))},
            {"type": "pyramid", "height": _round(rng.uniform(150.0, 250.0)), "tile": 500.0},
        ]),
    }
    scans = []
    for k, name in enumerate(SCANS):
        n, extent, layers = draws[name]
        hm = synthesize_surface(layers, n=n, extent=extent, seed=seed * len(SCANS) + k)
        text_path = os.path.join(workdir, f"{name}.txt")
        csv_path = os.path.join(workdir, f"{name}.csv")
        save_heightmap(hm, text_path)
        np.savetxt(csv_path, hm.values, fmt="%.17g", delimiter=",")
        scans.append({
            "name": name, "n": n, "extent": extent, "layers": layers,
            "dx": hm.dx, "dy": hm.dy, "text": text_path, "csv": csv_path,
            "grid": hm,
        })
    return {"workload": "scan-heightmap", "scans": scans}
