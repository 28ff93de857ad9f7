#!/usr/bin/env python3
"""From surface grids to distributions: the measurement-side pipeline.

Synthesizes a spherical cap carrying a pyramid tiling (the kind of grid an
AFM scan would give), writes it as a v1 heightmap file and reads it back,
extracts the empirical height distribution and the
gradient-squared distribution, checks the convolution picture for the
composed surface, and fits the truncated-Gaussian model to a random rough
surface.

Run:  python3 demos/demo_heightmap.py [outdir]
"""

import math
import sys
from pathlib import Path

import numpy as np

from proxint import (
    HeightDistribution,
    convolve,
    empirical_distribution,
    evaluate,
    fit_gaussian,
    gradient_distribution,
    load_heightmap,
    pyramid_distribution,
    save_heightmap,
    synthesize_surface,
)

R, L_TILE, H_TILE = 50_000.0, 500.0, 200.0
EXTENT, N = 16_000.0, 1024

outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_out")
outdir.mkdir(exist_ok=True)

print(f"synthesizing {N}x{N} cap (R = {R:g} nm) + pyramid tiling "
      f"(h = {H_TILE:g}, l = {L_TILE:g}) over {EXTENT:g} nm ...")
hm = synthesize_surface(
    [{"type": "cap", "radius": R},
     {"type": "pyramid", "height": H_TILE, "tile": L_TILE}],
    n=N, extent=EXTENT,
)
save_heightmap(hm, outdir / "cap_pyramid.txt")
back = load_heightmap(outdir / "cap_pyramid.txt")
if not np.array_equal(back.values, hm.values):
    sys.exit("cap_pyramid.txt did not read back to the synthesized grid")
print(f"wrote and read back {outdir / 'cap_pyramid.txt'} bit for bit")

delta = 10.0
emp = empirical_distribution(hm, delta)
grad = gradient_distribution(hm, delta)
print(f"projected area {hm.area:.4g} nm^2, histogram bins {len(emp.weights)}")

# Convolution picture: empirical f vs f_cap (x) f_pyramid, aligned by the
# sampled tip quantum h*dx/l.
half = EXTENT / 2
sag = half**2 / (R + math.sqrt(R**2 - half**2))
f_cap = HeightDistribution.analytic([0.0, sag], [[2 * math.pi * R, -2 * math.pi]])
f_conv = convolve(f_cap, pyramid_distribution(H_TILE, L_TILE, per_unit_area=True))
kmax = int(550.0 / delta)
s_min = H_TILE * (EXTENT / N) / L_TILE
s = np.linspace(s_min, s_min + kmax * delta, 20 * kmax + 1)
dens = evaluate(f_conv, s)
masses = np.array([np.trapezoid(dens[20 * k:20 * (k + 1) + 1], dx=delta / 20)
                   for k in range(kmax)])
l1 = np.abs(emp.weights[:kmax] - masses).sum() / masses.sum()
print(f"empirical f vs cap (x) tiling convolution: relative L1 = {l1:.3%}")

with open(outdir / "cap_pyramid_distributions.csv", "w") as fh:
    fh.write("s_nm,f_empirical,f_convolution,g_empirical\n")
    for k in range(kmax):
        fh.write(f"{(k + 0.5) * delta:.6g},{emp.weights[k] / delta:.8g},"
                 f"{masses[k] / delta:.8g},{grad.weights[k] / delta:.8g}\n")

# Rough surface: recover the model parameters from the histogram.
rough = synthesize_surface([{"type": "rough", "sigma": 10.0, "xi": 40.0}],
                           n=256, extent=2560.0, seed=42)
fit = fit_gaussian(empirical_distribution(rough, 2.0))
print(f"rough surface (sigma target 10 nm): fitted sigma = {fit.sigma:.2f} nm, "
      f"s0 = {fit.s0:.1f} nm, residual = {fit.residual:.3g}")
print(f"outputs in {outdir}/.")
