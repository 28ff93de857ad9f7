"""Meshgrid reference for ``synthesize_surface`` and ``np.gradient`` reference
for ``gradient_distribution``.

``synthesize_heights`` is the formula ``proxint.heightmap`` used before its
layers were formed in place from broadcast coordinates: full X and Y grids
from ``np.meshgrid``, and every layer a new array added into S.
``gradient_weights`` is the bin weighting ``gradient_distribution`` used
before it formed |grad S|^2 a block of rows at a time.  The library must
give the same bytes: tests compare with ``tobytes()``.
"""

import numpy as np


def _tile_coords(x, tile):
    return np.abs(np.mod(x + 0.5 * tile, tile) - 0.5 * tile)


def _layer_values(layer, X, Y, extent, rng):
    kind = layer["type"]
    if kind == "cap":
        R = float(layer["radius"])
        r2 = X**2 + Y**2
        return R - np.sqrt(R**2 - r2)
    if kind == "pyramid":
        h, l = float(layer["height"]), float(layer["tile"])
        rho = np.maximum(_tile_coords(X, l), _tile_coords(Y, l))
        return h * (2.0 * rho / l)
    if kind == "dome":
        h, l = float(layer["height"]), float(layer["tile"])
        rho = np.maximum(_tile_coords(X, l), _tile_coords(Y, l))
        u = np.clip(2.0 * rho / l, 0.0, 1.0)
        return h * (1.0 - np.sqrt(1.0 - u**2))
    if kind == "rough":
        from scipy.ndimage import gaussian_filter

        sigma, xi = float(layer["sigma"]), float(layer["xi"])
        noise = rng.standard_normal(X.shape)
        dx = extent / X.shape[1]
        field = gaussian_filter(noise, sigma=xi / dx, mode="wrap")
        return field * (sigma / float(field.std()))
    raise ValueError(kind)


def synthesize_heights(layers, n, extent=None, seed=0):
    """The contact-shifted n x n grid of the layer stack."""
    if extent is None:
        extent = max(float(l["tile"]) for l in layers if "tile" in l)
    dx = extent / n
    coords = (np.arange(n) + 0.5) * dx - extent / 2.0
    X, Y = np.meshgrid(coords, coords)
    rng = np.random.default_rng(seed)
    S = np.zeros_like(X)
    for layer in layers:
        S = S + _layer_values(layer, X, Y, extent, rng)
    S -= S.min()
    return S


def gradient_weights(values, dx, dy, bin_width):
    """Slope^2-weighted bin areas of a contact-shifted grid."""
    idx = np.maximum(np.floor(values.ravel() / bin_width).astype(np.int64), 0)
    gy, gx = np.gradient(values, dy, dx)
    return np.bincount(idx, weights=(gx**2 + gy**2).ravel()) * (dx * dy)

