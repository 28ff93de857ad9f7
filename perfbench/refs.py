"""Independent references for the benchmark's correctness checks.

None of this calls proxint.  Interactions use the closed-form sphere
interaction of acceptance C3, extended to nu = 3, and the
interaction-space identity for a layer of density f_r on top of it,

    I_{c (*) r}(d) = int f_r(t) I_c(d + t) dt,

nested once per layer.  Polynomial layers are integrated with tensor
Gauss-Legendre on panels graded geometrically from the separation, which
resolves the 1/(d + t) scale; the truncated Gaussian roughness is
integrated with ``scipy.integrate.quad``.  Results are cached on disk by
workload and seed, outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
from scipy.integrate import quad

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GRADING = 4.0


def i_sphere(radius: float, alpha: float, nu: float, x):
    """Sphere-plate interaction int_0^R 2 pi (R - s) alpha / (s + x)^nu ds."""
    x = np.asarray(x, dtype=float)
    if nu == 2.0:
        return 2.0 * math.pi * alpha * (radius / x - np.log1p(radius / x))
    if nu == 3.0:
        rx = radius + x
        return 2.0 * math.pi * alpha * (
            rx * (0.5 / x**2 - 0.5 / rx**2) + 1.0 / rx - 1.0 / x
        )
    raise ValueError(f"no closed form for nu={nu}")


def layer_density(kind: str, height: float, t):
    """Unit-area dome or pyramid tiling density on [0, h] (PAPER.md catalog)."""
    if kind == "dome":
        return 2.0 * (height - t) / height**2
    if kind == "pyramid":
        return 2.0 * t / height**2
    raise ValueError(f"unknown layer {kind!r}")


def _graded_rule(length: float, scale: float):
    edges = [0.0]
    e = scale
    while e < length:
        edges.append(e)
        e *= _GRADING
    edges.append(length)
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    x = (0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _GL_X).ravel()
    w = (0.5 * (hi - lo)[:, None] * _GL_W).ravel()
    return x, w


def stack_interaction(radius: float, layers, alpha: float, nu: float, d: float) -> float:
    """I(d) of sphere (*) polynomial layers by the nested identity."""
    shifts, weights = np.zeros(1), np.ones(1)
    rules = []
    for layer in layers:
        x, w = _graded_rule(layer["height"], d)
        rules.append((x, w * layer_density(layer["type"], layer["height"], x)))
    if not rules:
        return float(i_sphere(radius, alpha, nu, d))
    # Tensor product over all but the last layer; the last is looped so
    # that no temporary grows past a few hundred thousand doubles.
    for x, w in rules[:-1]:
        shifts = (shifts[:, None] + x[None, :]).ravel()
        weights = (weights[:, None] * w[None, :]).ravel()
    x_last, w_last = rules[-1]
    total = 0.0
    for xl, wl in zip(x_last, w_last):
        total += wl * float(np.dot(weights, i_sphere(radius, alpha, nu, d + xl + shifts)))
    return total


def _gaussian_density(sigma: float, s0: float):
    """Continuous truncated Gaussian roughness density on t >= 0, unit area."""
    norm = 0.5 * (1.0 + math.erf(s0 / (sigma * math.sqrt(2.0))))
    c = 1.0 / (norm * sigma * math.sqrt(2.0 * math.pi))
    return lambda t: c * math.exp(-((t - s0) ** 2) / (2.0 * sigma**2))


def rough_interaction(radius: float, sigma: float, s0: float, alpha: float, nu: float,
                      d: float) -> float:
    """I(d) of sphere (*) continuous truncated Gaussian, by scipy quad."""
    density = _gaussian_density(sigma, s0)
    top = s0 + 12.0 * sigma
    return quad(lambda t: density(t) * float(i_sphere(radius, alpha, nu, d + t)), 0.0, top,
                points=[s0] if s0 > 0.0 else None, epsabs=0.0, epsrel=1e-12, limit=200)[0]


def rough_density(radius: float, sigma: float, s0: float, s: float) -> float:
    """f(s) of sphere (*) truncated Gaussian for s <= R, by scipy quad."""
    density = _gaussian_density(sigma, s0)
    top = min(s, s0 + 12.0 * sigma)
    if top <= 0.0:
        return 0.0
    return quad(lambda t: density(t) * 2.0 * math.pi * (radius - s + t), 0.0, top,
                points=[s0] if 0.0 < s0 < top else None, epsabs=0.0, epsrel=1e-12,
                limit=200)[0]


def sphere_layer_density(radius: float, kind: str, height: float, s):
    """Acceptance-C1 closed forms of sphere (*) one layer, for s <= R."""
    s = np.asarray(s, dtype=float)
    h, r = height, radius
    if kind == "dome":
        inner = 2 * math.pi * s * (6 * h * r - 3 * h * s - 3 * r * s + s**2) / (3 * h**2)
        outer = 2 * math.pi * (r - s + h / 3.0)
    else:
        inner = 2 * math.pi * s**2 * (3 * r - s) / (3 * h**2)
        outer = 2 * math.pi * (r - s + 2.0 * h / 3.0)
    return np.where(s <= h, inner, outer)


def cap_pyramid_masses(radius: float, height: float, lo: float, width: float, nbins: int):
    """Bin masses of cap (*) unit-area pyramid tiling on [lo + k w, lo + (k+1) w).

    The cap is the sphere's f = 2 pi (R - s) (valid below the sag of the
    inscribed circle); the pyramid layer density is 2 t / h^2 on [0, h].
    Closed-form antiderivative of the acceptance-C1 sphere (*) pyramid form.
    """
    r, h = radius, height

    def cumulative(s):
        s = np.asarray(s, dtype=float)
        inner = 2 * math.pi * (r * s**3 / (3 * h**2) - s**4 / (12 * h**2))
        at_h = 2 * math.pi * (r * h / 3.0 - h**2 / 12.0)
        outer = at_h + 2 * math.pi * ((r + 2 * h / 3.0) * (s - h) - 0.5 * (s**2 - h**2))
        return np.where(s <= h, inner, outer)

    edges = lo + width * np.arange(nbins + 1)
    return np.diff(cumulative(edges))


def cached(cache_dir: str, key: dict, compute):
    """Return compute() for ``key``, reading or filling a JSON cache file."""
    blob = json.dumps(key, sort_keys=True).encode()
    path = os.path.join(cache_dir, hashlib.sha256(blob).hexdigest()[:24] + ".json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    value = compute()
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(value, fh)
    os.replace(tmp, path)
    return value
