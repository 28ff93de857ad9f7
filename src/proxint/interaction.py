"""Proximity-approximation interactions from height distributions.

The parallel-plate interaction per unit area is a pure power law
I_pp(d) = alpha / d^nu (nu = 2 for near-field radiative heat transfer,
nu = 3 for the ideal quantum Casimir energy), and the interaction between
the full bodies at distance of closest approach d is the area integral

    I_PA(d) = int_0^inf f(s) * alpha / (s + d)^nu ds.

Units: lengths in nm, powers in nW; alpha carries nW * nm^(nu-2), so the
SiO2 value alpha = 0.2558 nW at nu = 2 needs no conversion.

Analytic distributions are integrated segment by segment in closed form
(with the explicit logarithmic antiderivative branch where exponents
collide); sampled distributions go through adaptive Gauss-Kronrod
quadrature.  The gradient correction's step density is integrated bin by
bin in closed form.  Everything is pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import HeightDistribution
from .errors import InvalidParameterError, NumericError, ParseError
from .heightmap import Histogram

__all__ = [
    "Kernel",
    "InteractionCurve",
    "DiagnosticResult",
    "heat_sio2_kernel",
    "casimir_ideal_kernel",
    "plate_plate",
    "pa_interaction",
    "far_field_subtracted",
    "gradient_correction",
    "exactness_diagnostic",
    "sweep",
    "adaptive_quad",
    "curve_to_csv",
    "curve_from_csv",
]

# Far-field reference separation used throughout the figure reproductions:
# the power-law kernel for SiO2 holds up to roughly this separation, and
# subtracting the value there isolates the near-field divergence.
DEFAULT_D_REF = 300.0

# Classical far-field transfer for SiO2 at T1=0, T2=300 K (external input,
# never computed here); divides subtracted curves for the ratio axis.
SIO2_FAR_FIELD_NW = 4200.0


@dataclass(frozen=True)
class Kernel:
    """Plate-plate power law alpha / d^nu; alpha in nW * nm^(nu-2)."""

    alpha: float
    nu: float
    label: str = ""

    def __post_init__(self):
        if self.alpha <= 0:
            raise InvalidParameterError("kernel alpha must be positive")
        if self.nu < 0:
            raise InvalidParameterError("kernel exponent nu must be >= 0")


def heat_sio2_kernel() -> Kernel:
    """Near-field radiative heat transfer for SiO2: alpha = 0.2558 nW, nu = 2."""
    return Kernel(0.2558, 2.0, "heat-sio2")


def casimir_ideal_kernel(alpha: float) -> Kernel:
    """Ideal Casimir energy scaling nu = 3 with caller-supplied alpha."""
    return Kernel(alpha, 3.0, "casimir-ideal")


@dataclass(frozen=True, eq=False)
class InteractionCurve:
    """Interaction values over a set of separations, optionally far-field subtracted."""

    separations: np.ndarray
    values: np.ndarray
    kernel: Kernel
    d_ref: float | None = None
    ratios: np.ndarray | None = None

    def __post_init__(self):
        d = np.ascontiguousarray(self.separations, dtype=float)
        v = np.ascontiguousarray(self.values, dtype=float)
        if d.ndim != 1 or d.shape != v.shape:
            raise InvalidParameterError("separations and values must be 1-D and equal length")
        if np.any(d <= 0) or np.any(np.diff(d) <= 0):
            raise InvalidParameterError("separations must be positive and strictly increasing")
        d.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "separations", d)
        object.__setattr__(self, "values", v)

    def with_ratio(self, far_field_nw: float) -> "InteractionCurve":
        """Attach the ratio column: values / far-field constant."""
        if far_field_nw <= 0:
            raise InvalidParameterError("far-field constant must be positive")
        return InteractionCurve(
            self.separations, self.values, self.kernel, self.d_ref,
            np.asarray(self.values) / far_field_nw,
        )


def plate_plate(kernel: Kernel, d):
    """Parallel-plate interaction per unit area, alpha / d^nu (nW/nm^2)."""
    d_arr = np.asarray(d, dtype=float)
    if np.any(d_arr <= 0):
        raise InvalidParameterError("separation must be positive")
    out = kernel.alpha / d_arr**kernel.nu
    return float(out) if np.isscalar(d) else out


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# 15-point Kronrod extension of 7-point Gauss (QUADPACK dqk15 constants).
_XGK_HALF = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK_HALF = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG_HALF = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119,
                     0.417959183673469])

_GK_NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_GK_WEIGHTS = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_GA_WEIGHTS = np.zeros(15)
_GA_WEIGHTS[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


def _gk15_batch(fn, lo: np.ndarray, hi: np.ndarray):
    c = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = c[:, None] + half[:, None] * _GK_NODES[None, :]
    y = fn(x.ravel()).reshape(x.shape)
    k15 = half * (y * _GK_WEIGHTS).sum(axis=1)
    g7 = half * (y * _GA_WEIGHTS).sum(axis=1)
    return k15, np.abs(k15 - g7)


def adaptive_quad(
    fn,
    edges,
    rel_tol: float = 1e-9,
    abs_floor: float = 1e-15,
    max_intervals: int = 10**6,
) -> float:
    """Globally adaptive Gauss-Kronrod integration over [edges[0], edges[-1]].

    ``fn`` must accept a 1-D array.  ``edges`` seeds the initial partition
    (breakpoints / grid nodes of piecewise integrands belong here).  Raises
    NumericError carrying the achieved tolerance if the interval budget is
    exhausted first.
    """
    edges = np.unique(np.asarray(edges, dtype=float))
    if len(edges) < 2:
        raise InvalidParameterError("need at least two integration edges")
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gk15_batch(fn, lo, hi)
    while True:
        total = float(vals.sum())
        err = float(errs.sum())
        tol = max(rel_tol * abs(total), abs_floor)
        if err <= tol:
            return total
        n = len(vals)
        if n > max_intervals:
            raise NumericError(
                f"quadrature did not reach rel_tol={rel_tol:g} within "
                f"{max_intervals} intervals (achieved {err / max(abs(total), abs_floor):.3g})",
                achieved=err / max(abs(total), abs_floor),
            )
        mask = errs > tol / (2.0 * n)
        if not mask.any():
            mask = errs >= errs.max()
        mid = 0.5 * (lo[mask] + hi[mask])
        new_lo = np.concatenate([lo[mask], mid])
        new_hi = np.concatenate([mid, hi[mask]])
        new_vals, new_errs = _gk15_batch(fn, new_lo, new_hi)
        lo = np.concatenate([lo[~mask], new_lo])
        hi = np.concatenate([hi[~mask], new_hi])
        vals = np.concatenate([vals[~mask], new_vals])
        errs = np.concatenate([errs[~mask], new_errs])


# ---------------------------------------------------------------------------
# PA integral
# ---------------------------------------------------------------------------

_GL64_NODES, _GL64_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _segment_integral(coeffs, lo: float, hi: float, d: float, kernel: Kernel) -> float:
    """Exact integral of sum_k c_k (u - lo)^k * alpha / (u + d)^nu over [lo, hi].

    Near the kernel singularity (lo + d small against the segment width) the
    binomial expansion in powers of (u + d) is evaluated term by term, with
    the logarithmic antiderivative branch taken explicitly when an exponent
    collides with -1.  Far from it, 64-point Gauss-Legendre is exact to
    machine precision and avoids the cancellation of the expanded form.
    """
    nu, alpha = kernel.nu, kernel.alpha
    width = hi - lo
    base = lo + d
    if base >= width:
        u = 0.5 * (lo + hi) + 0.5 * width * _GL64_NODES
        x = u - lo
        poly = np.zeros_like(x)
        for c in reversed(coeffs):
            poly = poly * x + c
        vals = poly * (u + d) ** (-nu)
        return alpha * 0.5 * width * float((vals * _GL64_WEIGHTS).sum())

    a, b = lo + d, hi + d
    total = 0.0
    for k, c_k in enumerate(coeffs):
        if c_k == 0.0:
            continue
        for j in range(k + 1):
            coef = c_k * math.comb(k, j) * (-base) ** (k - j)
            p = j - nu
            if abs(p + 1.0) < 1e-12:
                term = math.log(b / a)
            else:
                term = (b ** (p + 1.0) - a ** (p + 1.0)) / (p + 1.0)
            total += coef * term
    return alpha * total


def _sampled_seeds(support: float, grid: np.ndarray, d: float, max_seeds: int = 2048) -> np.ndarray:
    """Seed edges: the sample grid (thinned to a budget) plus geometric
    refinement on the kernel scale near u = 0."""
    stride = max(1, int(math.ceil(len(grid) / max_seeds)))
    seeds = list(grid[::stride])
    g = min(d, support)
    while g < support / 4:
        seeds.append(g)
        g *= 2.0
    seeds.extend([0.0, support])
    return np.array(sorted(set(seeds)))


def pa_interaction(f: HeightDistribution, kernel: Kernel, d: float) -> float:
    """Proximity-approximation interaction int f(u) alpha/(u+d)^nu du, in nW."""
    if d <= 0:
        raise InvalidParameterError("separation d must be positive")
    if f.kind == "analytic":
        return sum(
            _segment_integral(seg.coeffs, seg.lo, seg.hi, d, kernel) for seg in f.segments
        )
    grid = f.grid
    vals = np.asarray(f.values)

    def integrand(u):
        return np.interp(u, grid, vals, left=0.0, right=0.0) * kernel.alpha * (u + d) ** (-kernel.nu)

    edges = _sampled_seeds(f.support_max, grid, d)
    return adaptive_quad(integrand, edges)


def far_field_subtracted(
    f: HeightDistribution, kernel: Kernel, d: float, d_ref: float = DEFAULT_D_REF
) -> float:
    """PA interaction with the far-field contribution at d_ref removed."""
    if d_ref <= 0:
        raise InvalidParameterError("reference separation must be positive")
    return pa_interaction(f, kernel, d) - pa_interaction(f, kernel, d_ref)


def gradient_correction(g: Histogram, kernel: Kernel, d: float) -> float:
    """Leading correction beyond PA: int g(u) alpha/(u+d)^nu du, in closed form.

    ``g`` is a gradient-weighted histogram; its density is the step function
    w_k / width on bin k, so each bin integrates exactly:
    int_a^(a+width) x^-nu dx = a^(1-nu) expm1((1-nu) log1p(width/a)) / (1-nu)
    with a = k*width + d, and log1p(width/a) itself at nu = 1.
    """
    if d <= 0:
        raise InvalidParameterError("separation d must be positive")
    w = np.asarray(g.weights, dtype=float)
    delta = g.bin_width
    a = np.arange(len(w)) * delta + d
    log_ratio = np.log1p(delta / a)
    p = 1.0 - kernel.nu
    if p == 0.0:
        per_bin = log_ratio
    else:
        per_bin = a**p * np.expm1(p * log_ratio) / p
    return kernel.alpha * float(np.dot(w / delta, per_bin))


@dataclass(frozen=True, eq=False)
class DiagnosticResult:
    """Per-separation correction/PA ratios plus the asymptotic-exactness flag."""

    separations: np.ndarray
    ratios: np.ndarray
    asymptotically_exact: bool

    def points(self):
        return list(zip(self.separations.tolist(), self.ratios.tolist()))


def exactness_diagnostic(
    f: HeightDistribution, g: Histogram, kernel: Kernel, d_list
) -> DiagnosticResult:
    """Judge whether the PA scaling law is asymptotically exact for this shape.

    The ratio of the gradient correction to the PA term is formed per
    separation.  The shape is flagged asymptotically exact when, over the
    smallest available decade of d, the ratio decreases monotonically toward
    small d and ends below 0.01.
    """
    d = np.asarray(sorted(d_list), dtype=float)
    if np.any(d <= 0):
        raise InvalidParameterError("separations must be positive")
    pa = np.array([pa_interaction(f, kernel, di) for di in d])
    corr = np.array([gradient_correction(g, kernel, di) for di in d])
    ratios = corr / pa

    decade = d <= d[0] * 10.0
    r = ratios[decade]
    if np.all(np.abs(r) < 1e-15):
        exact = True
    else:
        nonincreasing_toward_zero = bool(np.all(np.diff(r) >= -1e-3 * np.abs(r[:-1])))
        meaningful_drop = r[0] < r[-1] * 0.95
        exact = nonincreasing_toward_zero and meaningful_drop and r[0] < 0.01
    return DiagnosticResult(d, ratios, exact)


def sweep(
    f: HeightDistribution,
    kernel: Kernel,
    d_list,
    subtract_at: float | None = None,
) -> InteractionCurve:
    """Evaluate the (optionally far-field-subtracted) interaction over separations."""
    d = np.asarray(d_list, dtype=float)
    values = np.array([pa_interaction(f, kernel, di) for di in d])
    if subtract_at is not None:
        values = values - pa_interaction(f, kernel, subtract_at)
    return InteractionCurve(d, values, kernel, d_ref=subtract_at)


# ---------------------------------------------------------------------------
# curve CSV
# ---------------------------------------------------------------------------

def curve_to_csv(curve: InteractionCurve, provenance: str | None = None) -> str:
    """CSV text: header d_nm,I_nW[,ratio]; 17 significant digits."""
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


def curve_from_csv(text: str, kernel: Kernel | None = None) -> InteractionCurve:
    """Parse curve_to_csv text; ParseError names the offending line."""
    rows = [
        (lineno, ln) for lineno, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.startswith("#")
    ]
    if not rows:
        raise ParseError("no header line")
    lineno, head = rows[0]
    header = head.split(",")
    if header not in (["d_nm", "I_nW"], ["d_nm", "I_nW", "ratio"]):
        raise ParseError(f"line {lineno}: header must be d_nm,I_nW[,ratio], got {head!r}")
    data = []
    for lineno, ln in rows[1:]:
        toks = ln.split(",")
        if len(toks) != len(header):
            raise ParseError(f"line {lineno}: row has {len(toks)} values, expected {len(header)}")
        try:
            row = [float(tok) for tok in toks]
            finite = all(math.isfinite(v) for v in row)
        except ValueError:
            finite = False
        if not finite:
            raise ParseError(f"line {lineno}: not a finite number in {ln!r}")
        data.append(row)
    cols = dict(zip(header, np.array(data, dtype=float).reshape(len(data), len(header)).T))
    return InteractionCurve(
        cols["d_nm"],
        cols["I_nW"],
        kernel if kernel is not None else Kernel(1.0, 1.0, "unknown"),
        ratios=cols.get("ratio"),
    )
