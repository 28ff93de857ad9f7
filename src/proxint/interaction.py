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
collide), over a whole array of separations at once.  Every other
distribution has a sampled part f_s, optionally convolved with an analytic
part f_c, and is folded in interaction space,

    I(d) = int f_s(t) I_c(d + t) dt,

by Gauss-Legendre on each linear piece of f_s against the closed-form I_c
of f_c, or against alpha / x^nu when there is no analytic part (f_c is a
delta at 0); no convolution grid is built.  The gradient correction's step
density is integrated bin by bin in closed form.  Everything is pure and
safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import HeightDistribution
from .errors import InvalidParameterError, ParseError
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
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise InvalidParameterError("kernel alpha must be positive and finite")
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise InvalidParameterError("kernel exponent nu must be finite and >= 0")


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
# PA integral
# ---------------------------------------------------------------------------

_GL64_NODES, _GL64_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _separations(d) -> np.ndarray:
    """Separations as a float array, rejecting non-positive and non-finite ones."""
    d = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(d) & (d > 0)):
        raise InvalidParameterError("separation d must be positive and finite")
    return d


def _segment_integral(coeffs, lo: float, hi: float, d: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Exact integral of sum_k c_k (u - lo)^k * alpha / (u + d)^nu over [lo, hi],
    for each separation in the 1-D array ``d``.

    Near the kernel singularity (lo + d small against the segment width) the
    binomial expansion in powers of (u + d) is evaluated term by term, with
    the logarithmic antiderivative branch taken explicitly when an exponent
    collides with -1.  Far from it, 64-point Gauss-Legendre is exact to
    machine precision and avoids the cancellation of the expanded form.  The
    branch is chosen for each separation on its own.
    """
    nu, alpha = kernel.nu, kernel.alpha
    width = hi - lo
    base = lo + d
    out = np.empty_like(base)
    far = base >= width
    if far.any():
        u = 0.5 * (lo + hi) + 0.5 * width * _GL64_NODES
        x = u - lo
        poly = np.zeros_like(x)
        for c in reversed(coeffs):
            poly = poly * x + c
        vals = poly * (u + d[far, None]) ** (-nu)
        out[far] = alpha * 0.5 * width * (vals * _GL64_WEIGHTS).sum(axis=1)

    near = ~far
    if near.any():
        base = base[near]
        a, b = base, hi + d[near]
        total = np.zeros_like(a)
        for k, c_k in enumerate(coeffs):
            if c_k == 0.0:
                continue
            for j in range(k + 1):
                coef = c_k * math.comb(k, j) * (-base) ** (k - j)
                p = j - nu
                if abs(p + 1.0) < 1e-12:
                    term = np.log(b / a)
                else:
                    term = (b ** (p + 1.0) - a ** (p + 1.0)) / (p + 1.0)
                total += coef * term
        out[near] = alpha * total
    return out


def _closed_form(segments, d: np.ndarray, kernel: Kernel) -> np.ndarray:
    """I(d) of an analytic distribution, for each separation in the array ``d``."""
    flat = d.ravel()
    total = np.zeros_like(flat)
    for seg in segments:
        total += _segment_integral(seg.coeffs, seg.lo, seg.hi, flat, kernel)
    return total.reshape(d.shape)


# Interaction-space fold of a distribution with a sampled part f_s.  Each
# linear piece of f_s gets 8-point Gauss-Legendre against I_c(d + t), which
# is analytic for d + t > 0 with its singularity at t = -d: every piece
# k >= 1 lies at least its own width from it (error ~ 6e-13 of the piece's
# share, ~ 1e-16 from k = 2 on).  With an analytic part, I_c is its closed
# form and the first piece is split at d, 2d, 4d, ... so that each part
# keeps that ratio.  Without one, I_c is the kernel itself and pieces 0 and
# 1 are integrated exactly as degree-1 segments.  The (separation x node)
# products are formed in blocks of about _FOLD_BLOCK.
_FOLD_X, _FOLD_W = np.polynomial.legendre.leggauss(8)
_FOLD_BLOCK = 1 << 15


def _fold_rule(lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray):
    """Gauss-Legendre nodes on the intervals [lo, hi] (along a new last axis) and
    their weights times the density running linearly from f_lo to f_hi."""
    half = 0.5 * (hi - lo)[..., None]
    t = 0.5 * (lo + hi)[..., None] + half * _FOLD_X
    lam = 0.5 * (1.0 + _FOLD_X)
    w = half * _FOLD_W * (f_lo[..., None] * (1.0 - lam) + f_hi[..., None] * lam)
    return t, w


def _fold_sum(i_c, d: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j I_c(d_i + t_j) for each d_i; ``t``, ``w`` are (nodes,) or (len(d), nodes)."""
    out = np.empty_like(d)
    rows = max(1, _FOLD_BLOCK // max(t.shape[-1], 1))
    for i in range(0, len(d), rows):
        sl = slice(i, i + rows)
        tb, wb = (t, w) if t.ndim == 1 else (t[sl], w[sl])
        out[sl] = (i_c(d[sl, None] + tb) * wb).sum(axis=1)
    return out


def _graded_first_piece(i_c, v: np.ndarray, delta: float, d: np.ndarray) -> np.ndarray:
    """Fold of piece 0, split at d, 2d, ..., 2^(m-1) d < delta; one rule per m."""
    total = np.zeros_like(d)
    if v[0] == 0.0 and v[1] == 0.0:
        return total
    m = np.maximum(np.ceil(np.log2(delta / d)), 0).astype(int)
    for mi in np.unique(m):
        rows = np.nonzero(m == mi)[0]
        dr = d[rows, None]
        inner = np.minimum(dr * 2.0 ** np.arange(mi), delta)
        edges = np.concatenate([np.zeros_like(dr), inner, np.full_like(dr, delta)], axis=1)
        f_edges = v[0] + (v[1] - v[0]) * (edges / delta)
        t0, w0 = _fold_rule(edges[:, :-1], edges[:, 1:], f_edges[:, :-1], f_edges[:, 1:])
        total[rows] = _fold_sum(i_c, d[rows], t0.reshape(len(rows), -1), w0.reshape(len(rows), -1))
    return total


def _fold(f: HeightDistribution, kernel: Kernel, d: np.ndarray) -> np.ndarray:
    """I(d) = int f_s(t) I_c(d + t) dt of a distribution with a sampled part f_s."""
    analytic, sampled = f.factors or (None, f)
    v = np.asarray(sampled.values)
    delta = sampled.bin_width
    if analytic is None:
        def i_c(x):
            return kernel.alpha * x ** (-kernel.nu)

        first = min(2, len(v) - 1)
        near = sum(
            _segment_integral((v[k], (v[k + 1] - v[k]) / delta), k * delta, (k + 1) * delta, d, kernel)
            for k in range(first)
        )
    else:
        def i_c(x):
            return _closed_form(analytic.segments, x, kernel)

        first = 1
        near = _graded_first_piece(i_c, v, delta, d)

    # The remaining pieces share one rule over all separations; empty pieces drop out.
    k = np.nonzero((v[first:-1] != 0.0) | (v[first + 1:] != 0.0))[0] + first
    t, w = _fold_rule(k * delta, (k + 1) * delta, v[k], v[k + 1])
    return _fold_sum(i_c, d, t.ravel(), w.ravel()) + near


def _interaction(f: HeightDistribution, kernel: Kernel, d: np.ndarray) -> np.ndarray:
    """I(d) for each separation of the validated 1-D array ``d``."""
    if f.kind == "analytic":
        return _closed_form(f.segments, d, kernel)
    return _fold(f, kernel, d)


def pa_interaction(f: HeightDistribution, kernel: Kernel, d: float) -> float:
    """Proximity-approximation interaction int f(u) alpha/(u+d)^nu du, in nW."""
    return float(_interaction(f, kernel, _separations([d]))[0])


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
    _separations(d)
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
    d = np.sort(_separations(d_list))
    pa = _interaction(f, kernel, d)
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
    d = _separations(d_list)
    if subtract_at is None:
        values = _interaction(f, kernel, d)
    else:
        both = _interaction(f, kernel, np.append(d, _separations(subtract_at)))
        values = both[:-1] - both[-1]
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
