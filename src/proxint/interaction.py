"""Proximity-approximation interactions from height distributions.

The parallel-plate interaction per unit area is a pure power law
I_pp(d) = alpha / d^nu (nu = 2 for near-field radiative heat transfer,
nu = 3 for the ideal quantum Casimir energy), and the interaction between
the full bodies at distance of closest approach d is the area integral

    I_PA(d) = int_0^inf f(s) * alpha / (s + d)^nu ds.

Units: lengths in nm, powers in nW; alpha carries nW * nm^(nu-2), so the
SiO2 value alpha = 0.2558 nW at nu = 2 needs no conversion.

Analytic distributions are integrated segment by segment in closed form,
over a whole array of separations at once.  Near the kernel singularity a
segment's binomial expansion is summed term by term (with the explicit
logarithmic antiderivative branch where exponents collide); away from it,
Gauss-Legendre replaces the expansion, at the lowest order that a table
derived in 30-digit mpmath allows for the pair's r = width / (lo + d) and
the segment's degree, and each order's (segment, separation) pairs are
evaluated together.  Every other
distribution has a sampled part f_s, optionally convolved with an analytic
part f_c, and is folded in interaction space,

    I(d) = int f_s(t) I_c(d + t) dt,

where I_c is the closed form of f_c, or alpha / x^nu when there is no
analytic part (f_c is a delta at 0).  The two linear pieces of f_s next to
the singularity, convolved exactly with f_c, take the closed form; every
later piece takes Gauss-Legendre against I_c.  No convolution grid is
built.  The leading correction beyond
PA is the same integral with the gradient density g in place of f, so
``exactness_diagnostic`` integrates g along the same path.  Everything is
pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fmt import read_rows, table
from .distributions import (HeightDistribution, _convolve_analytic, _degrees, _frozen, _ordered_sums,
                            _shift_terms)
from .errors import InvalidParameterError, NumericError, ParseError

__all__ = [
    "Kernel",
    "InteractionCurve",
    "DiagnosticResult",
    "heat_sio2_kernel",
    "casimir_ideal_kernel",
    "plate_plate",
    "pa_interaction",
    "far_field_subtracted",
    "exactness_diagnostic",
    "sweep",
    "curve_to_csv",
    "curve_from_csv",
]

# Far-field reference separation used throughout the figure reproductions:
# the power-law kernel for SiO2 holds up to roughly this separation, and
# subtracting the value there isolates the near-field divergence.
DEFAULT_D_REF = 300.0


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
    ratios: np.ndarray | None = None

    def __post_init__(self):
        d = _separations(_frozen(self.separations))
        v = _frozen(self.values)
        if d.ndim != 1 or d.shape != v.shape:
            raise InvalidParameterError("separations and values must be 1-D and equal length")
        if np.any(np.diff(d) <= 0):
            raise InvalidParameterError("separations must be strictly increasing")
        arrays = {"separations": d, "values": v}
        if self.ratios is not None:
            r = _frozen(self.ratios)
            if r.shape != d.shape:
                raise InvalidParameterError("ratios must be 1-D and as long as separations")
            if not np.isfinite(r).all():
                raise InvalidParameterError("ratios must be finite")
            arrays["ratios"] = r
        for name, a in arrays.items():
            object.__setattr__(self, name, a)

    def with_ratio(self, far_field_nw: float) -> "InteractionCurve":
        """Attach the ratio column: values / far-field constant.

        A ratio that is not a finite float (a far-field constant so small
        that the quotient overflows) raises NumericError naming the first
        such separation."""
        if not 0 < far_field_nw < math.inf:
            raise InvalidParameterError("far-field constant must be positive and finite")
        ratios = _guarded(self.separations, lambda: self.values / far_field_nw,
                          f"ratio to the far-field constant {far_field_nw!r}")
        return InteractionCurve(self.separations, self.values, self.kernel, ratios=ratios)


def plate_plate(kernel: Kernel, d):
    """Parallel-plate interaction per unit area, alpha / d^nu (nW/nm^2);
    NumericError where it is not a finite float."""
    sep = _separations(d)
    out = _guarded(sep, lambda: kernel.alpha / sep ** kernel.nu)
    return float(out) if np.isscalar(d) else out


# ---------------------------------------------------------------------------
# PA integral
# ---------------------------------------------------------------------------

# Far-branch Gauss-Legendre orders.  In the far branch of a segment of
# width w, r = w / (lo + d) <= 1, and the relative error of an n-point rule
# on each monomial (u - lo)^k (u + d)^-nu depends on (n, k, r, nu) alone.
# Row (edge, ((n, p), ...)) serves r up to edge (above the previous edge):
# order n integrates every monomial of degree k <= p within 2^-56 relative
# of a 30-digit mpmath value, for every nu <= _FAR_NU_MAX on a 0.25 grid
# and r on a grid over the band.  The table is the output of
# tools/derive_far_orders.py.  Higher degrees and higher nu use _FAR_FALLBACK.
_FAR_NU_MAX = 6.0
_FAR_FALLBACK = 64
_FAR_ORDERS = (
    (2.0**-10, ((4, 2), (6, 7), (8, 12), (12, 22), (16, 24))),
    (2.0**-8, ((4, 1), (6, 6), (8, 11), (12, 21), (16, 24))),
    (2.0**-6, ((6, 4), (8, 9), (12, 20), (16, 24))),
    (2.0**-4, ((6, 0), (8, 6), (12, 19), (16, 24))),
    (2.0**-2, ((12, 14), (16, 24))),
    (1.0, ((16, 24),)),
)
_FAR_EDGES = np.array([edge for edge, _ in _FAR_ORDERS])
_FAR_MAX_DEGREE = max(p for _, row in _FAR_ORDERS for _, p in row)
# _FAR_ORDER_BY[band, degree]; the last column serves every higher degree.
_FAR_ORDER_BY = np.array([
    [next((n for n, p in row if p >= degree), _FAR_FALLBACK) for degree in range(_FAR_MAX_DEGREE + 2)]
    for _, row in _FAR_ORDERS
], dtype=np.int8)
_GAUSS_LEGENDRE = {
    n: np.polynomial.legendre.leggauss(n) for n in {_FAR_FALLBACK, *_FAR_ORDER_BY.ravel().tolist()}
}


def _separations(d) -> np.ndarray:
    """Separations as a float array, rejecting non-positive and non-finite ones."""
    d = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(d) & (d > 0)):
        raise InvalidParameterError("separation d must be positive and finite")
    return d


def _expanded(coeffs: np.ndarray, a: np.ndarray, b: np.ndarray, kernel: Kernel) -> np.ndarray:
    """int_a^b sum_k c_k (x - a)^k alpha x^-nu dx, each term binomially expanded
    in powers of x, with the logarithmic antiderivative where an exponent
    collides with -1."""
    nu = kernel.nu
    n = len(coeffs)
    # (-a)^(k-j) depends on k - j alone and each power integral on j alone.
    neg = -a
    neg_pow = np.array([neg**m for m in range(n)])
    power_integral = np.empty_like(neg_pow)
    for j in range(n):
        p = j - nu
        if abs(p + 1.0) < 1e-12:
            power_integral[j] = np.log(b / a)
        else:
            power_integral[j] = (b ** (p + 1.0) - a ** (p + 1.0)) / (p + 1.0)
    # The terms c_k C(k, j) (-a)^(k-j) P_j, k outer and j <= k inner, of
    # every c_k but a zero, added in that order from +0.0 in blocks of
    # columns, so that no array exceeds _FOLD_BLOCK terms.
    k, e, binom, j = _shift_terms(n, False)
    keep = coeffs.take(k) != 0.0
    e, j = e[keep], j[keep, 0]
    scaled = coeffs.take(k[keep])[:, None] * binom[keep]
    cells = np.zeros((len(e), 1), np.intp)
    total = np.empty_like(a)
    step = max(1, _FOLD_BLOCK // max(len(e), 1))
    for i in range(0, len(a), step):
        terms = scaled * neg_pow[e, i:i + step]
        terms *= power_integral[j, i:i + step]
        total[i:i + step] = _ordered_sums(terms, cells, 1)[0]
    return kernel.alpha * total


def _segment_integrals(breaks: np.ndarray, coeffs: np.ndarray, d: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Exact integral of sum_k c_k (u - lo)^k * alpha / (u + d)^nu over [lo, hi]
    for each row of ``coeffs`` on [lo, hi] = breaks[i:i + 2] (rows) and each
    separation of the 1-D array ``d`` (columns).

    Near the kernel singularity (lo + d below the segment width) the
    binomial expansion in powers of (u + d) is evaluated term by term.  Far
    from it, Gauss-Legendre replaces it, at the order _FAR_ORDERS gives for
    the pair's r = width / (lo + d) and the segment's degree: exact to
    machine precision there, and free of the expanded form's cancellation.
    The branch and the order are chosen for each (segment, separation) on
    its own, and each order's pairs are evaluated together across segments.
    """
    lo, hi = breaks[:-1], breaks[1:]
    width = hi - lo
    base = lo[:, None] + d
    far = base >= width[:, None]
    out = np.empty_like(base)
    degree = _degrees(coeffs)
    for s in np.nonzero(~far.all(axis=1))[0]:
        row, near = coeffs[s, : degree[s] + 1], ~far[s]
        if near.all():
            out[s] = _expanded(row, base[s], hi[s] + d, kernel)
        else:
            out[s][near] = _expanded(row, base[s][near], hi[s] + d[near], kernel)
    if not far.any():
        return out

    coeffs = coeffs[:, : degree.max() + 1]
    if kernel.nu <= _FAR_NU_MAX:
        band = np.minimum(np.searchsorted(_FAR_EDGES, width[:, None] / base), len(_FAR_EDGES) - 1)
        order = _FAR_ORDER_BY[band, np.minimum(degree, _FAR_MAX_DEGREE + 1)[:, None]]
    else:
        order = np.full(base.shape, _FAR_FALLBACK, dtype=np.int8)
    order[~far] = 0
    counts = np.bincount(order.ravel())
    counts[0] = 0
    for n in np.nonzero(counts)[0]:
        nodes, weights = _GAUSS_LEGENDRE[n]
        # Nodes and weight x density of every segment; only the kernel needs d.
        u = (0.5 * (lo + hi))[:, None] + (0.5 * width)[:, None] * nodes
        x = u - lo[:, None]
        poly = np.zeros_like(u)
        for c in coeffs.T[::-1]:
            poly = poly * x + c[:, None]
        weighted = poly * weights * (kernel.alpha * 0.5 * width)[:, None]
        rows, cols = np.nonzero(order == n)
        step = max(1, _FAR_FALLBACK * len(d) // n)
        for i in range(0, len(rows), step):
            sr, dc = rows[i:i + step], cols[i:i + step]
            terms = np.take(u, sr, axis=0)
            terms += np.take(d, dc)[:, None]
            np.power(terms, -kernel.nu, out=terms)
            terms *= np.take(weighted, sr, axis=0)
            out[sr, dc] = terms.sum(axis=1)
    return out


def _closed_form(f: HeightDistribution, d: np.ndarray, kernel: Kernel) -> np.ndarray:
    """I(d) of an analytic distribution, for each separation in the array ``d``.

    Segments are taken _FAR_FALLBACK at a time and summed in segment order,
    so no temporary array exceeds a 64-point rule over every separation.
    """
    flat = d.ravel()
    total = np.zeros_like(flat)
    for i in range(0, len(f.coeffs), _FAR_FALLBACK):
        j = i + _FAR_FALLBACK
        for row in _segment_integrals(f.breaks[i:j + 1], f.coeffs[i:j], flat, kernel):
            total += row
    return total.reshape(d.shape)


# Interaction-space fold of a distribution with a sampled part f_s.  Pieces 0
# and 1 of f_s are integrated exactly as degree-1 segments, after their exact
# convolution with the analytic part when there is one.  Every later piece
# gets 8-point Gauss-Legendre against I_c(d + t), the closed form of the
# analytic part or else the kernel itself (f_c is a delta at 0).  I_c is
# analytic for d + t > 0 with its singularity at t = -d, and piece k >= 2
# lies at least twice its own width from it (error ~ 1e-16 of the piece's
# share).  The (separation x node) products are formed in blocks of about
# _FOLD_BLOCK.
_FOLD_X, _FOLD_W = _GAUSS_LEGENDRE[8]
_FOLD_BLOCK = 1 << 15


def _fold_sum(i_c, d: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j I_c(d_i + t_j) for each d_i."""
    out = np.empty_like(d)
    rows = max(1, _FOLD_BLOCK // max(len(t), 1))
    for i in range(0, len(d), rows):
        sl = slice(i, i + rows)
        out[sl] = (i_c(d[sl, None] + t) * w).sum(axis=1)
    return out


def _fold(f: HeightDistribution, kernel: Kernel, d: np.ndarray) -> np.ndarray:
    """I(d) = int f_s(t) I_c(d + t) dt of a distribution with a sampled part f_s."""
    analytic, sampled = f.factors or (None, f)
    v = np.asarray(sampled.values)
    delta = sampled.bin_width
    first = min(2, len(v) - 1)
    near = HeightDistribution.analytic(
        np.arange(first + 1) * delta, np.stack([v[:first], np.diff(v[: first + 1]) / delta], axis=1)
    )
    if analytic is None:
        def i_c(x):
            return kernel.alpha * x ** (-kernel.nu)
    else:
        def i_c(x):
            return _closed_form(analytic, x, kernel)

        near = _convolve_analytic(analytic, near)

    # The remaining pieces share one rule over all separations; empty pieces
    # drop out.  Each piece's nodes t carry weights w times its linear density.
    k = np.nonzero((v[first:-1] != 0.0) | (v[first + 1:] != 0.0))[0] + first
    lo, hi = k * delta, (k + 1) * delta
    half = 0.5 * (hi - lo)[:, None]
    t = 0.5 * (lo + hi)[:, None] + half * _FOLD_X
    lam = 0.5 * (1.0 + _FOLD_X)
    w = half * _FOLD_W * (v[k][:, None] * (1.0 - lam) + v[k + 1][:, None] * lam)
    return _fold_sum(i_c, d, t.ravel(), w.ravel()) + _closed_form(near, d, kernel)


def _interaction(f: HeightDistribution, kernel: Kernel, d: np.ndarray) -> np.ndarray:
    """I(d) for each separation of the validated 1-D array ``d``."""
    if f.kind == "analytic":
        return _closed_form(f, d, kernel)
    return _fold(f, kernel, d)


def _guarded(d: np.ndarray, values, what: str = "interaction") -> np.ndarray:
    """values(), a result at each separation of d, formed with numpy's warnings
    off; NumericError names the first separation where it is not finite."""
    with np.errstate(all="ignore"):
        out = values()
    bad = ~np.isfinite(out)
    if bad.any():
        raise NumericError(f"{what} is not a finite float at d={float(np.ravel(d)[bad.argmax()])!r} nm")
    return out


def _evaluate(f: HeightDistribution, kernel: Kernel, d: np.ndarray, subtract_at=None) -> np.ndarray:
    """I(d) at each separation of d, less I(subtract_at) if it is given,
    guarded: the values of every public entry point."""
    def values():
        if subtract_at is None:
            return _interaction(f, kernel, d)
        both = _interaction(f, kernel, np.append(d, _separations(subtract_at)))
        return both[:-1] - both[-1]
    return _guarded(d, values)


def pa_interaction(f: HeightDistribution, kernel: Kernel, d: float) -> float:
    """Proximity-approximation interaction int f(u) alpha/(u+d)^nu du, in nW;
    NumericError where it is not a finite float."""
    return float(_evaluate(f, kernel, _separations([d]))[0])


def far_field_subtracted(
    f: HeightDistribution, kernel: Kernel, d: float, d_ref: float = DEFAULT_D_REF
) -> float:
    """PA interaction with the far-field contribution at d_ref removed;
    NumericError where it is not a finite float."""
    if d_ref <= 0:
        raise InvalidParameterError("reference separation must be positive")
    return float(_evaluate(f, kernel, _separations([d]), d_ref)[0])


@dataclass(frozen=True, eq=False)
class DiagnosticResult:
    """Per-separation correction/PA ratios plus the asymptotic-exactness flag."""

    separations: np.ndarray
    ratios: np.ndarray
    asymptotically_exact: bool


def exactness_diagnostic(
    f: HeightDistribution, g: HeightDistribution, kernel: Kernel, d_list
) -> DiagnosticResult:
    """Judge whether the PA scaling law is asymptotically exact for this shape.

    ``g`` is the gradient density (e.g. from ``compose_gradient``).  The
    leading correction beyond PA, int g(u) alpha/(u+d)^nu du, is integrated
    exactly as the PA term is, and their ratio is formed per separation.
    The shape is flagged asymptotically exact when, over the smallest
    available decade of d, the ratio decreases monotonically toward small d
    and ends below 0.01.  An interaction or a ratio that is not a finite
    float raises NumericError, as in ``sweep``.
    """
    d = np.sort(_separations(d_list))
    if d.size == 0:
        raise InvalidParameterError("exactness_diagnostic needs at least one separation")
    pa = _evaluate(f, kernel, d)
    ratios = _guarded(d, lambda: _interaction(g, kernel, d) / pa, "correction/PA ratio")

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
    """Evaluate the (optionally far-field-subtracted) interaction over separations.

    A value that is not a finite float (an overflow of the kernel or of the
    subtraction) raises NumericError naming the first such separation; the
    integration runs with numpy's floating-point warnings off, since that
    error reports it.
    """
    d = _separations(d_list)
    return InteractionCurve(d, _evaluate(f, kernel, d, subtract_at), kernel)


# ---------------------------------------------------------------------------
# curve CSV
# ---------------------------------------------------------------------------

def curve_to_csv(curve: InteractionCurve, provenance: str | None = None) -> str:
    """CSV text: header d_nm,I_nW[,ratio]; 17 significant digits."""
    cols = ["d_nm", "I_nW"]
    arrays = [curve.separations, curve.values]
    if curve.ratios is not None:
        cols.append("ratio")
        arrays.append(curve.ratios)
    head = [f"# {provenance}"] if provenance else []
    return table(head + [",".join(cols)], arrays)


def curve_from_csv(text: str, kernel: Kernel | None = None) -> InteractionCurve:
    """Parse curve_to_csv text: comment lines ("#"), the header, then its
    rows; a ParseError names the line, and the column of a bad value."""
    lines = text.splitlines(keepends=True)
    lineno = next((i for i, line in enumerate(lines, start=1)
                   if not (line.isspace() or line.startswith("#"))), None)
    if lineno is None:
        raise ParseError("no header line")
    head = lines[lineno - 1].splitlines()[0]
    header = head.split(",")
    if header not in (["d_nm", "I_nW"], ["d_nm", "I_nW", "ratio"]):
        raise ParseError(f"line {lineno}: header must be d_nm,I_nW[,ratio], got {head!r}")
    cols = dict(zip(header, read_rows(lines[lineno:], lineno, width=len(header)).T))
    return InteractionCurve(
        cols["d_nm"],
        cols["I_nW"],
        kernel if kernel is not None else Kernel(1.0, 1.0, "unknown"),
        ratios=cols.get("ratio"),
    )
