"""Height distribution functions of curved, modulated, and rough surfaces.

A height distribution f(s) is the area density of local surface-to-surface
separations, measured from the distance of closest approach: f(s) = 0 for
s < 0, and f carries units of nm (area per unit height, nm^2/nm).

Every distribution is an analytic part (*) a sampled part, either of which
may be absent:

* analytic -- contiguous piecewise polynomials.  Convolution of two analytic
  distributions is computed exactly (the result is again piecewise
  polynomial, with breakpoints at pairwise sums of the input breakpoints),
  which makes closed-form regression tests possible at machine precision.
* sampled -- density values on a uniform grid s_k = k * bin_width, with
  linear interpolation between nodes.  Two sampled parts are convolved on
  their own grid with trapezoid accuracy.

``convolve`` merges the analytic parts exactly and the sampled parts on
their grid.  When both remain, the result keeps them as ``factors`` =
(analytic, sampled), so the interaction module folds the sampled part
against the closed form of the analytic one; their joint grid is built
only when its node values are first read.  The result does not depend on
the order in which layers are convolved.

Everything here is immutable after construction and free of global state;
all operations are pure functions and safe to call concurrently.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, ParseError, UnclassifiableError

__all__ = [
    "PolySegment",
    "HeightDistribution",
    "CaseReport",
    "sphere_distribution",
    "dome_distribution",
    "pyramid_distribution",
    "truncated_gaussian_distribution",
    "truncated_gaussian_norm",
    "convolve",
    "case_number",
    "evaluate",
    "projected_area",
    "to_sampled",
    "distribution_to_text",
    "text_to_distribution",
    "write_distribution",
    "read_distribution",
]

# Tail mass of a Gaussian beyond 8 sigma is < 1e-15, far below every test
# tolerance in this package, so a truncated-Gaussian distribution can be
# carried on the finite support [0, s0 + 8 sigma].
GAUSSIAN_SUPPORT_SIGMAS = 8.0

# Grid used when an analytic operand of a numeric convolution has to be
# sampled: spacing is min(bin_width of the sampled operand, support/256).
ANALYTIC_RESAMPLE_FRACTION = 256

# Degree of the windowed polynomial fit that classifies sampled data; it
# can resolve case numbers up to SAMPLED_FIT_DEGREE + 1.
SAMPLED_FIT_DEGREE = 5


@dataclass(frozen=True)
class PolySegment:
    """One polynomial piece: f(s) = sum_k coeffs[k] * (s - lo)**k on [lo, hi)."""

    lo: float
    hi: float
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InvalidParameterError(f"segment needs lo < hi, got [{self.lo}, {self.hi}]")
        if len(self.coeffs) == 0:
            raise InvalidParameterError("segment needs at least one coefficient")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise InvalidParameterError("segment coefficients must be finite")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __call__(self, s):
        x = np.asarray(s, dtype=float) - self.lo
        out = np.zeros_like(x)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out


@dataclass(frozen=True, eq=False)
class HeightDistribution:
    """Area density of separations; analytic (piecewise polynomial) or sampled.

    For the sampled kind, ``values[k]`` is the density at s = k * bin_width
    and ``support_max = (len(values) - 1) * bin_width``.  A sampled
    distribution made by ``convolve`` from analytic and sampled layers holds
    its two parts in ``factors`` = (analytic, sampled) and computes
    ``values`` on first use.
    """

    support_max: float
    unit_area_normalized: bool
    segments: tuple[PolySegment, ...] = ()
    bin_width: float = 0.0
    _values: np.ndarray | None = field(default=None, repr=False)
    factors: tuple = ()

    @property
    def kind(self) -> str:
        return "analytic" if self.segments else "sampled"

    @property
    def values(self) -> np.ndarray | None:
        """Node values of a sampled distribution (None for analytic ones)."""
        if self._values is None and self.factors:
            # Racing first readers compute the same array; either may win.
            object.__setattr__(self, "_values", _convolve_numeric(*self.factors).values)
        return self._values

    @classmethod
    def analytic(cls, segments, unit_area_normalized: bool = False) -> "HeightDistribution":
        segments = tuple(segments)
        if not segments:
            raise InvalidParameterError("analytic distribution needs at least one segment")
        if segments[0].lo != 0.0:
            raise InvalidParameterError("first segment must start at s = 0")
        for a, b in zip(segments[:-1], segments[1:]):
            if a.hi != b.lo:
                raise InvalidParameterError(
                    f"segments must be contiguous: {a.hi} != {b.lo}"
                )
        return cls(
            support_max=segments[-1].hi,
            unit_area_normalized=unit_area_normalized,
            segments=segments,
        )

    @classmethod
    def sampled(cls, bin_width: float, values, unit_area_normalized: bool = False) -> "HeightDistribution":
        if bin_width <= 0:
            raise InvalidParameterError("bin_width must be positive")
        vals = np.ascontiguousarray(values, dtype=float)
        if vals.ndim != 1 or len(vals) < 2:
            raise InvalidParameterError("sampled distribution needs >= 2 node values")
        if not np.all(np.isfinite(vals)):
            raise InvalidParameterError("sampled values must be finite")
        vals.setflags(write=False)
        return cls(
            support_max=(len(vals) - 1) * bin_width,
            unit_area_normalized=unit_area_normalized,
            bin_width=float(bin_width),
            _values=vals,
        )

    @property
    def grid(self) -> np.ndarray:
        """Sample positions of a sampled distribution."""
        if self.kind != "sampled":
            raise InvalidParameterError("grid is only defined for sampled distributions")
        return np.arange(len(self.values)) * self.bin_width


@dataclass(frozen=True)
class CaseReport:
    """Classification of the small-s behavior of a distribution.

    ``case_number`` is the order n of the first non-vanishing Taylor
    coefficient: f(0) = ... = f^{(n-2)}(0) = 0 and f^{(n-1)}(0) > 0.
    ``taylor_coeffs`` holds the probed derivatives f^{(k)}(0), k = 0..K-1
    (for an analytic (*) sampled distribution, n - 1 zeros and the leading one).
    """

    case_number: int
    leading_coefficient: float
    taylor_coeffs: tuple[float, ...]


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------

def sphere_distribution(radius: float) -> HeightDistribution:
    """Sphere of radius R in front of a plate: f(s) = 2 pi (R - s) on [0, R]."""
    if not 0 < radius < math.inf:
        raise InvalidParameterError("sphere radius must be positive and finite")
    seg = PolySegment(0.0, float(radius), (2.0 * math.pi * radius, -2.0 * math.pi))
    return HeightDistribution.analytic([seg], unit_area_normalized=False)


def dome_distribution(height: float) -> HeightDistribution:
    """Square-base dome tiling, per unit area: f(s) = 2 (h - s) / h^2 on [0, h]."""
    if not 0 < height < math.inf:
        raise InvalidParameterError("dome height must be positive and finite")
    h = float(height)
    seg = PolySegment(0.0, h, (2.0 / h, -2.0 / h**2))
    return HeightDistribution.analytic([seg], unit_area_normalized=True)


def pyramid_distribution(height: float, base: float, per_unit_area: bool = False) -> HeightDistribution:
    """Square-base pyramid of height h and base length l: f(s) = 2 s l^2 / h^2.

    With ``per_unit_area=True`` the density is divided by the tile base area
    l^2, giving 2 s / h^2 (unit-area normalized), the form used when the
    pyramids tile a larger surface.
    """
    if not 0 < height < math.inf:
        raise InvalidParameterError("pyramid height must be positive and finite")
    if not 0 < base < math.inf:
        raise InvalidParameterError("pyramid base length must be positive and finite")
    h = float(height)
    slope = 2.0 / h**2 if per_unit_area else 2.0 * base**2 / h**2
    seg = PolySegment(0.0, h, (0.0, slope))
    return HeightDistribution.analytic([seg], unit_area_normalized=per_unit_area)


def _check_gaussian(sigma: float, s0: float) -> None:
    if not 0 < sigma < math.inf:
        raise InvalidParameterError("sigma must be positive and finite")
    if not 0 <= s0 < math.inf:
        raise InvalidParameterError("touching distance s0 must be >= 0 and finite")


def truncated_gaussian_norm(sigma: float, s0: float) -> float:
    """Normalization N with int_0^inf exp(-(s-s0)^2/2 sigma^2)/(N sigma sqrt(2 pi)) ds = 1."""
    _check_gaussian(sigma, s0)
    return 0.5 * (1.0 + math.erf(s0 / (sigma * math.sqrt(2.0))))


def truncated_gaussian_distribution(
    sigma: float,
    s0: float,
    bin_width: float | None = None,
) -> HeightDistribution:
    """Gaussian roughness model truncated to s >= 0 and renormalized to unit area.

    ``s0`` is the touching distance (position of the Gaussian peak above the
    contact point).  The distribution is carried as a sampled density on
    [0, s0 + 8 sigma] with default spacing sigma/32; after sampling, the
    node values are rescaled so the trapezoid integral is exactly 1.
    """
    _check_gaussian(sigma, s0)
    support = s0 + GAUSSIAN_SUPPORT_SIGMAS * sigma
    delta = bin_width if bin_width is not None else sigma / 32.0
    if not 0 < delta < math.inf:
        raise InvalidParameterError("bin_width must be positive and finite")
    n = int(math.ceil(support / delta - 1e-12)) + 1
    delta = support / (n - 1)
    s = np.linspace(0.0, support, n)
    vals = np.exp(-((s - s0) ** 2) / (2.0 * sigma**2))
    vals /= np.trapezoid(vals, dx=delta)
    return HeightDistribution.sampled(delta, vals, unit_area_normalized=True)


# ---------------------------------------------------------------------------
# evaluation, integration, resampling
# ---------------------------------------------------------------------------

def evaluate(f: HeightDistribution, s):
    """Density f(s); zero outside the support.  Accepts scalars or arrays."""
    scalar = np.isscalar(s) or (isinstance(s, np.ndarray) and s.ndim == 0)
    x = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros_like(x)
    inside = (x >= 0.0) & (x <= f.support_max)
    if inside.any():
        xi = x[inside]
        if f.kind == "sampled":
            out[inside] = np.interp(xi, f.grid, f.values)
        else:
            vals = np.empty_like(xi)
            edges = np.array([seg.lo for seg in f.segments] + [f.support_max])
            idx = np.clip(np.searchsorted(edges, xi, side="right") - 1, 0, len(f.segments) - 1)
            for i, seg in enumerate(f.segments):
                m = idx == i
                if m.any():
                    vals[m] = seg(xi[m])
            out[inside] = vals
    return float(out[0]) if scalar else out


def projected_area(f: HeightDistribution) -> float:
    """Total projected area int_0^inf f(s) ds.

    Exact polynomial antiderivatives on analytic distributions, trapezoid
    rule on sampled ones, and the product of the two for an analytic (*)
    sampled distribution.
    """
    if f.factors:
        return math.prod(projected_area(part) for part in f.factors)
    if f.kind == "analytic":
        total = 0.0
        for seg in f.segments:
            w = seg.width
            total += sum(c * w ** (k + 1) / (k + 1) for k, c in enumerate(seg.coeffs))
        return total
    return float(np.trapezoid(f.values, dx=f.bin_width))


def to_sampled(f: HeightDistribution, n: int = 2048, bin_width: float | None = None) -> HeightDistribution:
    """Sample a distribution onto a uniform grid of ``n`` nodes (or spacing ``bin_width``)."""
    if bin_width is not None:
        if not bin_width > 0:
            raise InvalidParameterError("bin_width must be positive")
        n = int(math.ceil(f.support_max / bin_width - 1e-12)) + 1
        delta = float(bin_width)
    else:
        if n < 2:
            raise InvalidParameterError("need at least 2 sample nodes")
        delta = f.support_max / (n - 1)
    s = np.arange(n) * delta
    return HeightDistribution.sampled(delta, evaluate(f, s), f.unit_area_normalized)


def _max_density(f: HeightDistribution, n: int = 4096) -> float:
    s = np.linspace(0.0, f.support_max, n)
    return float(np.max(evaluate(f, s)))


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def convolve(f_c: HeightDistribution, f_r: HeightDistribution) -> HeightDistribution:
    """Convolution f(s) = int_0^s f_c(s') f_r(s - s') ds'.

    The second operand is normally the unit-area-normalized roughness or
    modulation density; a warning is emitted otherwise and the un-normalized
    result is returned as-is.  Every distribution is an analytic part (*) a
    sampled part, either of which may be absent.  The analytic parts are
    convolved exactly (piecewise polynomial) and the sampled parts on their
    own uniform grid with trapezoid accuracy.  When both parts remain, the
    result keeps them as ``factors`` = (analytic, sampled) and builds their
    joint grid only on first use of its node values.  Since convolution
    commutes, the order of the layers does not change the result.
    """
    if not f_r.unit_area_normalized:
        warnings.warn(
            "second convolution operand is not unit-area normalized; "
            "result scales with its projected area",
            stacklevel=2,
        )
    (a_c, s_c), (a_r, s_r) = _parts(f_c), _parts(f_r)
    analytic = _convolve_analytic(a_c, a_r) if a_c and a_r else a_c or a_r
    sampled = _convolve_numeric(s_c, s_r) if s_c and s_r else s_c or s_r
    if sampled is None:
        return analytic
    if analytic is None:
        return sampled
    delta, n_a, n_s = _numeric_grid(analytic, sampled)
    return HeightDistribution(
        support_max=(n_a + n_s - 2) * delta,
        unit_area_normalized=f_c.unit_area_normalized and f_r.unit_area_normalized,
        bin_width=float(delta),
        factors=(analytic, sampled),
    )


def _parts(f: HeightDistribution):
    """(analytic part or None, sampled part or None) of a distribution."""
    if f.factors:
        return f.factors
    return (f, None) if f.kind == "analytic" else (None, f)


@functools.lru_cache(maxsize=None)
def _binomials(n: int) -> tuple[tuple[float, ...], ...]:
    """Rows 0..n-1 of Pascal's triangle as floats: _binomials(n)[j][k] = C(j, k)."""
    return tuple(tuple(float(math.comb(j, k)) for k in range(j + 1)) for j in range(n))


def _taylor_shift(coeffs, delta: float) -> list[float]:
    """Re-anchor sum c_j x^j as sum c'_k (x - delta)^k."""
    n = len(coeffs)
    if delta == 0.0:
        # The sums below would add only zeros to each c_k.
        return list(coeffs)
    binom = _binomials(n)
    pw = [delta**m for m in range(n)]
    out = []
    for k in range(n):
        acc = 0.0
        for j in range(k, n):
            acc += binom[j][k] * coeffs[j] * pw[j - k]
        out.append(acc)
    return out


def _reverse(coeffs, length: float) -> list[float]:
    """p(length - t) as a polynomial in t."""
    n = len(coeffs)
    binom = _binomials(n)
    pw = [length**m for m in range(n)]
    out = [0.0] * n
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        for i in range(k + 1):
            out[i] += c * binom[k][i] * (-1.0) ** i * pw[k - i]
    return out


def _bivariate_integral(pa, pb) -> list[list[float]]:
    """Antiderivative in t of p(t) q(x - t) as rows Bi[i][j] of x^i t^j."""
    da, db = len(pa) - 1, len(pb) - 1
    binom = _binomials(db + 1)
    B = [[0.0] * (da + db + 1) for _ in range(db + 1)]
    for k in range(da + 1):
        if pa[k] == 0.0:
            continue
        for m in range(db + 1):
            c = pa[k] * pb[m]
            if c == 0.0:
                continue
            for j in range(m + 1):
                B[m - j][k + j] += c * binom[m][j] * (-1.0) ** j
    return [[0.0] + [v / (j + 1) for j, v in enumerate(row)] for row in B]


def _rising(Bi) -> list[float]:
    """sum_ij Bi[i][j] x^(i+j): the antiderivative taken from t = 0 to t = x."""
    out = [0.0] * (len(Bi) + len(Bi[0]) - 1)
    for i, row in enumerate(Bi):
        for j, c in enumerate(row):
            if c != 0.0:
                out[i + j] += c
    return out


def _plateau(Bi, la: float) -> list[float]:
    """sum_ij Bi[i][j] x^i la^j: the antiderivative taken from t = 0 to t = la."""
    pw = [la**j for j in range(len(Bi[0]))]
    out = []
    for row in Bi:
        acc = 0.0
        for j, c in enumerate(row):
            if c != 0.0:
                acc += c * pw[j]
        out.append(acc)
    return out


def _pair_convolve(seg_a: PolySegment, seg_b: PolySegment):
    """Exact convolution of two polynomial segments.

    Returns pieces (lo, hi, coeffs) in absolute coordinates, coefficients
    anchored at each piece's lo.  The polynomial algebra runs in a scaled
    coordinate (lengths divided by La + Lb) to keep coefficient magnitudes
    near the value scale.
    """
    a = np.asarray(seg_a.coeffs)
    b = np.asarray(seg_b.coeffs)
    La, Lb = seg_a.width, seg_b.width
    if La > Lb:
        a, b, La, Lb = b, a, Lb, La
    s0 = seg_a.lo + seg_b.lo
    scale = La + Lb
    a = (a * scale ** np.arange(len(a))).tolist()
    b = (b * scale ** np.arange(len(b))).tolist()
    la, lb = La / scale, Lb / scale

    # With Bi the antiderivative in t of p(t) q(x - t), written
    # sum_ij Bi[i][j] x^i t^j, the convolution C(x) = int p(t) q(x - t) dt
    # has three phases in x: rising on [0, la] (t from 0 to x, so C is the
    # anti-diagonal sums of Bi), plateau on [la, lb] when lb > la (t from 0
    # to la, so C(x) = sum_j Bi[i][j] la^j x^i), and falling on [lb, la + lb].
    # The falling phase is the rising phase of the end-reversed polynomials:
    # with y = la + lb - x, C(x) = int_0^y p(la - t) q(lb - (y - t)) dt.
    # Computing it that way keeps coefficients at the local value scale, so
    # the result stays clean where the convolution vanishes at its top edge.
    # Every sum runs on Python floats in a fixed order, term by term.
    Bi = _bivariate_integral(a, b)
    rising = _rising(Bi)
    falling = _reverse(_rising(_bivariate_integral(_reverse(a, la), _reverse(b, lb))), la)

    # Each phase polynomial below is anchored at its own piece start.
    phases = [(0.0, la, rising)]
    if lb > la:
        phases.append((la, lb, _taylor_shift(_plateau(Bi, la), la)))
    phases.append((lb, la + lb, falling))

    pieces = []
    for x0, x1, poly in phases:
        coeffs = (np.array(poly) * scale ** (1.0 - np.arange(len(poly)))).tolist()
        pieces.append((s0 + x0 * scale, s0 + x1 * scale, coeffs))
    return pieces


def _convolve_analytic(fa: HeightDistribution, fb: HeightDistribution) -> HeightDistribution:
    pieces = []
    for sa in fa.segments:
        for sb in fb.segments:
            pieces.extend(_pair_convolve(sa, sb))
    total = fa.support_max + fb.support_max
    tol = 1e-12 * total

    cuts = sorted({p[0] for p in pieces} | {p[1] for p in pieces} | {0.0, total})
    merged = [cuts[0]]
    for c in cuts[1:]:
        if c - merged[-1] > tol:
            merged.append(c)
    merged[0], merged[-1] = 0.0, total

    # Each piece covers the merged intervals whose midpoint lies within tol
    # of it; the midpoints are sorted, so that is one contiguous run.
    mids = [0.5 * (g0 + g1) for g0, g1 in zip(merged[:-1], merged[1:])]
    covering = [[] for _ in mids]
    for p0, p1, coeffs in pieces:
        for g in range(bisect.bisect_left(mids, p0 - tol), bisect.bisect_right(mids, p1 + tol)):
            covering[g].append((p0, coeffs))

    max_len = max(len(p[2]) for p in pieces)
    segments = []
    for g0, g1, covers in zip(merged[:-1], merged[1:], covering):
        acc = [0.0] * max_len
        for p0, coeffs in covers:
            for k, c in enumerate(_taylor_shift(coeffs, g0 - p0)):
                acc[k] += c
        last = max((k for k, c in enumerate(acc) if c != 0.0), default=0)
        segments.append(PolySegment(g0, g1, tuple(acc[: last + 1])))
    unit = fa.unit_area_normalized and fb.unit_area_normalized
    return HeightDistribution.analytic(segments, unit_area_normalized=unit)


def _numeric_grid(fa: HeightDistribution, fb: HeightDistribution) -> tuple[float, int, int]:
    """Spacing of the numeric convolution grid and each operand's node count on it."""
    if fa.kind == "sampled" and fb.kind == "sampled":
        wa, wb = fa.bin_width, fb.bin_width
        if abs(wa - wb) > 1e-9 * max(wa, wb):
            warnings.warn(
                f"bin widths differ ({wa:g} vs {wb:g} nm); resampling to the finer grid",
                stacklevel=4,
            )
        delta = min(wa, wb)
    else:
        sampled = fa if fa.kind == "sampled" else fb
        other = fb if fa.kind == "sampled" else fa
        delta = min(sampled.bin_width, other.support_max / ANALYTIC_RESAMPLE_FRACTION)

    def count(f: HeightDistribution) -> int:
        if _on_grid(f, delta):
            return len(f.values)
        return int(math.ceil(f.support_max / delta - 1e-9)) + 1

    return delta, count(fa), count(fb)


def _on_grid(f: HeightDistribution, delta: float) -> bool:
    return f.kind == "sampled" and abs(f.bin_width - delta) <= 1e-9 * delta


def _convolve_numeric(fa: HeightDistribution, fb: HeightDistribution) -> HeightDistribution:
    delta, n_a, n_b = _numeric_grid(fa, fb)

    def nodes(f: HeightDistribution, n: int) -> np.ndarray:
        if _on_grid(f, delta):
            return np.asarray(f.values)
        return evaluate(f, np.arange(n) * delta)

    a = nodes(fa, n_a)
    b = nodes(fb, n_b)
    # Sampled densities are piecewise linear between nodes, so the integrand
    # of the convolution is piecewise quadratic and cell-wise Simpson is
    # exact; midpoint values are node averages, which collapses to a short
    # stencil over the plain discrete convolution c = a * b:
    #   out_k = (delta/6) (c_{k-1} + 4 c_k + c_{k+1}
    #                      - 2 a_k b_0 - 2 a_0 b_k - a_{k+1} b_0 - a_0 b_{k+1})
    n_out = len(a) + len(b) - 1
    c = np.zeros(n_out + 2)
    c[1 : n_out + 1] = np.convolve(a, b)
    a_pad = np.zeros(n_out + 1)
    a_pad[: len(a)] = a
    b_pad = np.zeros(n_out + 1)
    b_pad[: len(b)] = b
    k = np.arange(n_out)
    out = (delta / 6.0) * (
        c[k] + 4.0 * c[k + 1] + c[k + 2]
        - 2.0 * a_pad[k] * b[0] - 2.0 * a[0] * b_pad[k]
        - a_pad[k + 1] * b[0] - a[0] * b_pad[k + 1]
    )
    unit = fa.unit_area_normalized and fb.unit_area_normalized
    return HeightDistribution.sampled(delta, out, unit_area_normalized=unit)


# ---------------------------------------------------------------------------
# small-s classification
# ---------------------------------------------------------------------------

def case_number(f: HeightDistribution, tol: float = 1e-6) -> CaseReport:
    """Order of the first non-vanishing Taylor coefficient of f at s = 0.

    Analytic distributions read every coefficient of their first segment,
    so any case number their degree allows is found.  Sampled data are
    classified from a windowed polynomial fit of degree SAMPLED_FIT_DEGREE,
    which resolves case numbers up to SAMPLED_FIT_DEGREE + 1.  An analytic
    (*) sampled distribution adds its factors' case numbers and multiplies
    their leading derivatives: a s^(p-1)/(p-1)! (*) b s^(q-1)/(q-1)! is
    a b s^(p+q-1)/(p+q-1)!.

    A probed derivative f^(k)(0) counts as zero when the dimensionless scale
    |f^(k)(0)| * support_max^k / max_s f(s) falls below ``tol``, or (sampled
    data only) when it is insignificant against the fit's standard error.
    """
    if not 0.0 < tol < 1.0:
        raise InvalidParameterError("tol must be in (0, 1)")
    if f.factors:
        a, b = (case_number(part, tol) for part in f.factors)
        n = a.case_number + b.case_number
        lead = a.leading_coefficient * b.leading_coefficient
        return CaseReport(n, lead, (0.0,) * (n - 1) + (lead,))
    fmax = _max_density(f)
    if fmax <= 0.0:
        raise UnclassifiableError("distribution is identically zero")
    T = f.support_max

    if f.kind == "analytic":
        coeffs = f.segments[0].coeffs
        derivs = np.array([math.factorial(k) * c for k, c in enumerate(coeffs)])
        errs = np.zeros(len(coeffs))
    else:
        derivs, errs = _fit_derivatives_at_zero(f, SAMPLED_FIT_DEGREE)

    for k in range(len(derivs)):
        significant = abs(derivs[k]) * T**k / fmax >= tol and abs(derivs[k]) > 3.0 * errs[k]
        if significant:
            if derivs[k] < 0.0:
                raise UnclassifiableError(
                    f"first significant derivative (order {k}) is negative; "
                    "input is not a valid height distribution near s=0"
                )
            return CaseReport(
                case_number=k + 1,
                leading_coefficient=float(derivs[k]),
                taylor_coeffs=tuple(float(v) for v in derivs),
            )
    raise UnclassifiableError(
        f"all probed derivatives of order 0..{len(derivs) - 1} are below tolerance {tol:g}"
    )


def _fit_derivatives_at_zero(f: HeightDistribution, degree: int):
    """Derivatives at s=0 from a windowed polynomial fit to sampled data.

    The window starts at 5% of the support and halves until the polynomial
    model actually fits (relative residual < 1e-3) or the window hits the
    minimum point count; multi-scale distributions need the shrinking step.
    Returns (derivatives, standard errors).
    """
    s = f.grid
    vals = np.asarray(f.values)
    min_pts = 4 * (degree + 1)
    if len(s) < min_pts:
        min_pts = max(degree + 2, len(s))

    # Start at 5% of the support, but never extend past the rise of the
    # density itself (multi-scale convolutions ramp up on a much shorter
    # scale than the support), then halve until the polynomial model
    # actually fits or the window hits the minimum point count.
    fmax = float(vals.max())
    above = np.nonzero(vals >= 0.25 * fmax)[0]
    window = 0.05 * f.support_max
    if len(above) and s[above[0]] > 0:
        window = min(window, s[above[0]])
    best = None
    while True:
        m = s <= window + 1e-12
        if m.sum() < min_pts:
            m = np.zeros_like(s, dtype=bool)
            m[:min_pts] = True
        sw, vw = s[m], vals[m]
        w = sw[-1] if sw[-1] > 0 else f.bin_width
        x = sw / w
        X = np.vander(x, degree + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(X, vw, rcond=None)
        resid = vw - X @ coef
        scale = max(np.max(np.abs(vw)), 1e-300)
        rel = float(np.sqrt(np.mean(resid**2))) / scale
        dof = max(len(vw) - (degree + 1), 1)
        sigma2 = float(resid @ resid) / dof
        try:
            cov = sigma2 * np.linalg.inv(X.T @ X)
            cerr = np.sqrt(np.maximum(np.diag(cov), 0.0))
        except np.linalg.LinAlgError:
            cerr = np.full(degree + 1, np.inf)
        best = (coef, cerr, w)
        if rel < 1e-3 or m.sum() <= min_pts:
            break
        window /= 2.0

    coef, cerr, w = best
    ks = np.arange(degree + 1)
    fact = np.array([math.factorial(int(k)) for k in ks], dtype=float)
    derivs = coef * fact / w**ks
    errs = cerr * fact / w**ks
    return derivs, errs


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def distribution_to_text(f: HeightDistribution) -> str:
    """Serialize to the v1 text format (bit-exact round trip for analytic)."""
    lines = [
        f"# height-distribution v1, kind={f.kind}, unit_area={int(f.unit_area_normalized)}"
    ]
    if f.kind == "analytic":
        for seg in f.segments:
            fields = [seg.lo, seg.hi, *seg.coeffs]
            lines.append(",".join("%.17g" % v for v in fields))
    else:
        for k, v in enumerate(f.values):
            lines.append("%.17g,%.17g" % (k * f.bin_width, v))
    return "\n".join(lines) + "\n"


def text_to_distribution(text: str) -> HeightDistribution:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty distribution text")
    header = lines[0]
    if not header.startswith("# height-distribution v1"):
        raise ParseError(f"line 1: unrecognized header {header!r}")
    fields = dict(
        part.strip().split("=", 1)
        for part in header.split(",")[1:]
        if "=" in part
    )
    kind = fields.get("kind")
    if kind not in ("analytic", "sampled"):
        raise ParseError(f"line 1: kind must be analytic or sampled, got {kind!r}")
    unit = fields.get("unit_area") == "1"

    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        try:
            rows.append([float(tok) for tok in ln.split(",")])
        except ValueError as exc:
            raise ParseError(f"line {i}: {exc}") from exc
    if not rows:
        raise ParseError("no data rows")

    if kind == "analytic":
        segs = []
        for i, row in enumerate(rows, start=2):
            if len(row) < 3:
                raise ParseError(f"line {i}: segment rows need lo,hi,c0,...")
            segs.append(PolySegment(row[0], row[1], tuple(row[2:])))
        return HeightDistribution.analytic(segs, unit_area_normalized=unit)

    s = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
    if len(s) < 2:
        raise ParseError("sampled distribution needs >= 2 rows")
    deltas = np.diff(s)
    delta = deltas[0]
    if s[0] != 0.0 or np.any(np.abs(deltas - delta) > 1e-9 * max(delta, 1.0)):
        raise ParseError("sampled grid must be uniform and start at s = 0")
    return HeightDistribution.sampled(delta, v, unit_area_normalized=unit)


def write_distribution(f: HeightDistribution, path) -> None:
    with open(path, "w") as fh:
        fh.write(distribution_to_text(f))


def read_distribution(path) -> HeightDistribution:
    with open(path) as fh:
        return text_to_distribution(fh.read())
