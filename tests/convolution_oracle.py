"""Term-by-term reference for the exact convolution of analytic distributions.

These are triple Python loops over numpy scalars, with per-term
``math.comb``, one segment pair at a time.  ``proxint.distributions`` runs
the same algebra as array operations over every pair at once and adds each
sum's terms in the same order, so it must give the same segments bit for
bit: tests compare the breaks and the coefficients with ``==``.
"""

import math

import numpy as np

from proxint import HeightDistribution

from conftest import rows


def taylor_shift(coeffs: np.ndarray, delta: float) -> np.ndarray:
    """Re-anchor sum c_j x^j as sum c'_k (x - delta)^k."""
    n = len(coeffs)
    out = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for j in range(k, n):
            acc += math.comb(j, k) * coeffs[j] * delta ** (j - k)
        out[k] = acc
    return out


def pair_convolve(seg_a, seg_b):
    """Exact convolution of two polynomial segments, each (lo, hi, coeffs),
    as pieces (lo, hi, coeffs)."""
    (lo_a, hi_a, a), (lo_b, hi_b, b) = seg_a, seg_b
    a = np.asarray(a)
    b = np.asarray(b)
    La, Lb = hi_a - lo_a, hi_b - lo_b
    if La > Lb:
        a, b, La, Lb = b, a, Lb, La
    s0 = lo_a + lo_b
    scale = La + Lb
    a = a * scale ** np.arange(len(a))
    b = b * scale ** np.arange(len(b))
    la, lb = La / scale, Lb / scale

    def bivariate_integral(pa_, pb_):
        da, db = len(pa_) - 1, len(pb_) - 1
        B = np.zeros((db + 1, da + db + 1))
        for k in range(da + 1):
            if pa_[k] == 0.0:
                continue
            for m in range(db + 1):
                c = pa_[k] * pb_[m]
                if c == 0.0:
                    continue
                for j in range(m + 1):
                    B[m - j, k + j] += c * math.comb(m, j) * (-1.0) ** j
        Bi = np.zeros((B.shape[0], B.shape[1] + 1))
        Bi[:, 1:] = B / np.arange(1, B.shape[1] + 1)
        return Bi

    def eval_at(Bi, slope: float, offset: float) -> np.ndarray:
        out = np.zeros(Bi.shape[0] + Bi.shape[1] - 1)
        for i in range(Bi.shape[0]):
            for j in range(Bi.shape[1]):
                c = Bi[i, j]
                if c == 0.0:
                    continue
                for t in range(j + 1):
                    out[i + t] += c * math.comb(j, t) * slope**t * offset ** (j - t)
        return out

    def reverse(coeffs: np.ndarray, length: float) -> np.ndarray:
        out = np.zeros_like(coeffs)
        for k, c in enumerate(coeffs):
            if c == 0.0:
                continue
            for i in range(k + 1):
                out[i] += c * math.comb(k, i) * (-1.0) ** i * length ** (k - i)
        return out

    Bi = bivariate_integral(a, b)
    rising = eval_at(Bi, 1.0, 0.0)
    plateau = eval_at(Bi, 0.0, la)
    Bi_rev = bivariate_integral(reverse(a, la), reverse(b, lb))
    rising_rev = eval_at(Bi_rev, 1.0, 0.0)
    falling = np.zeros_like(rising_rev)
    for j, c in enumerate(rising_rev):
        if c == 0.0:
            continue
        for k in range(j + 1):
            falling[k] += c * math.comb(j, k) * (-1.0) ** k * la ** (j - k)

    phases = [(0.0, la, rising)]
    if lb > la:
        phases.append((la, lb, taylor_shift(plateau, la)))
    phases.append((lb, la + lb, falling))

    pieces = []
    for x0, x1, poly in phases:
        coeffs = poly * scale ** (1.0 - np.arange(len(poly)))
        pieces.append((s0 + x0 * scale, s0 + x1 * scale, coeffs))
    return pieces


def convolve_analytic(fa: HeightDistribution, fb: HeightDistribution) -> HeightDistribution:
    """Exact convolution of two analytic distributions."""
    pieces = []
    for sa in rows(fa):
        for sb in rows(fb):
            pieces.extend(pair_convolve(sa, sb))
    total = fa.support_max + fb.support_max
    tol = 1e-12 * total

    cuts = sorted({p[0] for p in pieces} | {p[1] for p in pieces} | {0.0, total})
    merged = [cuts[0]]
    for c in cuts[1:]:
        if c - merged[-1] > tol:
            merged.append(c)
    merged[0], merged[-1] = 0.0, total

    max_len = max(len(p[2]) for p in pieces)
    out = []
    for g0, g1 in zip(merged[:-1], merged[1:]):
        mid = 0.5 * (g0 + g1)
        acc = np.zeros(max_len)
        for p0, p1, coeffs in pieces:
            if p0 - tol <= mid <= p1 + tol:
                shifted = taylor_shift(coeffs, g0 - p0)
                acc[: len(shifted)] += shifted
        out.append(acc)
    unit = fa.unit_area_normalized and fb.unit_area_normalized
    return HeightDistribution.analytic(merged, out, unit_area_normalized=unit)


def assert_same_segments(got: HeightDistribution, want: HeightDistribution) -> None:
    """The breaks and every coefficient equal, bit for bit."""
    assert got.breaks.shape == want.breaks.shape and got.coeffs.shape == want.coeffs.shape
    assert (got.breaks == want.breaks).all()
    assert (got.coeffs == want.coeffs).all()
