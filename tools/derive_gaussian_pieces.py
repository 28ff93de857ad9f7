"""Derive the Gaussian piece table of proxint.distributions.

    python3 tools/derive_gaussian_pieces.py

``truncated_gaussian_distribution`` carries g(x) = exp(-x^2/2), with
x = (s - s0) / sigma, on [-SUPPORT, SUPPORT] as polynomial pieces of one
width w and one degree p.  Piece k covers [k w, (k + 1) w] and is written
in t = x - k w on [0, w], the form of a row of an analytic
``HeightDistribution``'s ``coeffs``.  Its coefficients are
those of the degree-p interpolant of g at the Chebyshev points of the
piece, rounded to doubles.

For each candidate width the script finds the lowest degree whose rounded
table stays within TOL of g at SAMPLES points of every piece (ends
included), all in DPS-digit mpmath.  TOL is 2^-52, one unit in the last
place of the peak g(0) = 1.  Of those (width, degree) pairs it picks the
one with the fewest coefficients in the table.  Wider pieces than one
sigma would need fewer still (2 sigma at degree 20), but a sphere (*)
roughness segment of that width and degree 22 loses about 1e-12 of I(d)
to cancellation in the binomial expansion that proxint.interaction sums
near the kernel singularity; at one sigma and degree 17 the loss stays
below 2e-15.  The script prints the chosen width, degree and table in the
form distributions.py holds; it runs in about ten seconds.
"""

from __future__ import annotations

import mpmath

DPS = 50
TOL = 2.0**-52
SUPPORT = 8                      # GAUSSIAN_SUPPORT_SIGMAS
WIDTHS = (0.25, 0.5, 1.0)        # in units of sigma; each divides SUPPORT
DEGREES = range(6, 21)
SAMPLES = 33


def gaussian(x):
    return mpmath.exp(-x * x / 2)


def interpolant(lo: float, width: float, degree: int) -> list:
    """Coefficients in t = x - lo of the interpolant of g at the Chebyshev points of [lo, lo + width]."""
    with mpmath.workdps(DPS):
        lo, width = mpmath.mpf(lo), mpmath.mpf(width)
        nodes = [width * (1 + mpmath.cos((2 * i + 1) * mpmath.pi / (2 * degree + 2))) / 2
                 for i in range(degree + 1)]
        vander = mpmath.matrix([[t**k for k in range(degree + 1)] for t in nodes])
        values = mpmath.matrix([gaussian(lo + t) for t in nodes])
        return list(mpmath.lu_solve(vander, values))


def piece(k: int, width: float, degree: int) -> tuple[float, ...]:
    """The rounded coefficients of piece k, as the table holds them."""
    return tuple(float(c) for c in interpolant(k * width, width, degree))


def max_error(k: int, width: float, coeffs) -> float:
    """Largest |p(t) - g(k w + t)| over SAMPLES points of [0, w], p evaluated exactly."""
    with mpmath.workdps(DPS):
        worst = mpmath.mpf(0)
        for i in range(SAMPLES):
            t = mpmath.mpf(width) * i / (SAMPLES - 1)
            p = mpmath.mpf(0)
            for c in reversed(coeffs):
                p = p * t + mpmath.mpf(c)
            worst = max(worst, abs(p - gaussian(k * width + t)))
        return float(worst)


def pieces(width: float) -> range:
    """Indices k of the pieces that cover [-SUPPORT, SUPPORT]."""
    n = round(SUPPORT / width)
    return range(-n, n)


def table(width: float, degree: int) -> list[tuple[float, ...]]:
    return [piece(k, width, degree) for k in pieces(width)]


def lowest_degree(width: float) -> int | None:
    """Lowest degree of DEGREES whose rounded table is within TOL of g on every piece."""
    for degree in DEGREES:
        if all(max_error(k, width, c) <= TOL for k, c in zip(pieces(width), table(width, degree))):
            return degree
    return None


def derive():
    """(width, degree, table) with the fewest coefficients."""
    best = None
    for width in WIDTHS:
        degree = lowest_degree(width)
        if degree is None:
            continue
        size = len(pieces(width)) * (degree + 1)
        if best is None or size < best[0]:
            best = (size, width, degree)
    _, width, degree = best
    return width, degree, table(width, degree)


def format_table(width: float, rows) -> str:
    """The table as distributions.py holds it, four coefficients to a line."""
    lines = [f"_GAUSSIAN_PIECE_WIDTH = {width!r}", "_GAUSSIAN_PIECES = ("]
    for row in rows:
        chunks = [", ".join(repr(c) for c in row[i:i + 4]) for i in range(0, len(row), 4)]
        lines.append("    (" + ",\n     ".join(chunks) + "),")
    lines.append(")")
    return "\n".join(lines)


def main() -> None:
    width, degree, rows = derive()
    print(f"# width {width} sigma, degree {degree}, {len(rows)} pieces")
    print(format_table(width, rows))


if __name__ == "__main__":
    main()
