"""Derive the far-branch Gauss-Legendre order table of proxint.interaction.

    python3 tools/derive_far_orders.py

In the far branch a segment [lo, hi] of width w is integrated against the
kernel with r = w / (lo + d) <= 1.  With t = (u - lo) / w the monomial
(u - lo)^k (u + d)^-nu becomes w^(k+1) (lo + d)^-nu t^k (1 + r t)^-nu on
[0, 1], so the relative error of an n-point rule on it depends on
(n, k, r, nu) alone.  For each band of r and each candidate order this
script finds the highest degree p such that every monomial k <= p is
integrated within TOL relative of the exact value
2F1(nu, k+1; k+2; -r) / (k+1), at R_STEPS values of r across the band and
every nu on a 0.25 grid up to NU_MAX, all in 30-digit mpmath with 30-digit
Gauss-Legendre nodes.  The error is largest towards the top of r and nu
but changes sign along k, so every k <= p is checked.  The script prints
the table in the form interaction.py holds; it runs in about a minute.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np

DPS = 30
TOL = 2.0**-56          # an eighth of the double-precision unit roundoff
NU_MAX = 6.0
NU_GRID = np.arange(0.25, NU_MAX + 0.125, 0.25)
R_STEPS = 4             # points per band, from just above the lower edge to the edge
R_EDGES = (1 / 1024, 1 / 256, 1 / 64, 1 / 16, 1 / 4, 1.0)
ORDERS = (4, 6, 8, 12, 16)
MAX_DEGREE = 24


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1] at DPS digits."""
    with mpmath.workdps(DPS):
        nodes, weights = [], []
        for guess in np.polynomial.legendre.leggauss(n)[0]:
            x = mpmath.mpf(float(guess))
            for _ in range(6):
                p_prev, p = mpmath.mpf(1), x
                for m in range(2, n + 1):
                    p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
                dp = n * (x * p - p_prev) / (x * x - 1)
                x -= p / dp
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return nodes, weights


def relative_error(n: int, k: int, r: float, nu: float):
    """|GL_n - exact| / exact for int_0^1 t^k (1 + r t)^-nu dt."""
    with mpmath.workdps(DPS):
        r, nu = mpmath.mpf(r), mpmath.mpf(nu)
        exact = mpmath.hyp2f1(nu, k + 1, k + 2, -r) / (k + 1)
        nodes, weights = gauss_legendre(n)
        t = [(1 + x) / 2 for x in nodes]
        approx = mpmath.fdot(weights, [tj**k * (1 + r * tj) ** -nu for tj in t]) / 2
        return abs(approx / exact - 1)


def worst_error(n: int, k: int, r_lo: float, r_hi: float):
    """Largest relative error over the nu grid and R_STEPS points of (r_lo, r_hi]."""
    rs = np.linspace(r_lo, r_hi, R_STEPS + 1)[1:]
    return max(relative_error(n, k, r, nu) for r in rs for nu in NU_GRID)


def max_degree(n: int, r_lo: float, r_hi: float) -> int:
    """Highest p such that every k <= p passes on the band (-1 if none)."""
    p = -1
    while p < MAX_DEGREE and worst_error(n, p + 1, r_lo, r_hi) <= TOL:
        p += 1
    return p


def derive():
    """[(band edge, ((order, highest degree), ...)), ...], orders that add degrees only."""
    table = []
    for r_lo, r_hi in zip((0.0,) + R_EDGES[:-1], R_EDGES):
        row, best = [], -1
        for n in ORDERS:
            p = max_degree(n, r_lo, r_hi)
            if p > best:
                row.append((n, p))
                best = p
        table.append((r_hi, tuple(row)))
    return table


def main() -> None:
    for r, row in derive():
        edge = "1.0" if r == 1.0 else f"2.0**{round(math.log2(r))}"
        print(f"    ({edge}, {row!r}),")


if __name__ == "__main__":
    main()
