"""Discrete surface grids: ingestion, synthesis, and empirical distributions.

A heightmap is a rectangular grid of local separations S(x, y) in nm.  From
it one extracts the empirical height distribution f(s) (histogram of
separations weighted by cell area) and the mean-squared-gradient
distribution g(s) (same histogram weighted additionally by |grad S|^2),
and fits the truncated-Gaussian roughness model.

Synthetic generators cover the model geometries: spherical cap, pyramid
and dome tilings, Gaussian-correlated random roughness, and additive
compositions of a cap with a modulation field (S = S_c + S_r, re-shifted
to contact).

Heightmaps are immutable after construction; all functions are pure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import HeightDistribution, convolve
from .errors import FitError, InvalidParameterError, ParseError

# SciPy is imported inside its only callers, the Gaussian fit and the
# rough-surface synthesis, so importing proxint (and every CLI command but
# heightmap) does not load it; SciPy's import costs more than those
# commands' work.

__all__ = [
    "Heightmap",
    "Histogram",
    "GaussianFit",
    "load_heightmap",
    "save_heightmap",
    "shift_to_contact",
    "empirical_distribution",
    "gradient_distribution",
    "fit_gaussian",
    "synthesize_surface",
    "distribution_from_histogram",
    "compose_gradient",
]

# Default histogram resolution: bin width = value range / 512.
DEFAULT_BIN_FRACTION = 512


@dataclass(frozen=True, eq=False)
class Heightmap:
    """Grid of separations; values[j, i] is S at row j (y), column i (x)."""

    dx: float
    dy: float
    values: np.ndarray
    contact_shifted: bool = False

    def __post_init__(self):
        if not all(math.isfinite(h) and h > 0 for h in (self.dx, self.dy)):
            raise InvalidParameterError("grid spacings must be positive and finite")
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 2:
            raise InvalidParameterError("heightmap needs at least a 2x2 grid")
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("heightmap values must be finite")
        if self.contact_shifted and abs(float(v.min())) > 1e-12:
            raise InvalidParameterError("contact-shifted heightmap must have min 0")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    @property
    def area(self) -> float:
        """Total projected area nx*dx * ny*dy (one cell of area dx*dy per sample)."""
        return self.nx * self.dx * self.ny * self.dy


@dataclass(frozen=True, eq=False)
class Histogram:
    """Area per left-closed bin [k*w, (k+1)*w) in nm^2, slope^2-weighted for g."""

    bin_width: float
    weights: np.ndarray

    def __post_init__(self):
        if not (self.bin_width > 0 and math.isfinite(self.bin_width)):
            raise InvalidParameterError("bin_width must be positive and finite")
        w = np.ascontiguousarray(self.weights, dtype=float)
        if not np.all(np.isfinite(w)):
            raise InvalidParameterError("bin weights must be finite")
        if np.any(w < 0):
            raise InvalidParameterError("bin weights must be >= 0")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def total_area(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class GaussianFit:
    """Fitted truncated-Gaussian roughness parameters and relative L2 misfit."""

    sigma: float
    s0: float
    residual: float


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

# The characters on which numpy's C reader agrees with float() and
# str.split(): ASCII digits, signs, points, exponent letters, commas, spaces,
# tabs and "\n".  Outside this set they part ways (numpy strips "\x1f"
# around a number, float() rejects it), so any other character sends the
# file to the line scanner.
_FAST_CHARS = b"0123456789+-.eE, \t\n"
# The check encodes the text a slice at a time, so that it never holds a
# second copy of the whole file beside the text and its lines.
_CHECK_SLICE = 1 << 20


def load_heightmap(path, dx: float | None = None, dy: float | None = None) -> Heightmap:
    """Parse the v1 heightmap text format, or a headerless CSV matrix.

    The headerless form needs ``dx`` and ``dy`` supplied by the caller.
    Rows are split on commas if they contain one, else on whitespace;
    blank lines are skipped.  Parse failures carry the 1-based line number
    (and column for bad or non-finite entries).
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode as text ({exc.reason})") from exc
    lines = text.splitlines()
    if not lines:
        raise ParseError("line 1: empty heightmap file")
    shape, dx, dy = _parse_header(lines[0], dx, dy)
    start = 0 if shape is None else 1
    # Text mode leaves one character between lines, so the data rows are
    # text[offset:].
    offset = len(lines[0]) + 1 if start else 0
    values = _read_block(text, offset, lines[start:])
    if values is None:
        values = _scan_lines(lines, start)
    if shape is not None and values.shape != shape:
        raise ParseError(
            f"grid is {values.shape[0]}x{values.shape[1]}, header says ny={shape[0]} nx={shape[1]}"
        )
    return Heightmap(dx=float(dx), dy=float(dy), values=values, contact_shifted=False)


def _parse_header(first: str, dx, dy) -> tuple[tuple[int, int] | None, float, float]:
    # (ny, nx) or None for a headerless file, and the grid spacings.
    first = first.strip()
    if not first.startswith("#"):
        if dx is None or dy is None:
            raise ParseError("headerless heightmap needs dx and dy supplied")
        return None, dx, dy
    if not first.startswith("# heightmap v1"):
        raise ParseError(f"line 1: unrecognized header {first!r}")
    fields = dict(tok.split("=", 1) for tok in first.split()[3:] if "=" in tok)
    try:
        nx, ny = int(fields["nx"]), int(fields["ny"])
        return (ny, nx), float(fields["dx"]), float(fields["dy"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"line 1: malformed header fields ({exc})") from exc


def _read_block(text: str, offset: int, lines: list[str]) -> np.ndarray | None:
    # The data rows `lines`, which are text[offset:], parsed by numpy's C
    # reader; None where its result could differ from the line scanner's
    # or the input is malformed.
    if not any(ln.strip() for ln in lines) or not text.isascii() or any(
        text[i:i + _CHECK_SLICE].encode("ascii").translate(None, _FAST_CHARS)
        for i in range(offset, len(text), _CHECK_SLICE)
    ):
        return None
    try:
        values = np.loadtxt(lines, dtype=float, comments=None,
                            delimiter="," if text.find(",", offset) >= 0 else None, ndmin=2)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _scan_lines(lines: list[str], data_start: int) -> np.ndarray:
    # Token-by-token reader: the reference for _read_block and the source
    # of every ParseError naming a line and column.
    rows = []
    for lineno, ln in enumerate(lines[data_start:], start=data_start + 1):
        if not ln.strip():
            continue
        sep = "," if "," in ln else None
        toks = ln.split(sep)
        row = []
        for col, tok in enumerate(toks, start=1):
            try:
                v = float(tok)
            except ValueError as exc:
                raise ParseError(f"line {lineno}, column {col}: not a number: {tok!r}") from exc
            if not math.isfinite(v):
                raise ParseError(f"line {lineno}, column {col}: non-finite value {tok!r}")
            row.append(v)
        if rows and len(row) != len(rows[0]):
            raise ParseError(
                f"line {lineno}: row has {len(row)} values, expected {len(rows[0])}"
            )
        rows.append(row)
    if not rows:
        raise ParseError("no data rows")
    return np.array(rows)


def save_heightmap(hm: Heightmap, path) -> None:
    """Write the v1 text format: every value at 17 significant digits, so
    load_heightmap reads back the same doubles."""
    # One bytes row per write: through a text-mode file the rows raised
    # the peak memory of a process writing two 512^2 grids by 2 MB.
    row_format = (" ".join(["%.17g"] * hm.nx) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(f"# heightmap v1 nx={hm.nx} ny={hm.ny} dx={'%.17g' % hm.dx} dy={'%.17g' % hm.dy}\n".encode())
        for row in hm.values:
            fh.write(row_format % tuple(row.tolist()))


def shift_to_contact(hm: Heightmap) -> Heightmap:
    """Shift values so the closest point sits at S = 0."""
    vmin = float(hm.values.min())
    if vmin == 0.0 and hm.contact_shifted:
        return hm
    return Heightmap(hm.dx, hm.dy, hm.values - vmin, contact_shifted=True)


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

def _bin_indices(hm: Heightmap, bin_width: float | None, op: str) -> tuple[float, np.ndarray]:
    # Shared binning of empirical_distribution and gradient_distribution:
    # (bin width, bin index of every cell in row-major order).
    if not hm.contact_shifted:
        raise InvalidParameterError(f"{op} needs a contact-shifted heightmap")
    if bin_width is None:
        bin_width = max(float(hm.values.max()), 1.0) / DEFAULT_BIN_FRACTION
    if not (bin_width > 0 and math.isfinite(bin_width)):
        raise InvalidParameterError("bin_width must be positive and finite")
    idx = np.floor(hm.values.ravel() / bin_width).astype(np.int64)
    return bin_width, np.maximum(idx, 0)


def empirical_distribution(hm: Heightmap, bin_width: float | None = None) -> Histogram:
    """Histogram of separations; each cell contributes dx*dy of area.

    Bins are left-closed [k*w, (k+1)*w); the weights sum to the exact total
    projected area.
    """
    bin_width, idx = _bin_indices(hm, bin_width, "empirical_distribution")
    return Histogram(bin_width, np.bincount(idx) * (hm.dx * hm.dy))


def gradient_distribution(hm: Heightmap, bin_width: float | None = None) -> Histogram:
    """Histogram where each cell contributes dx*dy * |grad S|^2.

    Gradients use central differences in the interior and one-sided
    differences at the boundary rows/columns.
    """
    bin_width, idx = _bin_indices(hm, bin_width, "gradient_distribution")
    gy, gx = np.gradient(hm.values, hm.dy, hm.dx)
    weights = np.bincount(idx, weights=(gx**2 + gy**2).ravel()) * (hm.dx * hm.dy)
    return Histogram(bin_width, weights)


# ---------------------------------------------------------------------------
# Gaussian roughness fit
# ---------------------------------------------------------------------------

def _gaussian_bin_masses(edges: np.ndarray, sigma: float, s0: float) -> np.ndarray:
    # Exact bin masses of the truncated, renormalized Gaussian.
    from scipy.special import erf

    z = (edges - s0) / (sigma * math.sqrt(2.0))
    cdf = 0.5 * (1.0 + erf(z))
    norm = 1.0 - 0.5 * (1.0 + erf(-s0 / (sigma * math.sqrt(2.0))))
    return np.diff(cdf) / norm


def fit_gaussian(emp: Histogram) -> GaussianFit:
    """Least-squares (sigma, s0) of the truncated Gaussian roughness model.

    The histogram is normalized to unit mass and compared against exact
    model bin masses.  A degenerate histogram (< 8 non-empty bins) raises
    FitError; a poor model fit is reported through the residual, not an
    error.
    """
    from scipy.optimize import least_squares

    w = np.asarray(emp.weights, dtype=float)
    if int(np.count_nonzero(w)) < 8:
        raise FitError(f"need >= 8 non-empty bins to fit, have {int(np.count_nonzero(w))}")
    y = w / w.sum()
    delta = emp.bin_width
    edges = np.arange(len(w) + 1) * delta
    centers = (edges[:-1] + edges[1:]) / 2.0

    mean = float((y * centers).sum())
    std = float(np.sqrt(max((y * (centers - mean) ** 2).sum(), delta**2 / 12.0)))

    def resid(p):
        sigma, s0 = p
        return _gaussian_bin_masses(edges, sigma, s0) - y

    sol = least_squares(
        resid, x0=[std, max(mean, 0.0)], bounds=([1e-9, 0.0], [np.inf, np.inf])
    )
    sigma, s0 = sol.x
    residual = float(np.linalg.norm(sol.fun) / np.linalg.norm(y))
    return GaussianFit(float(sigma), float(s0), residual)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def _tile_coords(x: np.ndarray, tile: float) -> np.ndarray:
    # Chebyshev distance to the nearest tile center, tiles centered on a
    # lattice with period `tile`.
    return np.abs(np.mod(x + 0.5 * tile, tile) - 0.5 * tile)


def _field(layer: dict, key: str) -> float:
    """A layer field, checked to be positive and finite."""
    value = float(layer[key])
    if not 0 < value < math.inf:
        raise InvalidParameterError(f"{layer['type']} {key} must be positive and finite, got {value!r}")
    return value


def _layer_values(layer: dict, X: np.ndarray, Y: np.ndarray, extent: float, rng) -> np.ndarray:
    kind = layer.get("type")
    if kind == "cap":
        R = _field(layer, "radius")
        r2 = X**2 + Y**2
        if float(r2.max()) >= R**2:
            raise InvalidParameterError(
                f"cap extent invalid: corner radius {math.sqrt(float(r2.max())):.6g} nm "
                f"reaches past the sphere radius {R:.6g} nm"
            )
        return R - np.sqrt(R**2 - r2)
    if kind == "pyramid":
        h, l = _field(layer, "height"), _field(layer, "tile")
        rho = np.maximum(_tile_coords(X, l), _tile_coords(Y, l))
        return h * (2.0 * rho / l)
    if kind == "dome":
        h, l = _field(layer, "height"), _field(layer, "tile")
        rho = np.maximum(_tile_coords(X, l), _tile_coords(Y, l))
        u = np.clip(2.0 * rho / l, 0.0, 1.0)
        return h * (1.0 - np.sqrt(1.0 - u**2))
    if kind == "rough":
        sigma, xi = _field(layer, "sigma"), _field(layer, "xi")
        from scipy.ndimage import gaussian_filter

        noise = rng.standard_normal(X.shape)
        dx = extent / X.shape[1]
        field = gaussian_filter(noise, sigma=xi / dx, mode="wrap")
        std = float(field.std())
        if std == 0.0:
            raise InvalidParameterError("roughness field degenerate (xi too large for grid)")
        return field * (sigma / std)
    raise InvalidParameterError(f"unknown layer type {kind!r}")


def synthesize_surface(
    layers,
    n: int = 512,
    extent: float | None = None,
    seed: int = 0,
) -> Heightmap:
    """Deterministic synthetic heightmap from a stack of layer descriptors.

    ``layers`` is a sequence of dicts: {"type": "cap", "radius": R},
    {"type": "pyramid"|"dome", "height": h, "tile": l}, or
    {"type": "rough", "sigma": s, "xi": xi}.  Heights add pointwise
    (S = S_c + S_r) and the result is shifted to contact.  ``extent`` is the
    physical side length in nm (default: one tile for pure tilings).

    Coordinates are cell-centered on an n x n grid, so dx = dy = extent / n.
    """
    layers = [dict(layer) for layer in layers]
    if not layers:
        raise InvalidParameterError("need at least one layer")
    if extent is None:
        tiles = [_field(l, "tile") for l in layers if "tile" in l]
        if not tiles:
            raise InvalidParameterError("extent is required unless a tiling sets the scale")
        extent = max(tiles)
    if n < 2:
        raise InvalidParameterError("need n >= 2")
    if not 0 < extent < math.inf:
        raise InvalidParameterError(f"extent must be positive and finite, got {extent!r}")
    dx = extent / n
    coords = (np.arange(n) + 0.5) * dx - extent / 2.0
    X, Y = np.meshgrid(coords, coords)
    rng = np.random.default_rng(seed)
    S = np.zeros_like(X)
    for layer in layers:
        S = S + _layer_values(layer, X, Y, extent, rng)
    S -= S.min()
    return Heightmap(dx, dx, S, contact_shifted=True)


# ---------------------------------------------------------------------------
# bridges between histograms and height distributions
# ---------------------------------------------------------------------------

def distribution_from_histogram(
    hist: Histogram, area: float | None = None
) -> HeightDistribution:
    """Sampled density view of a bin-mass histogram.

    Node k (at s = k * bin_width) takes the average of the adjacent cell
    densities, which reproduces linear densities exactly.  With ``area``
    given, the result is per unit projected area.
    """
    w = np.asarray(hist.weights, dtype=float)
    delta = hist.bin_width
    dens = w / delta
    if area is not None:
        if not (area > 0 and math.isfinite(area)):
            raise InvalidParameterError("area must be positive and finite")
        dens = dens / area
    nodes = np.zeros(len(w) + 1)
    nodes[1:-1] = (dens[:-1] + dens[1:]) / 2.0
    # One-sided extrapolation at the support edges (cell averages sit at the
    # cell centers); exact for linear densities, keeps f(0) of densities
    # that jump at the origin.
    if len(dens) >= 2:
        nodes[0] = max(1.5 * dens[0] - 0.5 * dens[1], 0.0)
        nodes[-1] = max(1.5 * dens[-1] - 0.5 * dens[-2], 0.0)
    else:
        nodes[0] = nodes[-1] = dens[0]
    return HeightDistribution.sampled(delta, nodes, unit_area_normalized=False)


def compose_gradient(
    f_c: HeightDistribution, g_r: Histogram, area: float
) -> HeightDistribution:
    """Gradient density of a composed surface.

    Like the height distribution, g of base + fine modulation is the
    convolution of the base height distribution with the modulation's
    per-unit-area gradient density (the base's own gradient is negligible on
    the modulation scale).  The result is the factored analytic (*) sampled
    distribution that ``convolve`` returns, integrated as f is.
    """
    with warnings.catch_warnings():
        # g is intentionally not unit-area normalized (it integrates to the
        # mean squared slope).
        warnings.simplefilter("ignore")
        return convolve(f_c, distribution_from_histogram(g_r, area=area))
