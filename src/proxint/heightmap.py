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
import sys
from dataclasses import dataclass

import numpy as np

from ._fmt import _BLOCK_CHARS, FMT, read_rows, write_rows
from .distributions import HeightDistribution, _frozen, convolve
from .errors import FitError, InvalidParameterError, NumericError, ParseError

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

# Default histogram resolution (library and CLI): bin width = span / 512, 1 nm if flat.
DEFAULT_BIN_FRACTION = 512


def _is_normal(x: float) -> bool:
    return sys.float_info.min <= abs(x) <= sys.float_info.max


@dataclass(frozen=True, eq=False)
class Heightmap:
    """Grid of separations; values[j, i] is S at row j (y), column i (x)."""

    dx: float
    dy: float
    values: np.ndarray

    def __post_init__(self):
        if not all(math.isfinite(h) and h > 0 for h in (self.dx, self.dy)):
            raise InvalidParameterError("grid spacings must be positive and finite")
        # The histograms weigh each cell by dx*dy and the gradients divide
        # by dx and dy; outside the normal floats they lose every digit or
        # overflow.
        dx, dy = float(self.dx), float(self.dy)
        for name, h in (("dx", dx), ("dy", dy)):
            if not _is_normal(1.0 / h):
                raise InvalidParameterError(f"grid spacing {name}={h!r}: 1/{name} is not a normal float")
        if not _is_normal(dx * dy):
            raise InvalidParameterError(f"grid spacings dx={dx!r} dy={dy!r}: cell area dx*dy is not a normal float")
        v = _frozen(self.values)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 2:
            raise InvalidParameterError("heightmap needs at least a 2x2 grid")
        if not math.isfinite(v.shape[1] * dx * v.shape[0] * dy):
            raise InvalidParameterError(
                f"grid spacings dx={dx!r} dy={dy!r}: the area of the {v.shape[0]}x{v.shape[1]} grid "
                "is not a finite float"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("heightmap values must be finite")
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
        w = _frozen(self.weights)
        if not np.all(np.isfinite(w)):
            raise InvalidParameterError("bin weights must be finite")
        if np.any(w < 0):
            raise InvalidParameterError("bin weights must be >= 0")
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

def load_heightmap(path, dx: float | None = None, dy: float | None = None) -> Heightmap:
    """Parse the v1 heightmap text format, or a headerless CSV matrix.

    The headerless form needs ``dx`` and ``dy`` supplied by the caller; a
    file with a header takes its spacings from it, and supplying either
    there is a ParseError.
    ``_fmt.read_rows`` reads the rows a block of lines at a time, so the
    reader holds about two grids' bytes at most: the rows parsed so far and
    the grid they are joined into.
    """
    try:
        with open(path) as fh:
            try:
                # The header ends at the first str.splitlines() break.
                pieces = fh.readline().splitlines(keepends=True)
                if not pieces:
                    raise ParseError("line 1: empty heightmap file")
                shape, dx, dy = _parse_header(pieces[0], dx, dy)
                values = read_rows(pieces[1:] if shape else pieces, 1 if shape else 0, fh=fh)
                if not values.size:
                    raise ParseError("no data rows")
            except ParseError:
                # Decode the rest: an undecodable file is reported as such.
                while fh.read(_BLOCK_CHARS):
                    pass
                raise
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode as text ({exc.reason})") from exc
    if shape is not None and values.shape != shape:
        raise ParseError("grid is %dx%d, header says ny=%d nx=%d" % (values.shape + shape))
    values.setflags(write=False)
    return Heightmap(dx=float(dx), dy=float(dy), values=values)


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
        shape = int(fields["ny"]), int(fields["nx"])
        spacings = float(fields["dx"]), float(fields["dy"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"line 1: malformed header fields ({exc})") from exc
    if dx is not None or dy is not None:
        raise ParseError(f"line 1: the header gives dx={fields['dx']} dy={fields['dy']}; "
                         "dx and dy may be supplied only for a headerless file")
    return (shape, *spacings)


def save_heightmap(hm: Heightmap, path) -> None:
    """Write the v1 text format: every value as FMT writes it, so
    load_heightmap reads back the same doubles."""
    with open(path, "wb") as fh:
        fh.write(f"# heightmap v1 nx={hm.nx} ny={hm.ny} dx={FMT % hm.dx} dy={FMT % hm.dy}\n".encode())
        fh.writelines(write_rows(hm.values, b" "))


def _span(hm: Heightmap) -> tuple[float, float]:
    # (least value, span); no value less the least overflows a finite span.
    vmin, vmax = float(hm.values.min()), float(hm.values.max())
    if not math.isfinite(vmax - vmin):
        raise NumericError(f"heightmap values span [{vmin!r}, {vmax!r}]: the span is not a finite float")
    return vmin, vmax - vmin


def shift_to_contact(hm: Heightmap) -> Heightmap:
    """Shift values so the closest point sits at S = 0 (``hm`` if it does);
    NumericError when the span of the values is not a finite float."""
    vmin, _ = _span(hm)
    if vmin == 0.0:
        return hm
    values = hm.values - vmin
    values.setflags(write=False)
    return Heightmap(hm.dx, hm.dy, values)


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

def _bin_indices(hm: Heightmap, bin_width: float | None,
                 bins: int = DEFAULT_BIN_FRACTION) -> tuple[float, np.ndarray]:
    # Shared binning of empirical_distribution and gradient_distribution:
    # (bin width, bin index of every cell in row-major order), measured from
    # the least value with the roundings of shifting the map first.
    vmin, top = _span(hm)
    if bin_width is None:
        bin_width = top / bins if top > 0.0 else 1.0
        if not _is_normal(bin_width):
            raise NumericError(f"heightmap span {top!r} over {bins} bins: the bin width is not a normal float")
    if not (bin_width > 0 and math.isfinite(bin_width)):
        raise InvalidParameterError("bin_width must be positive and finite")
    if not top / bin_width < 2.0**63:
        raise NumericError(f"bin width {bin_width!r}: the largest value {top!r} has no finite int64 bin index")
    scaled = hm.values.ravel() - vmin
    np.divide(scaled, bin_width, out=scaled)
    np.floor(scaled, out=scaled)
    return bin_width, scaled.astype(np.int64)


def empirical_distribution(hm: Heightmap, bin_width: float | None = None) -> Histogram:
    """Histogram of separations; each cell contributes dx*dy of area.

    Bins are left-closed [k*w, (k+1)*w) above the least value; the weights
    sum to the exact total projected area.
    """
    bin_width, idx = _bin_indices(hm, bin_width)
    return Histogram(bin_width, np.bincount(idx) * (hm.dx * hm.dy))


def gradient_distribution(hm: Heightmap, bin_width: float | None = None) -> Histogram:
    """Histogram where each cell contributes dx*dy * |grad S|^2.

    Gradients use central differences in the interior and one-sided
    differences at the boundary rows/columns.  Raises NumericError when a
    bin's weight is not a finite float.
    """
    bin_width, idx = _bin_indices(hm, bin_width)
    return _gradient_histogram(hm, bin_width, idx)


def _histograms(hm: Heightmap, bins: int) -> tuple[Histogram, Histogram]:
    # empirical_distribution and gradient_distribution of ``bins`` bins over
    # the span, from one binning of the cells.
    bin_width, idx = _bin_indices(hm, None, bins)
    return Histogram(bin_width, np.bincount(idx) * (hm.dx * hm.dy)), _gradient_histogram(hm, bin_width, idx)


def _gradient_histogram(hm: Heightmap, bin_width: float, idx: np.ndarray) -> Histogram:
    with np.errstate(all="ignore"):
        slope2 = _squared_gradient(hm.values, hm.dx, hm.dy)
        weights = np.bincount(idx, weights=slope2.ravel()) * (hm.dx * hm.dy)
    if not np.isfinite(weights).all():
        j, i = np.unravel_index(np.argmax(slope2), slope2.shape)
        raise NumericError(f"squared slope |grad S|^2 = {float(slope2[j, i])!r} at row {j}, column {i}: "
                           "the slope^2-weighted area is not a finite float")
    return Histogram(bin_width, weights)


# Grid values per block of lines in which _squared_gradient forms d/dy,
# synthesize_surface adds a layer and _wrap_gaussian filters.
_BLOCK_VALUES = 1 << 15


def _squared_gradient(S: np.ndarray, dx: float, dy: float) -> np.ndarray:
    # gx**2 + gy**2 for (gy, gx) = np.gradient(S, dy, dx), bit for bit: its
    # central differences (f[j+1] - f[j-1]) / (2 h) inside and one-sided
    # (f[1] - f[0]) / h, (f[-1] - f[-2]) / h on the edges.  gx**2 is formed
    # in the result and gy**2 added a block of rows at a time, so besides
    # the result only one block is alive.
    ny, nx = S.shape
    out = np.empty_like(S)
    inner = out[:, 1:-1]
    np.subtract(S[:, 2:], S[:, :-2], out=inner)
    np.divide(inner, 2.0 * dx, out=inner)
    for edge, (a, b) in ((0, (1, 0)), (-1, (-1, -2))):
        np.subtract(S[:, a], S[:, b], out=out[:, edge])
        np.divide(out[:, edge], dx, out=out[:, edge])
    np.square(out, out=out)
    rows = max(1, _BLOCK_VALUES // nx)
    buf = np.empty((min(rows, ny), nx))
    for j in range(1, ny - 1, rows):
        k = min(j + rows, ny - 1)
        gy = buf[:k - j]
        np.subtract(S[j + 1:k + 1], S[j - 1:k - 1], out=gy)
        np.divide(gy, 2.0 * dy, out=gy)
        np.square(gy, out=gy)
        out[j:k] += gy
    gy = buf[0]
    for edge, (a, b) in ((0, (1, 0)), (-1, (-1, -2))):
        np.subtract(S[a], S[b], out=gy)
        np.divide(gy, dy, out=gy)
        np.square(gy, out=gy)
        out[edge] += gy
    return out


# ---------------------------------------------------------------------------
# Gaussian roughness fit
# ---------------------------------------------------------------------------

def _gaussian_bin_masses(edges: np.ndarray, sigma: float, s0: float) -> tuple[np.ndarray, np.ndarray]:
    """Bin masses between ascending ``edges`` of the Gaussian (sigma, s0)
    truncated to s >= 0, and their derivatives by ln sigma and s0 (rows of
    a 2 x bins array); math.erfc runs where it rounds to neither 2 nor 0."""
    t = (edges - s0) * (math.sqrt(0.5) / sigma)
    lo, hi = np.searchsorted(t, (-5.9, 27.3))
    q = np.where(t < 0.0, 2.0, 0.0)  # erfc(t): twice the mass above each edge
    q[lo:hi] = np.fromiter(map(math.erfc, t[lo:hi].tolist()), float, hi - lo)
    masses = (q[:-1] - q[1:]) / q[0]
    # Derivatives: differences of t exp(-t^2) and exp(-t^2), less mass x norm's.
    e = np.exp(t * -t)
    ends = np.stack((t * e, e))
    jac = ends[:, :-1] - ends[:, 1:] - np.multiply.outer(ends[:, 0], masses)
    jac *= np.array([[2.0], [math.sqrt(2.0) / sigma]]) / (math.sqrt(math.pi) * q[0])
    return masses, jac


def _gauss_newton(edges: np.ndarray, y: np.ndarray, x: np.ndarray):
    # At x = (ln sigma, s0): the cost, its rounding (eps * sum |r|), the step
    # held to s0 >= 0 and its length over sigma; NaN if singular (numpy floats).
    sigma = np.exp(x[0])
    masses, jac = _gaussian_bin_masses(edges, sigma, x[1])
    r = masses - y
    (a, b), (_, c) = jac @ jac.T
    g, h = jac @ r
    ds = max((b * g - a * h) / (a * c - b * b), -x[1]) if a * c > b * b else math.nan
    step = np.array([-(g + b * ds) / a, ds])
    return float(r @ r), sys.float_info.epsilon * float(np.abs(r).sum()), step, max(abs(step[0]), abs(ds) / sigma)


def fit_gaussian(emp: Histogram) -> GaussianFit:
    """Least-squares (sigma, s0) of the truncated Gaussian roughness model.

    Exact bin masses against the histogram of unit mass, in bin widths, so
    the fit scales exactly with them.  Gauss-Newton steps run while they
    lower the cost (halved if they raise it), then, once it changes by less
    than its rounding, while they shorten.  Fewer than 8 non-empty bins, a
    total mass that overflows, a singular step or a result that is not
    finite raise FitError; a poor fit shows in the residual.
    """
    w = np.asarray(emp.weights, dtype=float)
    if int(np.count_nonzero(w)) < 8:
        raise FitError(f"need >= 8 non-empty bins to fit, have {int(np.count_nonzero(w))}")
    total = float(w.sum())
    if not math.isfinite(total):
        raise FitError(f"gaussian fit is not finite: the total mass {total!r} overflows")
    y = w / total
    edges = np.arange(len(w) + 1.0)
    mean = float(y @ (edges[:-1] + 0.5))
    var = max(float(y @ (edges[:-1] + 0.5 - mean) ** 2), 1.0 / 12.0)
    x = np.array([0.5 * math.log(var), max(mean, 0.0)])
    # A trial far from the data may overflow: its cost is then not finite.
    with np.errstate(all="ignore"):
        cost, slack, step, length = _gauss_newton(edges, y, x)
        settled = False  # the cost no longer tells the steps apart
        while math.isfinite(length) and not np.array_equal(x + step, x):
            cost_t, slack_t, step_t, length_t = _gauss_newton(edges, y, x + step)
            if settled or not cost_t < cost:
                if cost_t <= cost + slack and length_t < length:
                    settled = True
                elif cost_t <= cost + slack or settled:
                    break
                else:
                    step, length = step / 2.0, length / 2.0
                    continue
            x, cost, slack, step, length = x + step, cost_t, slack_t, step_t, length_t
        if not math.isfinite(length):
            raise FitError("gaussian fit failed: singular normal equations")
        sigma, s0 = float(np.exp(x[0])) * emp.bin_width, float(x[1]) * emp.bin_width
    residual = math.sqrt(cost / float(y @ y))
    if not all(math.isfinite(v) for v in (sigma, s0, residual)):
        raise FitError(f"gaussian fit is not finite: sigma={sigma!r} s0={s0!r} residual={residual!r}")
    return GaussianFit(sigma, s0, residual)


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


def _layer_heights(layer: dict, coords: np.ndarray, extent: float, rng):
    """Check a layer descriptor and return its height function.

    The function maps a slice of rows to the layer's heights on those rows
    of the n x n grid whose rows and columns both sit at ``coords``, formed
    in place in one new array.  Caps and tilings share one profile of the
    n coordinates between the x and y axes and every block of rows.  A
    rough field is drawn from ``rng`` and filtered whole, so its function
    takes every row at once.
    """
    kind = layer.get("type")
    n = len(coords)
    if kind == "cap":
        R = _field(layer, "radius")
        c2 = coords**2
        # The largest x^2 + y^2 of the grid, as the grid would round it.
        corner = float(c2.max() + c2.max())
        if corner >= R**2:
            raise InvalidParameterError(
                f"cap extent invalid: corner radius {math.sqrt(corner):.6g} nm "
                f"reaches past the sphere radius {R:.6g} nm"
            )

        def cap(rows):
            out = np.add(c2[np.newaxis, :], c2[rows, np.newaxis])
            np.subtract(R**2, out, out=out)
            np.sqrt(out, out=out)
            np.subtract(R, out, out=out)
            return out
        return cap
    if kind in ("pyramid", "dome"):
        # A tiling's height is a non-decreasing function g of
        # rho = max(t(x), t(y)), t the distance to the nearest tile center
        # along one axis.  Each rounded step of g is non-decreasing too, so
        # g(rho) = max(g(t(x)), g(t(y))) bit for bit, and g runs on the n
        # coordinates alone.
        h, l = _field(layer, "height"), _field(layer, "tile")
        g = 2.0 * _tile_coords(coords, l) / l
        if kind == "dome":
            g = 1.0 - np.sqrt(1.0 - np.clip(g, 0.0, 1.0)**2)
        g = h * g
        return lambda rows: np.maximum(g[np.newaxis, :], g[rows, np.newaxis])
    if kind == "rough":
        sigma, xi = _field(layer, "sigma"), _field(layer, "xi")
        # The filter's radius, about 4 xi / dx cells, may wrap round the grid
        # 100 times at most: past that the field is all but constant, and
        # the filter's time and kernel grow with the radius.
        s = xi / (extent / n)
        if not s <= 25 * n:
            raise InvalidParameterError(
                f"rough xi must be at most 25 times the extent ({25 * extent:.6g} nm), got {xi!r}")

        def rough(rows):
            field = rng.standard_normal((n, n))
            _wrap_gaussian(field, s)
            std = float(field.std())
            if std == 0.0:
                raise InvalidParameterError("roughness field degenerate (xi too large for grid)")
            field *= sigma / std
            return field
        return rough
    raise InvalidParameterError(f"unknown layer type {kind!r}")


def _wrap_gaussian(field: np.ndarray, s: float) -> None:
    # SciPy's ndimage.gaussian_filter(field, s, mode="wrap", output=field),
    # bit for bit: its kernel of radius r = int(4 s + 0.5), axis 0 then 1,
    # and each value summed as its correlate1d sums a symmetric kernel,
    # x[i] w_0 and then (x[i - j] + x[i + j]) w_j for j = r, ..., 1, with
    # indices mod n.  A block of lines is filtered at a time from a doubled
    # copy that holds every wrapped read, so the memory does not grow with r.
    if s <= 1e-15:  # SciPy leaves such axes as they are.
        return
    r = int(4.0 * s + 0.5)
    phi = np.exp(-0.5 / (s * s) * np.arange(-r, r + 1) ** 2)
    w = phi / phi.sum()
    for axis in (0, 1):
        x = field.swapaxes(0, axis)
        n = x.shape[0]
        lines = max(1, _BLOCK_VALUES // n)
        for a in range(0, x.shape[1], lines):
            twice = np.concatenate((x[:, a:a + lines],) * 2)
            acc = twice[:n] * w[r]
            tmp = np.empty_like(acc)
            for j in range(r, 0, -1):
                np.add(twice[-j % n:][:n], twice[j % n:][:n], out=tmp)
                tmp *= w[r + j]
                acc += tmp
            x[:, a:a + lines] = acc


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
    The first layer's grid becomes the sum, and every later cap or tiling
    is added a block of rows at a time, so besides the sum only one block
    is alive.  A rough layer is drawn as one grid and filtered in it a few
    blocks at a time; normalizing it takes one more grid for a moment.  A
    first rough layer is the sum, so it peaks at two grids, and a rough
    layer after the first at three.
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
    rng = np.random.default_rng(seed)
    # Every layer is checked before any grid is formed.  A rough layer is
    # added whole, the others a block of rows at a time.
    stack = [(layer.get("type") == "rough", _layer_heights(layer, coords, extent, rng))
             for layer in layers]
    if [whole for whole, _ in stack] == [False, True]:
        # (0 + a) + b and (0 + b) + a are the same bits, and the one rng
        # draw is the same, so the rough grid is drawn first and becomes the
        # sum.
        stack.reverse()
    S = stack[0][1](slice(None))
    # As 0.0 + S: -0.0 becomes 0.0.
    S += 0.0
    rows = max(1, _BLOCK_VALUES // n)
    for whole, values in stack[1:]:
        if whole:
            S += values(slice(None))
        else:
            for j in range(0, n, rows):
                S[j:j + rows] += values(slice(j, j + rows))
    S -= S.min()
    S.setflags(write=False)
    return Heightmap(dx, dx, S)


# ---------------------------------------------------------------------------
# bridges between histograms and height distributions
# ---------------------------------------------------------------------------

def distribution_from_histogram(
    hist: Histogram, area: float | None = None
) -> HeightDistribution:
    """Sampled density view of a bin-mass histogram.

    Node k (at s = k * bin_width) takes the average of the adjacent cell
    densities, which reproduces linear densities exactly.  With ``area``
    given, the result is per unit projected area and flagged so.  A density
    that is not a finite float raises NumericError.
    """
    w = np.asarray(hist.weights, dtype=float)
    delta = hist.bin_width
    if area is not None and not (area > 0 and math.isfinite(area)):
        raise InvalidParameterError("area must be positive and finite")
    nodes = np.zeros(len(w) + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        dens = w / delta if area is None else w / delta / area
        nodes[1:-1] = (dens[:-1] + dens[1:]) / 2.0
        # One-sided extrapolation at the support edges (cell averages sit at
        # the cell centers); exact for linear densities, keeps f(0) of
        # densities that jump at the origin.
        if len(dens) >= 2:
            nodes[0] = max(1.5 * dens[0] - 0.5 * dens[1], 0.0)
            nodes[-1] = max(1.5 * dens[-1] - 0.5 * dens[-2], 0.0)
        else:
            nodes[0] = nodes[-1] = dens[0]
    if not np.isfinite(nodes).all():
        raise NumericError(f"histogram density at bin width {delta!r} is not a finite float")
    return HeightDistribution.sampled(delta, nodes, unit_area_normalized=area is not None)


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
    return convolve(f_c, distribution_from_histogram(g_r, area=area))
