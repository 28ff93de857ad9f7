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

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import HeightDistribution, _convolve
from .errors import FitError, InvalidParameterError, NumericError, ParseError

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


def _is_normal(x: float) -> bool:
    return sys.float_info.min <= abs(x) <= sys.float_info.max


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
        # The histograms weigh each cell by dx*dy and the gradients divide
        # by dx and dy; outside the normal floats they lose every digit or
        # overflow.
        dx, dy = float(self.dx), float(self.dy)
        for name, h in (("dx", dx), ("dy", dy)):
            if not _is_normal(1.0 / h):
                raise InvalidParameterError(f"grid spacing {name}={h!r}: 1/{name} is not a normal float")
        if not _is_normal(dx * dy):
            raise InvalidParameterError(f"grid spacings dx={dx!r} dy={dy!r}: cell area dx*dy is not a normal float")
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 2:
            raise InvalidParameterError("heightmap needs at least a 2x2 grid")
        if not math.isfinite(v.shape[1] * dx * v.shape[0] * dy):
            raise InvalidParameterError(
                f"grid spacings dx={dx!r} dy={dy!r}: the area of the {v.shape[0]}x{v.shape[1]} grid "
                "is not a finite float"
            )
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
# around a number, float() rejects it), so any other character sends its
# block to the line scanner.
_FAST_CHARS = b"0123456789+-.eE, \t\n"
# Characters of data rows per call of numpy's reader: a block is whole
# lines, read until they reach this many characters.  Beside the rows
# parsed so far the reader holds one block, as text and as lines.
_BLOCK_CHARS = 1 << 16


def load_heightmap(path, dx: float | None = None, dy: float | None = None) -> Heightmap:
    """Parse the v1 heightmap text format, or a headerless CSV matrix.

    The headerless form needs ``dx`` and ``dy`` supplied by the caller.
    Rows are split on commas if they contain one, else on whitespace;
    blank lines are skipped.  Parse failures carry the 1-based line number
    (and column for bad or non-finite entries).

    The file is read once, a block of lines at a time, holding about two
    grids' bytes at most: the rows parsed so far and the grid they are
    joined into.  numpy's reader parses each block it reads as the
    token-by-token scanner would; the scanner takes every other block.
    """
    try:
        with open(path) as fh:
            try:
                # The header ends at the first str.splitlines() break.
                pieces = fh.readline().splitlines(keepends=True)
                if not pieces:
                    raise ParseError("line 1: empty heightmap file")
                shape, dx, dy = _parse_header(pieces[0], dx, dy)
                values = _read_blocks(fh, pieces[1:] if shape else pieces, 1 if shape else 0)
            except ParseError:
                # Decode the rest: an undecodable file is reported as such.
                while fh.read(_BLOCK_CHARS):
                    pass
                raise
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode as text ({exc.reason})") from exc
    if shape is not None and values.shape != shape:
        raise ParseError("grid is %dx%d, header says ny=%d nx=%d" % (values.shape + shape))
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


def _read_blocks(fh, lines: list[str], lineno: int) -> np.ndarray:
    # The data rows: `lines`, which follow line `lineno`, then the rest of
    # fh, a block of lines at a time.  numpy parses a block of _FAST_CHARS
    # with finite values as wide as the first row, split on commas if it
    # holds one (its rows without a comma then agree with the scanner only
    # where they hold one value, and otherwise fail numpy's parse).
    # _scan_lines takes any other block, numbered in str.splitlines() lines.
    blocks = []
    lines += fh.readlines(_BLOCK_CHARS)
    while lines:
        block = "".join(lines)
        width = blocks[0].shape[1] if blocks else None
        if block.isspace():
            lineno += len(block.splitlines())
        else:
            try:
                if not block.isascii() or block.encode("ascii").translate(None, _FAST_CHARS):
                    raise ValueError("a character numpy reads unlike float()")
                values = np.loadtxt(lines, dtype=float, comments=None,
                                    delimiter="," if "," in block else None, ndmin=2)
                if not np.isfinite(values).all() or width not in (None, values.shape[1]):
                    raise ValueError("a value or a row width the scanner rejects")
            except ValueError:
                lines = block.splitlines()
                values = _scan_lines(lines, lineno, width)
            blocks.append(values)
            lineno += len(lines)
        lines = fh.readlines(_BLOCK_CHARS)
    if not blocks:
        raise ParseError("no data rows")
    return np.concatenate(blocks) if len(blocks) > 1 else blocks[0]


def _scan_lines(lines: list[str], lineno: int, width: int | None = None) -> np.ndarray:
    # The reference reader, token by token, of lines lineno + 1, ... with rows as
    # wide as `width` or the first; the source of every ParseError naming a line.
    rows = []
    for lineno, ln in enumerate(lines, start=lineno + 1):
        if not ln.strip():
            continue
        row = []
        for col, tok in enumerate(ln.split("," if "," in ln else None), start=1):
            try:
                v = float(tok)
            except ValueError as exc:
                raise ParseError(f"line {lineno}, column {col}: not a number: {tok!r}") from exc
            if not math.isfinite(v):
                raise ParseError(f"line {lineno}, column {col}: non-finite value {tok!r}")
            row.append(v)
        width = width or len(row)
        if len(row) != width:
            raise ParseError(f"line {lineno}: row has {len(row)} values, expected {width}")
        rows.append(row)
    return np.array(rows)


def save_heightmap(hm: Heightmap, path) -> None:
    """Write the v1 text format: every value as "%.17g" writes it, so
    load_heightmap reads back the same doubles.

    The values go out a block of ``_WRITE_BLOCK`` at a time, in row-major
    order.  ``_format_block`` writes a block whose values are all 0 or of
    magnitude in [10^-6, 10^16) with array operations; any other block goes
    through a "%.17g" template.  Besides the grid, the writer holds less
    than 1 MiB.
    """
    flat = hm.values.reshape(-1)
    rows = np.empty((min(flat.size, _WRITE_BLOCK), 4), _WORD)
    rows[:, 0] = np.frombuffer(_ROW_START, _WORD)
    with open(path, "wb") as fh:
        fh.write(f"# heightmap v1 nx={hm.nx} ny={hm.ny} dx={'%.17g' % hm.dx} dy={'%.17g' % hm.dy}\n".encode())
        for start in range(0, flat.size, _WRITE_BLOCK):
            block = flat[start:start + _WRITE_BLOCK]
            newlines = slice((hm.nx - 1 - start) % hm.nx, None, hm.nx)
            text = _format_block(block, newlines, rows[:len(block)])
            if text is None:
                text = bytearray(b"%.17g " * len(block))
                np.frombuffer(text, np.uint8)[5::6][newlines] = ord("\n")
                text %= tuple(block.tolist())
            fh.write(text)


# ---------------------------------------------------------------------------
# "%.17g" of an array
# ---------------------------------------------------------------------------

# Values per block of save_heightmap; the writer's arrays peak at about
# 150 bytes a value of a block.
_WRITE_BLOCK = 4096

# _format_block writes each value as a row of four little-endian words, and
# a mask then keeps the bytes "%.17g" writes.  The first word is
# _ROW_START: "-", and "0.000" of 1e-4 <= |v| < 1 (its "0" alone writes 0).
# The other three, the digit words, hold the 17 digits, "e-0" and "56", the
# exponent digits of 1e-6 <= |v| < 1e-4, and the separator.  "." goes in
# after the (k+1)th digit in fixed notation, or after the first in exponent
# notation, k being the decimal exponent of |v| rounded to 17 digits; the
# bytes after it move up by one.
_ROW_START = b"__-0.000"
_WORD, _HALF = np.dtype("<u8"), np.dtype("<u4")
_DOTS = np.frombuffer(b"........", _WORD)[0]
# The decimal exponents of the values _format_block writes, and the least
# such value: the double 1e-6 lies below 10^-6.
_K_MIN, _K_MAX = -6, 15
_LEAST = math.nextafter(1e-6, 1.0)
# Veltkamp's splitting constant for doubles, 2^27 + 1.
_SPLIT = 134217729.0


@functools.lru_cache(maxsize=None)
def _format_tables():
    """The read-only tables of ``_format_block``, built on its first call.

    ``groups[g]``: the 4 ASCII digits of g < 10^4, as one half-word.
    ``last[d]``: the digit d, then "e-0", as one half-word.
    ``trailing[g]``: the trailing zeros of g as four digits, 4 for g = 0.
    ``scales[i][k - _K_MIN]``: 10^(16 - k), exact, and its Veltkamp halves.
    ``dots[i][k - _K_MIN]``: the masks of a row's bytes before the place of
    "." (i = 0) and of that place (i = 1), as four words.
    ``masks[key]``: the bytes of a row that "%.17g" writes, for
    key = (negative * 22 + k - _K_MIN) * 17 + significant digits - 1, and
    for keys 748 + negative, a zero.
    """
    # Built from arrays of 16 bits or less, so that the heap a process
    # keeps after its first write grows little.
    g = np.arange(10_000, dtype=np.uint16)
    digits = np.empty((10_000, 4), np.uint8)
    trailing = np.zeros(10_000, np.int8)
    for i, power in enumerate((1000, 100, 10, 1)):
        digits[:, i] = g // power % 10 + ord("0")
        trailing += g % (10_000 // power) == 0
    groups = digits.view(_HALF).ravel()
    last = np.frombuffer(b"".join(b"%de-0" % d for d in range(10)), _HALF).copy()
    scale = np.array([float(10 ** (16 - k)) for k in range(_K_MIN, _K_MAX + 1)])
    high = scale * _SPLIT
    high -= high - scale
    scales = (scale, high, scale - high)

    k = np.arange(_K_MIN, _K_MAX + 1)
    # The byte of a row where "." goes; in 1e-4 <= |v| < 1, none.
    place = 8 + np.where(k >= 0, k + 1, np.where(k >= -4, 32, 1))[:, None]
    byte = np.arange(32)
    dots = tuple(np.where(cut, 0xFF, 0).astype(np.uint8).view(_WORD) for cut in (byte < place, byte == place))

    # Once "." is in, the digit words (bytes 8-31 of a row) hold the digits
    # and "." from byte 8, "e-0" at bytes 26-28, "5" at 29, "6" at 30 and
    # the separator at 31; where no "." goes in, the separator is at 30.
    neg, k, s = (x.ravel() for x in np.meshgrid([0, 1], k, np.arange(1, 18), indexing="ij"))
    fixed = k >= 0
    small = ~fixed & (k >= -4)
    masks = np.zeros((len(k) + 2, 32), bool)
    masks[:-2, 2] = neg
    masks[:-2, 3:8] = np.arange(5) < np.where(small, 1 - k, 0)[:, None]
    # Bytes kept from byte 8: in fixed notation the k + 1 integer digits,
    # then "." and the significant fraction digits if there are any; in
    # 1e-4 <= |v| < 1 the significant digits; in exponent notation the
    # first digit, then "." and the other significant digits if any.
    kept = np.where(fixed, np.maximum(s, k + 1) + (s > k + 1), np.where(small, s, s + (s > 1)))
    masks[:-2, 8:26] = np.arange(18) < kept[:, None]
    masks[:-2, 26:29] = (k <= -5)[:, None]
    masks[:-2, 29] = k == -5
    masks[:-2, 30] = (k == -6) | small
    masks[:-2, 31] = ~small
    masks[-2:, 3] = True
    masks[-1, 2] = True
    masks[-2:, 31] = True
    for table in (groups, last, trailing, *scales, *dots, masks):
        table.setflags(write=False)
    return groups, last, trailing, scales, dots, masks


def _format_block(v: np.ndarray, newlines: slice, rows: np.ndarray) -> np.ndarray | None:
    """The bytes "%.17g" writes for each value of v, each followed by " ",
    or by a newline at the values ``newlines`` selects; None if a value is
    neither 0 nor of magnitude in [10^-6, 10^16).  ``rows`` starts with
    ``_ROW_START`` and takes the digit words.
    """
    groups, last, trailing, scales, dots, masks = _format_tables()
    a = np.abs(v)
    zero = np.flatnonzero(a == 0.0)
    a[zero] = 1.0
    if not (a.min() >= _LEAST and a.max() < 1e16):
        return None
    k, n = _decimal_digits(a, scales)

    # The 17 digits: four groups of four, then the last digit.
    first16 = n // 10
    n -= first16 * 10
    upper = first16 // 10**8
    lower = first16 - upper * 10**8
    del first16
    g1 = upper // 10**4
    g2 = upper - g1 * 10**4
    g3 = lower // 10**4
    g4 = lower - g3 * 10**4
    # The key of each value's mask.  The significant digits are 17 less
    # the trailing zeros, which seldom reach past the last five digits.
    zeros = np.where(n == 0, trailing.take(g4) + 1, 0)
    more = np.flatnonzero(zeros == 5)
    for group in (g3, g2, g1):
        if not more.size:
            break
        digits = group[more]
        zeros[more] += trailing.take(digits)
        more = more[digits == 0]
    key = k * 17
    key += 16
    key -= zeros
    negative = np.signbit(v)
    if negative.any():
        key += negative * (22 * 17)
    key[zero] = 2 * 22 * 17 + negative[zero]

    halves = rows.view(_HALF)
    for column, group in enumerate((g1, g2, g3, g4), start=2):
        halves[:, column] = groups.take(group)
    halves[:, 6] = last.take(n)
    halves[:, 7] = np.frombuffer(b"56 \0", _HALF)
    halves[newlines, 7] = np.frombuffer(b"56\n\0", _HALF)
    del n, upper, lower, g1, g2, g3, g4
    # "." goes in: the bytes at and after its place move up by one.  The
    # last byte of a row is 0, so nothing moves from one row to the next.
    words = rows.reshape(-1)
    moved = words << 8
    moved[1:] |= words[:-1] >> 56
    before, place = dots
    words ^= moved
    words &= before.take(k, axis=0).reshape(-1)
    words ^= moved
    np.bitwise_xor(words, _DOTS, out=moved)
    moved &= place.take(k, axis=0).reshape(-1)
    words ^= moved
    del moved
    return rows.view(np.uint8)[masks.take(key, axis=0)]


def _decimal_digits(a: np.ndarray, scales) -> tuple[np.ndarray, np.ndarray]:
    """(k - _K_MIN, the 17 digits of a as an integer) for 10^-6 <= a < 10^16,
    k the decimal exponent of a rounded to 17 digits as "%.17g" rounds.

    P = a 10^(16 - k) lies in [10^16, 10^17), and 10^(16 - k) <= 10^22 is a
    double, so Dekker's two-product gives P exactly as p + err.  p, a
    double above 2^53, is an even integer, so p + rint(err) is P rounded
    half-even to an integer.  No double in range lies within half a unit
    of the 17th digit below a power of ten, so that integer stays below
    10^17.
    """
    # k from log10, which misses by at most one next to a power of ten.
    k = np.log10(a)
    np.floor(k, out=k)
    k = k.astype(np.intp)
    np.maximum(k, _K_MIN, out=k)
    np.minimum(k, _K_MAX, out=k)
    k -= _K_MIN
    high = a * _SPLIT
    high -= high - a
    low = a - high

    def two_product():
        b, bh, bl = (scale.take(k) for scale in scales)
        p = a * b
        err = p - high * bh
        err -= low * bh
        err -= high * bl
        np.subtract(low * bl, err, out=err)
        return p, err

    p, err = two_product()
    if not (p.min() > 1e16 and p.max() < 1e17):
        shift = ((p > 1e17) | ((p == 1e17) & (err >= 0))).astype(np.intp)
        shift -= (p < 1e16) | ((p == 1e16) & (err < 0))
        if shift.any():
            k += shift
            p, err = two_product()
    n = p.astype(np.int64)
    n += np.rint(err).astype(np.int64)
    return k, n


def shift_to_contact(hm: Heightmap) -> Heightmap:
    """Shift values so the closest point sits at S = 0.

    Raises NumericError when the span of the values is not a finite float.
    """
    vmin = float(hm.values.min())
    if vmin == 0.0 and hm.contact_shifted:
        return hm
    vmax = float(hm.values.max())
    # Every shifted value lies at or below the span, so none overflows.
    if not math.isfinite(vmax - vmin):
        raise NumericError(f"heightmap values span [{vmin!r}, {vmax!r}]: the span is not a finite float")
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
    scaled = hm.values.ravel() / bin_width
    np.floor(scaled, out=scaled)
    idx = scaled.astype(np.int64)
    np.maximum(idx, 0, out=idx)
    return bin_width, idx


def empirical_distribution(hm: Heightmap, bin_width: float | None = None) -> Histogram:
    """Histogram of separations; each cell contributes dx*dy of area.

    Bins are left-closed [k*w, (k+1)*w); the weights sum to the exact total
    projected area.
    """
    bin_width, idx = _bin_indices(hm, bin_width, "empirical_distribution")
    return _area_histogram(hm, bin_width, idx)


def gradient_distribution(hm: Heightmap, bin_width: float | None = None) -> Histogram:
    """Histogram where each cell contributes dx*dy * |grad S|^2.

    Gradients use central differences in the interior and one-sided
    differences at the boundary rows/columns.  Raises NumericError when a
    bin's weight is not a finite float.
    """
    bin_width, idx = _bin_indices(hm, bin_width, "gradient_distribution")
    return _gradient_histogram(hm, bin_width, idx)


def _histograms(hm: Heightmap, bin_width: float) -> tuple[Histogram, Histogram]:
    """empirical_distribution and gradient_distribution at one bin width,
    from one binning of the cells."""
    bin_width, idx = _bin_indices(hm, bin_width, "heightmap analysis")
    return _area_histogram(hm, bin_width, idx), _gradient_histogram(hm, bin_width, idx)


def _area_histogram(hm: Heightmap, bin_width: float, idx: np.ndarray) -> Histogram:
    return Histogram(bin_width, np.bincount(idx) * (hm.dx * hm.dy))


def _gradient_histogram(hm: Heightmap, bin_width: float, idx: np.ndarray) -> Histogram:
    with np.errstate(all="ignore"):
        slope2 = _squared_gradient(hm.values, hm.dx, hm.dy)
        weights = np.bincount(idx, weights=slope2.ravel()) * (hm.dx * hm.dy)
    if not np.isfinite(weights).all():
        j, i = np.unravel_index(np.argmax(slope2), slope2.shape)
        raise NumericError(f"squared slope |grad S|^2 = {float(slope2[j, i])!r} at row {j}, column {i}: "
                           "the slope^2-weighted area is not a finite float")
    return Histogram(bin_width, weights)


# Grid values per block of rows in which _squared_gradient forms d/dy and
# synthesize_surface adds a layer.
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

def _gaussian_bin_masses(edges: np.ndarray, sigma: float, s0: float) -> np.ndarray:
    # Exact bin masses of the truncated, renormalized Gaussian.
    from scipy.special import erf

    z = (edges - s0) / (sigma * math.sqrt(2.0))
    cdf = 0.5 * (1.0 + erf(z))
    norm = 1.0 - 0.5 * (1.0 + erf(-s0 / (sigma * math.sqrt(2.0))))
    return np.diff(cdf) / norm


# Lower bound of the fitted sigma, in the fit's unit of length.
_SIGMA_MIN = 1e-9


def fit_gaussian(emp: Histogram) -> GaussianFit:
    """Least-squares (sigma, s0) of the truncated Gaussian roughness model.

    The histogram is normalized to unit mass and compared against exact
    model bin masses.  A degenerate histogram (< 8 non-empty bins), or a
    fit that fails or is not finite, raises FitError; a poor model fit is
    reported through the residual, not an error.
    """
    from scipy.optimize import least_squares

    w = np.asarray(emp.weights, dtype=float)
    if int(np.count_nonzero(w)) < 8:
        raise FitError(f"need >= 8 non-empty bins to fit, have {int(np.count_nonzero(w))}")
    y = w / w.sum()
    # The fit runs in nm with sigma >= 1e-9.  A histogram narrower than
    # that runs in units of its bin width, so the bound scales with it and
    # the initial sigma, at least 1/sqrt(12) bins, lies above it.
    for unit in (1.0, emp.bin_width):
        delta = emp.bin_width / unit
        edges = np.arange(len(w) + 1) * delta
        centers = (edges[:-1] + edges[1:]) / 2.0
        mean = float((y * centers).sum())
        std = float(np.sqrt(max((y * (centers - mean) ** 2).sum(), delta**2 / 12.0)))
        if std >= _SIGMA_MIN:
            break

    def resid(p):
        sigma, s0 = p
        return _gaussian_bin_masses(edges, sigma, s0) - y

    try:
        sol = least_squares(
            resid, x0=[std, max(mean, 0.0)],
            bounds=([_SIGMA_MIN, 0.0], [np.inf, np.inf]),
        )
    except ValueError as exc:
        raise FitError(f"gaussian fit failed: {exc}") from exc
    sigma, s0 = (float(v) * unit for v in sol.x)
    residual = float(np.linalg.norm(sol.fun) / np.linalg.norm(y))
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

        def rough(rows):
            from scipy.ndimage import gaussian_filter

            field = rng.standard_normal((n, n))
            gaussian_filter(field, sigma=xi / (extent / n), mode="wrap", output=field)
            std = float(field.std())
            if std == 0.0:
                raise InvalidParameterError("roughness field degenerate (xi too large for grid)")
            field *= sigma / std
            return field
        return rough
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
    The first layer's grid becomes the sum, and every later cap or tiling
    is added a block of rows at a time, so besides the sum only one block
    is alive.  A rough layer takes a second grid while it is drawn and
    normalized; a rough layer after the first takes a third.
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
    distribution that ``convolve`` returns, integrated as f is.  g integrates
    to the mean squared slope rather than to 1, so it is convolved without
    ``convolve``'s unit-area warning.
    """
    return _convolve(f_c, distribution_from_histogram(g_r, area=area))
