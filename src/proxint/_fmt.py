"""The text of every number the program writes and reads.  ``FMT``, 17
significant digits, reads back as the same double.  ``write_rows`` is the
one writer of arrays of numbers, and ``table`` builds a CSV table with it.
``read_rows`` is the one reader of rows of numbers, and ``read_line`` its
rule for one line."""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ParseError

FMT = "%.17g"


def write_rows(values: np.ndarray, sep: bytes):
    """Yield the text of a 2-D float array, ``_WRITE_BLOCK`` values at a time:
    each value as FMT writes it, then the byte ``sep`` or, last in its row, a
    newline.  ``_format_block`` writes a block of zeros and magnitudes in
    [10^-6, 10^16) by array operations, a FMT template any other block.
    Besides the array, the writer holds less than 1 MiB."""
    width = values.shape[1]
    flat = values.reshape(-1)
    rows = np.empty((min(flat.size, _WRITE_BLOCK), 4), _WORD)
    rows[:, 0] = np.frombuffer(_ROW_START, _WORD)
    for start in range(0, flat.size, _WRITE_BLOCK):
        block = flat[start:start + _WRITE_BLOCK]
        newlines = slice((width - 1 - start) % width, None, width)
        text = _format_block(block, newlines, rows[:len(block)], sep)
        if text is None:
            text = bytearray((FMT.encode() + sep) * len(block))
            np.frombuffer(text, np.uint8)[5::6][newlines] = ord("\n")
            text %= tuple(block.tolist())
        yield text


def table(head: list[str], columns) -> str:
    """The lines ``head``, then a CSV row per entry of the ``columns``."""
    text = b"".join(write_rows(np.column_stack(columns), b","))
    return "".join(line + "\n" for line in head) + text.decode()


# Values per block of write_rows; the writer's arrays peak at about 150
# bytes a value of a block.
_WRITE_BLOCK = 4096

# _format_block writes each value as a row of four little-endian words, and
# a mask then keeps the bytes FMT writes.  The first word is
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
    ``masks[key]``: the bytes of a row that FMT writes, for
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


def _format_block(v: np.ndarray, newlines: slice, rows: np.ndarray, sep: bytes) -> np.ndarray | None:
    """The bytes FMT writes for each value of v, each followed by ``sep``,
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
    halves[:, 7] = np.frombuffer(b"56" + sep + b"\0", _HALF)
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
    k the decimal exponent of a rounded to 17 digits as FMT rounds.

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


def read_line(line: str, lineno: int) -> list[float]:
    """The finite floats of line ``lineno``, split on commas if it holds
    one, else on whitespace."""
    row = []
    for col, tok in enumerate(line.split("," if "," in line else None), start=1):
        try:
            v = float(tok)
        except ValueError as exc:
            raise ParseError(f"line {lineno}, column {col}: not a number: {tok!r}") from exc
        if not math.isfinite(v):
            raise ParseError(f"line {lineno}, column {col}: non-finite value {tok!r}")
        row.append(v)
    return row


def read_rows(lines: list[str], lineno: int, width: int | None = None, fh=None) -> np.ndarray:
    """The rows, as wide as ``width`` or the first, of ``lines`` (with their
    breaks, after line ``lineno``), then of the rest of the text stream fh
    if one is given, a block of lines at a time; blank lines are skipped.
    numpy parses a block of _FAST_CHARS with finite values and rows of the
    width, split on commas if it holds one (its rows without a comma then
    agree with the scanner only where they hold one value, and otherwise
    fail numpy's parse).  _scan_lines takes any other block."""
    blocks = []
    more = fh.readlines if fh else lambda hint: []
    lines = lines + more(_BLOCK_CHARS)
    while lines:
        block = "".join(lines)
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
            width = values.shape[1]
            lineno += len(lines)
        lines = more(_BLOCK_CHARS)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks or [np.empty((0, width or 0))])


def _scan_lines(lines: list[str], lineno: int, width: int | None = None) -> np.ndarray:
    # The reference reader, line by line, of lines lineno + 1, ... with rows
    # as wide as `width` or the first.
    rows = []
    for lineno, ln in enumerate(lines, start=lineno + 1):
        if not ln.strip():
            continue
        row = read_line(ln, lineno)
        width = width or len(row)
        if len(row) != width:
            raise ParseError(f"line {lineno}: row has {len(row)} values, expected {width}")
        rows.append(row)
    return np.array(rows)
