"""The text of every number the program writes and reads.  ``FMT``, 17
significant digits, reads back as the same double.  ``write_rows`` is the
one writer of arrays of numbers, and ``table`` builds a CSV table with it.
``read_rows`` is the one reader of rows of numbers, and ``read_line`` its
rule for one line.

``read_rows`` reads a block of lines by the first of three readers that
takes it, and all three give the doubles ``read_line`` gives:

1. ``_parse_block``, by array operations, a block in a strict grammar:
   rows ending in "\n", values parted by one "," or one " ", each value
   [+-]D[.D][e[+-]D] with an integer of digits M < 10^18 and a decimal
   scale |q| <= 27, its first row averaging more than 17 bytes a value
   (15 digits, a point and a separator).  M and 10^|q| are exact in the
   x87 extended double, so M 10^q is rounded once there and once more to
   a double, which is the correctly rounded double unless the first
   rounding ended on a midpoint of two doubles; such a value goes to
   float().
2. ``np.loadtxt``, any other block of plain numeric text.
3. ``_scan_lines``, line by line with ``read_line``, any other block; its
   faults name the line and column.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParseError

FMT = "%.17g"


def write_rows(values: np.ndarray, sep: bytes):
    """Yield the text of a 2-D float array, ``_WRITE_BLOCK`` values at a time:
    each value as FMT writes it, then the byte ``sep`` or, last in its row, a
    newline.  ``_format_block`` writes a block: its zeros and magnitudes in
    [10^-6, 10^16) by array operations, and a FMT template the others.
    Besides the array, the writer holds less than 1 MiB."""
    width = values.shape[1]
    flat = values.reshape(-1)
    rows = np.empty((min(flat.size, _WRITE_BLOCK), 4), _WORD)
    rows[:, 0] = np.frombuffer(_ROW_START, _WORD)
    for start in range(0, flat.size, _WRITE_BLOCK):
        block = flat[start:start + _WRITE_BLOCK]
        newlines = slice((width - 1 - start) % width, None, width)
        yield _format_block(block, newlines, rows[:len(block)], sep)


def _format_template(block: np.ndarray, newlines, sep: bytes) -> bytearray:
    # The text of a block by one FMT template.
    text = bytearray((FMT.encode() + sep) * len(block))
    np.frombuffer(text, np.uint8)[5::6][newlines] = ord("\n")
    return text % tuple(block.tolist())


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


def _format_block(v: np.ndarray, newlines: slice, rows: np.ndarray, sep: bytes) -> np.ndarray:
    """The bytes FMT writes for each value of v, each followed by ``sep``,
    or by a newline at the values ``newlines`` selects.  Zeros and
    magnitudes in [10^-6, 10^16) are written by array operations, any
    other value by a FMT template into its row.  ``rows`` starts with
    ``_ROW_START`` and takes the digit words.
    """
    groups, last, trailing, scales, dots, masks = _format_tables()
    a = np.abs(v)
    zero = np.flatnonzero(a == 0.0)
    a[zero] = 1.0
    other = np.flatnonzero(~((a >= _LEAST) & (a < 1e16)))
    # The array path runs over every value of the block, and putting the
    # template's text in the rows costs about a third of the template: a
    # block of which more than half need it is written by it alone.
    if 2 * len(other) > len(v):
        return np.frombuffer(_format_template(v, newlines, sep), np.uint8)
    a[other] = 1.0
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
    keep = masks.take(key, axis=0)
    if not other.size:
        return rows.view(np.uint8)[keep]
    # Each other value's text and its end, from the template, take the
    # first bytes of its row (FMT writes at most 24).
    ends = np.zeros(len(v), bool)
    ends[newlines] = True
    text = np.frombuffer(_format_template(v[other], ends[other], sep), np.uint8)
    cut = np.flatnonzero((text == sep[0]) | (text == ord("\n"))) + 1
    size = np.diff(cut, prepend=0)
    rows.view(np.uint8)[other, :25] = sliding_window_view(np.append(text, np.zeros(25, np.uint8)), 25)[cut - size]
    keep[other] = np.arange(32) < size[:, None]
    text = rows.view(np.uint8)[keep]
    rows[other, 0] = np.frombuffer(_ROW_START, _WORD)
    return text


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


def read_line(line: str, lineno: int | None) -> list[float]:
    """The finite floats of line ``lineno``, split on commas if it holds
    one, else on whitespace.  A fault names the line, unless ``lineno`` is
    None, and the column."""
    row = []
    for col, tok in enumerate(line.split("," if "," in line else None), start=1):
        where = f"column {col}" if lineno is None else f"line {lineno}, column {col}"
        try:
            v = float(tok)
        except ValueError as exc:
            raise ParseError(f"{where}: not a number: {tok!r}") from exc
        if not math.isfinite(v):
            raise ParseError(f"{where}: non-finite value {tok!r}")
        row.append(v)
    return row


def read_rows(lines: list[str], lineno: int, width: int | None = None, fh=None) -> np.ndarray:
    """The rows, as wide as ``width`` or the first, of ``lines`` (with their
    breaks, after line ``lineno``), then of the rest of the text stream fh
    if one is given, a block of lines at a time; blank lines are skipped.
    _parse_block reads a block in its grammar.  numpy parses any other
    block of _FAST_CHARS with finite values and rows of the width, split on
    commas if it holds one (its rows without a comma then agree with the
    scanner only where they hold one value, and otherwise fail numpy's
    parse).  _scan_lines takes any other block."""
    blocks = []
    more = fh.readlines if fh else lambda hint: []
    lines = lines + more(_BLOCK_CHARS)
    while lines:
        block = "".join(lines)
        if block.isspace():
            lineno += len(block.splitlines())
        else:
            try:
                # Any other character becomes "?", outside _FAST_CHARS.
                data = block.encode("ascii", "replace")
                values = _parse_block(data, width)
                if values is None:
                    if data.translate(None, _FAST_CHARS):
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


# _parse_block reads each value as M 10^q, M the integer of its mantissa's
# digits and q its decimal scale.  M comes from the 24 bytes of the block,
# with every "." taken out, that end where the mantissa ends: three
# little-endian words, in which the bytes before its digits become "0".
_DIGIT_MAX, _Q_MAX = 10**18, 27
# Up to 15 digits, float() and numpy read a value by one exact operation on
# doubles (Clinger 1990), faster than _parse_block; past them they work
# with long integers, two to three times slower.  15 digits, a point and
# a separator take 17 bytes.
_FAST_BYTES = 17
# M < 2^64 and 10^|q| (5^27 < 2^63) are exact in the x87 extended double,
# so M 10^q is rounded once there, and then to a double.  That gives the
# correctly rounded double unless the first rounding ended on a midpoint
# of two doubles, where the low 11 of its 64 significand bits are 0x400:
# such a token goes to float().
_EXTENDED = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
_ZEROS = np.frombuffer(b"00000000", _WORD)[0]


@functools.lru_cache(maxsize=None)
def _parse_tables():
    """The read-only tables of ``_parse_block``, built on its first call.

    ``last[n]``: the mask of the last n of 24 bytes, as three words.
    ``up[q + _Q_MAX]``, ``down[q + _Q_MAX]``: 10^q and 1 for q > 0, and 1
    and 10^-q for q <= 0, exact extended doubles.
    """
    last = np.where(np.arange(24) >= 24 - np.arange(25)[:, None], 0xFF, 0).astype(np.uint8).view(_WORD)
    powers = np.cumprod([1] + [10] * _Q_MAX, dtype=np.longdouble)
    ones = np.ones(_Q_MAX, np.longdouble)
    up, down = np.concatenate([ones, powers]), np.concatenate([powers[::-1], ones])
    for table in (last, up, down):
        table.setflags(write=False)
    return last, up, down


def _digit_words(text: bytes, ends: np.ndarray, digits: np.ndarray, words: int) -> np.ndarray | None:
    """The last ``digits`` bytes of ``text`` before each place of ``ends``
    as the integers of their digits, eight to a word and ``words`` words
    each; None if one of them is not a digit."""
    w = np.ndarray((len(text) - 8 * words + 1, words), _WORD, text, strides=(1, 8))[ends - 8 * words]
    t = np.take(_parse_tables()[0][:, 3 - words:], digits, axis=0)
    w ^= _ZEROS
    w &= t
    np.add(w, 0x0606060606060606, out=t)
    t &= 0xF0F0F0F0F0F0F0F0
    if t.any():
        return None
    # The eight digit values of a word, its first byte the leading digit,
    # become pairs, fours and then one integer (Lemire 2021).
    np.right_shift(w, 8, out=t)
    w *= 10
    w += t
    np.right_shift(w, 16, out=t)
    t &= 0xFF000000FF
    t *= 1 + (10000 << 32)
    w &= 0xFF000000FF
    w *= 100 + (1000000 << 32)
    w += t
    w >>= 32
    return w


def _parse_block(data: bytes, width: int | None) -> np.ndarray | None:
    """The rows of ``data``, whole lines, as float() reads their values;
    None unless the block is in this grammar and the values of its first
    row average more than _FAST_BYTES bytes.

    Each row ends in "\n" and is as wide as ``width`` or the first.  One
    "," parts its values if the block holds one, else one " ".  A value is
    [+-]D[.D][e[+-]D], D digits: 1 to 24 digits before "e" and 1 to 8 after
    it, with M < _DIGIT_MAX and |q| <= _Q_MAX.
    """
    sep = b"," if b"," in data else b" "
    first = data.find(b"\n") + 1
    if (not _EXTENDED or first <= _FAST_BYTES * (data.count(sep, 0, first) + 1)
            or not data.endswith(b"\n") or data.translate(None, b"0123456789+-.e\n" + sep)):
        return None
    up, down = _parse_tables()[1:]
    b = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero((b == sep[0]) | (b == ord("\n")))
    newline = b[ends] == ord("\n")
    width = width or int(np.argmax(newline)) + 1
    if ends.size % width or not newline[width - 1::width].all() or np.count_nonzero(newline) * width != ends.size:
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lead = b[starts]
    negative = lead == ord("-")

    # A mantissa ends at its token's "e", if it has one.
    mend, exponent = ends, None
    if b"e" in data:
        at = np.flatnonzero(b == ord("e"))
        exponent = np.searchsorted(ends, at)
        if (np.diff(exponent) == 0).any():
            return None
        mend = ends.copy()
        mend[exponent] = at
    # A mantissa holds one "." at most.  q is less its fraction digits, and
    # `dots` counts the "."s up to each token's end.
    at = np.flatnonzero(b == ord("."))
    if at.size == ends.size and (at >= starts).all() and (at < mend).all():
        q = at - mend + 1
        dots = np.arange(1, ends.size + 1)
        digits = mend - starts - 1
    else:
        token = np.searchsorted(ends, at)
        if (np.diff(token) == 0).any() or (at >= mend[token]).any():
            return None
        q = np.zeros(ends.size, np.int64)
        q[token] = at - mend[token] + 1
        dots = np.zeros(ends.size, np.int64)
        dots[token] = 1
        digits = mend - starts - dots
        np.cumsum(dots, out=dots)
    digits -= negative | (lead == ord("+"))
    del starts, lead, at
    if not (digits.min() >= 1 and digits.max() <= 24):
        return None

    # Without its "."s and after 24 "0"s, the text holds every window.
    text = b"0" * 24 + data.translate(None, b".")
    dots -= 24
    if exponent is not None:
        sign = b[mend[exponent] + 1]
        size = ends[exponent] - mend[exponent] - 1 - ((sign == ord("+")) | (sign == ord("-")))
        if not (size.min() >= 1 and size.max() <= 8):
            return None
        e = _digit_words(text, ends[exponent] - dots[exponent], size, 1)
        if e is None:
            return None
        e = e[:, 0].astype(np.int64)
        e[sign == ord("-")] *= -1
        q[exponent] += e
    if not (np.abs(q).max() <= _Q_MAX):
        return None
    w = _digit_words(text, mend - dots, digits, 3)
    del text, mend, dots, digits
    if w is None or not w[:, 0].max() < _DIGIT_MAX // 10**16:
        return None
    m = w[:, 0] * 10**16
    m += w[:, 1] * 10**8
    m += w[:, 2]
    del w

    v = m.astype(np.longdouble)
    del m
    q += _Q_MAX
    if q.max() > _Q_MAX:
        v *= up.take(q)
    v /= down.take(q)
    values = v.astype(float)
    np.negative(values, out=values, where=negative)
    for i in np.flatnonzero((v.view(np.uint64)[::2] & 0x7FF) == 0x400).tolist():
        values[i] = float(data[ends[i - 1] + 1 if i else 0:ends[i]])
    return values.reshape(-1, width)
