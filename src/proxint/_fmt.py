"""The text of every number the program writes and reads.  ``FMT``, 17
significant digits, reads back as the same double.  ``write_rows`` is the
one writer of arrays of numbers, and ``table`` builds a CSV table with it.
``read_rows`` is the one reader of rows of numbers, and ``read_line`` its
rule for one line.

``write_rows`` writes a block of values by ``_format_block``: the 17
digits of each by Dekker's two-product and a table of four-digit groups,
into a row of four words after its separator and sign; "." goes in by
word shifts, and one boolean compaction keeps one run of bytes a row.  A
value outside [10^-4, 10^16) that is not zero, FMT's exponent notation
and its fixed values of 17 integer digits, takes a FMT template.

``read_rows`` reads a block of lines by the first of three readers that
takes it, and all three give the doubles ``read_line`` gives:

1. ``_parse_block``, by array operations, a block of ASCII bytes in a
   strict grammar: rows ending in "\n", values parted by one "," or one
   " ", each value in fixed notation, [+-]D[.D] with 1 to 24 digits whose
   integer M < 10^18 and decimal scale f <= 24, its first row averaging
   more than 15 bytes a value.  One pass finds the separators and one the
   "."s; the 32 bytes before each value's end are gathered as four words,
   the digits before its "." move up over it, and SWAR steps turn the
   digits into M.  Those steps fail every ASCII byte but a digit, so each
   byte of a token is checked where it is read; only bytes above 0x7F,
   some of which they would take for digits, are refused beforehand, by
   the block's largest byte.  M and 10^f are exact in the x87 extended
   double, so M / 10^f is rounded once there and once more to a double,
   which is the correctly rounded double unless the first rounding ended
   on a midpoint of two doubles; such a value goes to float().
2. ``np.loadtxt``, any other block of plain numeric text, among them
   every block holding FMT's exponent notation.
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
    [10^-4, 10^16) by array operations, and a FMT template the others.
    Besides the array, the writer holds less than 1 MiB."""
    width = values.shape[1]
    flat = values.reshape(-1)
    for start in range(0, flat.size, _WRITE_BLOCK):
        block = flat[start:start + _WRITE_BLOCK]
        text = _format_block(block, slice(-start % width, None, width), sep)
        yield text[1:] if start == 0 else text
    if flat.size:
        yield b"\n"


def table(head: list[str], columns) -> str:
    """The lines ``head``, then a CSV row per entry of the ``columns``."""
    text = b"".join(write_rows(np.column_stack(columns), b","))
    return "".join(line + "\n" for line in head) + text.decode()


# Values per block of write_rows; the writer's arrays peak at about 150
# bytes a value of a block.
_WRITE_BLOCK = 4096

# _format_block writes each value as a row of four little-endian words,
# and a mask then keeps the bytes FMT writes, with the separator before
# them, as one run.  The last three, the digit words, hold the 17 digits
# from byte 8.  "." goes in after the (k+1)th digit, k >= 0 being the
# decimal exponent of |v| rounded to 17 digits; the bytes after it move up
# by one.  The first word ends in the separator, then "-" and the "0.000"
# of |v| < 1, as FMT writes them.
_WORD, _HALF = np.dtype("<u8"), np.dtype("<u4")
_DOTS = np.frombuffer(b"........", _WORD)[0]
# The decimal exponents of the values _format_block writes (the double 1e-4
# lies above 10^-4), and the keys of one sign's nonzero values.
_K_MIN, _K_MAX = -4, 15
_KEYS = (_K_MAX - _K_MIN + 1) * 17
# Veltkamp's splitting constant for doubles, 2^27 + 1.
_SPLIT = 134217729.0


@functools.lru_cache(maxsize=None)
def _format_tables():
    """The read-only tables of ``_format_block``, built on its first call.

    ``groups[g]``: the 4 ASCII digits of g < 10^4, as one half-word.
    ``last[d]``: the digit d, as one half-word.
    ``trailing[g]``: the trailing zeros of g as four digits, 4 for g = 0.
    ``scales[i][k - _K_MIN]``: 10^(16 - k), exact, and its Veltkamp halves.
    ``dots[i][k - _K_MIN]``: the masks of a row's bytes before the place of
    "." (i = 0) and of that place (i = 1), as four words.
    For key = negative * _KEYS + (k - _K_MIN) * 17 + significant digits - 1,
    and for keys 2 * _KEYS + negative, a zero:
    ``masks[key]``: the bytes of a row kept, the separator and FMT's text;
    ``heads[key]``, ``seps[key]``: the first word of the row with its
    separator 0, and with 1 in the separator's place.
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
    last = np.arange(ord("0"), ord("0") + 10, dtype=_HALF)
    scale = np.array([float(10 ** (16 - k)) for k in range(_K_MIN, _K_MAX + 1)])
    high = scale * _SPLIT
    high -= high - scale
    scales = (scale, high, scale - high)

    k = np.arange(_K_MIN, _K_MAX + 1)
    # The byte of a row where "." goes; below 1, none.
    place = 8 + np.where(k >= 0, k + 1, 32)[:, None]
    byte = np.arange(32)
    dots = tuple(np.where(cut, 0xFF, 0).astype(np.uint8).view(_WORD) for cut in (byte < place, byte == place))

    neg, k, s = (x.ravel() for x in np.meshgrid([0, 1], k, np.arange(1, 18), indexing="ij"))
    # Bytes from byte 8: from 1 up, the k + 1 integer digits, then "." and
    # the significant fraction digits if there are any; below 1, the
    # significant digits.  A zero is written as its head alone.
    kept = np.where(k >= 0, np.maximum(s, k + 1) + (s > k + 1), s)
    heads = [b"-" * n + (b"0." + b"0" * (-j - 1) if j < 0 else b"") for n, j in zip(neg, k)]
    heads = [h.rjust(8, b"\0") for h in heads + [b"0", b"-0"]]
    lengths = np.array([len(h.lstrip(b"\0")) for h in heads])
    heads = np.frombuffer(b"".join(heads), _WORD)
    seps = np.left_shift(1, 8 * (7 - lengths)).astype(_WORD)
    ends = 8 + np.concatenate([kept, [0, 0]])
    masks = (byte >= 7 - lengths[:, None]) & (byte < ends[:, None])
    for table in (groups, last, trailing, *scales, *dots, masks, heads, seps):
        table.setflags(write=False)
    return groups, last, trailing, scales, dots, masks, (heads, seps)


@functools.lru_cache(maxsize=None)
def _first_words(sep: bytes) -> tuple[np.ndarray, np.ndarray]:
    # The first words of the rows, by key, after ``sep`` and after a newline.
    heads, seps = _format_tables()[-1]
    return tuple(heads + seps * ord(lead) for lead in (sep, b"\n"))


def _format_block(v: np.ndarray, leads: slice, sep: bytes) -> np.ndarray:
    """The bytes FMT writes for each value of v, each after ``sep``, or
    after a newline at the values ``leads`` selects.  Zeros and magnitudes
    in [10^-4, 10^16) are written by array operations, any other value by
    a FMT template into its row.
    """
    groups, last, trailing, scales, dots, masks, _ = _format_tables()
    a = np.abs(v)
    zero = other = np.empty(0, np.intp)
    # NaN fails both tests.
    if not (a.min() >= 1e-4 and a.max() < 1e16):
        zero = np.flatnonzero(a == 0.0)
        a[zero] = 1.0
        other = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))
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
        key += negative * _KEYS
    if zero.size:
        key[zero] = 2 * _KEYS + negative[zero]
    # An other value's template text follows its separator at byte 7, as
    # after the first word of a positive value of 1 <= v < 10.
    key[other] = -_K_MIN * 17

    rows = np.empty((len(v), 4), _WORD)
    after_sep, after_newline = _first_words(sep)
    rows[:, 0] = after_sep.take(key)
    rows[leads, 0] = after_newline.take(key[leads])
    halves = rows.view(_HALF)
    for column, group in enumerate((g1, g2, g3, g4), start=2):
        halves[:, column] = groups.take(group)
    halves[:, 6] = last.take(n)
    del n, upper, lower, g1, g2, g3, g4
    # "." goes in: the bytes at and after its place move up by one.  The
    # first word keeps its bytes, so nothing moves from one row to the next.
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
    if other.size:
        # Each other value's text and its end, from the template, take the
        # digit words of its row (FMT writes at most 24 bytes).
        text = np.frombuffer((FMT.encode() + sep) * len(other) % tuple(v[other].tolist()), np.uint8)
        cut = np.flatnonzero(text == sep[0]) + 1
        size = np.diff(cut, prepend=0)
        rows.view(np.uint8)[other, 8:] = sliding_window_view(np.append(text, np.zeros(24, np.uint8)), 24)[cut - size]
        keep[other] = (np.arange(32) >= 7) & (np.arange(32) < 7 + size[:, None])
    return rows.view(np.uint8)[keep]


def _decimal_digits(a: np.ndarray, scales) -> tuple[np.ndarray, np.ndarray]:
    """(k - _K_MIN, the 17 digits of a as an integer) for 10^-4 <= a < 10^16,
    k the decimal exponent of a rounded to 17 digits as FMT rounds.

    P = a 10^(16 - k) lies in [10^16, 10^17), and 10^(16 - k) <= 10^20 is a
    double, so Dekker's two-product gives P exactly as p + err.  p, a
    double above 2^53, is an even integer, so p + rint(err) is P rounded
    half-even to an integer.  No double in range lies within half a unit
    of the 17th digit below a power of ten, so that integer stays below
    10^17.
    """
    # k from log10, which misses by at most one next to a power of ten:
    # log10(a) - _K_MIN is at least 0 less a rounding, so that truncation
    # floors it.
    k = np.log10(a)
    k -= _K_MIN
    k = k.astype(np.intp)
    np.minimum(k, _K_MAX - _K_MIN, out=k)
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


class StringLines:
    """The lines of a string, each ending at "\n" as io.StringIO's do,
    read as from a text stream, without a copy of the string (io.StringIO
    holds one of four bytes a character)."""

    def __init__(self, text: str):
        self._text, self._at = text, 0

    def readline(self) -> str:
        end = self._text.find("\n", self._at) + 1 or len(self._text)
        line, self._at = self._text[self._at:end], end
        return line

    def readlines(self, hint: int) -> list[str]:
        """Whole lines, until they hold more than ``hint`` characters or the
        string ends."""
        end = self._text.find("\n", self._at + hint) + 1 or len(self._text)
        lines = self._text[self._at:end].split("\n")
        self._at = end
        tail = lines.pop()
        return [line + "\n" for line in lines] + ([tail] if tail else [])

    def __iter__(self):
        # Blocks of whole lines, as one string each.
        return iter(lambda: "".join(self.readlines(_BLOCK_CHARS)), "")


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


# _parse_block reads each value as M / 10^f, M the integer of its digits
# and f the number of them after its ".".  M comes from the 32 bytes of the
# block that end where the value ends: four little-endian words, in which
# the bytes before its "." move up by one byte over it and the bytes before
# its digits then become "0".
_DIGIT_MAX, _DIGITS = 10**18, 24
# Up to 15 digits, float() and numpy read a value by one exact operation on
# doubles (Clinger 1990); past them they work with long integers, two to
# three times slower.  On 512-wide rows, _parse_block reads values of 14
# bytes or more, separator included, faster than numpy, whether they are
# 12-digit values of 10^3 or 8-digit ones of -10^-3: rows longer than 15
# bytes a value go to it.
_FAST_BYTES = 15
# M < 2^64 and 10^f (5^24 < 2^56) are exact in the x87 extended double, so
# M / 10^f is rounded once there, and then to a double.  That gives the
# correctly rounded double unless the first rounding ended on a midpoint
# of two doubles, where the low 11 of its 64 significand bits are 0x400:
# such a token goes to float().
_EXTENDED = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
_ZEROS = np.frombuffer(b"00000000", _WORD)[0]


@functools.lru_cache(maxsize=None)
def _parse_tables():
    """The read-only tables of ``_parse_block``, built on its first call.

    ``last[n]``: the mask of the last n of 32 bytes, as one 32-byte item.
    ``down[f]``: 10^f for f <= _DIGITS, exact extended doubles.
    """
    masks = bytes(32) + b"\xff" * 32
    last = np.frombuffer(b"".join(masks[n:32 + n] for n in range(33)), (np.void, 32))
    down = np.cumprod([1] + [10] * _DIGITS, dtype=np.longdouble)
    down.setflags(write=False)
    return last, down


def _words(text: bytes, starts: np.ndarray) -> np.ndarray:
    # The 32 bytes of text from each place of starts, as rows of four
    # little-endian words; the windows overlap, so they are read as items
    # of 32 bytes at a stride of one byte.
    item = np.dtype((np.void, 32))
    return np.ndarray((len(text) - 31,), item, text, strides=(1,))[starts].view(_WORD).reshape(-1, 4)


def _digit_values(w: np.ndarray, digits: np.ndarray) -> np.ndarray | None:
    """The last ``digits`` bytes of each row of four words w as the integers
    of their digits, eight to a word, in place; None if one of them is not
    a digit."""
    w ^= _ZEROS
    w &= _parse_tables()[0].take(digits).view(_WORD).reshape(w.shape)
    # A digit less "0", plus 6, stays below 16.
    if np.bitwise_or.reduce(w + 0x0606060606060606, axis=None) & 0xF0F0F0F0F0F0F0F0:
        return None
    # The eight digit values of a word, its first byte the leading digit,
    # become pairs, fours and then one integer (Lemire 2021).
    w *= 10 * 2**8 + 1
    w >>= 8
    w &= 0x00FF00FF00FF00FF
    w *= 100 * 2**16 + 1
    w >>= 16
    w &= 0x0000FFFF0000FFFF
    w *= 10000 * 2**32 + 1
    w >>= 32
    return w


def _parse_block(data: bytes, width: int | None) -> np.ndarray | None:
    """The rows of ``data``, whole lines, as float() reads their values;
    None unless the block is in this grammar and the values of its first
    row average more than _FAST_BYTES bytes.

    Each row ends in "\n" and is as wide as ``width`` or the first.  One
    "," parts its values if the block holds one, else one " ".  A value is
    [+-]D[.D], D digits, in all 1 to _DIGITS of them with M < _DIGIT_MAX:
    fixed notation, so a block holding an "e" is refused.
    """
    # A "," after the first row is in a token if the first holds none, and
    # fails the block below.
    first = data.find(b"\n") + 1
    sep = b"," if data.find(b",", 0, first) >= 0 else b" "
    # A first row of other than `width` values fails the block below.
    if (not _EXTENDED or first <= _FAST_BYTES * (width or data.count(sep, 0, first) + 1)
            or not data.endswith(b"\n") or b"e" in data):
        return None
    b = np.frombuffer(data, np.uint8)
    # Each byte that is not a separator, a sign or "." lies in a window that
    # _digit_values checks, which fails every ASCII byte but a digit; bytes
    # 0xCA to 0xCF would pass it.
    if not b.max() < 0x80:
        return None
    last, down = _parse_tables()
    ends = np.flatnonzero((b == sep[0]) | (b == ord("\n")))
    newline = b[ends] == ord("\n")
    width = width or int(np.argmax(newline)) + 1
    if ends.size % width or not newline[width - 1::width].all() or np.count_nonzero(newline) * width != ends.size:
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    lead = b[starts]
    negative = lead == ord("-")

    # A value holds one "." at most, `fraction` digits before its end (32
    # where it holds none, so that no byte moves); `scale` is f.
    at = np.flatnonzero(b == ord("."))
    if at.size == ends.size and (at >= starts).all() and (at < ends).all():
        fraction = ends - at
        fraction -= 1
        scale = fraction
        digits = ends - starts
        digits -= 1
    else:
        token = np.searchsorted(ends, at)
        if (np.diff(token) == 0).any():
            return None
        fraction = np.full(ends.size, 32)
        fraction[token] = ends[token] - at - 1
        scale = np.zeros(ends.size, np.intp)
        scale[token] = fraction[token]
        digits = ends - starts
        digits[token] -= 1
    digits -= negative | (lead == ord("+"))
    del starts, lead, at
    if not (digits.min() >= 1 and digits.max() <= _DIGITS):
        return None

    # The 32 bytes before a value's end, from a text in which every window
    # starts 32 bytes before its end in the block; those before its "."
    # move up by one byte, over the ".", so that its digits end the window.
    w = _words(bytes(32) + data, ends)
    words = w.reshape(-1)
    moved = words << 8
    moved[1:] |= words[:-1] >> 56
    words ^= moved
    words &= last.take(fraction).view(_WORD)
    words ^= moved
    del moved, fraction
    w = _digit_values(w, digits)
    del digits
    if w is None or not w[:, 1].max() < _DIGIT_MAX // 10**16:
        return None
    m = w[:, 1] * 10**16
    m += w[:, 2] * 10**8
    m += w[:, 3]
    del w

    v = m.astype(np.longdouble)
    del m
    v /= down.take(scale)
    values = v.astype(float)
    np.negative(values, out=values, where=negative)
    for i in np.flatnonzero((v.view(np.uint64)[::2] & 0x7FF) == 0x400).tolist():
        values[i] = float(data[ends[i - 1] + 1 if i else 0:ends[i]])
    return values.reshape(-1, width)
