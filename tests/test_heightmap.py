"""Heightmap IO, histograms, gradients, Gaussian fits, synthetic surfaces."""

import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from proxint import (
    FitError,
    Heightmap,
    HeightDistribution,
    InvalidParameterError,
    NumericError,
    ParseError,
    case_number,
    compose_gradient,
    convolve,
    curve_from_csv,
    distribution_from_histogram,
    dome_distribution,
    empirical_distribution,
    evaluate,
    fit_gaussian,
    gradient_distribution,
    load_heightmap,
    projected_area,
    pyramid_distribution,
    save_heightmap,
    shift_to_contact,
    sphere_distribution,
    synthesize_surface,
    truncated_gaussian_distribution,
)
from proxint import _fmt as fmt_module
from proxint import heightmap as heightmap_module
from proxint._fmt import _scan_lines
from proxint.distributions import (distribution_to_text, read_distribution, text_to_distribution,
                                  write_distribution)
from proxint.heightmap import Histogram, _gaussian_bin_masses

from conftest import traced_peak
from convolution_oracle import assert_same_segments
from synthesis_oracle import gradient_weights, synthesize_heights

R = 50000.0


class TestLoadSave:
    def test_header_round_trip(self, tmp_path):
        hm = Heightmap(1.0, 1.0, np.array([[0.0, 1.0], [2.0, 3.0]]))
        path = tmp_path / "map.txt"
        save_heightmap(hm, path)
        back = load_heightmap(path)
        assert back.nx == 2 and back.ny == 2
        np.testing.assert_array_equal(back.values, hm.values)

    def test_round_trip_17_digits(self, tmp_path):
        rng = np.random.default_rng(7)
        hm = Heightmap(0.37, 1.29, rng.uniform(0.0, 1e4, (5, 9)))
        path = tmp_path / "map.txt"
        save_heightmap(hm, path)
        back = load_heightmap(path)
        np.testing.assert_array_equal(back.values, hm.values)
        assert back.dx == hm.dx and back.dy == hm.dy

    def test_undecodable_file_is_parse_error(self, tmp_path):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe# heightmap v1 nx=2 ny=2 dx=1 dy=1\n0 1\n2 3\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: cannot decode as text")):
            load_heightmap(path)

    def test_headerless_csv_needs_spacings(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("0,1\n2,3\n")
        with pytest.raises(ParseError, match="dx"):
            load_heightmap(path)
        hm = load_heightmap(path, dx=2.0, dy=3.0)
        assert hm.dx == 2.0 and hm.values[1, 1] == 3.0

    @pytest.mark.parametrize("dx, dy", [(5.0, 7.0), (5.0, None), (None, 7.0)])
    def test_header_refuses_supplied_spacings(self, tmp_path, dx, dy):
        save_heightmap(Heightmap(2.0, 3.0, np.zeros((2, 2))), tmp_path / "map.txt")
        with pytest.raises(ParseError) as info:
            load_heightmap(tmp_path / "map.txt", dx=dx, dy=dy)
        assert str(info.value) == ("line 1: the header gives dx=2 dy=3; "
                                   "dx and dy may be supplied only for a headerless file")

    def test_nan_entry_names_cell(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("0,1\n2,nan\n")
        with pytest.raises(ParseError, match="line 2, column 2"):
            load_heightmap(path, dx=1.0, dy=1.0)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("0,1\n2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_heightmap(path, dx=1.0, dy=1.0)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("# heightmap v1 nx=3 ny=2 dx=1 dy=1\n0 1\n2 3\n")
        with pytest.raises(ParseError, match="nx"):
            load_heightmap(path)

    @pytest.mark.parametrize("dx, dy", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf), (0.0, 1.0), (1.0, -2.0),
    ])
    def test_spacings_must_be_positive_and_finite(self, dx, dy):
        with pytest.raises(InvalidParameterError, match="grid spacings"):
            Heightmap(dx, dy, np.zeros((2, 2)))

    @pytest.mark.parametrize("field", ["dx=nan", "dx=inf", "dx=-inf"])
    def test_non_finite_header_spacing_rejected(self, tmp_path, field):
        path = tmp_path / "map.txt"
        path.write_text(f"# heightmap v1 nx=2 ny=2 {field} dy=1\n0 1\n2 3\n")
        with pytest.raises(InvalidParameterError, match="grid spacings"):
            load_heightmap(path)

    def test_non_finite_supplied_spacing_rejected(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("0,1\n2,3\n")
        with pytest.raises(InvalidParameterError, match="grid spacings"):
            load_heightmap(path, dx=math.nan, dy=1.0)

    # Spacings whose reciprocal, cell area or grid area leaves the normal
    # floats, each named.
    @pytest.mark.parametrize("dx, dy, message", [
        (1e-320, 1e-320, "grid spacing dx=1e-320: 1/dx is not a normal float"),
        (1.0, 1e-309, "grid spacing dy=1e-309: 1/dy is not a normal float"),
        (1e308, 1.0, "grid spacing dx=1e+308: 1/dx is not a normal float"),
        (1e300, 1e300, "grid spacings dx=1e+300 dy=1e+300: cell area dx*dy is not a normal float"),
        (1e-200, 1e-200, "grid spacings dx=1e-200 dy=1e-200: cell area dx*dy is not a normal float"),
        (1e154, 1e154, "grid spacings dx=1e+154 dy=1e+154: the area of the 2x2 grid is not a finite float"),
    ])
    def test_spacings_outside_the_normal_floats_named(self, dx, dy, message):
        with pytest.raises(InvalidParameterError) as info:
            Heightmap(dx, dy, np.zeros((2, 2)))
        assert str(info.value) == message


def _save_per_value(hm, path):
    # Reference writer, one "%.17g" call per value: save_heightmap must
    # write the same bytes.
    with open(path, "w") as fh:
        fh.write(f"# heightmap v1 nx={hm.nx} ny={hm.ny} dx={'%.17g' % hm.dx} dy={'%.17g' % hm.dy}\n")
        for row in hm.values:
            fh.write(" ".join("%.17g" % v for v in row) + "\n")


# Finite doubles over the whole range, with the subnormal, extreme and
# signed-zero values drawn often.
DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -2.2250738585072014e-308, 1e300, -1e300, -0.0, 1.7976931348623157e308]),
)


@st.composite
def grid_files(draw, numpy_readable=False):
    """(file text, values, header?) for a grid of random doubles.

    Rows are v1 (space or tab separated, with header) or headerless CSV,
    with CRLF or LF endings, leading and trailing blanks and blank lines.
    With ``numpy_readable`` the file holds only what numpy's reader takes
    as the line scanner does (no whitespace-only lines in CSV); without it
    one cell may be written as a token only the scanner reads, so that the
    blocks of one file can go to both readers.
    """
    values = draw(arrays(float, array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=6), elements=DOUBLES))
    ny, nx = values.shape
    odd = None
    if not numpy_readable and draw(st.booleans()):
        odd = draw(st.integers(0, ny - 1)), draw(st.integers(0, nx - 1))
        values[odd] = 10.0
        odd_token = draw(st.sampled_from(["1_0", "\uff11\uff10"]))
    header = draw(st.booleans())
    if header:
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        blanks = ["", " ", "\t", "  \t"]
    else:
        sep = draw(st.sampled_from([",", ", ", " ,\t", "\t,"]))
        blanks = [""] if numpy_readable else ["", " ", "\t"]
    fmt = draw(st.sampled_from(["%.17g", "%r", "%.20e"]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"# heightmap v1 nx={nx} ny={ny} dx=1 dy=1"] if header else []
    for j, row in enumerate(values):
        lines += draw(st.lists(st.sampled_from(blanks), max_size=2))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        cells = [fmt % v for v in row.tolist()]
        if odd is not None and odd[0] == j:
            cells[odd[1]] = odd_token
        lines.append(pad + sep.join(cells) + draw(st.sampled_from(["", " ", "\t "])))
    text = eol.join(lines) + draw(st.sampled_from(["", eol] + [eol + b + eol for b in blanks]))
    return text, values, header


def _write_raw(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _load_in_blocks(path, block_chars, dx=None, dy=None):
    # load_heightmap with blocks of lines of at least `block_chars` characters.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fmt_module, "_BLOCK_CHARS", block_chars)
        return load_heightmap(path, dx=dx, dy=dy)


# The reader's own block size, and one of a few characters, at which rows,
# blank lines and commas fall in different blocks.
BLOCK_SIZES = pytest.mark.parametrize("block_chars", [fmt_module._BLOCK_CHARS, 5])

# A value of 17 significant digits, as FMT writes most doubles.
LONG = "1.2345678901234567"


def _wide(cells, sep=" "):
    # Two rows of 24 LONG values and then `cells` (the second row's all
    # LONG): each row averages more than 15 digits a value, so that the
    # exact reader takes it up.
    width = 24 + len(cells.split(sep))
    return sep.join([LONG] * 24 + [cells]) + "\n" + sep.join([LONG] * width) + "\n"


@BLOCK_SIZES
class TestReaderMatchesLineScanner:
    """load_heightmap reads every file as the token-by-token scanner does."""

    @given(grid_files())
    def test_random_grids_bit_exact(self, tmp_path_factory, block_chars, case):
        text, values, header = case
        path = tmp_path_factory.mktemp("grid") / "map.txt"
        _write_raw(path, text)
        hm = _load_in_blocks(path, block_chars, dx=None if header else 1.0, dy=None if header else 1.0)
        with open(path) as fh:
            lines = fh.read().splitlines()
        scanned = _scan_lines(lines[1:], 1) if header else _scan_lines(lines, 0)
        assert hm.values.tobytes() == scanned.tobytes()
        assert hm.values.tobytes() == values.tobytes()

    @given(grid_files(numpy_readable=True))
    def test_well_formed_files_skip_the_line_scanner(self, tmp_path_factory, block_chars, case):
        text, values, header = case
        path = tmp_path_factory.mktemp("grid") / "map.txt"
        _write_raw(path, text)

        def refuse(*args):
            raise AssertionError("well-formed file reached the line scanner")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fmt_module, "_scan_lines", refuse)
            hm = _load_in_blocks(path, block_chars, dx=None if header else 1.0, dy=None if header else 1.0)
        assert hm.values.tobytes() == values.tobytes()

    HEADER = "# heightmap v1 nx=2 ny=2 dx=1 dy=1\n"

    # Each malformed or unusual file, with the values or the exact
    # ParseError text the token-by-token reader gives it.
    @pytest.mark.parametrize("text, expected", [
        (HEADER + "0 1\n2 nan\n", "line 3, column 2: non-finite value 'nan'"),
        ("0,inf\n2,3\n", "line 1, column 2: non-finite value 'inf'"),
        ("0 1\n-inf 3\n", "line 2, column 1: non-finite value '-inf'"),
        (HEADER + "0 1e400\n2 3\n", "line 2, column 2: non-finite value '1e400'"),
        ("1_0 1\n2 3\n", [[10.0, 1.0], [2.0, 3.0]]),
        ("\u0661\u0662 1\n2 3\n", [[12.0, 1.0], [2.0, 3.0]]),
        (HEADER + "0 \uff11\n2 3\n", [[0.0, 1.0], [2.0, 3.0]]),
        ("0,1\n2 3\n", [[0.0, 1.0], [2.0, 3.0]]),
        (HEADER + "0 1\n2,3\n", [[0.0, 1.0], [2.0, 3.0]]),
        ("0,1,\n2,3,\n", "line 1, column 3: not a number: ''"),
        ("0,,1\n2,3,4\n", "line 1, column 2: not a number: ''"),
        (HEADER + "0 1 # note\n2 3\n", "line 2, column 3: not a number: '#'"),
        ("0x1 1\n2 3\n", "line 1, column 1: not a number: '0x1'"),
        ("0 1\n2\n", "line 2: row has 1 values, expected 2"),
        (HEADER + "0,1\n2,3,4\n", "line 3: row has 3 values, expected 2"),
        ("# heightmap v1 nx=3 ny=2 dx=1 dy=1\n0 1\n2 3\n", "grid is 2x2, header says ny=2 nx=3"),
        ("# heightmap v1 nx=2 ny=3 dx=1 dy=1\n0 1\n2 3\n", "grid is 2x2, header says ny=3 nx=2"),
        (HEADER, "no data rows"),
        (HEADER + "\n  \n\t\n", "no data rows"),
        ("", "line 1: empty heightmap file"),
        ("# heightmap v1 ny=2 dx=1 dy=1\n0 1\n2 3\n", "line 1: malformed header fields ('nx')"),
        # Line breaks of str.splitlines() that numpy reads as column gaps.
        ("0 1\f2 3\n4 5\f6 7\n", [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]),
        ("0 1\v2 3\n4 5\x1c6 7\n", [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]),
        ("0 1\r2 3\r", [[0.0, 1.0], [2.0, 3.0]]),
        ("0,1\n  \n2,3\n", [[0.0, 1.0], [2.0, 3.0]]),
        # numpy strips "\x1f" around a number; float() does not.
        ("0,\x1f1\n2,3\n", "line 1, column 2: not a number: '\\x1f1'"),
        ("0 1\x002\n3 4\n", "line 1, column 2: not a number: '1\\x002'"),
        # A header line ended by a break the "\n" split does not see.
        ("# heightmap v1 nx=2 ny=1 dx=1 dy=1\f0 1\n2 3\n", "grid is 2x2, header says ny=1 nx=2"),
        # Tokens outside the exact reader's grammar, in rows it takes up.
        pytest.param(_wide("."), "line 1, column 25: not a number: '.'", id="."),
        pytest.param(_wide("+"), "line 1, column 25: not a number: '+'", id="+"),
        pytest.param(_wide("-."), "line 1, column 25: not a number: '-.'", id="-."),
        pytest.param(_wide("1.2.3"), "line 1, column 25: not a number: '1.2.3'", id="1.2.3"),
        pytest.param(_wide("1e"), "line 1, column 25: not a number: '1e'", id="1e"),
        pytest.param(_wide("e5"), "line 1, column 25: not a number: 'e5'", id="e5"),
        pytest.param(_wide("0\r1"), "line 2: row has 1 values, expected 25", id="0\r1"),
        pytest.param(_wide("1,,2", ","), "line 1, column 26: not a number: ''", id="1,,2"),
    ])
    def test_malformed_and_unusual_files(self, tmp_path, block_chars, text, expected):
        path = tmp_path / "map.txt"
        _write_raw(path, text)
        # Spacings are supplied for a headerless file only.
        spacings = {} if text.startswith("#") else {"dx": 1.0, "dy": 1.0}
        if isinstance(expected, str):
            with pytest.raises(ParseError, match=re.escape(expected)) as info:
                _load_in_blocks(path, block_chars, **spacings)
            assert str(info.value) == expected
        else:
            hm = _load_in_blocks(path, block_chars, **spacings)
            np.testing.assert_array_equal(hm.values, expected)


class TestBlockReader:
    """Files of many blocks: the scanner's messages, and bounded memory."""

    @staticmethod
    def _grid_text(rows=200, cols=100):
        # 17-digit values, ~380 kB: five or more blocks of lines.
        values = np.random.default_rng(3).uniform(0.0, 1e4, (rows, cols))
        lines = [" ".join("%.17g" % v for v in row) for row in values]
        assert sum(map(len, lines)) > 5 * fmt_module._BLOCK_CHARS
        return values, lines

    @pytest.mark.parametrize("last, expected", [
        ("1 2 nan", "line 201, column 3: non-finite value 'nan'"),
        ("1 2", "line 201: row has 2 values, expected 100"),
        ("1 # 2", "line 201, column 2: not a number: '#'"),
    ])
    @BLOCK_SIZES
    def test_malformed_line_in_last_block(self, tmp_path, block_chars, last, expected):
        _, lines = self._grid_text()
        path = tmp_path / "map.csv"
        path.write_text("\n".join(lines + [last]) + "\n")
        with pytest.raises(ParseError) as info:
            _load_in_blocks(path, block_chars, dx=1.0, dy=1.0)
        assert str(info.value) == expected

    @BLOCK_SIZES
    def test_comma_rows_in_last_block_split_as_the_scanner(self, tmp_path, block_chars):
        values, lines = self._grid_text()
        path = tmp_path / "map.csv"
        lines[-2:] = [ln.replace(" ", ",") for ln in lines[-2:]]
        path.write_text("\n".join(lines) + "\n")
        assert _load_in_blocks(path, block_chars, dx=1.0, dy=1.0).values.tobytes() == values.tobytes()

    @BLOCK_SIZES
    def test_many_blocks_bit_exact(self, tmp_path, block_chars):
        values, lines = self._grid_text()
        path = tmp_path / "map.txt"
        path.write_text("# heightmap v1 nx=100 ny=200 dx=1 dy=1\n" + "\n \n".join(lines) + "\n")
        assert _load_in_blocks(path, block_chars).values.tobytes() == values.tobytes()

    def test_header_size_is_not_allocated(self, tmp_path):
        # 10^12 cells would be 8 TB: the reader must meet the two rows
        # before it trusts the header, and then report the mismatch.
        path = tmp_path / "map.txt"
        path.write_text("# heightmap v1 nx=1000000 ny=1000000 dx=1 dy=1\n0 1\n2 3\n")
        expected = "grid is 2x2, header says ny=1000000 nx=1000000"

        def load():
            with pytest.raises(ParseError) as info:
                load_heightmap(path)
            assert str(info.value) == expected

        assert traced_peak(load) < 1 << 20

    @BLOCK_SIZES
    def test_undecodable_bytes_after_a_bad_line(self, tmp_path, block_chars):
        # The bad line's block is scanned first; the rest of the file is
        # still decoded before its error is reported.
        path = tmp_path / "map.txt"
        path.write_bytes(b"0 1\n2 x\n" + 20000 * b"4 5\n" + b"\xff\n")
        with pytest.raises(ParseError, match="cannot decode as text"):
            _load_in_blocks(path, block_chars, dx=1.0, dy=1.0)

    @BLOCK_SIZES
    def test_line_numbers_continue_after_a_split_line(self, tmp_path, block_chars):
        # "\f" ends a line for the scanner but not for the block reader.
        path = tmp_path / "map.txt"
        _write_raw(path, "0 1\f2 3\n" + 20 * "4 5\n" + "6 nan\n")
        with pytest.raises(ParseError) as info:
            _load_in_blocks(path, block_chars, dx=1.0, dy=1.0)
        assert str(info.value) == "line 23, column 2: non-finite value 'nan'"

    def test_scanned_block_is_read_on_its_own(self, tmp_path):
        # One token only the scanner reads, in a middle block of a 256^2
        # scan: the same values as the clean file, without a copy of the text.
        n = 256
        values = np.random.default_rng(5).uniform(0.0, 1e3, (n, n))
        values[n // 2, 3] = 10.0
        save_heightmap(Heightmap(1.0, 1.0, values), tmp_path / "clean.txt")
        lines = (tmp_path / "clean.txt").read_text().split("\n")
        cells = lines[1 + n // 2].split(" ")
        assert cells[3] == "10"
        cells[3] = "1_0"
        lines[1 + n // 2] = " ".join(cells)
        (tmp_path / "odd.txt").write_text("\n".join(lines))
        odd = load_heightmap(tmp_path / "odd.txt")
        assert odd.values.tobytes() == load_heightmap(tmp_path / "clean.txt").values.tobytes()
        assert traced_peak(lambda: load_heightmap(tmp_path / "odd.txt")) <= 2.5 * n * n * 8



# Doubles at FMT's switches between fixed and exponent notation, which
# bound the exact reader's range, at powers of ten on either side, and
# about 2^53, with their neighbours a ulp away.
def _reader_edges():
    edges = [0.0, -0.0, 2.0**53, 2.0**53 + 2, 2.0**64]
    for p in (-12, -11, -10, -5, -4, -3, 16, 17, 18, 27, 28, 29, 43, 44, 45):
        power = float(f"1e{p}")
        edges += [np.nextafter(power, 0.0), power, np.nextafter(power, np.inf)]
    return edges + [-v for v in edges]


READER_EDGES = _reader_edges()


@st.composite
def decimal_tokens(draw):
    """(token, M, q): a decimal string of 1 to 20 digits, with an optional
    sign, point and exponent, and the digit integer and decimal scale it
    has (M 10^q)."""
    digits = draw(st.text("0123456789", min_size=1, max_size=20))
    point = draw(st.none() | st.integers(0, len(digits)))
    sign = draw(st.sampled_from(["", "-", "+"]))
    token = sign + (digits if point is None else digits[:point] + "." + digits[point:])
    q = 0 if point is None else point - len(digits)
    if draw(st.booleans()):
        esign, e, width = draw(st.sampled_from(["", "-", "+"])), draw(st.integers(0, 45)), draw(st.integers(1, 3))
        token += "e%s%0*d" % (esign, width, e)
        q += -e if esign == "-" else e
    return token, int(digits), q


# Tokens whose M / 10^f, rounded to the 64 bits of an extended double, lies
# on a midpoint of two doubles, where a second rounding to a double misses
# float()'s: found by a seeded search over the midpoints of random doubles,
# in fixed notation, the last two with a scale of 21 and 23.
MIDPOINT_TOKENS = [
    "69.1001142966476678", "17086361538.6787920", "17751.5271719806060", "855291499172.539978",
    "9329.2556933662554", "295.87529500555965", "0.000775528982614568155", "0.00000225109314227270526",
]


def _extended(token):
    # M / 10^f rounded once to an extended double, as the exact reader forms it.
    whole, _, fraction = token.partition(".")
    return np.longdouble(int(whole + fraction)) / np.longdouble(f"1e{len(fraction)}")


def _parse(text):
    return fmt_module._parse_block(text.encode(), None)


@pytest.mark.skipif(not fmt_module._EXTENDED, reason="the exact reader needs the x87 extended double")
class TestExactReader:
    """``_fmt._parse_block`` reads each value it takes as float() does."""

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([b" ", b","]), st.lists(st.sampled_from(READER_EDGES), max_size=20))
    def test_written_values_read_back_bit_for_bit(self, seed, sep, edges):
        # Random doubles of 10^-29 to 10^46, either sign, with edge values
        # dropped in: the text write_rows gives reads back as the same doubles.
        rng = np.random.default_rng(seed)
        shape = int(rng.integers(1, 40)), int(rng.integers(1, 300))
        vals = rng.integers(10**16, 10**17, shape) * 10.0 ** rng.integers(-45, 30, shape)
        vals *= rng.choice([-1.0, 1.0], shape)
        for value in edges:
            vals.flat[rng.integers(0, vals.size)] = value
        text = b"".join(fmt_module.write_rows(vals, sep)).decode()
        back = fmt_module.read_rows(text.splitlines(keepends=True), 0)
        assert back.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("sep", [b" ", b","])
    def test_written_range_takes_no_other_reader(self, sep):
        # 10^-4 to 10^16, FMT's fixed notation: neither numpy nor the line
        # scanner reads a block.
        rng = np.random.default_rng(8)
        shape = (300, 257)
        vals = rng.integers(10**16, 10**17, shape) * 10.0 ** rng.integers(-20, 0, shape)
        vals *= rng.choice([-1.0, 1.0], shape)
        vals[::7, ::5] = 0.0
        assert ((vals == 0.0) | (np.abs(vals) >= 1e-4) & (np.abs(vals) < 1e16)).all()
        lines = b"".join(fmt_module.write_rows(vals, sep)).decode().splitlines(keepends=True)

        def refuse(*args, **kwargs):
            raise AssertionError("a block in the exact reader's grammar went to another reader")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "loadtxt", refuse)
            mp.setattr(fmt_module, "_scan_lines", refuse)
            back = fmt_module.read_rows(lines, 0)
        assert back.tobytes() == vals.tobytes()

    @settings(max_examples=500)
    @given(decimal_tokens(), st.sampled_from([" ", ","]))
    def test_decimal_strings_match_float(self, case, sep):
        # A token in a row of LONG values: taken if it has no exponent and
        # its M is in the grammar's range, and then read as float() reads it.
        token, m, q = case
        got = _parse(sep.join([token] + [LONG] * 8) + "\n")
        if "e" not in token and m < 10**18:
            assert got is not None, token
            assert got[0, 0].tobytes() == np.float64(float(token)).tobytes(), token
            assert (got[0, 1:] == float(LONG)).all()
        else:
            assert got is None, token

    @pytest.mark.parametrize("token, taken", [
        ("0." + "0" * 22 + "1", True), ("0." + "0" * 23 + "1", False), ("1" + "0" * 24, False),
    ])
    def test_at_most_24_digits(self, token, taken):
        # The digits of a window's last three words, and no more: a 25th
        # digit would fall in its first word, which is not read.
        got = _parse(" ".join([token] + [LONG] * 8) + "\n")
        if taken:
            assert got[0, 0].tobytes() == np.float64(float(token)).tobytes()
        else:
            assert got is None

    def test_midpoint_tokens_take_float(self):
        # Each extended double lies on a midpoint, so its own rounding to a
        # double is not float()'s; the reader gives float()'s.
        for token in MIDPOINT_TOKENS:
            v = _extended(token)
            assert np.array([v]).view(np.uint64)[0] & 0x7FF == 0x400, token
            assert float(v) != float(token), token
        # 2^53 + 1 is a midpoint itself, rounded half-even either way.
        tokens = MIDPOINT_TOKENS + ["9007199254740993", "9007199254740993.00"]
        got = _parse(" ".join(tokens) + "\n" + " ".join("-" + t for t in tokens) + "\n")
        assert got.tobytes() == np.array([[float(t) for t in tokens], [-float(t) for t in tokens]]).tobytes()

    def test_short_values_go_to_numpy(self):
        # numpy reads short values faster: the exact reader leaves rows of
        # 15 bytes a value or fewer.
        assert _parse(" ".join(["4980.46875"] * 9) + "\n") is None
        assert _parse(" ".join(["12345.67890123"] * 9) + "\n") is None
        assert _parse(" ".join(["123456.78901234"] * 9) + "\n") is not None

    # Two blocks that _parse_block takes, one for each separator, of values
    # as FMT writes them in fixed notation: signs, "0.000", 16 integer
    # digits and a decimal scale of 20, FMT's largest.
    MUTATED = [
        b" ".join(b"%.17g" % v for v in (-1588.9088430643096, 0.00012345678901234567, 0.00098765432109876543)) + b"\n",
        b",".join(b"%.17g" % v for v in (1234567890123456.8, -0.00070000000000000018, 0.1)) + b"\n",
    ]

    @pytest.mark.parametrize("block", MUTATED, ids=["space", "comma"])
    def test_one_byte_mutations_read_as_the_line_scanner(self, block):
        # Every ASCII byte at every place of the block: the reader refuses
        # the block or reads the doubles the line scanner reads.
        assert _parse(block.decode()).tobytes() == _scan_lines(block.decode().splitlines(), 0).tobytes()
        for at in range(len(block)):
            for byte in range(128):
                data = block[:at] + bytes([byte]) + block[at + 1:]
                got = fmt_module._parse_block(data, None)
                if got is not None:
                    text = data.decode()
                    assert got.tobytes() == _scan_lines(text.splitlines(), 0).tobytes(), text

    def test_bytes_past_ascii_are_refused(self):
        # 0xCA less "0" plus 6 carries out of its byte, so that the digit
        # check alone would take it for a digit.
        block = self.MUTATED[0]
        at = block.index(b"8")
        assert fmt_module._parse_block(block[:at] + b"\xca" + block[at + 1:], None) is None

    def test_powers_of_ten_are_exact(self):
        down = fmt_module._parse_tables()[1]
        assert [int(p) for p in down] == [10**f for f in range(25)]

    @pytest.mark.parametrize("sep", [" ", ","])
    def test_exponent_notation_goes_to_numpy(self, sep):
        # A block with one exponent token, in a row of LONG values, is
        # refused by the exact reader and read as float() reads it.
        for token in ("1.2345678901234567e-05", "-6.0399717429129534e+35", "5e-324", "1E+16"):
            text = sep.join([LONG] * 4 + [token] + [LONG] * 4) + "\n"
            assert _parse(text) is None, token
            back = fmt_module.read_rows([text, text], 0)
            expected = [float(LONG)] * 4 + [float(token)] + [float(LONG)] * 4
            assert back.tobytes() == np.array([expected, expected]).tobytes(), token

    @pytest.mark.parametrize("sep", [b" ", b","])
    def test_values_outside_the_fixed_range_take_the_template(self, sep):
        # Every value that is not zero and not in [10^-4, 10^16), written
        # alone or between values of the array path, is FMT's text.
        rng = np.random.default_rng(12)
        outside = rng.integers(10**16, 10**17, 400) * 10.0 ** rng.integers(-340, 292, 400)
        outside = outside[(outside < 1e-4) | (outside >= 1e16)]
        edges = [np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e17, 0.0), 1e17, 9.9e-5, 1e-6, 5e-324,
                 np.finfo(float).max, np.inf, np.nan]
        outside = np.concatenate([outside, edges])
        outside = np.concatenate([outside, -outside])
        inside = rng.uniform(-1e3, 1e3, len(outside))

        def expected(block):
            return ("".join(sep.decode() + "%.17g" % v for v in block.tolist())).encode()

        mixed = np.column_stack([outside, inside]).ravel()
        for block in (outside, mixed):
            assert fmt_module._format_block(block, slice(0, 0), sep).tobytes() == expected(block)


# The three readers of rows of numbers, each after its own head: a heightmap
# file, a curve CSV with a comment line, and both kinds of distribution text.
HEADS = {
    "heightmap": "# heightmap v1 nx=2 ny=2 dx=1 dy=1\n",
    "curve": "# provenance\nd_nm,I_nW\n",
    "sampled": "# height-distribution v1, kind=sampled, unit_area=0\n",
    "analytic": "# height-distribution v1, kind=analytic, unit_area=0\n",
}


def _read_text(tmp_path, reader, text):
    if reader == "heightmap":
        _write_raw(tmp_path / "map.txt", text)
        return load_heightmap(tmp_path / "map.txt")
    return (curve_from_csv if reader == "curve" else text_to_distribution)(text)


class TestOneReader:
    """Every reader of rows of numbers reports a fault with the one message
    of ``_fmt.read_line`` and ``_fmt.read_rows``, on physical lines."""

    @pytest.mark.parametrize("reader, body, expected", [
        # A bad token after a blank line.
        ("heightmap", "0 1\n\n2 x\n", "line 4, column 2: not a number: 'x'"),
        ("curve", "1,2\n\n3,x\n", "line 5, column 2: not a number: 'x'"),
        ("sampled", "\n0,1\n\n1,abc\n", "line 5, column 2: not a number: 'abc'"),
        ("analytic", "0,1,1\n\n1,2,x\n", "line 4, column 3: not a number: 'x'"),
        # A non-finite token.
        ("heightmap", "0 1\n2 inf\n", "line 3, column 2: non-finite value 'inf'"),
        ("curve", "1,-inf\n", "line 3, column 2: non-finite value '-inf'"),
        ("sampled", "0,1\n1,1e400\n", "line 3, column 2: non-finite value '1e400'"),
        ("analytic", "0,1,nan\n", "line 2, column 3: non-finite value 'nan'"),
        # A short row.
        ("heightmap", "0 1\n\n2\n", "line 4: row has 1 values, expected 2"),
        ("curve", "1,2\n3\n", "line 4: row has 1 values, expected 2"),
        ("sampled", "0\n", "line 2: row has 1 values, expected 2"),
        ("analytic", "0,1,1\n\n1,2\n", "line 4: segment rows need lo,hi,c0,..."),
    ])
    def test_fault_names_line_and_column(self, tmp_path, reader, body, expected):
        with pytest.raises(ParseError) as info:
            _read_text(tmp_path, reader, HEADS[reader] + body)
        assert str(info.value) == expected


WRITE_BLOCK = fmt_module._WRITE_BLOCK


def _writer_edges():
    # Values at and about the edges of the array writer, 1e-4 and 1e16:
    # +-0, every power of ten from 1e-6 to 1e16 with its neighbours a ulp
    # away,
    # values whose 18th significant digit is a 5 followed by zeros, which
    # "%.17g" rounds half-even, and the negatives of all these.
    edges = [0.0, -0.0]
    for j in range(-6, 17):
        power = float(f"1e{j}")
        edges += [np.nextafter(power, 0.0), power, np.nextafter(power, np.inf)]
    for k in range(-6, 16):
        # Odd multiples of 2^(k-17) in [10^k, 10^(k+1)): 17 - k places
        # after the point, so 18 significant digits ending in 5.
        lo, hi = 10.0**k * 2.0 ** (17 - k), min(10.0 ** (k + 1) * 2.0 ** (17 - k), 2.0**53)
        for c in np.linspace(lo, hi, 6)[1:-1]:
            edges.append((2 * math.floor(c / 2) + 1) * 2.0 ** (k - 17))
    return edges + [-v for v in edges]


WRITER_EDGES = _writer_edges()


class TestWriter:
    @given(
        st.lists(st.lists(DOUBLES, min_size=3, max_size=3), min_size=2, max_size=5),
        st.floats(min_value=1e-300, max_value=1e300),
    )
    def test_bytes_match_per_value_writer(self, tmp_path_factory, rows, dx):
        hm = Heightmap(dx, 1.0 / 3.0, np.array(rows))
        out = tmp_path_factory.mktemp("write")
        save_heightmap(hm, out / "rows.txt")
        _save_per_value(hm, out / "values.txt")
        assert (out / "rows.txt").read_bytes() == (out / "values.txt").read_bytes()
        back = load_heightmap(out / "rows.txt")
        assert back.values.tobytes() == hm.values.tobytes()
        assert (back.dx, back.dy) == (hm.dx, hm.dy)

    def test_wide_exponent_grid(self, tmp_path):
        rng = np.random.default_rng(11)
        vals = rng.standard_normal((40, 50)) * 10.0 ** rng.integers(-320, 300, (40, 50))
        hm = Heightmap(0.1, 0.7, vals)
        save_heightmap(hm, tmp_path / "rows.txt")
        _save_per_value(hm, tmp_path / "values.txt")
        assert (tmp_path / "rows.txt").read_bytes() == (tmp_path / "values.txt").read_bytes()
        assert load_heightmap(tmp_path / "rows.txt").values.tobytes() == hm.values.tobytes()

    # Grids of a few blocks: random magnitudes over the array path's range,
    # with edge values dropped in, and with or without one value outside
    # the range, whose block is written through the "%.17g" template.
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 3 * WRITE_BLOCK // 2),
        st.lists(st.sampled_from(WRITER_EDGES), max_size=40),
        st.sampled_from([None, 1e16, -1e17, 1e-6, 9.9e-7, 5e-324, 1e300]),
    )
    def test_blocks_match_per_value_writer(self, tmp_path_factory, seed, nx, edges, outside):
        rng = np.random.default_rng(seed)
        ny = max(2, -(-2 * WRITE_BLOCK // nx) + int(rng.integers(0, 2)))
        vals = 10.0 ** rng.uniform(-6.0, 16.0, (ny, nx)) * rng.choice([-1.0, 1.0], (ny, nx))
        for value in edges + ([] if outside is None else [outside]):
            vals.flat[rng.integers(0, vals.size)] = value
        hm = Heightmap(1.0, 1.0, vals)
        out = tmp_path_factory.mktemp("write")
        save_heightmap(hm, out / "blocks.txt")
        _save_per_value(hm, out / "values.txt")
        assert (out / "blocks.txt").read_bytes() == (out / "values.txt").read_bytes()

    @pytest.mark.parametrize("layer", [
        {"type": "rough", "sigma": 5.0, "xi": 60.0},
        {"type": "pyramid", "height": 200.0, "tile": 500.0},
    ], ids=lambda layer: "cap+" + layer["type"])
    def test_scan_matches_per_value_writer(self, tmp_path, layer):
        hm = synthesize_surface([{"type": "cap", "radius": R}, layer], n=512, extent=8000.0, seed=5)
        save_heightmap(hm, tmp_path / "blocks.txt")
        _save_per_value(hm, tmp_path / "values.txt")
        assert (tmp_path / "blocks.txt").read_bytes() == (tmp_path / "values.txt").read_bytes()

    @pytest.mark.parametrize("outside", [5e-324, -1e300, 1e16, 9.9e-7, float("nan")])
    @pytest.mark.parametrize("sep", [b" ", b","])
    def test_one_outside_value_at_each_block_position(self, sep, outside):
        # Blocks of 16 values in rows of 5, and of the writer's own size: a
        # value outside the array path's range at each place of a block is
        # written between the others as the per-value writer writes it.
        vals = np.random.default_rng(2).uniform(-1e3, 1e3, (8, 5))

        def per_value(v):
            return "".join(sep.decode().join("%.17g" % x for x in row) + "\n" for row in v.tolist()).encode()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fmt_module, "_WRITE_BLOCK", 16)
            for position in range(16, 32):
                v = vals.copy()
                v.flat[position] = outside
                assert b"".join(fmt_module.write_rows(v, sep)) == per_value(v)
        vals = np.random.default_rng(3).uniform(-1e3, 1e3, (3, WRITE_BLOCK))
        for position in (WRITE_BLOCK, WRITE_BLOCK + 1, 2 * WRITE_BLOCK - 1):
            v = vals.copy()
            v.flat[position] = outside
            assert b"".join(fmt_module.write_rows(v, sep)) == per_value(v)

    @pytest.mark.parametrize("sep", [b" ", b","])
    def test_array_path_and_its_fallback(self, sep):
        # Edge values inside the range take the array path, with and
        # without a value FMT writes with a sign or "0.000"; a value outside
        # it, or the double below 1e-4, takes the template, in its place.
        inside = np.array(WRITER_EDGES)
        inside = inside[(inside == 0.0) | (np.abs(inside) >= 1e-4) & (np.abs(inside) < 1e16)]
        plain = inside[~np.signbit(inside) & ((inside == 0.0) | (inside >= 1.0))]

        def expected(block):
            return ("".join(sep.decode() + "%.17g" % v for v in block.tolist())).encode()

        for block in (inside, plain):
            assert fmt_module._format_block(block, slice(0, 0), sep).tobytes() == expected(block)
        for outside in (np.nextafter(1e-4, 0.0), 1e-6, 1e16, 5e-324, 1e300):
            block = np.insert(inside, len(inside) // 2, outside)
            assert fmt_module._format_block(block, slice(0, 0), sep).tobytes() == expected(block)


class TestShiftToContact:
    def test_min_subtraction(self):
        hm = Heightmap(1.0, 1.0, np.array([[3.0, 4.0], [5.0, 3.5]]))
        out = shift_to_contact(hm)
        np.testing.assert_allclose(out.values, [[0.0, 1.0], [2.0, 0.5]])

    def test_idempotent(self):
        hm = shift_to_contact(Heightmap(1.0, 1.0, np.array([[3.0, 4.0], [5.0, 3.5]])))
        assert shift_to_contact(hm) is hm

    def test_first_bin_starts_at_zero(self):
        hm = shift_to_contact(Heightmap(1.0, 1.0, np.array([[3.0, 4.0], [5.0, 3.5]])))
        emp = empirical_distribution(hm, 0.25)
        assert emp.weights[0] > 0


class TestCallerArrays:
    """A constructor keeps a read-only array of its own: the caller's array
    stays writable, and writing to it leaves the stored one as it was."""

    def test_heightmap(self):
        a = np.arange(4.0).reshape(2, 2)
        hm = Heightmap(1.0, 1.0, a)
        a[0, 0] = 9.0
        assert a.flags.writeable and not hm.values.flags.writeable
        assert hm.values.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    def test_histogram(self):
        w = np.array([1.0, 2.0, 3.0])
        hist = Histogram(0.5, w)
        w[0] = 9.0
        assert w.flags.writeable and not hist.weights.flags.writeable
        assert hist.weights.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("make", [
        lambda path: synthesize_surface([CAP, ROUGH], n=32, extent=8000.0),
        lambda path: load_heightmap(path),
        lambda path: shift_to_contact(Heightmap(1.0, 1.0, np.full((4, 4), 2.0))),
    ], ids=["synthesize", "load", "shift"])
    def test_library_grids_are_kept(self, tmp_path, monkeypatch, make):
        # The grid a library function makes is handed over without a copy.
        save_heightmap(Heightmap(1.0, 1.0, np.arange(16.0).reshape(4, 4)), tmp_path / "map.txt")
        given = []
        frozen = heightmap_module._frozen
        monkeypatch.setattr(heightmap_module, "_frozen", lambda a: given.append(a) or frozen(a))
        hm = make(tmp_path / "map.txt")
        assert hm.values is given[-1]


class TestEmpiricalDistribution:
    def test_constant_map_single_bin(self):
        hm = Heightmap(2.0, 3.0, np.zeros((4, 5)))
        emp = empirical_distribution(hm, 1.0)
        assert emp.weights[0] == pytest.approx(hm.area)
        assert np.count_nonzero(emp.weights) == 1

    def test_area_conservation(self):
        rng = np.random.default_rng(3)
        hm = shift_to_contact(Heightmap(0.7, 1.3, rng.uniform(0, 100, (64, 64))))
        emp = empirical_distribution(hm, 0.9)
        assert emp.total_area == pytest.approx(hm.area, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0, 50, (32, 32))
        a = empirical_distribution(shift_to_contact(Heightmap(1.0, 1.0, vals)), 0.5)
        b = empirical_distribution(shift_to_contact(Heightmap(1.0, 1.0, vals + 17.3)), 0.5)
        np.testing.assert_array_equal(a.weights, b.weights)
        # A map off contact bins from its least value with the roundings of
        # shifting it first, at a given width and at the default one.
        off = Heightmap(1.0, 1.0, vals + 17.3)
        for width in (0.5, None):
            c, d = empirical_distribution(off, width), empirical_distribution(shift_to_contact(off), width)
            assert (c.bin_width, c.weights.tobytes()) == (d.bin_width, d.weights.tobytes())

    def test_pyramid_matches_closed_form(self):
        # Single pyramid tile: bin masses follow f = 2 s l^2/h^2 up to the
        # half-cell sampling offset, bounded by 2 * bin_width * f(s).
        h = l = 5000.0
        hm = synthesize_surface([{"type": "pyramid", "height": h, "tile": l}], n=512)
        delta = h / 512
        emp = empirical_distribution(hm, delta)
        edges = np.arange(len(emp.weights) + 1) * delta
        exact = np.diff(edges**2) * l**2 / h**2
        bound = 2.0 * delta * (2 * edges[1:] * l**2 / h**2)
        assert np.all(np.abs(emp.weights - exact) <= bound + 1e-9)

    def test_cap_matches_sphere_distribution(self):
        # Empirical cap histogram against f = 2 pi (R - s), within 1% for
        # bins below R/10 (coarse bins keep granularity noise down).
        hm = synthesize_surface([{"type": "cap", "radius": R}], n=1024, extent=48000.0)
        delta = 250.0
        emp = empirical_distribution(hm, delta)
        kmax = int(R / 10 / delta)
        edges = np.arange(kmax + 1) * delta
        exact = np.diff(np.pi * (2 * R * edges - edges**2))
        rel = np.abs(emp.weights[:kmax] - exact) / exact
        assert rel.max() < 0.01


class TestNonFiniteBins:
    @pytest.mark.parametrize("histogram", [empirical_distribution, gradient_distribution])
    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, 0.0])
    def test_bin_width_rejected(self, histogram, width):
        hm = Heightmap(1.0, 1.0, np.arange(16.0).reshape(4, 4))
        with pytest.raises(InvalidParameterError, match="bin_width must be positive and finite"):
            histogram(hm, width)

    @pytest.mark.parametrize("histogram", [empirical_distribution, gradient_distribution])
    def test_index_past_int64_is_numeric_error(self, histogram):
        hm = Heightmap(1.0, 1.0, np.array([[0.0, 1e300], [2e300, 3e300]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"bin width 1e-10: the largest value 3e\+300 "):
                histogram(hm, 1e-10)

    @pytest.mark.parametrize("width", [math.nan, math.inf, 0.0])
    def test_histogram_width_rejected(self, width):
        with pytest.raises(InvalidParameterError, match="bin_width must be positive and finite"):
            Histogram(width, np.ones(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_histogram_weights_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="bin weights must be finite"):
            Histogram(1.0, np.array([1.0, bad]))


class TestGradientDistribution:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 9), (9, 2), (3, 3), (7, 40), (61, 33)])
    @pytest.mark.parametrize("block", [heightmap_module._BLOCK_VALUES, 1, 80])
    def test_matches_np_gradient_bit_for_bit(self, shape, block):
        # Blocks of one row, of two or more rows and of the whole grid.
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        hm = shift_to_contact(Heightmap(0.37, 1.29, rng.standard_normal(shape) * 50.0))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heightmap_module, "_BLOCK_VALUES", block)
            g = gradient_distribution(hm, 2.5)
        assert g.weights.tobytes() == gradient_weights(hm.values, hm.dx, hm.dy, 2.5).tobytes()

    def test_flat_map_zero(self):
        hm = Heightmap(1.0, 1.0, np.zeros((8, 8)))
        g = gradient_distribution(hm, 1.0)
        assert np.all(g.weights == 0.0)

    def test_plane_total_mass(self):
        # A plane of slope m in x carries total gradient mass A * m^2;
        # central + one-sided differences are exact for linear fields.
        m, dx = 0.37, 2.0
        vals = np.outer(np.ones(64), np.arange(64)) * m * dx
        hm = shift_to_contact(Heightmap(dx, dx, vals))
        g = gradient_distribution(hm, 1.0)
        assert g.weights.sum() == pytest.approx(hm.area * m**2, rel=1e-12)

    def test_pyramid_gradient_identity(self):
        # g(s) = (4 h^2 / l^2) f(s) on pyramid faces; interior bins of a
        # well-resolved tiling agree within 5% (tile edges are excluded by
        # the f-threshold and the top ridge bin carries the stencil kink).
        h, l = 200.0, 500.0
        hm = synthesize_surface([{"type": "pyramid", "height": h, "tile": l}], n=1024,
                                extent=2000.0)
        delta = h / 32
        emp = empirical_distribution(hm, delta)
        g = gradient_distribution(hm, delta)
        target = 4 * h**2 / l**2
        mask = emp.weights > 0.05 * emp.weights.max()
        mask[int(h / delta) - 1:] = False  # ridge bin
        ratio = g.weights[mask] / emp.weights[mask]
        assert np.abs(ratio / target - 1).max() < 0.05

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_off_contact_map_takes_raw_differences(self, seed):
        # Two equal rows that climb from about -1024 to 1024 nm on a grid of
        # 2^-43 nm, with power-of-two spacings and one column per bin.
        # Every difference of neighbours is exact, and so is every step
        # after it but the one squaring, so each bin's weight is the double
        # nearest the exact one.  Differences of the shifted map,
        # (a - vmin) - (b - vmin), round where a - vmin needs 54 bits.
        rng = np.random.default_rng(seed)
        ramp = (np.arange(64) - 31.5) * 32.0 + rng.uniform(-1.0, 1.0, 64)
        row = np.round(ramp * 2.0**43) / 2.0**43
        hm = Heightmap(0.5, 0.25, np.vstack([row, row]))
        g = gradient_distribution(hm, 16.0)
        shifted = gradient_distribution(shift_to_contact(hm), 16.0)
        exact = [Fraction(v) for v in row.tolist()]
        slopes = ([(exact[1] - exact[0]) * 2]
                  + [exact[i + 1] - exact[i - 1] for i in range(1, 63)]
                  + [(exact[63] - exact[62]) * 2])
        bins = np.floor((row - row.min()) / 16.0).astype(int)
        assert len(set(bins.tolist())) == 64
        want = np.zeros(len(g.weights))
        for k, slope in zip(bins.tolist(), slopes):
            want[k] = float(2 * Fraction(0.125) * slope * slope)
        assert g.weights.tolist() == want.tolist()
        assert shifted.weights.tolist() != want.tolist()


class TestFitGaussian:
    def test_recovers_exact_model(self):
        # Histogram sampled exactly from the truncated-Gaussian model.
        sigma, s0, delta = 250.0, 500.0, 25.0
        edges = np.arange(121) * delta
        masses = _gaussian_bin_masses(edges, sigma, s0)[0] * 1e6
        fit = fit_gaussian(Histogram(delta, masses))
        assert fit.sigma == pytest.approx(sigma, rel=0.01)
        assert fit.s0 == pytest.approx(s0, rel=0.01)
        assert fit.residual < 1e-3

    def test_synthetic_rough_surface(self):
        hm = synthesize_surface(
            [{"type": "rough", "sigma": 10.0, "xi": 40.0}], n=256, extent=2560.0, seed=42
        )
        emp = empirical_distribution(hm, 2.0)
        fit = fit_gaussian(emp)
        assert fit.sigma == pytest.approx(10.0, rel=0.15)

    def test_uniform_histogram_large_residual(self):
        emp = Histogram(1.0, np.full(32, 5.0))
        fit = fit_gaussian(emp)
        assert fit.residual > 0.1  # bad fit reported, not raised

    @pytest.mark.parametrize("c", [1e-12, 1e6, 1e-300, 1e250])
    def test_scales_with_bin_width(self, c):
        # The fit runs in bin widths, so it is the fit of unit bins times the
        # bin width, bit for bit, from widths of 1e-299 nm to 1e251 nm.
        sigma, s0, delta = 250.0, 500.0, 25.0
        noise = 1.0 + 0.05 * np.random.default_rng(0).standard_normal(120)
        masses = _gaussian_bin_masses(np.arange(121) * delta, sigma, s0)[0] * 1e6 * noise
        unit = fit_gaussian(Histogram(1.0, masses))
        for width in (delta, delta * c):
            fit = fit_gaussian(Histogram(width, masses))
            assert (fit.sigma, fit.s0, fit.residual) == (unit.sigma * width, unit.s0 * width, unit.residual)

    @pytest.mark.parametrize("sigma, s0", [(9.0, 4.0), (10.0, -15.0), (40.0, 30.0)])
    def test_reaches_the_least_squares_optimum(self, sigma, s0):
        # Against the stationary point of the same cost in 40-digit
        # arithmetic: the relative L2 misfit of the bin masses of unit bins.
        # Drawn from s0 < 0, the histogram falls from contact, and the fit
        # holds s0 at its bound 0, where the cost rises with s0.
        noise = 1.0 + 0.1 * np.random.default_rng(5).standard_normal(48)
        w = _gaussian_bin_masses(np.arange(49.0), sigma, s0)[0] * noise
        fit = fit_gaussian(Histogram(1.0, w))
        assert (fit.s0 == 0.0) == (s0 < 0.0)
        with mpmath.workdps(40):
            y = [mpmath.mpf(v) / mpmath.fsum(w.tolist()) for v in w.tolist()]

            def cost(sig, mu):
                q = [mpmath.erfc((k - mu) / (sig * mpmath.sqrt(2))) for k in range(len(y) + 1)]
                return mpmath.fsum(((q[k] - q[k + 1]) / q[0] - y[k]) ** 2 for k in range(len(y)))

            if fit.s0 == 0.0:
                best = (mpmath.findroot(lambda sig: mpmath.diff(lambda v: cost(v, 0), sig), fit.sigma), 0)
                assert mpmath.diff(lambda mu: cost(best[0], mu), 0, direction=1) > 0
            else:
                best = mpmath.findroot(lambda sig, mu: [mpmath.diff(cost, (sig, mu), (1, 0)),
                                                        mpmath.diff(cost, (sig, mu), (0, 1))],
                                       (fit.sigma, fit.s0))
            residual = mpmath.sqrt(cost(*best) / mpmath.fsum(v * v for v in y))
        assert abs(fit.sigma / best[0] - 1) < 1e-12
        assert abs(fit.s0 - best[1]) < 1e-12 * fit.sigma
        assert abs(fit.residual / residual - 1) < 1e-12

    def test_bin_masses_and_derivatives(self):
        # The masses against 40-digit ones and the derivatives by ln sigma
        # and s0 against central differences of those; from contact to the
        # far tail, where erfc rounds to 0 and is not called.
        edges = np.array([0.0, 0.5, 3.0, 7.25, 12.0, 40.0, 400.0, 500.0])
        sigma, s0 = 2.5, 6.0
        masses, jac = _gaussian_bin_masses(edges, sigma, s0)
        with mpmath.workdps(40):
            def exact(lns, mu):
                sig = mpmath.exp(lns)
                q = [mpmath.erfc((e - mu) / (sig * mpmath.sqrt(2))) for e in edges.tolist()]
                return [(a - b) / q[0] for a, b in zip(q, q[1:])]

            want = exact(mpmath.log(sigma), s0)
            d_lns = [mpmath.diff(lambda v, k=k: exact(v, s0)[k], mpmath.log(sigma)) for k in range(len(want))]
            d_s0 = [mpmath.diff(lambda v, k=k: exact(mpmath.log(sigma), v)[k], s0) for k in range(len(want))]
        for k in range(len(want)):
            assert abs(masses[k] - want[k]) <= 1e-15 * max(abs(want[k]), 1e-300) + 1e-16
            assert abs(jac[0, k] - d_lns[k]) <= 1e-14
            assert abs(jac[1, k] - d_s0[k]) <= 1e-14
        assert masses[-1] == 0.0 < masses[-2]

    def test_saturated_edges_take_erfc_values(self):
        # Edges where erfc rounds to 2 or to 0 are filled, not computed;
        # the masses are those of math.erfc at every edge, bit for bit.
        edges = np.arange(0.0, 4001.0, 0.5)
        for sigma, s0 in [(1.0, 2000.0), (0.3, 17.0), (50.0, 1000.0)]:
            q = np.array([math.erfc((e - s0) * (math.sqrt(0.5) / sigma)) for e in edges.tolist()])
            assert (q == 2.0).any() and (q == 0.0).any()
            masses, _ = _gaussian_bin_masses(edges, sigma, s0)
            assert masses.tobytes() == ((q[:-1] - q[1:]) / q[0]).tobytes()

    def test_singular_normal_equations_raise(self):
        # Nearly all the mass in the first bin: the two derivatives are
        # parallel to the last bits, and the fit says so.
        with pytest.raises(FitError, match="singular normal equations"):
            fit_gaussian(Histogram(1.0, np.r_[1e6, np.ones(20)]))

    def test_failed_fit_raises(self):
        # The total mass overflows: no fit, and a FitError rather than a
        # non-finite result.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(FitError, match="gaussian fit is not finite"):
                fit_gaussian(Histogram(1.0, np.full(16, 1e308)))

    def test_degenerate_histogram_raises(self):
        with pytest.raises(FitError):
            fit_gaussian(Histogram(1.0, np.array([10.0, 0.0, 0.0])))


CAP = {"type": "cap", "radius": R}
PYRAMID = {"type": "pyramid", "height": 200.0, "tile": 500.0}
DOME = {"type": "dome", "height": 50.0, "tile": 500.0}
ROUGH = {"type": "rough", "sigma": 5.0, "xi": 60.0}


class TestSynthesizeMatchesMeshgridOracle:
    @pytest.mark.parametrize("layers", [
        [CAP], [PYRAMID], [DOME], [ROUGH], [CAP, PYRAMID], [CAP, ROUGH], [DOME, PYRAMID],
        [CAP, DOME, PYRAMID, ROUGH], [ROUGH, CAP], [CAP, DOME, PYRAMID], [CAP, ROUGH, PYRAMID],
        [PYRAMID, ROUGH, CAP],
    ], ids=lambda layers: "+".join(l["type"] for l in layers))
    @pytest.mark.parametrize("n", [2, 63, 64, 255])
    def test_bytes_match(self, layers, n):
        extent = 8000.0 if layers[0] is CAP else 1700.0
        hm = synthesize_surface(layers, n=n, extent=extent, seed=n)
        assert hm.values.tobytes() == synthesize_heights(layers, n, extent, seed=n).tobytes()

    @pytest.mark.parametrize("n", [31, 32])
    def test_default_extent_bytes_match(self, n):
        hm = synthesize_surface([DOME], n=n)
        assert hm.values.tobytes() == synthesize_heights([DOME], n).tobytes()

    @pytest.mark.parametrize("block", [1, 80, 63 * 63])
    @pytest.mark.parametrize("layers", [[CAP, PYRAMID], [CAP, DOME, PYRAMID], [CAP, ROUGH], [ROUGH]],
                             ids=lambda layers: "+".join(l["type"] for l in layers))
    def test_row_blocks_match(self, layers, block):
        # Blocks of one row, of two or more rows and of the whole grid.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heightmap_module, "_BLOCK_VALUES", block)
            hm = synthesize_surface(layers, n=63, extent=8000.0, seed=5)
        assert hm.values.tobytes() == synthesize_heights(layers, 63, 8000.0, seed=5).tobytes()

    # On a 16 x 16 grid of 10 nm cells (17 x 17 of 160/17 nm), xi = 60 nm is
    # a kernel radius of 24 (26) cells, past the grid, so reads wrap more
    # than once; xi = 1 nm is radius 0; xi = 1e-170 nm is a width whose
    # square underflows, which SciPy leaves unfiltered.
    @pytest.mark.parametrize("block", [1, 7, 1 << 15])
    @pytest.mark.parametrize("xi", [60.0, 1.0, 1e-170], ids=["wide", "r0", "unfiltered"])
    @pytest.mark.parametrize("first", [[], [CAP]], ids=["rough", "cap+rough"])
    @pytest.mark.parametrize("n", [16, 17])
    def test_filter_radius_edges(self, n, first, xi, block):
        layers = first + [{"type": "rough", "sigma": 5.0, "xi": xi}]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heightmap_module, "_BLOCK_VALUES", block)
            hm = synthesize_surface(layers, n=n, extent=160.0, seed=4)
        assert hm.values.tobytes() == synthesize_heights(layers, n, 160.0, seed=4).tobytes()

    @pytest.mark.parametrize("s", [0.01, 0.124, 0.126, 0.7, 1.7, 6.0, 40.0])
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64])
    def test_wrap_gaussian_matches_scipy(self, n, s):
        # Every radius from 0 to far past the grid, on grids of odd and
        # even sizes, filtered in place as synthesize_surface does.
        from scipy.ndimage import gaussian_filter

        field = np.random.default_rng(n).standard_normal((n, n))
        expected = gaussian_filter(field, s, mode="wrap")
        heightmap_module._wrap_gaussian(field, s)
        assert field.tobytes() == expected.tobytes()

    def test_rough_layer_keeps_its_place(self):
        # Addition is not associative: a rough layer between two others is
        # added second, as the stack orders it, and not last.
        layers = [CAP, ROUGH, PYRAMID]
        hm = synthesize_surface(layers, n=64, extent=8000.0, seed=2)
        swapped = synthesize_heights([CAP, PYRAMID, ROUGH], 64, 8000.0, seed=2)
        assert hm.values.tobytes() == synthesize_heights(layers, 64, 8000.0, seed=2).tobytes()
        assert hm.values.tobytes() != swapped.tobytes()

    def test_bad_later_layer_raises_before_any_grid(self):
        # Every layer is checked first: a cap too small for the grid is
        # reported before the rough field ahead of it is drawn.
        small_cap = {"type": "cap", "radius": 1000.0}
        peak = traced_peak(lambda: pytest.raises(InvalidParameterError, synthesize_surface,
                                                 [ROUGH, small_cap], n=512, extent=4000.0))
        assert peak < 0.5 * GRID_BYTES


# Traced peaks at 512^2, in multiples of the grid's own bytes: a few
# grid-sized arrays at most, with no copy of the text or the coordinates.
GRID_BYTES = 512 * 512 * 8


class TestMemoryBudget:
    def test_load_text(self, tmp_path):
        hm = synthesize_surface([CAP, PYRAMID], n=512, extent=8000.0)
        save_heightmap(hm, tmp_path / "scan.txt")
        assert traced_peak(lambda: load_heightmap(tmp_path / "scan.txt")) <= 2.5 * GRID_BYTES

    def test_read_distribution(self, tmp_path):
        # A sampled text of 10^5 nodes: the rows read so far, the table they
        # are joined into and the grid check's arrays, no copy of the text.
        n = 100_000
        f = HeightDistribution.sampled(0.01, np.random.default_rng(1).uniform(0.0, 1.0, n))
        write_distribution(f, tmp_path / "f.txt")
        assert traced_peak(lambda: read_distribution(tmp_path / "f.txt")) <= 3 * 16 * n

    def test_text_to_distribution(self):
        # The same text as a string: its lines are read a block at a time,
        # without a copy of it.
        n = 100_000
        f = HeightDistribution.sampled(0.01, np.random.default_rng(1).uniform(0.0, 1.0, n))
        text = distribution_to_text(f)
        assert traced_peak(lambda: text_to_distribution(text)) <= 3 * 16 * n

    # At 1024^2: the first layer's grid is the sum, a later cap or tiling
    # adds one block of rows at a time, and a rough layer takes one more
    # grid while it is normalized.
    @pytest.mark.parametrize("layers, budget", [
        ([DOME], 1.15), ([PYRAMID], 1.15), ([CAP], 1.15), ([CAP, PYRAMID], 1.15),
        ([CAP, DOME, PYRAMID], 1.15), ([CAP, ROUGH], 2.05), ([ROUGH, CAP], 2.05),
    ], ids=lambda v: "+".join(l["type"] for l in v) if isinstance(v, list) else str(v))
    def test_synthesize(self, layers, budget):
        peak = traced_peak(lambda: synthesize_surface(layers, n=1024, extent=8000.0))
        assert peak <= budget * 4 * GRID_BYTES

    def test_save(self, tmp_path):
        # The writer holds one block's arrays and text, under 1 MiB, at any
        # grid size.
        hm = synthesize_surface([CAP, PYRAMID], n=1024, extent=16000.0)
        assert traced_peak(lambda: save_heightmap(hm, tmp_path / "scan.txt")) <= 1 << 20


class TestSynthesize:
    def test_cap_empirical_matches_sphere_form(self):
        hm = synthesize_surface([{"type": "cap", "radius": R}], n=1024, extent=20000.0)
        delta = 100.0
        emp = empirical_distribution(hm, delta)
        sag_in = 10000.0**2 / (R + math.sqrt(R**2 - 10000.0**2))
        kmax = int(0.9 * sag_in / delta)
        edges = np.arange(kmax + 1) * delta
        exact = np.diff(np.pi * (2 * R * edges - edges**2))
        rel = np.abs(emp.weights[:kmax] - exact) / exact
        assert rel.max() < 0.01

    def test_rough_deterministic(self):
        a = synthesize_surface([{"type": "rough", "sigma": 5.0, "xi": 20.0}],
                               n=128, extent=1280.0, seed=11)
        b = synthesize_surface([{"type": "rough", "sigma": 5.0, "xi": 20.0}],
                               n=128, extent=1280.0, seed=11)
        np.testing.assert_array_equal(a.values, b.values)

    def test_dome_tile_cdf(self):
        # Aligned square level sets alias per-bin masses, so the dome tile
        # generator is checked through its cumulative distribution.
        h, l = 250.0, 5000.0
        hm = synthesize_surface([{"type": "dome", "height": h, "tile": l}], n=512)
        emp = empirical_distribution(hm, h / 128)
        edges = np.arange(1, len(emp.weights) + 1) * emp.bin_width
        cdf = np.cumsum(emp.weights) / hm.area
        exact = np.clip(2 * edges / h - (edges / h) ** 2, 0.0, 1.0)
        assert np.abs(cdf - exact).max() < 0.01

    def test_cap_plus_pyramid_matches_composition(self):
        # Composed map against the sphere (x) unit-area-pyramid convolution
        # over s < h.  The sampled map's deepest pixel sits one tip quantum
        # h*dx/l above the ideal tip, so the oracle is aligned by that much.
        l, h, extent, n = 500.0, 100.0, 8000.0, 1024
        hm = synthesize_surface(
            [{"type": "cap", "radius": R}, {"type": "pyramid", "height": h, "tile": l}],
            n=n, extent=extent,
        )
        fconv = convolve(sphere_distribution(R), pyramid_distribution(h, l, per_unit_area=True))
        delta = 5.0
        emp = empirical_distribution(hm, delta)
        kmax = int(h / delta)
        s_min = h * (extent / n) / l
        s = np.linspace(s_min, s_min + kmax * delta, 20 * kmax + 1)
        dens = evaluate(fconv, s)
        masses = np.array(
            [np.trapezoid(dens[20 * k: 20 * (k + 1) + 1], dx=delta / 20) for k in range(kmax)]
        )
        l1 = np.abs(emp.weights[:kmax] - masses).sum() / masses.sum()
        assert l1 < 0.02

    def test_cap_validity_error(self):
        with pytest.raises(InvalidParameterError, match="extent"):
            synthesize_surface([{"type": "cap", "radius": 1000.0}], n=64, extent=4000.0)

    def test_unknown_layer_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown layer"):
            synthesize_surface([{"type": "cone", "height": 1.0}], n=16, extent=10.0)

    @pytest.mark.parametrize("layer", [
        {"type": "spherical-cap", "radius": 1e5},
        {"type": "pyramid-tiling", "height": 1.0, "tile": 10.0},
        {"type": "dome-tiling", "height": 1.0, "tile": 10.0},
        {"type": "gaussian-rough", "sigma": 1.0, "xi": 2.0},
    ])
    def test_only_short_layer_names(self, layer):
        with pytest.raises(InvalidParameterError, match="unknown layer type"):
            synthesize_surface([layer], n=16, extent=10.0)

    LAYERS = [
        {"type": "cap", "radius": 1e5},
        {"type": "pyramid", "height": 1.0, "tile": 10.0},
        {"type": "dome", "height": 1.0, "tile": 10.0},
        {"type": "rough", "sigma": 1.0, "xi": 2.0},
    ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("layer, key", [
        (layer, key) for layer in LAYERS for key in layer if key != "type"
    ])
    def test_bad_layer_field_named(self, layer, key, bad):
        with pytest.raises(InvalidParameterError,
                           match=rf"^{layer['type']} {key} must be positive and finite, got {bad!r}$"):
            synthesize_surface([{**layer, key: bad}], n=16, extent=10.0)

    @pytest.mark.parametrize("xi, n, extent", [(1e300, 4, 1e-10), (1e6, 16, 16.0), (251.0, 16, 10.0)])
    def test_rough_xi_past_the_grid_named(self, xi, n, extent):
        # xi / dx overflows, or the filter's radius would wrap round the
        # grid more than 100 times.
        message = rf"^rough xi must be at most 25 times the extent .*, got {re.escape(repr(xi))}$"
        with pytest.raises(InvalidParameterError, match=message):
            synthesize_surface([{"type": "rough", "sigma": 1.0, "xi": xi}], n=n, extent=extent)

    def test_rough_xi_at_its_bound(self):
        hm = synthesize_surface([{"type": "rough", "sigma": 1.0, "xi": 250.0}], n=4, extent=10.0)
        assert np.isfinite(hm.values).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_tile_named_when_it_sets_the_extent(self, bad):
        with pytest.raises(InvalidParameterError, match="^pyramid tile must be positive and finite"):
            synthesize_surface([{"type": "pyramid", "height": 1.0, "tile": bad}], n=16)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_extent_named(self, bad):
        with pytest.raises(InvalidParameterError, match="^extent must be positive and finite"):
            synthesize_surface([{"type": "rough", "sigma": 1.0, "xi": 2.0}], n=16, extent=bad)


class TestHistogramDensityBridge:
    def test_pyramid_classified_case_two(self):
        # Bin width must not resolve below the discrete height quantum
        # (2h/l)*dx of the sampled tiling, or alternate bins go empty.
        h = l = 5000.0
        hm = synthesize_surface([{"type": "pyramid", "height": h, "tile": l}], n=512)
        emp = empirical_distribution(hm, h / 256)
        rep = case_number(distribution_from_histogram(emp), tol=1e-2)
        assert rep.case_number == 2

    def test_exact_gaussian_histogram_classified_case_one(self):
        edges = np.arange(121) * 25.0
        masses = _gaussian_bin_masses(edges, 250.0, 500.0)[0] * 1e6
        emp = Histogram(25.0, masses)
        rep = case_number(distribution_from_histogram(emp), tol=1e-2)
        assert rep.case_number == 1

    def test_per_unit_area_density_is_flagged(self):
        # With the scan's area the density is per unit projected area, its
        # text says so, and convolve takes it without a warning; g composed
        # under a sphere keeps the sphere's flag.
        hm = synthesize_surface([{"type": "rough", "sigma": 5.0, "xi": 20.0}], n=64, extent=640.0, seed=1)
        f = distribution_from_histogram(empirical_distribution(hm), area=hm.area)
        assert f.unit_area_normalized
        assert projected_area(f) == pytest.approx(1.0, abs=1e-3)
        assert distribution_to_text(f).startswith("# height-distribution v1, kind=sampled, unit_area=1\n")
        assert not distribution_from_histogram(empirical_distribution(hm)).unit_area_normalized
        sphere = sphere_distribution(1e4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            convolve(sphere, f)
            g = compose_gradient(sphere, gradient_distribution(hm), hm.area)
        assert g.unit_area_normalized == sphere.unit_area_normalized is False

    # w / bin_width overflows, or the node average of two finite densities.
    @pytest.mark.parametrize("bin_width, weights", [(1e-300, [1e10, 1e10]), (1.0, [1.7e308, 1.7e308])])
    def test_density_past_the_floats_is_numeric_error(self, bin_width, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"histogram density at bin width {bin_width!r}"):
                distribution_from_histogram(Histogram(bin_width, np.array(weights)))

    @pytest.mark.parametrize("area", [math.nan, math.inf, 0.0, -1.0])
    def test_area_must_be_positive_and_finite(self, area):
        g_r = Histogram(1.0, np.ones(8))
        with pytest.raises(InvalidParameterError, match="area must be positive and finite"):
            distribution_from_histogram(g_r, area=area)
        with pytest.raises(InvalidParameterError, match="area must be positive and finite"):
            compose_gradient(sphere_distribution(1e4), g_r, area)


def test_compose_gradient_leaves_the_warnings_filter_alone(monkeypatch):
    # The filter is process-wide, so changing it is not safe under
    # concurrent calls; g carries its own area and warns about nothing.
    f_c, g_r = sphere_distribution(1e4), Histogram(2.0, np.arange(1.0, 9.0))
    want = compose_gradient(f_c, g_r, 16.0)

    def forbidden(*args, **kwargs):
        raise AssertionError("warnings filter changed")

    # The patches are undone before a failure propagates, so pytest's own
    # warning capture still works when it reports it.
    with warnings.catch_warnings(), monkeypatch.context() as patch:
        warnings.simplefilter("error")
        patch.setattr(warnings, "catch_warnings", forbidden)
        patch.setattr(warnings, "simplefilter", forbidden)
        got = compose_gradient(f_c, g_r, 16.0)
    (a_got, s_got), (a_want, s_want) = got.factors, want.factors
    assert_same_segments(a_got, a_want)
    np.testing.assert_array_equal(s_got.values, s_want.values)
    assert (got.bin_width, got.support_max, got.unit_area_normalized) == \
        (want.bin_width, want.support_max, want.unit_area_normalized)


class TestConvolutionConsistency:
    def test_composed_map_close_to_convolution(self):
        # Convolution regime: cap radius 50 um, tile 500 nm; the composed map's
        # empirical distribution tracks convolve(f_cap, f_tile) within 3% L1
        # (oracle aligned by the tip quantum, see TestSynthesize above).
        l, h, extent, n = 500.0, 200.0, 16000.0, 1024
        hm = synthesize_surface(
            [{"type": "cap", "radius": R}, {"type": "pyramid", "height": h, "tile": l}],
            n=n, extent=extent,
        )
        sag_in = 8000.0**2 / (R + math.sqrt(R**2 - 8000.0**2))
        fcap = HeightDistribution.analytic([0.0, sag_in], [[2 * math.pi * R, -2 * math.pi]])
        fconv = convolve(fcap, pyramid_distribution(h, l, per_unit_area=True))
        delta = 10.0
        emp = empirical_distribution(hm, delta)
        kmax = int(550.0 / delta)
        s_min = h * (extent / n) / l
        s = np.linspace(s_min, s_min + kmax * delta, 20 * kmax + 1)
        dens = evaluate(fconv, s)
        masses = np.array(
            [np.trapezoid(dens[20 * k: 20 * (k + 1) + 1], dx=delta / 20) for k in range(kmax)]
        )
        l1 = np.abs(emp.weights[:kmax] - masses).sum() / masses.sum()
        assert l1 < 0.03
