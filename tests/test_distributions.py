"""Height distribution construction, exact convolution, classification, serialization."""

import importlib.util
import math
import pathlib
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxint import (
    HeightDistribution,
    Heightmap,
    Histogram,
    InvalidParameterError,
    NumericError,
    ParseError,
    UnclassifiableError,
    case_number,
    convolve,
    distribution_from_histogram,
    dome_distribution,
    empirical_distribution,
    evaluate,
    projected_area,
    pyramid_distribution,
    read_distribution,
    sphere_distribution,
    to_sampled,
    truncated_gaussian_distribution,
    truncated_gaussian_norm,
    write_distribution,
)
from proxint.distributions import (
    _GAUSSIAN_PIECE_WIDTH,
    _GAUSSIAN_PIECES,
    GAUSSIAN_SUPPORT_SIGMAS,
    _convolve_numeric,
    distribution_to_text,
    text_to_distribution,
)

from conftest import DEEP_STACK_LAYERS, rows, sampled_rough
from convolution_oracle import assert_same_segments, convolve_analytic

R = 50000.0
H = 5000.0


def sphere_dome_closed_form(s, radius=R, h=H):
    """Closed form of sphere (x) dome for s <= h."""
    return 2 * math.pi * s * (6 * h * radius - 3 * h * s - 3 * radius * s + s**2) / (3 * h**2)


def sphere_pyramid_closed_form(s, radius=R, h=H):
    """Closed form of sphere (x) unit-area pyramid for s <= h."""
    return 2 * math.pi * s**2 * (3 * radius - s) / (3 * h**2)


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------

class TestSphere:
    def test_value_at_contact(self):
        f = sphere_distribution(R)
        assert evaluate(f, 0.0) == pytest.approx(2 * math.pi * R, rel=1e-14)

    def test_zero_at_radius(self):
        f = sphere_distribution(R)
        assert evaluate(f, R) == pytest.approx(0.0, abs=1e-9)

    def test_projected_area_is_disk(self):
        # Analytic integral of 2 pi (R - s) over [0, R] is pi R^2; cross-check
        # the library result with plain trapezoid quadrature.
        f = sphere_distribution(R)
        s = np.linspace(0.0, R, 200001)
        trapz = np.trapezoid(evaluate(f, s), s)
        assert projected_area(f) == pytest.approx(math.pi * R**2, rel=1e-14)
        assert projected_area(f) == pytest.approx(trapz, rel=1e-9)

    @pytest.mark.parametrize("f", [
        # w ** (k + 1) overflows a Python float, and c * w^(k+1) overflows to inf.
        convolve(sphere_distribution(1e150), dome_distribution(1e150)),
        HeightDistribution.analytic([0.0, 1e100], [[1e300]]),
    ], ids=["power-overflows", "product-overflows"])
    def test_area_beyond_the_float_range_is_numeric_error(self, f):
        with pytest.raises(NumericError, match="^projected area is not a finite float: inf$"):
            projected_area(f)

    def test_not_unit_normalized(self):
        assert not sphere_distribution(R).unit_area_normalized

    def test_invalid_radius(self):
        with pytest.raises(InvalidParameterError):
            sphere_distribution(0.0)
        with pytest.raises(InvalidParameterError):
            sphere_distribution(-1.0)


class TestDome:
    def test_value_at_contact(self):
        assert evaluate(dome_distribution(H), 0.0) == pytest.approx(2 / H, rel=1e-14)

    def test_unit_area(self):
        assert projected_area(dome_distribution(H)) == pytest.approx(1.0, rel=1e-12)

    def test_case_one(self):
        assert case_number(dome_distribution(H)).case_number == 1

    def test_invalid_height(self):
        with pytest.raises(InvalidParameterError):
            dome_distribution(-2.0)


class TestPyramid:
    def test_absolute_value_at_top(self):
        f = pyramid_distribution(H, H, per_unit_area=False)
        assert evaluate(f, H) == pytest.approx(2 * H**2 / H, rel=1e-14)  # 2 l^2 / h = 1e4

    def test_absolute_area_is_base(self):
        l = 3000.0
        f = pyramid_distribution(H, l, per_unit_area=False)
        assert projected_area(f) == pytest.approx(l**2, rel=1e-12)

    def test_case_two_with_slope(self):
        l = 2500.0
        rep = case_number(pyramid_distribution(H, l, per_unit_area=False))
        assert rep.case_number == 2
        assert rep.leading_coefficient == pytest.approx(2 * l**2 / H**2, rel=1e-12)

    def test_per_unit_area_normalized(self):
        f = pyramid_distribution(H, 1234.0, per_unit_area=True)
        assert f.unit_area_normalized
        assert projected_area(f) == pytest.approx(1.0, rel=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            pyramid_distribution(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            pyramid_distribution(1.0, 0.0)


class TestTruncatedGaussian:
    def test_norm_closed_form(self):
        # N = (1 + erf(s0 / sigma sqrt 2)) / 2; for s0 = 2 sigma this is
        # (1 + erf(sqrt 2)) / 2 ~ 0.97725.  Cross-check by quadrature.
        assert truncated_gaussian_norm(250.0, 500.0) == pytest.approx(0.9772499, rel=1e-6)
        sigma, s0 = 250.0, 500.0
        s = np.linspace(0, s0 + 10 * sigma, 400001)
        quad = np.trapezoid(
            np.exp(-((s - s0) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi)), s
        )
        assert truncated_gaussian_norm(sigma, s0) == pytest.approx(quad, rel=1e-9)

    def test_density_at_contact(self):
        f = truncated_gaussian_distribution(250.0, 500.0)
        assert evaluate(f, 0.0) == pytest.approx(2.210e-4, rel=1e-3)

    def test_half_gaussian_norm(self):
        assert truncated_gaussian_norm(100.0, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_unit_area_within_1e9(self):
        f = truncated_gaussian_distribution(250.0, 500.0)
        assert f.unit_area_normalized
        assert projected_area(f) == pytest.approx(1.0, rel=1e-9)

    def test_case_one(self):
        f = truncated_gaussian_distribution(250.0, 500.0)
        assert case_number(f, tol=1e-3).case_number == 1

    def test_invalid_sigma(self):
        with pytest.raises(InvalidParameterError):
            truncated_gaussian_distribution(0.0, 100.0)
        with pytest.raises(InvalidParameterError):
            truncated_gaussian_distribution(10.0, -1.0)

    # (sigma, s0): s0 on the piece grid, off it, at contact, past 8 sigma,
    # and at the extremes of scale and offset.
    SHAPES = [(250.0, 500.0), (8.27955, 3.58073), (10.0, 0.0), (2.5, 30.0),
              (1e-3, 7.7e-4), (3e5, 1e5), (1.0, 1e6)]

    @pytest.mark.parametrize("sigma, s0", SHAPES)
    def test_pieces_match_the_continuous_density(self, sigma, s0):
        # Analytic pieces within a few ulp of the peak of the density
        # normalized over [max(s0 - 8 sigma, 0), s0 + 8 sigma], here against
        # 30-digit values.
        f = truncated_gaussian_distribution(sigma, s0)
        assert f.kind == "analytic" and f.unit_area_normalized
        assert f.support_max == s0 + 8.0 * sigma
        inner = min(s0 / sigma, 8.0)
        norm = 0.5 * (math.erf(8.0 / math.sqrt(2.0)) + math.erf(inner / math.sqrt(2.0)))
        peak = 1.0 / (norm * sigma * math.sqrt(2.0 * math.pi))
        s = np.linspace(max(s0 - 8.0 * sigma, 0.0), f.support_max, 257)
        with mpmath.workdps(30):
            want = [float(peak * mpmath.exp(-((mpmath.mpf(x) - s0) / sigma) ** 2 / 2)) for x in s.tolist()]
        np.testing.assert_allclose(evaluate(f, s), want, rtol=0.0, atol=4 * np.finfo(float).eps * peak)

    @pytest.mark.parametrize("sigma, s0", SHAPES)
    def test_unit_area_within_1e15(self, sigma, s0):
        assert projected_area(truncated_gaussian_distribution(sigma, s0)) == pytest.approx(1.0, rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("offset", [0.0, 0.5, 3.3, 8.0, 20.0, 1e6])
    def test_at_most_seventeen_pieces(self, offset):
        # Sixteen pieces of width sigma span s0 -/+ 8 sigma; below that one zero
        # segment reaches down to contact, however far s0 lies from it.
        f = truncated_gaussian_distribution(2.0, 2.0 * offset)
        assert len(f.coeffs) <= 17
        if offset > 8.0:
            assert rows(f)[0] == (0.0, 2.0 * (offset - 8.0), (0.0,))
            assert evaluate(f, 2.0 * (offset - 8.5)) == 0.0


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("make, args, field", [
    (truncated_gaussian_distribution, (NAN, 1.0), "sigma"),
    (truncated_gaussian_distribution, (INF, 1.0), "sigma"),
    (truncated_gaussian_distribution, (1.0, INF), "s0"),
    (truncated_gaussian_distribution, (1.0, NAN), "s0"),
    (truncated_gaussian_norm, (NAN, 1.0), "sigma"),
    (truncated_gaussian_norm, (INF, 1.0), "sigma"),
    (truncated_gaussian_norm, (1.0, NAN), "s0"),
    (truncated_gaussian_norm, (1.0, INF), "s0"),
    (dome_distribution, (INF,), "dome height"),
    (dome_distribution, (NAN,), "dome height"),
    (sphere_distribution, (INF,), "sphere radius"),
    (pyramid_distribution, (INF, 1.0), "pyramid height"),
    (pyramid_distribution, (1.0, NAN), "pyramid base length"),
])
def test_non_finite_parameter_is_named(make, args, field):
    with pytest.raises(InvalidParameterError, match=f"{field} must be .* finite"):
        make(*args)


@pytest.mark.parametrize("make, args, field", [
    (sphere_distribution, (1e-300,), "sphere radius 1e-300"),
    (sphere_distribution, (1e300,), "sphere radius 1e\\+300"),
    (dome_distribution, (1e300,), "dome height 1e\\+300"),
    (pyramid_distribution, (1e-300, 1.0), "pyramid height 1e-300"),
    (pyramid_distribution, (1.0, 1e200), "pyramid base length 1e\\+200"),
    (truncated_gaussian_distribution, (1e-30, 1e300), "rough sigma 1e-30"),
    (truncated_gaussian_distribution, (1e30, 0.0), "rough sigma 1e\\+30"),
])
def test_out_of_range_length_is_named(make, args, field):
    # A length whose powers in the shape's coefficients over- or underflow.
    with pytest.raises(InvalidParameterError, match=f"{field} is out of range"):
        make(*args)


def test_gaussian_offset_beyond_the_piece_resolution_is_named():
    with pytest.raises(InvalidParameterError, match="rough s0 1e\\+300 is more than 1e\\+06 sigma"):
        truncated_gaussian_distribution(1.0, 1e300)


def _derivation():
    """tools/derive_gaussian_pieces.py, loaded as a module."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "derive_gaussian_pieces.py"
    spec = importlib.util.spec_from_file_location("derive_gaussian_pieces", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGaussianPieceTable:
    """The literal table of truncated_gaussian_distribution against its derivation."""

    def test_rows_rederive(self):
        derive = _derivation()
        width, degree = _GAUSSIAN_PIECE_WIDTH, len(_GAUSSIAN_PIECES[0]) - 1
        ks = list(derive.pieces(width))
        assert len(ks) == len(_GAUSSIAN_PIECES)
        # Both tails and the two pieces at the peak.
        for i in (0, len(ks) // 2 - 1, len(ks) // 2, len(ks) - 1):
            assert derive.piece(ks[i], width, degree) == _GAUSSIAN_PIECES[i]

    def test_every_row_within_an_ulp_of_the_peak(self):
        # Row i covers [-8 + i w, -8 + (i + 1) w]; evaluated exactly, it is
        # within 2^-52 of exp(-x^2/2), whose peak is 1.
        width = _GAUSSIAN_PIECE_WIDTH
        with mpmath.workdps(30):
            for i, row in enumerate(_GAUSSIAN_PIECES):
                coeffs = [mpmath.mpf(c) for c in reversed(row)]
                for t in np.linspace(0.0, width, 17).tolist():
                    x = -GAUSSIAN_SUPPORT_SIGMAS + i * width + t
                    assert abs(mpmath.polyval(coeffs, t) - mpmath.exp(-mpmath.mpf(x) ** 2 / 2)) <= 2.0**-52


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class TestAnalyticConstructor:
    @pytest.mark.parametrize("breaks, coeffs", [
        ([[0.0, 1.0]], [[1.0]]),                    # breaks not 1-D
        ([0.0], np.zeros((0, 1))),                  # fewer than 2 breaks
        ([], np.zeros((0, 1))),
        ([1.0, 2.0], [[1.0]]),                      # first break not at s = 0
        ([0.0, 1.0, 1.0], [[1.0], [1.0]]),          # a segment with lo == hi
        ([0.0, 2.0, 1.0], [[1.0], [1.0]]),          # breaks decreasing
        ([0.0, 1.0], [1.0]),                        # coeffs not 2-D
        ([0.0, 1.0], [[1.0], [2.0]]),               # one row per segment
        ([0.0, 1.0], np.zeros((1, 0))),             # at least one coefficient
        ([0.0, 1.0, 2.0], [[1.0, 2.0], [3.0]]),     # ragged rows
        ([0.0, math.inf], [[1.0]]),                 # non-finite values
        ([0.0, math.nan], [[1.0]]),
        ([0.0, 1.0], [[1.0, math.nan]]),
        ([0.0, 1.0], [[-math.inf]]),
    ])
    def test_rejects(self, breaks, coeffs):
        with pytest.raises(InvalidParameterError):
            HeightDistribution.analytic(breaks, coeffs)

    def test_trailing_zero_columns_dropped(self):
        f = HeightDistribution.analytic([0.0, 1.0, 2.0], [[1.0, 0.0, 0.0], [2.0, 3.0, 0.0]])
        assert f.coeffs.tolist() == [[1.0, 0.0], [2.0, 3.0]]
        assert HeightDistribution.analytic([0.0, 1.0], [[0.0, 0.0]]).coeffs.shape == (1, 1)

    def test_arrays_are_read_only_copies(self):
        breaks, coeffs = np.array([0.0, 1.0]), np.array([[1.0, 2.0]])
        f = HeightDistribution.analytic(breaks, coeffs)
        breaks[1], coeffs[0, 0] = 5.0, 5.0
        assert f.support_max == f.breaks[-1] == 1.0 and f.coeffs[0, 0] == 1.0
        for a in (f.breaks, f.coeffs):
            with pytest.raises(ValueError):
                a[0] = 7.0


class TestSampledConstructor:
    def test_keeps_a_copy_of_the_callers_values(self):
        values = np.array([1.0, 2.0, 3.0])
        f = HeightDistribution.sampled(0.5, values)
        values[0] = 9.0
        assert values.flags.writeable and not f.values.flags.writeable
        assert f.values.tolist() == [1.0, 2.0, 3.0]


class TestEvaluate:
    def test_zero_below_support(self):
        assert evaluate(sphere_distribution(R), -1.0) == 0.0

    def test_midpoint_value(self):
        assert evaluate(sphere_distribution(R), 25000.0) == pytest.approx(
            2 * math.pi * 25000.0, rel=1e-14
        )

    def test_zero_above_support(self):
        assert evaluate(sphere_distribution(R), R + 1.0) == 0.0

    def test_composed_at_breakpoint(self):
        # Closed-form value at s = h, where the first and second pieces meet.
        f = convolve(sphere_distribution(R), dome_distribution(H))
        assert evaluate(f, H) == pytest.approx(sphere_dome_closed_form(H), rel=1e-12)

    def test_vectorized(self):
        f = dome_distribution(H)
        s = np.array([-1.0, 0.0, H / 2, H, H + 1])
        expected = np.array([0.0, 2 / H, 1 / H, 0.0, 0.0])
        np.testing.assert_allclose(evaluate(f, s), expected, atol=1e-15)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

class TestConvolveAnalytic:
    def test_sphere_dome_matches_closed_form(self):
        f = convolve(sphere_distribution(R), dome_distribution(H))
        s = np.linspace(0.0, H, 777)
        np.testing.assert_allclose(evaluate(f, s), sphere_dome_closed_form(s), rtol=1e-12, atol=1e-9)

    def test_sphere_pyramid_matches_closed_form(self):
        f = convolve(sphere_distribution(R), pyramid_distribution(H, H, per_unit_area=True))
        s = np.linspace(1.0, H, 777)
        np.testing.assert_allclose(evaluate(f, s), sphere_pyramid_closed_form(s), rtol=1e-12)

    def test_support_additivity_exact(self):
        a = sphere_distribution(R)
        b = dome_distribution(H)
        assert convolve(a, b).support_max == a.support_max + b.support_max

    def test_area_multiplicativity(self):
        a = sphere_distribution(R)
        b = dome_distribution(H)
        assert projected_area(convolve(a, b)) == pytest.approx(
            projected_area(a) * projected_area(b), rel=1e-12
        )

    def test_warns_when_second_not_normalized(self):
        with pytest.warns(UserWarning, match="not unit-area normalized"):
            convolve(dome_distribution(H), sphere_distribution(R))

    def test_twelve_layer_stack(self):
        # sphere (*) 11 domes reaches degree 23, past any fixed binomial table;
        # each unit-area dome keeps the projected area at pi R^2.
        f = sphere_distribution(R)
        for _ in range(11):
            f = convolve(f, dome_distribution(50.0))
        assert f.coeffs.shape[1] - 1 == 23
        assert f.support_max == pytest.approx(R + 11 * 50.0, rel=1e-15)
        assert projected_area(f) == pytest.approx(math.pi * R**2, rel=1e-12)

    @pytest.mark.parametrize("base, layers", [
        (sphere_distribution(R), [dome_distribution(H)]),
        (sphere_distribution(R), [pyramid_distribution(H, H, per_unit_area=True)]),
        (sphere_distribution(1e5), DEEP_STACK_LAYERS),
        (sphere_distribution(R), [dome_distribution(50.0)] * 11),
        # s0 off the piece grid, so the first piece is re-anchored at contact.
        (sphere_distribution(R), [truncated_gaussian_distribution(8.27955, 3.58073)]),
        # Pieces sigma apart at unequal sigma: the pairs' cuts do not line up.
        (truncated_gaussian_distribution(10.0, 0.0), [truncated_gaussian_distribution(7.0, 0.0)]),
    ], ids=["sphere-dome", "sphere-pyramid", "deep-stack", "sphere-11-domes", "sphere-rough",
            "rough-rough"])
    def test_bit_identical_to_triple_loop_oracle(self, base, layers):
        got = want = base
        for layer in layers:
            got = convolve(got, layer)
            want = convolve_analytic(want, layer)
        assert_same_segments(got, want)

    def test_commutativity(self):
        a = sphere_distribution(R)
        b = pyramid_distribution(H, H, per_unit_area=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ab = convolve(a, b)
            ba = convolve(b, a)
        s = np.linspace(10.0, R + H - 10.0, 1001)
        va, vb = evaluate(ab, s), evaluate(ba, s)
        np.testing.assert_allclose(va, vb, rtol=1e-10)


class TestConvolveNumeric:
    def test_sampled_matches_closed_form(self):
        # Numeric path on 2048-point grids against the exact polynomials;
        # the operands' grids differ, so the resample notice is expected.
        a = to_sampled(sphere_distribution(R), 2048)
        b = to_sampled(dome_distribution(H), 2048)
        with pytest.warns(UserWarning, match="resampling"):
            f = convolve(a, b)
        ks = np.arange(1, 1001)
        s = f.grid[ks]
        np.testing.assert_allclose(f.values[ks], sphere_dome_closed_form(s), rtol=1e-6)

    def test_bin_width_mismatch_resamples_with_notice(self):
        a = to_sampled(dome_distribution(H), 512)
        b = to_sampled(dome_distribution(H), 1024)
        with pytest.warns(UserWarning, match="resampling"):
            f = convolve(a, b)
        assert f.bin_width == pytest.approx(b.bin_width)

    def test_delta_like_identity(self):
        # A nearly-delta roughness (sigma -> 0, s0 = 0) leaves the sphere
        # distribution unchanged up to the grid scale.
        f = sphere_distribution(R)
        delta = truncated_gaussian_distribution(0.5, 0.0)
        g = convolve(f, delta)
        # The half-Gaussian still shifts by its mean ~0.4 nm, which matters
        # relatively only where f itself vanishes; probe away from the top edge.
        s = np.linspace(100.0, 0.9 * R, 101)
        np.testing.assert_allclose(evaluate(g, s), evaluate(f, s), rtol=1e-3)

    def test_numeric_nonnegative(self):
        f = convolve(sphere_distribution(R), sampled_rough(250.0, 500.0))
        assert np.all(np.asarray(f.values) >= 0.0)

    def test_zero_bin_width_rejected(self):
        with pytest.raises(InvalidParameterError, match="bin_width"):
            to_sampled(sphere_distribution(R), bin_width=0.0)


class TestComposite:
    """analytic (*) sampled keeps its factors; its grid is the numeric convolution's."""

    @pytest.fixture(params=[(10.0, 20.0), (2.5, 5.0), (10.0, 0.0)])
    def factors(self, request):
        sigma, s0 = request.param
        return sphere_distribution(5000.0), sampled_rough(sigma, s0)

    def test_keeps_factors_and_defers_the_grid(self, factors):
        f = convolve(*factors)
        assert f.kind == "sampled" and f.factors == factors
        assert f._values is None
        eager = _convolve_numeric(*factors)
        assert f.support_max == eager.support_max
        assert f.bin_width == eager.bin_width
        assert f.unit_area_normalized == eager.unit_area_normalized

    def test_reads_equal_the_materialised_grid(self, factors):
        f = convolve(*factors)
        eager = _convolve_numeric(*factors)
        s = np.linspace(-1.0, f.support_max + 1.0, 4099)
        np.testing.assert_array_equal(evaluate(f, s), evaluate(eager, s))
        assert distribution_to_text(f) == distribution_to_text(eager)

    def test_text_matches_per_value_writer(self, factors):
        f = convolve(*factors)
        assert distribution_to_text(f) == _sampled_text_per_value(f)

    def test_case_and_area_come_from_the_factors(self, factors):
        f = convolve(*factors)
        sphere, rough = factors
        rep = case_number(f, tol=1e-3)
        a, b = case_number(sphere, tol=1e-3), case_number(rough, tol=1e-3)
        assert rep.case_number == a.case_number + b.case_number == 2
        assert rep.leading_coefficient == a.leading_coefficient * b.leading_coefficient
        assert rep.taylor_coeffs == (0.0, rep.leading_coefficient)
        assert projected_area(f) == projected_area(sphere) * projected_area(rough)
        assert projected_area(f) == pytest.approx(math.pi * 5000.0**2, rel=1e-15)
        assert f._values is None
        # The joint grid's fit classifies alike; its trapezoid area is close.
        eager = _convolve_numeric(*factors)
        assert case_number(eager, tol=1e-3).case_number == rep.case_number
        assert projected_area(eager) == pytest.approx(projected_area(f), rel=1e-6)

    def test_further_layer_keeps_the_factored_form(self, factors):
        sphere, rough = factors
        layer = pyramid_distribution(5.0, 1.0, per_unit_area=True)
        f = convolve(convolve(*factors), layer)
        assert_same_segments(f.factors[0], convolve(sphere, layer))
        assert f.factors[1] is rough
        assert f._values is None
        np.testing.assert_array_equal(f.values, _convolve_numeric(*f.factors).values)

    def test_layer_order_gives_the_same_factors(self, factors):
        sphere, rough = factors
        layer = pyramid_distribution(5.0, 1.0, per_unit_area=True)
        rough_first = convolve(convolve(sphere, rough), layer)
        layer_first = convolve(convolve(sphere, layer), rough)
        assert_same_segments(rough_first.factors[0], layer_first.factors[0])
        assert rough_first.factors[1] is layer_first.factors[1] is rough
        assert (rough_first.support_max, rough_first.bin_width) == (
            layer_first.support_max, layer_first.bin_width)

    def test_sampled_layers_merge_on_their_own_grid(self, factors):
        sphere, rough = factors
        f = convolve(convolve(sphere, rough), rough)
        assert f.factors[0] is sphere
        merged = f.factors[1]
        assert len(merged.values) == 2 * len(rough.values) - 1
        np.testing.assert_array_equal(merged.values, _convolve_numeric(rough, rough).values)

    def test_sampled_operand_first_is_reordered(self, factors):
        sphere, rough = factors
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = convolve(rough, sphere)
        assert f.factors == (sphere, rough)


# ---------------------------------------------------------------------------
# case classification
# ---------------------------------------------------------------------------

class TestCaseNumber:
    def test_sphere_case_one(self):
        rep = case_number(sphere_distribution(R))
        assert rep.case_number == 1
        assert rep.leading_coefficient == pytest.approx(2 * math.pi * R, rel=1e-14)

    def test_sphere_dome_case_two(self):
        # f'(0) of the sphere-dome closed form is 4 pi R / h.
        rep = case_number(convolve(sphere_distribution(R), dome_distribution(H)))
        assert rep.case_number == 2
        assert rep.leading_coefficient == pytest.approx(4 * math.pi * R / H, rel=1e-12)

    def test_sphere_pyramid_case_three(self):
        # f''(0) of the sphere-pyramid closed form is 4 pi R / h^2.
        f = convolve(sphere_distribution(R), pyramid_distribution(H, H, per_unit_area=True))
        rep = case_number(f)
        assert rep.case_number == 3
        assert rep.leading_coefficient == pytest.approx(4 * math.pi * R / H**2, rel=1e-12)

    def test_unclassifiable_zero_distribution(self):
        f = HeightDistribution.analytic([0.0, 1.0], [[0.0]])
        with pytest.raises(UnclassifiableError):
            case_number(f)

    def test_unclassifiable_names_orders(self):
        f = HeightDistribution.sampled(1.0, np.full(64, 1e-30))
        f = HeightDistribution.sampled(1.0, np.zeros(64) + 0.0)
        with pytest.raises(UnclassifiableError, match="zero"):
            case_number(f)

    def test_tol_validation(self):
        with pytest.raises(InvalidParameterError):
            case_number(sphere_distribution(R), tol=2.0)

    def test_sampled_taylor_coeffs_are_finite(self):
        # A 4x4 scan of k * 1e-101 nm: the fitted derivatives of order 3 and
        # up leave the floats, and the report ends before them.
        hm = Heightmap(1.0, 1.0, np.arange(16.0).reshape(4, 4) * 1e-101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = case_number(distribution_from_histogram(empirical_distribution(hm)), tol=1e-2)
        assert rep.case_number == 1
        assert len(rep.taylor_coeffs) == 3
        assert all(math.isfinite(v) for v in rep.taylor_coeffs)
        assert rep.taylor_coeffs[0] == rep.leading_coefficient

    def test_taylor_coeffs_reported(self):
        rep = case_number(sphere_distribution(R))
        assert rep.taylor_coeffs[0] == pytest.approx(2 * math.pi * R)
        assert rep.taylor_coeffs[1] == pytest.approx(-2 * math.pi)

    def test_twelve_layer_stack_is_case_twelve(self):
        # Every coefficient of the first segment is read: near s = 0 the
        # stack is 2 pi R (2/h)^11 s^11 / 11!, so f^(11)(0) = 2 pi R (2/h)^11.
        h = 50.0
        f = sphere_distribution(R)
        for _ in range(11):
            f = convolve(f, dome_distribution(h))
        rep = case_number(f)
        assert rep.case_number == 12
        assert rep.leading_coefficient == pytest.approx(2 * math.pi * R * (2 / h) ** 11, rel=1e-9)


class TestCaseAdditivity:
    CATALOG = {
        "sphere": (lambda: sphere_distribution(R), 1),
        "dome": (lambda: dome_distribution(H), 1),
        "pyramid": (lambda: pyramid_distribution(H, H, per_unit_area=True), 2),
        "gauss": (lambda: truncated_gaussian_distribution(250.0, 500.0), 1),
    }

    @pytest.mark.parametrize("name_a", list(CATALOG))
    @pytest.mark.parametrize("name_b", list(CATALOG))
    def test_all_ordered_pairs(self, name_a, name_b):
        make_a, ca = self.CATALOG[name_a]
        make_b, cb = self.CATALOG[name_b]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = convolve(make_a(), make_b())
        tol = 1e-6 if f.kind == "analytic" else 1e-3
        assert case_number(f, tol=tol).case_number == ca + cb

    def test_triple_composition(self):
        f = convolve(
            convolve(sphere_distribution(1e5), dome_distribution(1000.0)),
            pyramid_distribution(100.0, 100.0, per_unit_area=True),
        )
        assert case_number(f).case_number == 4

    # Each layer's constructor and its leading derivative at s = 0.
    LAYERS = {
        "dome": (dome_distribution, lambda h: 2.0 / h),
        "pyramid": (lambda h: pyramid_distribution(h, 1.0, per_unit_area=True), lambda h: 2.0 / h**2),
        "rough": (lambda p: truncated_gaussian_distribution(*p),
                  lambda p: math.exp(-p[1] ** 2 / (2 * p[0] ** 2))
                  / (truncated_gaussian_norm(*p) * p[0] * math.sqrt(2 * math.pi))),
    }

    @pytest.mark.parametrize("layers, case", [
        ([("pyramid", 100.0), ("rough", (10.0, 20.0))], 4),
        ([("dome", 1000.0), ("pyramid", 100.0), ("rough", (10.0, 20.0))], 5),
        ([("pyramid", 100.0), ("rough", (2.5, 5.0))], 4),
        ([("rough", (10.0, 20.0)), ("rough", (10.0, 20.0))], 3),
        ([("rough", (10.0, 20.0))], 2),
        ([("dome", 50.0), ("rough", (10.0, 20.0))], 3),
        ([("rough", (2.5, 5.0))], 2),
        ([("dome", 12.5), ("rough", (2.5, 5.0))], 3),
    ])
    def test_sampled_stacks(self, layers, case):
        # Case numbers add and leading derivatives multiply; the first four
        # stacks were misread by a polynomial fit over the joint grid.
        f = sphere_distribution(5e4)
        lead = 2 * math.pi * 5e4
        for kind, p in layers:
            make, leading = self.LAYERS[kind]
            f = convolve(f, make(p))
            lead *= leading(p)
        rep = case_number(f, tol=1e-3)
        assert rep.case_number == case
        # Every stack is analytic, so f^(n-1)(0) is read from exact coefficients.
        assert rep.leading_coefficient == pytest.approx(lead, rel=1e-12)
        assert rep.taylor_coeffs[:case] == (0.0,) * (case - 1) + (rep.leading_coefficient,)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _sampled_text_per_value(f):
    # Reference writer of sampled text, one "%.17g" call per value.
    head = f"# height-distribution v1, kind=sampled, unit_area={int(f.unit_area_normalized)}\n"
    return head + "".join("%.17g,%.17g\n" % (k * f.bin_width, v) for k, v in enumerate(f.values))


# Node values at the edges of the array writer (+-0, 1e-6 and 1e16 with
# their neighbours a ulp away) and outside it (subnormal, huge).
TEXT_EDGES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-6, math.nextafter(1e-6, 1.0),
              -math.nextafter(1e-6, 0.0), 0.1, 1.0, 123456.78901234567, math.nextafter(1e16, 0.0),
              1e16, -1e300, 1.7976931348623157e308]


class TestSerialization:
    @pytest.mark.parametrize("bin_width", [5e-324, math.nextafter(1e-6, 1.0), 0.1, 1e15 / 3.0, 1e300])
    def test_sampled_text_matches_per_value_writer(self, bin_width):
        # Edge values alone, which the writer's template takes, and in a
        # grid of values inside its array path.
        inside = np.linspace(1e-3, 1.0, 5000)
        for values in (TEXT_EDGES, np.concatenate([inside, TEXT_EDGES[:2], inside])):
            f = HeightDistribution.sampled(bin_width, values)
            assert distribution_to_text(f) == _sampled_text_per_value(f)

    def test_analytic_round_trip_bit_exact(self, tmp_path):
        f = convolve(sphere_distribution(R), dome_distribution(H))
        path = tmp_path / "dist.txt"
        write_distribution(f, path)
        g = read_distribution(path)
        assert g.kind == "analytic"
        assert g.support_max == f.support_max
        assert g.unit_area_normalized == f.unit_area_normalized
        assert_same_segments(g, f)  # bit-exact

    def test_sampled_round_trip(self, tmp_path):
        f = sampled_rough(250.0, 500.0)
        path = tmp_path / "dist.txt"
        write_distribution(f, path)
        g = read_distribution(path)
        assert g.kind == "sampled"
        assert g.bin_width == pytest.approx(f.bin_width, rel=1e-15)
        np.testing.assert_array_equal(np.asarray(g.values), np.asarray(f.values))
        assert g.unit_area_normalized

    def test_undecodable_file_is_parse_error(self, tmp_path):
        # A byte that is not UTF-8 in a row: a ParseError naming the file,
        # not a UnicodeDecodeError.
        path = tmp_path / "dist.txt"
        path.write_bytes(b"# height-distribution v1, kind=sampled, unit_area=1\n0,1\n1,\xff\n")
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}: cannot decode as text"):
            read_distribution(path)

    def test_header_carries_kind_and_flag(self):
        text = distribution_to_text(dome_distribution(H))
        assert text.splitlines()[0] == "# height-distribution v1, kind=analytic, unit_area=1"

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            text_to_distribution("# something else\n1,2,3")

    def test_bad_number_names_line(self):
        text = "# height-distribution v1, kind=analytic, unit_area=0\n0,1,1\n1,2,oops\n"
        with pytest.raises(ParseError, match="line 3"):
            text_to_distribution(text)

    def test_rows_of_different_degrees_write_back_the_same_bytes(self):
        text = ("# height-distribution v1, kind=analytic, unit_area=0\n"
                "0,1,1\n1,2.5,0.5,-0.25,0.125\n2.5,3,0\n3,4,0,0.75\n")
        f = text_to_distribution(text)
        assert f.coeffs.shape == (4, 3)
        assert distribution_to_text(f) == text

    def test_trailing_zero_coefficients_are_not_kept(self):
        head = "# height-distribution v1, kind=analytic, unit_area=0\n"
        f = text_to_distribution(head + "0,1,1,0,0\n1,2,2,3,0\n")
        assert distribution_to_text(f) == head + "0,1,1\n1,2,2,3\n"

    @pytest.mark.parametrize("body", ["0,1,1\n1.5,2,1\n", "0,1,1\n0.5,2,1\n"])
    def test_segments_that_are_not_contiguous_rejected(self, body):
        text = "# height-distribution v1, kind=analytic, unit_area=0\n" + body
        with pytest.raises(ParseError, match="line 3"):
            text_to_distribution(text)

    @pytest.mark.parametrize("body, error, match", [
        ("1,2,1\n", InvalidParameterError, "start at s = 0"),
        ("0,1,1\n1,1,1\n", InvalidParameterError, "strictly increasing"),
        ("0,1,nan\n", ParseError, "line 2, column 3: non-finite value 'nan'"),
    ], ids=["1,2,1\n", "0,1,1\n1,1,1\n", "0,1,nan\n"])
    def test_invalid_segments_rejected(self, body, error, match):
        text = "# height-distribution v1, kind=analytic, unit_area=0\n" + body
        with pytest.raises(error, match=match):
            text_to_distribution(text)

    @pytest.mark.parametrize("rows", [
        "0,1\n1,1\n3,1\n",
        # Each node against k * s[1] on its own scale: the third node lies
        # 250 spacings off, far less than any absolute slack.
        "0,1\n1e-12,2\n2.5e-10,3\n",
        "1e-300,1\n1,1\n2,1\n",
        "0,1\n-1,1\n-2,1\n",
        "0,1\n0,2\n0,3\n",
    ])
    def test_nonuniform_sampled_grid_rejected(self, rows):
        text = "# height-distribution v1, kind=sampled, unit_area=0\n" + rows
        with pytest.raises(ParseError, match="uniform"):
            text_to_distribution(text)

    def test_written_grid_reads_back_at_any_length(self):
        # The writer's nodes are arange(n) * delta bit for bit, rounded
        # products of delta = 0.1 that no difference of nodes gives back.
        n = 10**6
        f = HeightDistribution.sampled(0.1, np.arange(n) % 7.0)
        g = text_to_distribution(distribution_to_text(f))
        assert g.bin_width == f.bin_width
        assert g.values.tobytes() == f.values.tobytes()


# ---------------------------------------------------------------------------
# invariants (property tests)
# ---------------------------------------------------------------------------

def _random_catalog_member(draw):
    kind = draw(st.sampled_from(["sphere", "dome", "pyramid"]))
    scale = draw(st.floats(min_value=10.0, max_value=1e5))
    if kind == "sphere":
        return sphere_distribution(scale), 1
    if kind == "dome":
        return dome_distribution(scale), 1
    return pyramid_distribution(scale, scale, per_unit_area=True), 2


@st.composite
def catalog_pairs(draw):
    a, ca = _random_catalog_member(draw)
    b, cb = _random_catalog_member(draw)
    return a, ca, b, cb


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(catalog_pairs())
    def test_convolution_invariants(self, pair):
        a, ca, b, cb = pair
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = convolve(a, b)
        # support additivity (exact), area multiplicativity, non-negativity
        assert f.support_max == a.support_max + b.support_max
        assert projected_area(f) == pytest.approx(
            projected_area(a) * projected_area(b), rel=1e-8
        )
        s = np.linspace(0.0, f.support_max, 10000)
        vals = evaluate(f, s)
        assert np.all(vals >= -1e-12 * vals.max())
        # case additivity
        assert case_number(f).case_number == ca + cb

    @settings(max_examples=20, deadline=None)
    @given(catalog_pairs())
    def test_commutativity(self, pair):
        a, _, b, _ = pair
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ab, ba = convolve(a, b), convolve(b, a)
        s = np.linspace(0.0, ab.support_max, 512)
        va, vb = evaluate(ab, s), evaluate(ba, s)
        scale = np.abs(va).max()
        np.testing.assert_allclose(va, vb, rtol=1e-10, atol=1e-10 * scale)


class TestHistogramBridge:
    def test_linear_density_round_trip(self):
        # Bin masses of f = 2 s l^2 / h^2 convert back to exact node values.
        l = h = 1000.0
        edges = np.arange(65) * (h / 64)
        masses = np.diff(edges**2) * l**2 / h**2

        f = distribution_from_histogram(Histogram(h / 64, masses))
        s = f.grid
        np.testing.assert_allclose(
            np.asarray(f.values), 2 * s * l**2 / h**2, rtol=1e-12, atol=1e-9
        )
