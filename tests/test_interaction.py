"""Kernels, the PA integral against independent quadrature, corrections, sweeps."""

import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from proxint import (
    HeightDistribution,
    Histogram,
    InvalidParameterError,
    Kernel,
    NumericError,
    ParseError,
    casimir_ideal_kernel,
    compose_gradient,
    convolve,
    curve_from_csv,
    curve_to_csv,
    distribution_from_histogram,
    dome_distribution,
    empirical_distribution,
    evaluate,
    exactness_diagnostic,
    far_field_subtracted,
    gradient_distribution,
    heat_sio2_kernel,
    pa_interaction,
    plate_plate,
    projected_area,
    pyramid_distribution,
    sphere_distribution,
    sweep,
    synthesize_surface,
    to_sampled,
    truncated_gaussian_distribution,
)
import proxint.distributions
import proxint.interaction
from proxint.distributions import _convolve_analytic
from proxint.interaction import _FAR_FALLBACK, _FAR_NU_MAX, _FAR_ORDERS, _closed_form, _segment_integrals

from conftest import rows, sampled_rough

R = 50000.0
H = 5000.0
ALPHA = 0.2558


def sphere_pa_closed_form(d, alpha=ALPHA, radius=R):
    """Independent oracle: int 2 pi (R-u) alpha/(u+d)^2 du = 2 pi alpha [R/d - ln(1+R/d)]."""
    return 2 * math.pi * alpha * (radius / d - math.log1p(radius / d))


def quadrature_oracle(f, kernel, d):
    """PA integral by scipy's adaptive quadrature of evaluate() against the kernel,
    with the segment breakpoints and a geometric grading from the kernel scale d
    passed as break points."""
    grading = d * 2.0 ** np.arange(64)
    points = sorted(set(f.breaks[1:-1].tolist()) | set(grading[grading < f.support_max]))
    return quad(lambda u: evaluate(f, u) * kernel.alpha * (u + d) ** (-kernel.nu),
                0.0, f.support_max, points=points, limit=1000, epsabs=0.0, epsrel=1e-12)[0]


class TestKernel:
    def test_plate_plate_sio2(self):
        # alpha = 0.2558 nW, nu = 2, d = 100 nm -> 2.558e-5 nW/nm^2
        assert plate_plate(heat_sio2_kernel(), 100.0) == pytest.approx(2.558e-5, rel=1e-12)

    def test_power_law_scaling(self):
        k = Kernel(1.0, 2.0)
        assert plate_plate(k, 20.0) == pytest.approx(plate_plate(k, 10.0) / 4.0, rel=1e-12)

    def test_cubic(self):
        assert plate_plate(Kernel(1.0, 3.0), 10.0) == pytest.approx(1e-3, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(InvalidParameterError):
            plate_plate(heat_sio2_kernel(), 0.0)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParameterError):
            Kernel(-1.0, 2.0)

    @pytest.mark.parametrize("alpha, nu", [
        (math.nan, 2.0), (math.inf, 2.0), (1.0, math.nan), (1.0, math.inf), (1.0, -1.0),
    ])
    def test_non_finite_parameters_rejected(self, alpha, nu):
        with pytest.raises(InvalidParameterError, match="kernel"):
            Kernel(alpha, nu)


class TestPaInteraction:
    def test_sphere_against_closed_form(self):
        k = heat_sio2_kernel()
        f = sphere_distribution(R)
        for d in (1.0, 10.0, 100.0, 300.0):
            assert pa_interaction(f, k, d) == pytest.approx(
                sphere_pa_closed_form(d), rel=1e-12
            )

    def test_spec_value_at_100nm(self):
        # 2 pi alpha [R/d - ln(1 + R/d)] ~ 2 pi alpha * 493.78 ~ 793.6 nW
        assert pa_interaction(sphere_distribution(R), heat_sio2_kernel(), 100.0) == pytest.approx(
            793.6, rel=1e-3
        )

    def test_zero_distribution(self):
        f = HeightDistribution.analytic([0.0, 100.0], [[0.0]])
        assert pa_interaction(f, heat_sio2_kernel(), 5.0) == 0.0

    def test_constant_kernel_gives_area(self):
        # nu = 0 degenerates to alpha * projected area.
        k = Kernel(2.0, 0.0)
        f = dome_distribution(H)
        assert pa_interaction(f, k, 7.0) == pytest.approx(2.0 * projected_area(f), rel=1e-9)

    def test_domain_error(self):
        with pytest.raises(InvalidParameterError):
            pa_interaction(sphere_distribution(R), heat_sio2_kernel(), -1.0)

    @pytest.mark.parametrize("nu", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("d", [1.0, 10.0, 100.0])
    def test_analytic_vs_quadrature_catalog(self, nu, d):
        # Quadrature-vs-closed-form invariant over the analytic catalog.
        k = Kernel(ALPHA, nu)
        shapes = [
            sphere_distribution(R),
            dome_distribution(H),
            pyramid_distribution(H, H, per_unit_area=True),
            convolve(sphere_distribution(R), dome_distribution(H)),
            convolve(sphere_distribution(R), pyramid_distribution(H, H, per_unit_area=True)),
        ]
        for f in shapes:
            assert pa_interaction(f, k, d) == pytest.approx(
                quadrature_oracle(f, k, d), rel=1e-8
            )

    def test_sampled_path_matches_analytic(self):
        k = heat_sio2_kernel()
        f = sphere_distribution(R)
        fs = to_sampled(f, 8193)
        for d in (1.0, 30.0, 300.0):
            # sampled linear interpolant of a linear density is exact
            assert pa_interaction(fs, k, d) == pytest.approx(
                pa_interaction(f, k, d), rel=1e-7
            )

    def test_monotone_decreasing_in_d(self):
        k = heat_sio2_kernel()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            shapes = [
                sphere_distribution(R),
                convolve(sphere_distribution(R), truncated_gaussian_distribution(10.0, 20.0)),
            ]
        d = np.geomspace(1.0, 300.0, 40)
        for f in shapes:
            vals = np.array([pa_interaction(f, k, di) for di in d])
            assert np.all(np.diff(vals) < 0)

    def test_linearity(self):
        k = heat_sio2_kernel()
        base = to_sampled(sphere_distribution(R), 2048)
        other = to_sampled(
            HeightDistribution.analytic([0.0, R], [[1000.0, 0.04]]), 2048
        )
        a, b = 2.5, 0.75
        combo = HeightDistribution.sampled(
            base.bin_width, a * np.asarray(base.values) + b * np.asarray(other.values)
        )
        d = 17.0
        lhs = pa_interaction(combo, k, d)
        rhs = a * pa_interaction(base, k, d) + b * pa_interaction(other, k, d)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestFarFieldSubtraction:
    def test_zero_at_reference(self):
        f = sphere_distribution(R)
        assert far_field_subtracted(f, heat_sio2_kernel(), 300.0, 300.0) == 0.0

    def test_positive_below_reference(self):
        f = sphere_distribution(R)
        assert far_field_subtracted(f, heat_sio2_kernel(), 10.0, 300.0) > 0.0

    def test_closed_form_difference(self):
        f = sphere_distribution(R)
        got = far_field_subtracted(f, heat_sio2_kernel(), 1.0, 300.0)
        assert got == pytest.approx(
            sphere_pa_closed_form(1.0) - sphere_pa_closed_form(300.0), rel=1e-12
        )


def _gradient_from_pyramid(h, l, bins=512):
    """Exact bin masses of g = (4 h^2/l^2) f for a unit-area pyramid tiling."""
    delta = h / bins
    edges = np.arange(bins + 1) * delta
    f_masses = np.diff(edges**2) / h**2
    return Histogram(delta, (4 * h**2 / l**2) * f_masses)


@pytest.fixture(scope="module")
def c9_pyramid_gradient():
    """The composed gradient density of acceptance criterion C9's pyramid."""
    tile = synthesize_surface([{"type": "pyramid", "height": H, "tile": H}], n=512)
    g_r = gradient_distribution(tile, bin_width=H / 512)
    return compose_gradient(sphere_distribution(R), g_r, tile.area)


class TestExactnessDiagnostic:
    def test_zero_gradient_flagged_exact(self):
        f = convolve(sphere_distribution(R), dome_distribution(H))
        g = distribution_from_histogram(Histogram(1.0, np.zeros(8)))
        res = exactness_diagnostic(f, g, heat_sio2_kernel(), np.geomspace(1.0, 100.0, 12))
        assert res.asymptotically_exact
        assert np.all(res.ratios == 0.0)

    def test_pyramid_constant_ratio_not_flagged(self):
        h = l = 500.0
        f = convolve(sphere_distribution(R), pyramid_distribution(h, l, per_unit_area=True))
        g = compose_gradient(sphere_distribution(R), _gradient_from_pyramid(h, l), 1.0)
        res = exactness_diagnostic(f, g, heat_sio2_kernel(), np.geomspace(1.0, 30.0, 16))
        assert not res.asymptotically_exact
        # the ratio stays at the 4 h^2/l^2 plateau
        assert res.ratios[0] == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("h", [500.0, 5000.0])
    def test_pyramid_plateau_is_exact(self, h):
        # g = (4 h^2/l^2) f for a pyramid tiling, and the node densities of
        # its exact bin masses are exactly that linear density, so the
        # correction is the PA term times 4 h^2/l^2 up to rounding.
        l = h
        f = convolve(sphere_distribution(R), pyramid_distribution(h, l, per_unit_area=True))
        g = compose_gradient(sphere_distribution(R), _gradient_from_pyramid(h, l), 1.0)
        res = exactness_diagnostic(f, g, heat_sio2_kernel(), np.geomspace(0.1, 300.0, 25))
        np.testing.assert_allclose(res.ratios, 4.0 * h**2 / l**2, rtol=1e-12, atol=0)

    def test_c9_pyramid_not_flagged_exact(self, c9_pyramid_gradient):
        k = heat_sio2_kernel()
        g = c9_pyramid_gradient
        assert pa_interaction(g, k, 1.0) > 0.0
        f = convolve(sphere_distribution(R), pyramid_distribution(H, H, per_unit_area=True))
        res = exactness_diagnostic(f, g, k, np.geomspace(1.0, 300.0, 25))
        assert not res.asymptotically_exact

    def test_correction_is_the_sweep_of_g(self, c9_pyramid_gradient):
        # One integral for f and g: the correction is sweep(g) itself.
        k = heat_sio2_kernel()
        g = c9_pyramid_gradient
        f = convolve(sphere_distribution(R), pyramid_distribution(H, H, per_unit_area=True))
        d = np.geomspace(1.0, 300.0, 25)
        res = exactness_diagnostic(f, g, k, d[::-1])
        np.testing.assert_array_equal(res.separations, d)
        np.testing.assert_array_equal(res.ratios, sweep(g, k, d).values / sweep(f, k, d).values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_separation(self, c9_pyramid_gradient, bad):
        f = convolve(sphere_distribution(R), pyramid_distribution(H, H, per_unit_area=True))
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            exactness_diagnostic(f, c9_pyramid_gradient, heat_sio2_kernel(), [1.0, bad])

    def test_rejects_empty_separations(self):
        f = sphere_distribution(R)
        with pytest.raises(InvalidParameterError, match="at least one separation"):
            exactness_diagnostic(f, f, heat_sio2_kernel(), [])


class TestSweep:
    def test_single_point(self):
        f = sphere_distribution(R)
        k = heat_sio2_kernel()
        curve = sweep(f, k, [10.0])
        assert curve.values[0] == pytest.approx(pa_interaction(f, k, 10.0), rel=1e-14)

    def test_subtracted_reference_is_zero(self):
        f = sphere_distribution(R)
        curve = sweep(f, heat_sio2_kernel(), np.geomspace(1.0, 300.0, 20), subtract_at=300.0)
        assert curve.values[-1] == pytest.approx(0.0, abs=1e-9)

    def test_inverse_distance_exponent(self):
        # Removing the known log term turns the smooth-sphere sweep into a
        # pure 1/d law; the fitted exponent must then be 1 to high accuracy.
        f = sphere_distribution(R)
        k = heat_sio2_kernel()
        d = np.geomspace(1.0, 300.0, 60)
        curve = sweep(f, k, d)
        pure = curve.values + 2 * math.pi * k.alpha * np.log1p(R / d)
        slope = np.polyfit(np.log(d), np.log(pure), 1)[0]
        assert slope == pytest.approx(-1.0, abs=1e-3)

    def test_ratio_axis(self):
        f = sphere_distribution(R)
        curve = sweep(f, heat_sio2_kernel(), np.geomspace(1.0, 300.0, 10), subtract_at=300.0)
        with_ratio = curve.with_ratio(4200.0)
        np.testing.assert_allclose(with_ratio.ratios, with_ratio.values / 4200.0, rtol=1e-15)

    @pytest.mark.parametrize("kernel, d, first", [
        # 1e-320 nm is subnormal: the kernel overflows and the sum is nan.
        (heat_sio2_kernel(), [1e-320, 1e-300, 1.0], 1e-320),
        # alpha near the float maximum overflows the far-branch product.
        (Kernel(1e308, 2.0), [1.0, 2.0], 1.0),
    ])
    def test_non_finite_value_raises(self, kernel, d, first):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericError, match=f"not a finite float at d={first!r} nm"):
                sweep(sphere_distribution(100.0), kernel, d, subtract_at=300.0)

    def test_ratio_that_overflows_raises(self):
        # values of order 1e5 nW over a far-field constant of 1e-305 nW.
        curve = sweep(sphere_distribution(1e5), heat_sio2_kernel(), [1.0, 10.0, 1e6])
        with pytest.raises(NumericError, match=r"ratio to the far-field constant 1e-305 is not a finite float "
                                               r"at d=1\.0 nm"):
            curve.with_ratio(1e-305)

    @pytest.mark.parametrize("far_field", [math.nan, math.inf, 0.0, -1.0])
    def test_ratio_needs_positive_finite_constant(self, far_field):
        curve = sweep(sphere_distribution(R), heat_sio2_kernel(), [1.0, 10.0])
        with pytest.raises(InvalidParameterError, match="far-field constant must be positive and finite"):
            curve.with_ratio(far_field)


class TestGuardedEntryPoints:
    """Every public evaluation takes sweep's guard: a value that is not a
    finite float is a NumericError naming its separation, with no numpy
    warning on the way."""

    @pytest.mark.parametrize("entry", [pa_interaction, far_field_subtracted])
    def test_overflow_is_numeric_error(self, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"interaction is not a finite float at d=1e-300 nm"):
                entry(sphere_distribution(100.0), Kernel(1e300, 2.0), 1e-300)

    def test_diagnostic_ratio_over_an_underflowed_interaction(self):
        # I(d) = 2 pi R / (199 d^199) underflows to 0 at d = 1e3 nm.
        s = sphere_distribution(100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"correction/PA ratio is not a finite float at d=1000\.0 nm"):
                exactness_diagnostic(s, convolve(s, dome_distribution(10.0)), Kernel(1.0, 200.0), [2e3, 1e3])

    def test_plate_plate_overflow_is_numeric_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"not a finite float at d=1e-200 nm"):
                plate_plate(heat_sio2_kernel(), np.array([1.0, 1e-200]))

    @pytest.mark.parametrize("f", [sphere_distribution(R), sampled_rough(20.0, 40.0),
                                   convolve(sphere_distribution(R), sampled_rough(20.0, 40.0))])
    def test_entry_points_are_sweep_rows(self, f):
        k = heat_sio2_kernel()
        d = np.geomspace(0.5, 500.0, 7)
        plain, subtracted = sweep(f, k, d), sweep(f, k, d, subtract_at=300.0)
        for i, di in enumerate(d.tolist()):
            assert pa_interaction(f, k, di) == plain.values[i]
            assert far_field_subtracted(f, k, di, 300.0) == subtracted.values[i]


class TestCurveCsv:
    def test_round_trip_17_digits(self):
        f = sphere_distribution(R)
        curve = sweep(f, heat_sio2_kernel(), np.geomspace(1.0, 300.0, 9), subtract_at=300.0)
        curve = curve.with_ratio(4200.0)
        text = curve_to_csv(curve, provenance="test")
        assert text.splitlines()[0] == "# test"
        assert text.splitlines()[1] == "d_nm,I_nW,ratio"
        back = curve_from_csv(text)
        np.testing.assert_array_equal(back.separations, curve.separations)
        np.testing.assert_array_equal(back.values, curve.values)
        np.testing.assert_array_equal(back.ratios, curve.ratios)

    @pytest.mark.parametrize("text, match", [
        ("", "no header"),
        ("d_nm,ratio\n1,2\n", "line 1: header must be d_nm,I_nW"),
        ("I_nW\n1\n", "header must be"),
        ("# prov\nd_nm,I_nW,corr_nW\n1,2,3\n", "line 2: header must be .* got 'd_nm,I_nW,corr_nW'"),
        ("d_nm,I_nW,corr_nW,ratio\n1,2,3,4\n", "header must be"),
        ("d_nm,I_nW,I_nW\n1,2,3\n", "header must be"),
        ("d_nm,I_nW\n1,2\n2,3,4\n", "line 3: row has 3 values, expected 2"),
        ("d_nm,I_nW\n1\n", "line 2: row has 1 values"),
        ("# prov\nd_nm,I_nW\n1,abc\n", "line 3, column 2: not a number: 'abc'"),
        ("d_nm,I_nW\n1,nan\n", "line 2, column 2: non-finite value 'nan'"),
        # Comment lines stand before the header, where curve_to_csv writes them.
        ("d_nm,I_nW\n1,2\n# note\n", "line 3, column 1: not a number: '#'"),
    ])
    def test_malformed_csv_raises_parse_error(self, text, match):
        with pytest.raises(ParseError, match=match):
            curve_from_csv(text)

    def test_header_only_is_empty_curve(self):
        curve = curve_from_csv("d_nm,I_nW\n")
        assert len(curve.separations) == 0 and curve.ratios is None
        curve = curve_from_csv("# prov\n\n# more\nd_nm,I_nW,ratio\n\n")
        assert len(curve.separations) == 0 and len(curve.ratios) == 0

    @pytest.mark.parametrize("ratios, match", [
        ([1.0, 2.0], "ratios must be 1-D and as long as separations"),
        ([[1.0, 2.0, 3.0]], "ratios must be 1-D and as long as separations"),
        ([1.0, math.nan, 3.0], "ratios must be finite"),
        ([1.0, 2.0, math.inf], "ratios must be finite"),
    ])
    def test_ratios_checked(self, ratios, match):
        from proxint import InteractionCurve

        with pytest.raises(InvalidParameterError, match=match):
            InteractionCurve([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], heat_sio2_kernel(), ratios=ratios)

    def test_ratios_read_only(self):
        from proxint import InteractionCurve

        ratios = np.array([0.5, 0.25, 0.125])
        curve = InteractionCurve([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], heat_sio2_kernel(), ratios=ratios)
        with pytest.raises(ValueError):
            curve.ratios[0] = 1.0

    def test_caller_arrays_stay_writable(self):
        from proxint import InteractionCurve

        d, v, r = np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0]), np.array([0.5, 0.25, 0.125])
        curve = InteractionCurve(d, v, heat_sio2_kernel(), ratios=r)
        for a in (d, v, r):
            a[0] = 9.0
            assert a.flags.writeable
        for a, first in ((curve.separations, 1.0), (curve.values, 3.0), (curve.ratios, 0.5)):
            assert not a.flags.writeable and a[0] == first

    def test_monotone_separations_required(self):
        from proxint import InteractionCurve

        with pytest.raises(InvalidParameterError):
            InteractionCurve(np.array([2.0, 1.0]), np.array([1.0, 2.0]), heat_sio2_kernel())


class TestNonFiniteSeparations:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_pa_interaction_rejects(self, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            pa_interaction(sphere_distribution(R), heat_sio2_kernel(), bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_sweep_rejects(self, bad):
        f, k = sphere_distribution(R), heat_sio2_kernel()
        with pytest.raises(InvalidParameterError, match="finite"):
            sweep(f, k, [1.0, bad])
        with pytest.raises(InvalidParameterError, match="finite"):
            sweep(f, k, [1.0, 2.0], subtract_at=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_plate_plate_rejects(self, bad):
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            plate_plate(heat_sio2_kernel(), bad)
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            plate_plate(heat_sio2_kernel(), np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_curve_rejects(self, bad):
        from proxint import InteractionCurve

        with pytest.raises(InvalidParameterError, match="finite"):
            InteractionCurve(np.array([1.0, bad]), np.array([1.0, 2.0]), heat_sio2_kernel())


_leggauss = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def _far_order_scalar(r, degree, nu):
    """Gauss-Legendre order of a far (segment, d) pair, read from the table row by row."""
    if nu > _FAR_NU_MAX:
        return _FAR_FALLBACK
    row = next(row for edge, row in _FAR_ORDERS if r <= edge)
    return next((n for n, p in row if p >= degree), _FAR_FALLBACK)


def _segment_integral_scalar(coeffs, lo, hi, d, kernel):
    """The one-separation loop form of the segment closed form, as a reference
    for the vectorised one (same branch and order rule, Python-float arithmetic)."""
    nu, alpha = kernel.nu, kernel.alpha
    width = hi - lo
    base = lo + d
    if base >= width:
        nodes, weights = _leggauss(_far_order_scalar(width / base, len(coeffs) - 1, nu))
        u = 0.5 * (lo + hi) + 0.5 * width * nodes
        x = u - lo
        poly = np.zeros_like(x)
        for c in reversed(coeffs):
            poly = poly * x + c
        return alpha * 0.5 * width * float((poly * (u + d) ** (-nu) * weights).sum())
    a, b = lo + d, hi + d
    total = 0.0
    for k, c_k in enumerate(coeffs):
        for j in range(k + 1):
            coef = c_k * math.comb(k, j) * (-base) ** (k - j)
            p = j - nu
            if abs(p + 1.0) < 1e-12:
                term = math.log(b / a)
            else:
                term = (b ** (p + 1.0) - a ** (p + 1.0)) / (p + 1.0)
            total += coef * term
    return alpha * total


def _segment_integral_mpmath(lo, hi, coeffs, d, nu):
    """int_lo^hi sum_k c_k (u - lo)^k (u + d)^-nu du by mpmath quadrature at 30
    digits, on panels graded geometrically from the kernel scale lo + d."""
    with mpmath.workdps(30):
        lo, d, nu = mpmath.mpf(lo), mpmath.mpf(d), mpmath.mpf(nu)
        a, width = lo + d, mpmath.mpf(hi) - lo
        coeffs = [mpmath.mpf(c) for c in reversed(coeffs)]
        points = [mpmath.mpf(0)]
        edge = a
        while edge < width:
            points.append(edge)
            edge *= 4
        points.append(width)
        return mpmath.quad(lambda t: mpmath.polyval(coeffs, t) * (t + a) ** (-nu), points)


def _segment_integral_expanded_mpmath(lo, hi, coeffs, d, nu):
    """int_lo^hi sum_k c_k (u - lo)^k (u + d)^-nu du by the binomial expansion in
    powers of x = u + d, summed in mpmath with 30 digits to spare beyond its
    cancellation, about (degree + 1) log10((hi + d) / width) digits."""
    digits = 40 + (len(coeffs) + 1) * max(math.log10((hi + d) / (hi - lo)), 0.0)
    with mpmath.workdps(int(digits)):
        lo, hi, d, nu = (mpmath.mpf(v) for v in (lo, hi, d, nu))
        a, b = lo + d, hi + d
        # int_a^b x^(j - nu) dx = x^(1 - nu) x^j / (j + 1 - nu) between a and b
        pa, pb = a ** (1 - nu), b ** (1 - nu)
        power_integral = [
            mpmath.log(b / a) if j + 1 == nu else (pb * b**j - pa * a**j) / (j + 1 - nu)
            for j in range(len(coeffs))
        ]
        neg_pow = [(-a) ** m for m in range(len(coeffs))]
        return mpmath.fsum(
            mpmath.mpf(c) * mpmath.fsum(math.comb(k, j) * neg_pow[k - j] * power_integral[j]
                                        for j in range(k + 1))
            for k, c in enumerate(coeffs)
        )


def _gauss_legendre_mpmath(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], Newton-refined at 30 digits."""
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


class TestVectorisedClosedForm:
    D = np.array([1e-6, 1e-3, 1.0, 100.0])
    FAR_D = np.array([1e-3, 1.0, 100.0, 1e4, 1e5])

    @pytest.mark.parametrize("nu", [2.0, 2.5, 3.0])
    def test_expanded_branch_matches_mpmath(self, deep_stack, nu):
        kernel = Kernel(1.0, nu)
        checked = 0
        for lo, hi, coeffs in rows(deep_stack):
            near = lo + self.D < hi - lo   # the expanded-binomial branch
            if not near.any():
                continue
            got = _segment_integrals(np.array([lo, hi]), np.array([coeffs]), self.D, kernel)[0]
            for d, value in zip(self.D[near], got[near]):
                want = float(_segment_integral_mpmath(lo, hi, coeffs, d, nu))
                assert value == pytest.approx(want, rel=1e-12, abs=0.0)
                checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("nu", [2.0, 2.5, 3.0])
    def test_gauss_branch_matches_mpmath(self, deep_stack, nu):
        # Every far pair of FAR_D, plus separations that put the first
        # segment (lo = 0) at each band edge r = width / d and just below r = 1.
        kernel = Kernel(1.0, nu)
        first_width = deep_stack.breaks[1]
        edges = np.array([edge for edge, _ in _FAR_ORDERS] + [1.0 - 1e-9])
        probes = first_width / edges
        checked = 0
        for i, (lo, hi, coeffs) in enumerate(rows(deep_stack)):
            d = np.concatenate([self.FAR_D, probes]) if i == 0 else self.FAR_D
            d = d[lo + d >= hi - lo]   # the Gauss-Legendre branch
            got = _segment_integrals(np.array([lo, hi]), np.array([coeffs]), d, kernel)[0]
            for di, value in zip(d.tolist(), got):
                want = float(_segment_integral_expanded_mpmath(lo, hi, coeffs, di, nu))
                assert value == pytest.approx(want, rel=1e-12, abs=0.0)
                checked += 1
        assert checked >= 10
        r = first_width / probes
        np.testing.assert_allclose(r, edges, rtol=1e-15)
        assert r[-1] < 1.0

    def test_far_order_table_matches_its_derivation(self):
        # Each entry (edge, (n, p)) claims that n-point Gauss-Legendre
        # integrates t^p (1 + r t)^-nu over [0, 1] within 2^-56 relative at
        # r = edge for every nu <= _FAR_NU_MAX (tools/derive_far_orders.py).
        nus = np.arange(0.25, _FAR_NU_MAX + 0.125, 0.25)
        with mpmath.workdps(30):
            for edge, row in _FAR_ORDERS:
                r = mpmath.mpf(edge)
                for n, p in row:
                    nodes, weights = _gauss_legendre_mpmath(n)
                    t = [(1 + x) / 2 for x in nodes]
                    for nu in nus:
                        nu = mpmath.mpf(nu)
                        exact = mpmath.hyp2f1(nu, p + 1, p + 2, -r) / (p + 1)
                        rule = mpmath.fdot(weights, [tj**p * (1 + r * tj) ** -nu for tj in t]) / 2
                        assert abs(rule / exact - 1) <= 2.0**-56, (edge, n, p, float(nu))

    @pytest.mark.parametrize("nu", [0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 7.0])
    def test_matches_scalar_loop(self, deep_stack, nu):
        # The branch and the Gauss-Legendre order are chosen per (segment, d);
        # d spans both sides of the branch on every segment width, and nu = 7
        # is past the order table.  numpy's vector pow/log and libm's may
        # differ in the last bit, so allow 20 ulp.
        kernel = Kernel(ALPHA, nu)
        d = np.sort(np.concatenate([np.geomspace(1e-6, 1e3, 60), [100.0, 150.0, 250.0]]))
        shapes = [
            sphere_distribution(R),
            convolve(sphere_distribution(R), dome_distribution(50.0)),
            convolve(sphere_distribution(R), pyramid_distribution(100.0, 1.0, per_unit_area=True)),
            deep_stack,
        ]
        for f in shapes:
            got = sweep(f, kernel, d).values
            want = [sum(_segment_integral_scalar(coeffs, lo, hi, di, kernel)
                        for lo, hi, coeffs in rows(f)) for di in d.tolist()]
            np.testing.assert_allclose(got, want, rtol=20 * np.finfo(float).eps, atol=0.0)


def _expanded_loop(coeffs, a, b, kernel):
    """The near branch term by term: each (k, j) term of the binomial
    expansion added to a zero start by three numpy operations, k outer and
    j <= k inner, skipping every k whose coefficient is zero."""
    nu = kernel.nu
    neg = -a
    neg_pow = [neg**m for m in range(len(coeffs))]
    power_integral = []
    for j in range(len(coeffs)):
        p = j - nu
        if abs(p + 1.0) < 1e-12:
            power_integral.append(np.log(b / a))
        else:
            power_integral.append((b ** (p + 1.0) - a ** (p + 1.0)) / (p + 1.0))
    total = np.zeros_like(a)
    for k, c_k in enumerate(coeffs.tolist()):
        if c_k == 0.0:
            continue
        for j in range(k + 1):
            total += c_k * math.comb(k, j) * neg_pow[k - j] * power_integral[j]
    return kernel.alpha * total


@st.composite
def catalog_stacks(draw):
    """A sphere carrying up to two dome or pyramid layers and, at times, the
    analytic roughness, whose pieces are of degree 17."""
    f = sphere_distribution(draw(st.floats(min_value=1e4, max_value=2e5)))
    for kind in draw(st.lists(st.sampled_from(["dome", "pyramid"]), max_size=2)):
        h = draw(st.floats(min_value=10.0, max_value=2000.0))
        f = convolve(f, dome_distribution(h) if kind == "dome" else pyramid_distribution(h, h, per_unit_area=True))
    if draw(st.booleans()):
        sigma = draw(st.floats(min_value=1.0, max_value=10.0))
        f = convolve(f, truncated_gaussian_distribution(sigma, draw(st.floats(min_value=0.0, max_value=3.0)) * sigma))
    return f


class TestExpandedTerms:
    @settings(max_examples=15)
    @given(catalog_stacks(), st.sampled_from([heat_sio2_kernel(), casimir_ideal_kernel(1.0)]))
    def test_matches_term_loop(self, f, kernel):
        # The near branch's terms, built as arrays and added in the loop's
        # order, give every segment integral bit for bit, from d = 1e-12,
        # over many separations and over one alone.
        d = np.geomspace(1e-12, 1e3, 46)
        for sep in (d, d[:1], d[20:21]):
            got = _segment_integrals(f.breaks, f.coeffs, sep, kernel)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(proxint.interaction, "_expanded", _expanded_loop)
                want = _segment_integrals(f.breaks, f.coeffs, sep, kernel)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kernel", [heat_sio2_kernel(), casimir_ideal_kernel(1.0)])
    def test_matches_term_loop_at_fold_block_width(self, kernel):
        # The fold hands the near branch a block of _FOLD_BLOCK separations
        # at once.  A degree-17 rough row, and a row with interior zero
        # coefficients, give the loop's bits over such a block.
        f = convolve(sphere_distribution(R), truncated_gaussian_distribution(5.0, 10.0))
        s = int(np.flatnonzero(f.coeffs[:, 17])[0])
        lo, hi = f.breaks[s], f.breaks[s + 1]
        d = np.geomspace(1e-12, 1e3, proxint.interaction._FOLD_BLOCK)
        sparse = np.array([0.5, 0.0, 0.0, -2.0, 0.0, 3.0, 0.0, 0.0, 1.0])
        for coeffs in (f.coeffs[s], sparse):
            got = proxint.interaction._expanded(coeffs, lo + d, hi + d, kernel)
            want = _expanded_loop(coeffs, lo + d, hi + d, kernel)
            assert got.tobytes() == want.tobytes()


FIG2_ROUGHNESS = [(10.0, 20.0), (2.5, 5.0), (10.0, 0.0), (2.5, 0.0)]  # fig2, fig2-inset, s0 = 0


def _fold_reference(rough, d):
    """int f_r(t) I_sphere(d + t) dt with per-cell scipy quad of the piecewise-linear f_r."""
    v, width = np.asarray(rough.values), rough.bin_width
    total = 0.0
    for k in range(len(v) - 1):
        lo = k * width
        slope = (v[k + 1] - v[k]) / width
        total += quad(lambda t: (v[k] + slope * (t - lo)) * sphere_pa_closed_form(d + t),
                      lo, lo + width, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return total


class TestInteractionSpaceFold:
    @pytest.mark.parametrize("sigma, s0", FIG2_ROUGHNESS)
    def test_matches_per_cell_quad(self, sigma, s0):
        rough = sampled_rough(sigma, s0)
        f = convolve(sphere_distribution(R), rough)
        d = [1e-3, 1e-2, 0.1, 1.0, 300.0]
        got = sweep(f, heat_sio2_kernel(), d).values
        want = [_fold_reference(rough, di) for di in d]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("nu", [2.0, 3.0])
    @pytest.mark.parametrize("sigma, s0", FIG2_ROUGHNESS)
    def test_matches_exact_convolution_of_linear_pieces(self, sigma, s0, nu):
        # The sphere folded against measured roughness equals the closed form
        # of the sphere convolved exactly with the roughness's linear pieces,
        # from far field down to separations far below one bin.
        rough = sampled_rough(sigma, s0)
        v, width = np.asarray(rough.values), rough.bin_width
        pieces = HeightDistribution.analytic(
            np.arange(len(v)) * width, np.stack([v[:-1], np.diff(v) / width], axis=1)
        )
        exact = _convolve_analytic(sphere_distribution(R), pieces)
        kernel = Kernel(ALPHA, nu)
        d = np.array([1e-9, 1e-6, 1e-3, 1.0, 300.0])
        got = sweep(convolve(sphere_distribution(R), rough), kernel, d).values
        np.testing.assert_allclose(got, _closed_form(exact, d, kernel), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("sigma, s0", FIG2_ROUGHNESS[:2])
    def test_no_grid(self, monkeypatch, sigma, s0):
        def forbidden(*args, **kwargs):
            raise AssertionError("convolution grid built")

        monkeypatch.setattr(proxint.distributions, "_convolve_numeric", forbidden)
        f = convolve(sphere_distribution(R), sampled_rough(sigma, s0))
        k = heat_sio2_kernel()
        d = np.geomspace(1e-3, 300.0, 97)
        curve = sweep(f, k, d, subtract_at=300.0)
        # Each separation's value depends on that separation alone, however
        # the sweep is blocked and grouped.
        at_ref = pa_interaction(f, k, 300.0)
        for i in (0, 40, 96):
            assert pa_interaction(f, k, d[i]) - at_ref == curve.values[i]
        assert f._values is None

    def test_layer_order_gives_identical_values(self):
        sphere, rough = sphere_distribution(R), sampled_rough(10.0, 20.0)
        pyramid = pyramid_distribution(100.0, 1.0, per_unit_area=True)
        rough_first = convolve(convolve(sphere, rough), pyramid)
        pyramid_first = convolve(convolve(sphere, pyramid), rough)
        d = np.geomspace(1.0, 300.0, 31)
        k = heat_sio2_kernel()
        np.testing.assert_array_equal(sweep(rough_first, k, d, subtract_at=300.0).values,
                                      sweep(pyramid_first, k, d, subtract_at=300.0).values)
        assert rough_first._values is None and pyramid_first._values is None


def _linear_pieces_mpmath(f):
    """Node weights of int f(u) x(u)^-nu du for the piecewise-linear sampled f,
    at 30 digits.  On piece k, f(u) = A_k + B_k u, so with the antiderivatives
    F0 of x^-nu and F1 of x^(1-nu), x = u + d, the integral is
    sum_k (A_k - B_k d) dF0_k + B_k dF1_k, telescoped onto the nodes."""
    v = [mpmath.mpf(x) for x in np.asarray(f.values).tolist()]
    delta = mpmath.mpf(f.bin_width)
    B = [(hi - lo) / delta for lo, hi in zip(v[:-1], v[1:])] + [0]
    A = [v[k] - B[k] * k * delta for k in range(len(v) - 1)] + [0]
    return delta, [A[j - 1] - A[j] if j else -A[0] for j in range(len(v))], \
        [B[j - 1] - B[j] if j else -B[0] for j in range(len(v))]


def _sampled_integral_mpmath(weights, x, d, nu):
    """The telescoped sum at the nodes x_j = j delta + d:
    F0 = x^(1-nu)/(1-nu), F1 = x^(2-nu)/(2-nu), or log x at nu = 2."""
    _, cA, cB = weights
    p = [xj ** (1 - nu) for xj in x]
    if nu == 2:
        second = mpmath.fdot([mpmath.log(xj) for xj in x], cB)
    else:
        second = mpmath.fdot([xj * pj for xj, pj in zip(x, p)], cB) / (2 - nu)
    return (mpmath.fdot(p, cA) - d * mpmath.fdot(p, cB)) / (1 - nu) + second


def _scan_distribution():
    hm = synthesize_surface([{"type": "cap", "radius": R}, {"type": "rough", "sigma": 5.0, "xi": 40.0}],
                            n=128, extent=4000.0, seed=7)
    return distribution_from_histogram(empirical_distribution(hm, 1.0), area=hm.area)


PURE_SAMPLED = {
    "sphere-dome": lambda: to_sampled(convolve(sphere_distribution(R), dome_distribution(50.0)), 2048),
    "sphere": lambda: to_sampled(sphere_distribution(R), 2048),
    "rough-s0-0": lambda: sampled_rough(10.0, 0.0),
    "rough-s0-20": lambda: sampled_rough(10.0, 20.0),
    "scan": _scan_distribution,
}


class TestPureSampledFold:
    """A sampled density alone is the fold against a delta at 0."""

    D = np.array([1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 300.0])

    @pytest.mark.parametrize("name", sorted(PURE_SAMPLED))
    def test_matches_exact_piecewise_linear_integral(self, name):
        f = PURE_SAMPLED[name]()
        got = {nu: sweep(f, Kernel(1.0, nu), self.D).values for nu in (2, 2.5, 3)}
        with mpmath.workdps(30):
            weights = _linear_pieces_mpmath(f)
            for i, d in enumerate(self.D.tolist()):
                d = mpmath.mpf(d)
                x = [j * weights[0] + d for j in range(len(weights[1]))]
                for nu, values in got.items():
                    want = float(_sampled_integral_mpmath(weights, x, d, mpmath.mpf(nu)))
                    assert values[i] == pytest.approx(want, rel=1e-14, abs=0.0), (nu, float(d))
