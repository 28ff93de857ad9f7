"""Kernels, the PA integral against independent quadrature, corrections, sweeps."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from proxint import (
    HeightDistribution,
    Histogram,
    InvalidParameterError,
    Kernel,
    ParseError,
    PolySegment,
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
    gradient_correction,
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
from proxint.interaction import _segment_integral

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
    points = sorted({seg.lo for seg in f.segments[1:]} | set(grading[grading < f.support_max]))
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
        f = HeightDistribution.analytic([PolySegment(0.0, 100.0, (0.0,))])
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
            HeightDistribution.analytic([PolySegment(0.0, R, (1000.0, 0.04))]), 2048
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


class TestGradientCorrection:
    def test_zero_gradient(self):
        g = Histogram(1.0, np.zeros(16))
        assert gradient_correction(g, heat_sio2_kernel(), 5.0) == 0.0

    def test_pyramid_proportionality(self):
        # g = (4 h^2 / l^2) f for pyramid tilings, so the correction is the
        # same multiple of the PA term.
        h = l = 500.0
        k = heat_sio2_kernel()
        g = _gradient_from_pyramid(h, l, bins=4096)
        f = pyramid_distribution(h, l, per_unit_area=True)
        for d in (5.0, 50.0):
            corr = gradient_correction(g, k, d)
            assert corr == pytest.approx(4 * h**2 / l**2 * pa_interaction(f, k, d), rel=1e-3)



@pytest.fixture(scope="module")
def c9_pyramid_gradient():
    """The composed gradient histogram of acceptance criterion C9's pyramid."""
    tile = synthesize_surface([{"type": "pyramid", "height": H, "tile": H}], n=512)
    g_r = gradient_distribution(tile, bin_width=H / 512)
    return compose_gradient(sphere_distribution(R), g_r, tile.area)


def _step_integral_mpmath(g, nu, d):
    """sum_k (w_k / width) int_(k width + d)^((k+1) width + d) x^-nu dx at 30 digits."""
    with mpmath.workdps(30):
        width, nu, d = mpmath.mpf(g.bin_width), mpmath.mpf(nu), mpmath.mpf(d)
        if nu == 1:
            antiderivative = mpmath.log
        else:
            def antiderivative(x):
                return x ** (1 - nu) / (1 - nu)
        edges = [antiderivative(k * width + d) for k in range(len(g.weights) + 1)]
        total = mpmath.fsum(
            mpmath.mpf(w) / width * (hi - lo)
            for w, lo, hi in zip(g.weights.tolist(), edges[:-1], edges[1:])
        )
        return float(total)


class TestGradientCorrectionClosedForm:
    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.0, 2.5, 3.0])
    def test_matches_mpmath_per_bin(self, c9_pyramid_gradient, nu):
        g = c9_pyramid_gradient
        for d in (0.1, 2.0, 300.0):
            want = _step_integral_mpmath(g, nu, d)
            got = gradient_correction(g, Kernel(1.0, nu), d)
            assert got == pytest.approx(want, rel=1e-13)

    def test_c9_pyramid_not_flagged_exact(self, c9_pyramid_gradient):
        k = heat_sio2_kernel()
        g = c9_pyramid_gradient
        assert gradient_correction(g, k, 1.0) > 0.0
        f = convolve(sphere_distribution(R), pyramid_distribution(H, H, per_unit_area=True))
        res = exactness_diagnostic(f, g, k, np.geomspace(1.0, 300.0, 25))
        assert not res.asymptotically_exact

    def test_domain_error(self):
        with pytest.raises(InvalidParameterError):
            gradient_correction(Histogram(1.0, np.ones(4)), heat_sio2_kernel(), 0.0)


class TestExactnessDiagnostic:
    def test_zero_gradient_flagged_exact(self):
        f = convolve(sphere_distribution(R), dome_distribution(H))
        g = Histogram(1.0, np.zeros(8))
        res = exactness_diagnostic(f, g, heat_sio2_kernel(), np.geomspace(1.0, 100.0, 12))
        assert res.asymptotically_exact
        assert np.all(res.ratios == 0.0)

    def test_pyramid_constant_ratio_not_flagged(self):
        h = l = 500.0
        f = convolve(sphere_distribution(R), pyramid_distribution(h, l, per_unit_area=True))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            from proxint import compose_gradient

            g = compose_gradient(sphere_distribution(R), _gradient_from_pyramid(h, l), 1.0)
        res = exactness_diagnostic(f, g, heat_sio2_kernel(), np.geomspace(1.0, 30.0, 16))
        assert not res.asymptotically_exact
        # the ratio stays at the 4 h^2/l^2 plateau
        assert res.ratios[0] == pytest.approx(4.0, rel=0.05)


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
        ("# prov\nd_nm,I_nW\n1,abc\n", "line 3: not a finite number"),
        ("d_nm,I_nW\n1,nan\n", "line 2: not a finite number"),
    ])
    def test_malformed_csv_raises_parse_error(self, text, match):
        with pytest.raises(ParseError, match=match):
            curve_from_csv(text)

    def test_header_only_is_empty_curve(self):
        curve = curve_from_csv("d_nm,I_nW\n")
        assert len(curve.separations) == 0 and curve.ratios is None

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_gradient_correction_rejects(self, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            gradient_correction(Histogram(1.0, np.ones(4)), heat_sio2_kernel(), bad)


_GL64_NODES, _GL64_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _segment_integral_scalar(coeffs, lo, hi, d, kernel):
    """The one-separation loop form of the segment closed form, as a reference
    for the vectorised one (same branch rule, Python-float arithmetic)."""
    nu, alpha = kernel.nu, kernel.alpha
    width = hi - lo
    base = lo + d
    if base >= width:
        u = 0.5 * (lo + hi) + 0.5 * width * _GL64_NODES
        x = u - lo
        poly = np.zeros_like(x)
        for c in reversed(coeffs):
            poly = poly * x + c
        return alpha * 0.5 * width * float((poly * (u + d) ** (-nu) * _GL64_WEIGHTS).sum())
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


@pytest.fixture(scope="module")
def deep_stack():
    """sphere 1e5 (*) domes 4000/2000/1000/500/250 (*) pyramid 100: 127 segments, degree 13."""
    f = sphere_distribution(1e5)
    for h in (4000.0, 2000.0, 1000.0, 500.0, 250.0):
        f = convolve(f, dome_distribution(h))
    f = convolve(f, pyramid_distribution(100.0, 1.0, per_unit_area=True))
    assert len(f.segments) == 127
    assert max(len(seg.coeffs) for seg in f.segments) - 1 == 13
    return f


def _segment_integral_mpmath(seg, d, nu):
    """int_lo^hi sum_k c_k (u - lo)^k (u + d)^-nu du by mpmath quadrature at 30
    digits, on panels graded geometrically from the kernel scale lo + d."""
    with mpmath.workdps(30):
        lo, d, nu = mpmath.mpf(seg.lo), mpmath.mpf(d), mpmath.mpf(nu)
        a, width = lo + d, mpmath.mpf(seg.hi) - lo
        coeffs = [mpmath.mpf(c) for c in reversed(seg.coeffs)]
        points = [mpmath.mpf(0)]
        edge = a
        while edge < width:
            points.append(edge)
            edge *= 4
        points.append(width)
        return mpmath.quad(lambda t: mpmath.polyval(coeffs, t) * (t + a) ** (-nu), points)


class TestVectorisedClosedForm:
    D = np.array([1e-6, 1e-3, 1.0, 100.0])

    @pytest.mark.parametrize("nu", [2.0, 2.5, 3.0])
    def test_expanded_branch_matches_mpmath(self, deep_stack, nu):
        kernel = Kernel(1.0, nu)
        checked = 0
        for seg in deep_stack.segments:
            near = seg.lo + self.D < seg.hi - seg.lo   # the expanded-binomial branch
            if not near.any():
                continue
            got = _segment_integral(seg.coeffs, seg.lo, seg.hi, self.D, kernel)
            for d, value in zip(self.D[near], got[near]):
                want = float(_segment_integral_mpmath(seg, d, nu))
                assert value == pytest.approx(want, rel=1e-12, abs=0.0)
                checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("nu", [0.0, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_matches_scalar_loop(self, deep_stack, nu):
        # The branch is chosen per (segment, d); d spans both sides of it on
        # every segment width.  numpy's vector pow/log and libm's may differ
        # in the last bit, so allow 20 ulp.
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
            want = [sum(_segment_integral_scalar(seg.coeffs, seg.lo, seg.hi, di, kernel)
                        for seg in f.segments) for di in d.tolist()]
            np.testing.assert_allclose(got, want, rtol=20 * np.finfo(float).eps, atol=0.0)


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
        rough = truncated_gaussian_distribution(sigma, s0)
        f = convolve(sphere_distribution(R), rough)
        d = [1e-3, 1e-2, 0.1, 1.0, 300.0]
        got = sweep(f, heat_sio2_kernel(), d).values
        want = [_fold_reference(rough, di) for di in d]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("sigma, s0", FIG2_ROUGHNESS[:2])
    def test_no_grid(self, monkeypatch, sigma, s0):
        def forbidden(*args, **kwargs):
            raise AssertionError("convolution grid built")

        monkeypatch.setattr(proxint.distributions, "_convolve_numeric", forbidden)
        f = convolve(sphere_distribution(R), truncated_gaussian_distribution(sigma, s0))
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
        sphere, rough = sphere_distribution(R), truncated_gaussian_distribution(10.0, 20.0)
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
    "rough-s0-0": lambda: truncated_gaussian_distribution(10.0, 0.0),
    "rough-s0-20": lambda: truncated_gaussian_distribution(10.0, 20.0),
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
