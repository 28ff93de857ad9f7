"""Scaling-law prediction, fitting, verification, case composition."""

import math

import mpmath
import numpy as np
import pytest

from proxint import (
    CaseReport,
    FitError,
    InvalidParameterError,
    Kernel,
    LawForm,
    compose_cases,
    convolve,
    case_number,
    dome_distribution,
    fit_scaling,
    heat_sio2_kernel,
    pa_interaction,
    predict,
    pyramid_distribution,
    smallest_decade,
    sphere_distribution,
    sweep,
    verify,
    HeightDistribution,
)

R = 50000.0
H = 5000.0
ALPHA = 0.2558


def monomial(n):
    """Pure case-n distribution f(s) = s^(n-1)/(n-1)! on [0, 1]."""
    coeffs = [0.0] * (n - 1) + [1.0 / math.factorial(n - 1)]
    return HeightDistribution.analytic([0.0, 1.0], [coeffs])


class TestPredict:
    def test_sphere_power_law(self):
        rep = case_number(sphere_distribution(R))
        law = predict(rep, heat_sio2_kernel())
        assert law.form == LawForm.POWER_LAW
        assert law.exponent == pytest.approx(1.0)
        assert law.prefactor == pytest.approx(2 * math.pi * ALPHA * R, rel=1e-12)

    def test_sphere_dome_logarithmic(self):
        rep = case_number(convolve(sphere_distribution(R), dome_distribution(H)))
        law = predict(rep, heat_sio2_kernel())
        assert law.form == LawForm.LOGARITHMIC
        assert law.prefactor == pytest.approx(4 * math.pi * ALPHA * R / H, rel=1e-12)
        assert law.d0 is None  # never predicted, only fitted

    def test_sphere_pyramid_constant(self):
        f = convolve(sphere_distribution(R), pyramid_distribution(H, H, per_unit_area=True))
        law = predict(case_number(f), heat_sio2_kernel())
        assert law.form == LawForm.CONSTANT
        assert law.prefactor is None  # magnitude not predicted by the theory

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_prefactor_formula_exact(self, n):
        # PowerLaw prefactor = alpha f^(n-1)(0) Gamma(nu - n) / Gamma(nu).
        rep = case_number(monomial(n))
        for dnu in (0.5, 1.0, 2.0):
            k = Kernel(ALPHA, n + dnu)
            law = predict(rep, k)
            expected = ALPHA * rep.leading_coefficient * math.gamma(dnu) / math.gamma(n + dnu)
            assert law.prefactor == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_prefactor_matches_small_d_integral(self, n):
        # Independent of the formula: d^(nu - n) I(d) tends to the prefactor,
        # with corrections of order d^(nu - n) from the support edge.
        f = monomial(n)
        rep = case_number(f)
        d = 1e-10
        for dnu in (0.5, 1.0, 2.0):
            k = Kernel(ALPHA, n + dnu)
            law = predict(rep, k)
            assert d**dnu * pa_interaction(f, k, d) == pytest.approx(law.prefactor, rel=1e-4)

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("nu", [172.0, 200.0, 1000.5])
    def test_prefactor_past_the_gamma_range(self, n, nu):
        # Gamma(nu) overflows a float from nu ~ 171.6; the ratio
        # Gamma(nu - n) / Gamma(nu) does not.
        rep = case_number(monomial(n))
        law = predict(rep, Kernel(ALPHA, nu))
        with mpmath.workdps(30):
            want = ALPHA * rep.leading_coefficient * mpmath.gamma(nu - n) / mpmath.gamma(nu)
        assert law.exponent == nu - n
        assert law.prefactor == pytest.approx(float(want), rel=1e-14)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_prefactor_against_mpmath(self, n):
        # alpha f^(n-1)(0) / ((nu - 1) ... (nu - n)): each nu - k is exact, so
        # n + 1 roundings hold it within (2n + 2) 2^-53 of the Gamma form.
        rng = np.random.default_rng(n)
        for i in range(200):
            nu = float(rng.integers(n + 1, 171)) if i % 2 else rng.uniform(n + 1e-6, 170.0)
            alpha, lead = 10.0 ** rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-20.0, 20.0)
            law = predict(CaseReport(n, lead, (0.0,) * (n - 1) + (lead,)), Kernel(alpha, nu))
            with mpmath.workdps(50):
                want = mpmath.mpf(alpha) * lead * mpmath.gamma(mpmath.mpf(nu) - n) / mpmath.gamma(nu)
                assert abs(law.prefactor - want) <= (2 * n + 2) * 2.0**-53 * want, (nu, alpha, lead)

    def test_marginal_log_detection(self):
        rep = case_number(monomial(2))
        assert predict(rep, Kernel(1.0, 2.0)).form == LawForm.LOGARITHMIC
        assert predict(rep, Kernel(1.0, 2.0 + 1e-9)).form == LawForm.POWER_LAW
        assert predict(rep, Kernel(1.0, 2.0 - 1e-9)).form == LawForm.CONSTANT


class TestFitScaling:
    def test_table_closure(self):
        # Synthetic monomials of case n against all four branch offsets; the
        # fitted form must follow the table and power-law exponents must be
        # recovered to 1e-3 over the smallest decade.
        for n in (1, 2, 3):
            f = monomial(n)
            d = np.geomspace(1e-8, 1e-6, 121)
            for dnu in (-0.5, 0.0, 0.5, 1.0):
                nu = n + dnu
                curve = sweep(f, Kernel(ALPHA, nu), d)
                law = fit_scaling(curve, smallest_decade(d))
                if dnu > 0:
                    assert law.form == LawForm.POWER_LAW, (n, nu)
                    assert law.exponent == pytest.approx(dnu, abs=1e-3)
                elif dnu == 0:
                    assert law.form == LawForm.LOGARITHMIC, (n, nu)
                else:
                    assert law.form == LawForm.CONSTANT, (n, nu)

    def test_smooth_sphere_window(self):
        # PowerLaw exponent 1.00 +- 1e-2 over [1, 30] nm on the raw curve.
        d = np.geomspace(1.0, 30.0, 60)
        curve = sweep(sphere_distribution(R), heat_sio2_kernel(), d)
        law = fit_scaling(curve, (1.0, 30.0))
        assert law.form == LawForm.POWER_LAW
        assert law.exponent == pytest.approx(1.0, abs=1e-2)

    def test_sphere_dome_log_slope(self):
        # The log-branch prefactor 4 pi alpha R / h within 5% over [1, 10] nm.
        f = convolve(sphere_distribution(R), dome_distribution(H))
        d = np.geomspace(1.0, 10.0, 61)
        curve = sweep(f, heat_sio2_kernel(), d)
        law = fit_scaling(curve, (1.0, 10.0))
        assert law.form == LawForm.LOGARITHMIC
        assert law.prefactor == pytest.approx(4 * math.pi * ALPHA * R / H, rel=0.05)
        assert law.d0 is not None and law.d0 > 0

    @pytest.mark.parametrize("h", [10.0, 100.0, 1000.0])
    def test_power_law_through_subleading_log(self, h):
        # Sphere (*) dome at nu = 3: I = P/d + O(ln d) with P the Gamma-form
        # prefactor 2 pi R / h.  A plain two-parameter fit over [0.01, 0.1]
        # nm is off by 7.6% at h = 10 nm; the corrected fit holds 1e-2.
        f = convolve(sphere_distribution(R), dome_distribution(h))
        d = np.geomspace(0.01, 0.1, 61)
        law = fit_scaling(sweep(f, Kernel(1.0, 3.0), d), (0.01, 0.1))
        assert law.form == LawForm.POWER_LAW
        assert law.exponent == pytest.approx(1.0, abs=1e-3)
        assert law.prefactor == pytest.approx(2 * math.pi * R / h, rel=1e-2)

    def test_constant_data(self):
        from proxint import InteractionCurve

        d = np.geomspace(0.1, 10.0, 30)
        curve = InteractionCurve(d, np.full_like(d, 3.7), heat_sio2_kernel())
        law = fit_scaling(curve, (0.1, 10.0))
        assert law.form == LawForm.CONSTANT
        assert law.prefactor == pytest.approx(3.7)

    def test_underdetermined_window(self):
        d = np.geomspace(1.0, 300.0, 40)
        curve = sweep(sphere_distribution(R), heat_sio2_kernel(), d)
        with pytest.raises(FitError):
            fit_scaling(curve, (1.0, 1.2))

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_zero_or_non_finite_value_in_window(self, bad):
        from proxint import InteractionCurve

        d = np.geomspace(1.0, 100.0, 21)
        values = 1.0 / d
        values[5] = bad
        curve = InteractionCurve(d, values, heat_sio2_kernel())
        with pytest.raises(FitError, match=rf"window \[1, 10\] holds a value that is zero or not finite, "
                                           rf"at d={float(d[5])!r} nm"):
            fit_scaling(curve, (1.0, 10.0))
        # Outside the window the value is not read.
        assert fit_scaling(curve, (10.0, 100.0)).form == LawForm.POWER_LAW

    def test_negative_value_rules_out_the_power_law(self):
        # A subtracted sweep can cross zero; a power law cannot, so it is not
        # fitted and cannot win.
        from proxint import InteractionCurve

        d = np.geomspace(1.0, 10.0, 31)
        curve = InteractionCurve(d, 1.0 / d**2 - 0.05, heat_sio2_kernel())
        assert (curve.values < 0).any() and (curve.values != 0).all()
        law = fit_scaling(curve, (1.0, 10.0))
        assert law.residuals["power-law"] == math.inf
        assert law.form == LawForm.LOGARITHMIC

    def test_underflowed_window(self):
        # At nu = 1000 the sphere's I(d) underflows to 0 past about 2 nm.
        d = np.geomspace(1.0, 10.0, 31)
        curve = sweep(sphere_distribution(100.0), Kernel(1.0, 1000.0), d)
        assert curve.values[0] > 0.0 and curve.values[-1] == 0.0
        with pytest.raises(FitError, match="zero or not finite"):
            fit_scaling(curve, (1.0, 10.0))

    @pytest.mark.parametrize("scale", [2.0**-1000, 2.0**600], ids=["tiny", "huge"])
    @pytest.mark.parametrize("form", ["constant", "logarithmic", "power-law"])
    def test_values_far_from_one(self, form, scale):
        # The norms square the window's values, which under- or overflow past
        # about 1e+-154 unless the fit scales them first.  Multiplying the
        # values by a power of two is exact, so the constant and logarithmic
        # residuals must read the same and those prefactors scale exactly;
        # the power law is fitted to log(y), which the scaling shifts.
        from proxint import InteractionCurve

        d = np.geomspace(1.0, 10.0, 31)
        if form == "constant":
            values = 3.7 + 1e-9 * d
        else:
            f = sphere_distribution(100.0)
            if form == "logarithmic":
                f = convolve(f, dome_distribution(1000.0))
            values = sweep(f, Kernel(1.0, 2.0), d).values
        ref = fit_scaling(InteractionCurve(d, values, Kernel(1.0, 2.0)), (1.0, 10.0))
        law = fit_scaling(InteractionCurve(d, scale * values, Kernel(scale, 2.0)), (1.0, 10.0))
        assert law.form == ref.form == LawForm(form)
        assert law.residuals["constant"] == ref.residuals["constant"]
        assert law.residuals["logarithmic"] == ref.residuals["logarithmic"]
        assert law.residuals["power-law"] == pytest.approx(ref.residuals["power-law"], rel=1e-9)
        if form == "power-law":
            assert law.prefactor == pytest.approx(scale * ref.prefactor, rel=1e-9)
        else:
            assert law.prefactor == scale * ref.prefactor
            assert law.d0 == ref.d0

    def test_residuals_attached(self):
        d = np.geomspace(1.0, 10.0, 20)
        curve = sweep(sphere_distribution(R), heat_sio2_kernel(), d)
        law = fit_scaling(curve, (1.0, 10.0))
        assert set(law.residuals) == {"constant", "logarithmic", "power-law"}


class TestVerify:
    def test_matching_power_laws_pass(self):
        d = np.geomspace(1e-6, 1e-4, 100)
        rep = case_number(sphere_distribution(R))
        k = heat_sio2_kernel()
        predicted = predict(rep, k)
        fitted = fit_scaling(sweep(sphere_distribution(R), k, d), smallest_decade(d))
        out = verify(predicted, fitted, tol=0.01)
        assert out.passed and out.form_match
        assert out.prefactor_ok and out.exponent_ok

    def test_form_mismatch_fails_with_residuals(self):
        d = np.geomspace(1.0, 300.0, 100)
        k = heat_sio2_kernel()
        fitted = fit_scaling(sweep(sphere_distribution(R), k, d), (1.0, 10.0))
        rep = case_number(convolve(sphere_distribution(R), dome_distribution(H)))
        predicted = predict(rep, k)  # logarithmic
        out = verify(predicted, fitted)
        assert not out.passed and not out.form_match
        assert "residuals" in out.text()

    def test_sphere_pyramid_constant_pass(self):
        # End-to-end pipeline on the pyramid-modulated sphere: predicted
        # Constant, fitted Constant over a deep small-d decade.
        f = convolve(sphere_distribution(R), pyramid_distribution(H, H, per_unit_area=True))
        k = heat_sio2_kernel()
        predicted = predict(case_number(f), k)
        d = np.geomspace(0.01, 0.1, 20)
        fitted = fit_scaling(sweep(f, k, d), smallest_decade(d))
        out = verify(predicted, fitted)
        assert out.passed
        assert fitted.form == LawForm.CONSTANT

    def test_csv_row_format(self):
        rep = case_number(sphere_distribution(R))
        k = heat_sio2_kernel()
        predicted = predict(rep, k)
        d = np.geomspace(1e-6, 1e-4, 60)
        fitted = fit_scaling(sweep(sphere_distribution(R), k, d), smallest_decade(d))
        row = verify(predicted, fitted).csv_row("sphere")
        fields = row.split(",")
        assert fields[0] == "sphere"
        assert fields[1] == "1"
        assert fields[3] == "power-law" and fields[4] == "power-law"
        assert fields[-1] == "1"


class TestFig4Saturation:
    def test_triple_scale_constant_law(self):
        # Case 1+1+2 = 4 against nu = 3: the interaction saturates; the
        # numeric curve moves < 5% between 1 and 2 nm.
        f = convolve(
            convolve(sphere_distribution(1e5), dome_distribution(1000.0)),
            pyramid_distribution(100.0, 100.0, per_unit_area=True),
        )
        rep = case_number(f)
        assert rep.case_number == 4
        k = Kernel(1.0, 3.0, "casimir-ideal")
        assert predict(rep, k).form == LawForm.CONSTANT
        i1 = pa_interaction(f, k, 1.0)
        i2 = pa_interaction(f, k, 2.0)
        assert abs(i1 - i2) / abs(i1) < 0.05
        d = np.geomspace(0.01, 0.1, 30)
        fitted = fit_scaling(sweep(f, k, d), smallest_decade(d))
        assert fitted.form == LawForm.CONSTANT


class TestComposeCases:
    def test_pairs(self):
        assert compose_cases([1, 1]) == 2
        assert compose_cases([1, 2]) == 3

    def test_triple(self):
        assert compose_cases([1, 1, 2]) == 4

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            compose_cases([])

    def test_invalid_entries_rejected(self):
        with pytest.raises(InvalidParameterError):
            compose_cases([1, 0])
        with pytest.raises(InvalidParameterError):
            compose_cases([1.5])
