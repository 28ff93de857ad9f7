"""Small-separation scaling laws: prediction, fitting, verification.

The asymptotic form of the interaction as d -> 0 is set by the case number
n (order of the first non-vanishing Taylor coefficient of f at s = 0)
against the kernel exponent nu:

    nu < n :  constant, O(d^0)          (saturation)
    nu = n :  -alpha f^(n-1)(0)/(n-1)! * log(d/d0)
    nu > n :  alpha f^(n-1)(0) Gamma(nu - n) / Gamma(nu) * d^(n - nu)

The power-law prefactor comes from the Beta integral
int_0^inf s^(n-1) / (s + d)^nu ds = d^(n - nu) (n-1)! Gamma(nu - n) / Gamma(nu).

Logarithmic prefactors are per unit of natural log of d.  The reference
length d0 of the logarithmic branch depends on higher derivatives of f and
is only ever fitted, never predicted.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._fmt import FMT
from .distributions import CaseReport
from .errors import FitError, InvalidParameterError, NumericError
from .interaction import InteractionCurve, Kernel

__all__ = [
    "LawForm",
    "AsymptoticLaw",
    "VerificationReport",
    "predict",
    "fit_scaling",
    "verify",
    "compose_cases",
    "smallest_decade",
]

# nu == n is the marginal (logarithmic) branch; detected only at exact
# equality up to this tolerance.
_NU_EQ_TOL = 1e-12

# Relative spread below which a window of values counts as constant.
_CONST_SPREAD = 0.02


class LawForm(enum.Enum):
    CONSTANT = "constant"
    LOGARITHMIC = "logarithmic"
    POWER_LAW = "power-law"


@dataclass(frozen=True)
class AsymptoticLaw:
    """One Table-row asymptotic behavior, predicted or fitted.

    ``prefactor`` is nW for Constant and PowerLaw forms, nW per natural-log
    unit for Logarithmic (the coefficient in -P ln(d/d0)); it is None for a
    predicted Constant whose magnitude the theory does not give.
    ``exponent`` is the PowerLaw decay power: I ~ prefactor * d^(-exponent).
    """

    form: LawForm
    prefactor: float | None
    exponent: float | None = None
    d0: float | None = None
    case_n: int | None = None
    nu: float | None = None
    residuals: dict | None = None


def predict(case_report: CaseReport, kernel: Kernel) -> AsymptoticLaw:
    """Select the asymptotic branch for a classified shape and kernel."""
    n = case_report.case_number
    nu = kernel.nu
    lead = case_report.leading_coefficient
    if abs(nu - n) < _NU_EQ_TOL:
        form, exponent = LawForm.LOGARITHMIC, None
        prefactor = kernel.alpha * lead / math.factorial(n - 1)
    elif nu > n:
        form, exponent = LawForm.POWER_LAW, nu - n
        # Gamma(nu - n) / Gamma(nu) = 1 / ((nu - 1) ... (nu - n)).
        prefactor = kernel.alpha * lead / math.prod(nu - k for k in range(1, n + 1))
    else:
        return AsymptoticLaw(LawForm.CONSTANT, prefactor=None, case_n=n, nu=nu)
    if not math.isfinite(prefactor):
        raise NumericError(
            f"predicted {form.value} prefactor is not a finite float "
            f"(alpha={kernel.alpha!r}, f^({n - 1})(0)={lead!r}, nu={nu!r})"
        )
    return AsymptoticLaw(form, prefactor=prefactor, exponent=exponent, case_n=n, nu=nu)


def smallest_decade(separations) -> tuple[float, float]:
    """Default fit window: the smallest decade of available separations."""
    d = np.asarray(separations, dtype=float)
    return float(d.min()), float(d.min() * 10.0)


def fit_scaling(curve: InteractionCurve, window: tuple[float, float]) -> AsymptoticLaw:
    """Fit the three candidate forms over a separation window and pick the best.

    Constant wins outright when the values barely move; otherwise the
    logarithmic and power-law fits compete on relative L2 residual in value
    space, and the smaller residual wins.  A window with fewer than 8
    separations, or with a value that is zero or not finite, raises FitError.
    """
    lo, hi = window
    m = (curve.separations >= lo) & (curve.separations <= hi)
    if m.sum() < 8:
        raise FitError(f"need >= 8 points in window [{lo:g}, {hi:g}], have {int(m.sum())}")
    d = curve.separations[m]
    y = curve.values[m]
    # A zero is an interaction that underflowed; the forms cannot be told
    # apart on it.
    bad = (y == 0.0) | ~np.isfinite(y)
    if bad.any():
        raise FitError(
            f"window [{lo:g}, {hi:g}] holds a value that is zero or not finite, "
            f"at d={float(d[bad.argmax()])!r} nm"
        )
    # The norms and the linear fit run on y / 2**e, with e the exponent of
    # the largest |y|, so their squares neither under- nor overflow.  Scaling
    # by a power of two is exact: wherever y itself is safe, the residuals
    # and the fitted parameters are the same bits.
    e = math.frexp(float(np.max(np.abs(y))))[1]
    ys = np.ldexp(y, -e)
    norm = float(np.linalg.norm(ys))
    ln_d = np.log(d)

    mean = float(np.mean(ys))
    r_const = float(np.linalg.norm(ys - mean)) / norm

    # I = a + b ln d  ->  prefactor -b, d0 = exp(a / -b)
    A = np.column_stack([np.ones_like(ln_d), ln_d])
    (a_log, b_log), *_ = np.linalg.lstsq(A, ys, rcond=None)
    r_log = float(np.linalg.norm(ys - A @ [a_log, b_log])) / norm

    if np.all(y > 0):
        (c_pow, m_pow), *_ = np.linalg.lstsq(A, np.log(y), rcond=None)
        y_pow = np.exp(c_pow + m_pow * ln_d)
        r_pow = float(np.linalg.norm(ys - np.ldexp(y_pow, -e))) / norm
    else:
        c_pow = m_pow = 0.0
        r_pow = math.inf

    residuals = {"constant": r_const, "logarithmic": r_log, "power-law": r_pow}
    nu = curve.kernel.nu

    if r_const < _CONST_SPREAD:
        return AsymptoticLaw(
            LawForm.CONSTANT, prefactor=math.ldexp(mean, e), nu=nu, residuals=residuals
        )

    if r_log <= r_pow:
        prefactor = -math.ldexp(float(b_log), e)
        d0 = float(np.exp(a_log / -b_log)) if b_log != 0.0 else None
        return AsymptoticLaw(
            LawForm.LOGARITHMIC,
            prefactor=prefactor,
            d0=d0,
            nu=nu,
            residuals=residuals,
        )
    # The forms compete as two-parameter fits; the chosen power law's
    # parameters then come from a fit that also carries the leading relative
    # corrections O(d) and O(d ln d), so they estimate the d -> 0 law and
    # not the window's mean slope, which a subleading log term can bend by
    # several percent.
    x = d / d.max()
    B = np.column_stack([A, x, x * np.log(x)])
    (c_pow, m_pow, _, _), *_ = np.linalg.lstsq(B, np.log(y), rcond=None)
    return AsymptoticLaw(
        LawForm.POWER_LAW,
        prefactor=float(np.exp(c_pow)),
        exponent=-float(m_pow),
        nu=nu,
        residuals=residuals,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Field-by-field comparison of a predicted law against a fitted one."""

    passed: bool
    form_match: bool
    prefactor_ok: bool | None
    exponent_ok: bool | None
    predicted: AsymptoticLaw
    fitted: AsymptoticLaw
    tol: float

    def text(self) -> str:
        lines = [
            "asymptotic-law verification "
            + ("PASS" if self.passed else "FAIL"),
            f"  form: predicted={self.predicted.form.value} "
            f"fitted={self.fitted.form.value} "
            + ("match" if self.form_match else "MISMATCH"),
        ]
        if self.prefactor_ok is not None:
            lines.append(
                f"  prefactor: predicted={self.predicted.prefactor:.6g} "
                f"fitted={self.fitted.prefactor:.6g} "
                + ("ok" if self.prefactor_ok else "OFF")
                + f" (tol {self.tol:g})"
            )
        if self.exponent_ok is not None:
            lines.append(
                f"  exponent: predicted={self.predicted.exponent:.6g} "
                f"fitted={self.fitted.exponent:.6g} "
                + ("ok" if self.exponent_ok else "OFF")
            )
        if not self.form_match:
            for which, law in (("predicted", self.predicted), ("fitted", self.fitted)):
                if law.residuals:
                    lines.append(f"  {which} residuals: " + ", ".join(
                        f"{k}={v:.3g}" for k, v in law.residuals.items()
                    ))
        return "\n".join(lines)

    def csv_row(self, shape: str) -> str:
        def fmt(v):
            return FMT % v if v is not None else ""

        pred, fit = self.predicted, self.fitted
        return ",".join([
            shape,
            str(pred.case_n if pred.case_n is not None else ""),
            fmt(pred.nu),
            pred.form.value,
            fit.form.value,
            fmt(pred.prefactor),
            fmt(fit.prefactor),
            fmt(pred.exponent),
            fmt(fit.exponent),
            "1" if self.passed else "0",
        ])


CSV_ROW_HEADER = (
    "shape,case_n,nu,form_pred,form_fit,prefactor_pred,prefactor_fit,"
    "exponent_pred,exponent_fit,pass"
)


def verify(predicted: AsymptoticLaw, fitted: AsymptoticLaw, tol: float = 0.05) -> VerificationReport:
    """Pass/fail comparison at relative tolerance ``tol`` (forms must match exactly)."""
    form_match = predicted.form == fitted.form
    prefactor_ok: bool | None = None
    exponent_ok: bool | None = None
    if form_match and predicted.prefactor is not None and fitted.prefactor is not None:
        prefactor_ok = (
            abs(fitted.prefactor - predicted.prefactor)
            <= tol * abs(predicted.prefactor)
        )
    if form_match and predicted.form == LawForm.POWER_LAW:
        exponent_ok = abs(fitted.exponent - predicted.exponent) <= tol * abs(predicted.exponent)
    passed = form_match and prefactor_ok is not False and exponent_ok is not False
    return VerificationReport(
        passed, form_match, prefactor_ok, exponent_ok, predicted, fitted, tol
    )


def compose_cases(case_list) -> int:
    """Case number of a multi-scale composition: the sum of the case numbers."""
    cases = list(case_list)
    if not cases:
        raise InvalidParameterError("need at least one case number")
    if any(int(c) != c or c < 1 for c in cases):
        raise InvalidParameterError("case numbers must be integers >= 1")
    return int(sum(int(c) for c in cases))
