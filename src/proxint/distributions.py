"""Height distribution functions of curved, modulated, and rough surfaces.

A height distribution f(s) is the area density of local surface-to-surface
separations, measured from the distance of closest approach: f(s) = 0 for
s < 0, and f carries units of nm (area per unit height, nm^2/nm).

Every distribution is an analytic part (*) a sampled part, either of which
may be absent:

* analytic -- piecewise polynomials on contiguous segments, held as the
  arrays ``breaks`` and ``coeffs``.  Every catalog shape is one:
  the sphere, dome and pyramid exactly, the truncated Gaussian roughness as
  polynomial pieces within an ulp of its peak.  Convolution of two analytic
  distributions is computed exactly (the result is again piecewise
  polynomial, with breakpoints at pairwise sums of the input breakpoints),
  which makes closed-form regression tests possible at machine precision.
* sampled -- density values on a uniform grid s_k = k * bin_width, with
  linear interpolation between nodes: measured data such as a heightmap
  histogram, or ``to_sampled`` output.  Two sampled parts are convolved on
  their own grid with trapezoid accuracy.

``convolve`` merges the analytic parts exactly and the sampled parts on
their grid.  When both remain, the result keeps them as ``factors`` =
(analytic, sampled), so the interaction module folds the sampled part
against the closed form of the analytic one; their joint grid is built
only when its node values are first read.  The result does not depend on
the order in which layers are convolved.

Everything here is immutable after construction and free of global state;
all operations are pure functions and safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._fmt import FMT, StringLines, read_line, read_rows, table
from .errors import InvalidParameterError, NumericError, ParseError, UnclassifiableError

__all__ = [
    "HeightDistribution",
    "CaseReport",
    "sphere_distribution",
    "dome_distribution",
    "pyramid_distribution",
    "truncated_gaussian_distribution",
    "truncated_gaussian_norm",
    "convolve",
    "case_number",
    "evaluate",
    "projected_area",
    "to_sampled",
    "distribution_to_text",
    "text_to_distribution",
    "write_distribution",
    "read_distribution",
]

# Tail mass of a Gaussian beyond 8 sigma is < 1e-15, far below every test
# tolerance in this package, so a truncated-Gaussian distribution can be
# carried on the finite support [s0 - 8 sigma, s0 + 8 sigma] within [0, inf).
GAUSSIAN_SUPPORT_SIGMAS = 8.0

# exp(-x^2/2) on [-8, 8] as polynomial pieces: row k covers
# [-8 + k w, -8 + (k + 1) w] and holds the coefficients in t = x - (-8 + k w)
# of its interpolant at the piece's Chebyshev points.  Each row is within
# 2^-52, an ulp of the peak, of exp(-x^2/2) on its piece.  The table is the
# output of tools/derive_gaussian_pieces.py.
_GAUSSIAN_PIECE_WIDTH = 1.0
_GAUSSIAN_PIECES = (
    (1.2664165498925222e-14, 1.0131335006891268e-13, 3.9891903673846784e-13, 1.0300917093251827e-12,
     1.9590280525241312e-12, 2.944029323546346e-12, 3.4867612757300203e-12, 4.1212889287419755e-12,
     1.7068775109020594e-12, 6.188671141762582e-12, -5.027909758858519e-12, 9.635953951355512e-12,
     -7.50241234002665e-12, 5.3155676184303906e-12, -1.9257090698062753e-12, 4.5221356046004905e-13),
    (2.2897348456868005e-11, 1.6028143898423316e-10, 5.495363807869915e-10, 1.2288237740914292e-09,
     2.0130688560533487e-09, 2.5724094954538952e-09, 2.666492395659616e-09, 2.294846631177606e-09,
     1.6889629927987348e-09, 1.0231979443728807e-09, 6.113668349055341e-10, 2.123941356744062e-10,
     1.5034853092943507e-10, 1.626380553135915e-11, 1.5589571707951192e-11, 3.499608129057705e-12),
    (1.5229979744715402e-08, 9.137987846685171e-08, 2.665246456549268e-07, 5.025893273745455e-07,
     6.872529123532182e-07, 7.241846896460788e-07, 6.096496228272059e-07, 4.1906450917467185e-07,
     2.382346434809658e-07, 1.1185880245237746e-07, 4.413843156748154e-08, 1.2566767589612927e-08,
     4.1887153640977895e-09, -4.1020321897097187e-10, 3.795059527565106e-10, -1.7905635186599833e-10),
    (3.726653172078652e-06, 1.863326586040328e-05, 4.471983806408033e-05, 6.832197485169886e-05,
     7.422250844445565e-05, 6.055812055253542e-05, 3.809462707460696e-05, 1.8559591169640726e-05,
     6.836709754545305e-06, 1.7395458786477835e-06, 1.7828212593111196e-07, -6.417937580127875e-08,
     -5.75379022705593e-08, -2.7501496463489926e-09, -6.199869651963702e-09, 2.1782512579554583e-09),
    (0.0003354626279025112, 0.0013418505116103616, 0.0025159697092423127, 0.0029073427760346253,
     0.002278350332629352, 0.0012412118809630444, 0.0004477483614079511, 7.854573579769837e-05,
     -1.6713969803001855e-05, -1.6112358802107448e-05, -4.8469609912265965e-06, -2.109829230643812e-07,
     2.66340720947643e-07, 1.2571891044933958e-07, 1.8955751779008245e-08, -1.2140209327120733e-08),
    (0.011108996538242313, 0.033326989614723294, 0.04443598615327649, 0.03332698960444999,
     0.013886245852872863, 0.0016663475782893403, -0.0014811863912222256, -0.000872912225394484,
     -0.0001419578939807717, 4.9080408588693875e-05, 3.0002013255315843e-05, 2.272329245653711e-06,
     -5.368194988338703e-07, -1.235770860762665e-06, 1.8473315860805473e-07, 1.7511467211118932e-08),
    (0.13533528323661267, 0.27067056647323756, 0.20300292485388624, 0.04511176111354776,
     -0.02819485128541357, -0.020300285977428924, -0.002067667834373366, 0.0023095115790350484,
     0.0008350237619713839, -6.898525448568763e-05, -0.00010116737985451564, -6.790041437070108e-06,
     1.9363133283185624e-06, 4.665272140957988e-06, -1.3550959435632654e-06, 8.997781016961819e-08),
    (0.6065306597126334, 0.6065306597126224, 9.349939288186192e-13, -0.20217688660247427,
     -0.0505442210805383, 0.03032652692040427, 0.013478502186759965, -0.002407079852790187,
     -0.001984917223950931, 4.48688303275248e-05, 0.00020692557870316907, 9.047563996043717e-06,
     -1.0436280458064385e-05, -6.185899706491749e-06, 2.8594516524661106e-06, -3.2301811609377627e-07),
    (1.0, -6.710917004582041e-15, -0.4999999999994335, -1.878964135470961e-11,
     0.12500000032505598, -3.3723226066226034e-09, -0.020833310610332573, -1.0428554138218129e-07,
     0.0026045013362821423, -7.571834136578001e-07, -0.00025922534214027317, -1.2326944225742866e-06,
     2.238388090929073e-05, 7.047876181271142e-08, -1.9858200889405337e-06, 3.2301811609377627e-07),
    (0.6065306597126334, -0.6065306597126214, -1.0163575897718297e-12, 0.20217688660498087,
     -0.05054422224313582, -0.030326526600370364, 0.013478414594527, 0.0024070816634090726,
     -0.0019863980261179506, -4.4984041830626645e-05, 0.00019995900075325752, -9.901732921975898e-06,
     -1.9788976076308474e-05, 4.8584010011178185e-06, -5.428791018992597e-09, -8.997781016961819e-08),
    (0.1353352832366127, -0.27067056647322985, 0.20300292485529903, -0.045111761091674044,
     -0.028194850447475533, 0.02030029005255402, -0.002067605229186185, -0.0023093762253571836,
     0.0008360679224187717, 7.011712861097456e-05, -9.635809034199798e-05, 9.413609403331323e-06,
     8.176594325643583e-06, -3.1891974169175894e-06, 4.4740516677483874e-07, -1.7511467211118932e-08),
    (0.011108996538242306, -0.03332698961472635, 0.04443598615292015, -0.03332698961306371,
     0.013886245643078412, -0.0016663491580749916, -0.001481201849085756, 0.0008728612286534877,
     -0.00014220985574306546, -4.948561747618012e-05, 2.8883981747564463e-05, -3.1196886593950236e-06,
     -1.8981352751611254e-06, 8.836225439922219e-07, -1.6314738812780274e-07, 1.2140209327120733e-08),
    (0.0003354626279025119, -0.001341850511610069, 0.0025159697092707275, -0.00290734277522059,
     0.0022783503490469933, -0.0012412117369325145, 0.00044774952751120556, -7.854140074262094e-05,
     -1.6696144616617225e-05, 1.6142185524938266e-05, -4.776516350571104e-06, 2.5258546166879833e-07,
     3.336263363679406e-07, -1.3916805731148232e-07, 2.6473899217368176e-08, -2.1782512579554583e-09),
    (3.7266531720786692e-06, -1.863326586039238e-05, 4.47198380648585e-05, -6.83219748184037e-05,
     7.422250895259212e-05, -6.055811336293234e-05, 3.80946714737996e-05, -1.8559294288191946e-05,
     6.837621252658033e-06, -1.7362312904223853e-06, 1.8368920251365403e-07, 7.543625261466727e-08,
     -4.8079524880711624e-08, 1.3898036826309649e-08, -2.3063393252334646e-09, 1.7905635186599833e-10),
    (1.5229979744713347e-08, -9.1379878468644e-08, 2.6652464556393727e-07, -5.025893326431045e-07,
     6.872528550898589e-07, -7.241857447754741e-07, 6.096448913468488e-07, -4.19103876732309e-07,
     2.3814378712757408e-07, -1.1224970276017018e-07, 4.3636638241854865e-08, -1.3736722536131643e-08,
     3.3727507269819183e-09, -6.019766629937349e-10, 6.808369364381676e-11, -3.499608129057705e-12),
    (2.2897348456393113e-11, -1.6028143916321692e-10, 5.495363602312302e-10, -1.2288242752697312e-09,
     2.0130569205408587e-09, -2.5724995511761795e-09, 2.6656359706724238e-09, -2.2976482969144315e-09,
     1.675612722150684e-09, -1.0440464855999794e-09, 5.564232513208308e-10, -2.5053468872708895e-10,
     9.211761135651969e-11, -2.5838064489447685e-11, 4.857494337094461e-12, -4.5221356046004905e-13),
)
# An offset s0 above this many sigma places the piece breaks less
# accurately than about 1e-10 sigma.
_GAUSSIAN_MAX_OFFSET = 1e6

# Narrowest first piece of a truncated Gaussian, as a fraction of the piece
# width.  A sliver of a piece would make the exact convolution scale its
# coefficients by powers of the sliver's width.  Extending a degree-15
# interpolant by this fraction grows its error by less than half.
_GAUSSIAN_MIN_PIECE = 2.0**-10

# Grid used when an analytic operand of a numeric convolution has to be
# sampled: spacing is min(bin_width of the sampled operand, support/256).
ANALYTIC_RESAMPLE_FRACTION = 256

# Degree of the windowed polynomial fit that classifies sampled data; it
# can resolve case numbers up to SAMPLED_FIT_DEGREE + 1.
SAMPLED_FIT_DEGREE = 5


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only C-contiguous float array for a constructor to
    keep.  A read-only array is kept as it is, as the library hands over
    the arrays it makes; an array the caller can still write is copied,
    never frozen."""
    v = np.ascontiguousarray(a, dtype=float)
    if v.flags.writeable and (v is a or v.base is not None):
        v = v.copy()
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class HeightDistribution:
    """Area density of separations; analytic (piecewise polynomial) or sampled.

    The analytic kind holds two read-only arrays: ``breaks`` (m + 1,), from
    0 strictly increasing to ``support_max``, and ``coeffs`` (m, k), where
    row i is f(s) = sum_j coeffs[i, j] (s - breaks[i])**j on
    [breaks[i], breaks[i + 1]), zero-padded to k = the highest degree + 1.
    For the sampled kind, ``values[k]`` is the density at s = k * bin_width
    and ``support_max = (len(values) - 1) * bin_width``.  A sampled
    distribution made by ``convolve`` from analytic and sampled layers holds
    its two parts in ``factors`` = (analytic, sampled) and computes
    ``values`` on first use.
    """

    support_max: float
    unit_area_normalized: bool
    breaks: np.ndarray | None = None
    coeffs: np.ndarray | None = None
    bin_width: float = 0.0
    _values: np.ndarray | None = field(default=None, repr=False)
    factors: tuple = ()

    @property
    def kind(self) -> str:
        return "sampled" if self.coeffs is None else "analytic"

    @property
    def values(self) -> np.ndarray | None:
        """Node values of a sampled distribution (None for analytic ones)."""
        if self._values is None and self.factors:
            # Racing first readers compute the same array; either may win.
            object.__setattr__(self, "_values", _convolve_numeric(*self.factors).values)
        return self._values

    @classmethod
    def analytic(cls, breaks, coeffs, unit_area_normalized: bool = False) -> "HeightDistribution":
        """Piecewise polynomial from ``breaks`` (m + 1,) and ``coeffs`` (m, k);
        columns past the highest degree are dropped."""
        try:
            breaks = np.array(breaks, dtype=float)
            coeffs = np.array(coeffs, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(f"breaks and coeffs must be numeric arrays: {exc}") from None
        if breaks.ndim != 1 or len(breaks) < 2:
            raise InvalidParameterError(f"breaks must be 1-D with >= 2 entries, got shape {breaks.shape}")
        m = len(breaks) - 1
        if coeffs.ndim != 2 or coeffs.shape[0] != m or coeffs.shape[1] < 1:
            raise InvalidParameterError(f"coeffs must have shape ({m}, k >= 1), got {coeffs.shape}")
        if breaks[0] != 0.0:
            raise InvalidParameterError("first segment must start at s = 0")
        # Increasing from 0 to a finite end, so every break is finite.
        if not ((breaks[1:] > breaks[:-1]).all() and math.isfinite(breaks[-1])):
            raise InvalidParameterError("breaks must be finite and strictly increasing")
        if not np.isfinite(coeffs).all():
            raise InvalidParameterError("coefficients must be finite")
        if coeffs.shape[1] > 1 and not coeffs[:, -1].any():
            coeffs = np.ascontiguousarray(coeffs[:, : _degrees(coeffs).max() + 1])
        breaks.setflags(write=False)
        coeffs.setflags(write=False)
        return cls(
            support_max=float(breaks[-1]),
            unit_area_normalized=unit_area_normalized,
            breaks=breaks,
            coeffs=coeffs,
        )

    @classmethod
    def sampled(cls, bin_width: float, values, unit_area_normalized: bool = False) -> "HeightDistribution":
        if bin_width <= 0:
            raise InvalidParameterError("bin_width must be positive")
        vals = _frozen(values)
        if vals.ndim != 1 or len(vals) < 2:
            raise InvalidParameterError("sampled distribution needs >= 2 node values")
        if not np.all(np.isfinite(vals)):
            raise InvalidParameterError("sampled values must be finite")
        return cls(
            support_max=(len(vals) - 1) * bin_width,
            unit_area_normalized=unit_area_normalized,
            bin_width=float(bin_width),
            _values=vals,
        )

    @property
    def grid(self) -> np.ndarray:
        """Sample positions of a sampled distribution."""
        if self.kind != "sampled":
            raise InvalidParameterError("grid is only defined for sampled distributions")
        return np.arange(len(self.values)) * self.bin_width


@dataclass(frozen=True)
class CaseReport:
    """Classification of the small-s behavior of a distribution.

    ``case_number`` is the order n of the first non-vanishing Taylor
    coefficient: f(0) = ... = f^{(n-2)}(0) = 0 and f^{(n-1)}(0) > 0.
    ``taylor_coeffs`` holds f^{(k)}(0) for k up to the first segment's degree
    (the fitted ones up to SAMPLED_FIT_DEGREE on sampled data, ending before
    the first that is not a finite float; for an analytic (*) sampled
    distribution, n - 1 zeros and the leading one).
    """

    case_number: int
    leading_coefficient: float
    taylor_coeffs: tuple[float, ...]


def _degrees(coeffs: np.ndarray) -> np.ndarray:
    """Each row's degree: the index of its last nonzero coefficient, 0 for a zero row."""
    return ((coeffs != 0.0) * np.arange(coeffs.shape[1])).max(axis=1)


def _rows(f: HeightDistribution) -> list[tuple[float, float, list[float]]]:
    """(lo, width, coefficients up to the row's degree) of each row of an
    analytic f, on Python floats."""
    breaks, rows, degrees = f.breaks.tolist(), f.coeffs.tolist(), _degrees(f.coeffs).tolist()
    return [(lo, hi - lo, row[: deg + 1]) for lo, hi, row, deg in zip(breaks, breaks[1:], rows, degrees)]


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------

def _check_length(name: str, value: float, power: int) -> float:
    """``value`` as a float, checked positive and finite with value**power and
    value**-power normal floats, so that a shape's coefficients and area are."""
    if not 0 < value < math.inf:
        raise InvalidParameterError(f"{name} must be positive and finite")
    if not abs(math.log2(value)) * power < 1000:
        raise InvalidParameterError(
            f"{name} {value:g} is out of range: x**{power} and x**-{power} must be normal floats"
        )
    return float(value)


def sphere_distribution(radius: float) -> HeightDistribution:
    """Sphere of radius R in front of a plate: f(s) = 2 pi (R - s) on [0, R]."""
    r = _check_length("sphere radius", radius, 2)
    return HeightDistribution.analytic([0.0, r], [[2.0 * math.pi * r, -2.0 * math.pi]])


def dome_distribution(height: float) -> HeightDistribution:
    """Square-base dome tiling, per unit area: f(s) = 2 (h - s) / h^2 on [0, h]."""
    h = _check_length("dome height", height, 2)
    return HeightDistribution.analytic([0.0, h], [[2.0 / h, -2.0 / h**2]], unit_area_normalized=True)


def pyramid_distribution(height: float, base: float, per_unit_area: bool = False) -> HeightDistribution:
    """Square-base pyramid of height h and base length l: f(s) = 2 s l^2 / h^2.

    With ``per_unit_area=True`` the density is divided by the tile base area
    l^2, giving 2 s / h^2 (unit-area normalized), the form used when the
    pyramids tile a larger surface.
    """
    h = _check_length("pyramid height", height, 2)
    l = _check_length("pyramid base length", base, 2)
    slope = 2.0 / h**2 if per_unit_area else 2.0 * l**2 / h**2
    return HeightDistribution.analytic([0.0, h], [[0.0, slope]], unit_area_normalized=per_unit_area)


def _check_gaussian(sigma: float, s0: float) -> None:
    if not 0 < sigma < math.inf:
        raise InvalidParameterError("sigma must be positive and finite")
    if not 0 <= s0 < math.inf:
        raise InvalidParameterError("touching distance s0 must be >= 0 and finite")


def truncated_gaussian_norm(sigma: float, s0: float) -> float:
    """Normalization N with int_0^inf exp(-(s-s0)^2/2 sigma^2)/(N sigma sqrt(2 pi)) ds = 1."""
    _check_gaussian(sigma, s0)
    return 0.5 * (1.0 + math.erf(s0 / (sigma * math.sqrt(2.0))))


def truncated_gaussian_distribution(sigma: float, s0: float) -> HeightDistribution:
    """Gaussian roughness model truncated to s >= 0 and renormalized to unit area.

    ``s0`` is the touching distance (position of the Gaussian peak above the
    contact point).  The density is carried on [s0 - 8 sigma, s0 + 8 sigma]
    within s >= 0 as exact polynomial pieces of width sigma from a fixed
    table, each within an ulp of the peak of the Gaussian, and scaled to unit
    area over that support; the piece across s = 0 is re-anchored there, and
    below s0 - 8 sigma the density is zero.  The distribution is analytic, so
    it convolves exactly with every other catalog shape.  s0 may be at most
    1e6 sigma, and sigma raised to the pieces' degree + 1 must neither over-
    nor underflow.
    """
    _check_gaussian(sigma, s0)
    degree = len(_GAUSSIAN_PIECES[0]) - 1
    sigma = _check_length("rough sigma", sigma, degree + 1)
    s0 = float(s0)
    if s0 > _GAUSSIAN_MAX_OFFSET * sigma:
        raise InvalidParameterError(
            f"rough s0 {s0:g} is more than {_GAUSSIAN_MAX_OFFSET:g} sigma ({sigma:g}) "
            "from contact; its pieces would not resolve"
        )
    w = _GAUSSIAN_PIECE_WIDTH
    x_lo = -GAUSSIAN_SUPPORT_SIGMAS
    # Unit area over the carried support [max(-s0/sigma, -8), 8] in x.
    inner = min(s0 / sigma, GAUSSIAN_SUPPORT_SIGMAS)
    area = 0.5 * (math.erf(GAUSSIAN_SUPPORT_SIGMAS / math.sqrt(2.0)) + math.erf(inner / math.sqrt(2.0)))
    peak = 1.0 / (area * sigma * math.sqrt(2.0 * math.pi))
    scale = [peak / sigma**j for j in range(degree + 1)]

    breaks = [s0 + sigma * (x_lo + k * w) for k in range(len(_GAUSSIAN_PIECES) + 1)]
    # The first piece starts at s = 0: a zero segment below s0 - 8 sigma, or
    # the piece across s = 0 re-anchored there.  A first piece narrower than
    # _GAUSSIAN_MIN_PIECE joins the next one, whose polynomial then reaches
    # that little below its own piece.
    first = next(k for k, b in enumerate(breaks) if b > _GAUSSIAN_MIN_PIECE * w * sigma)
    coeffs = np.array(_GAUSSIAN_PIECES[max(first - 1, 0):])
    if first == 0:
        coeffs = np.vstack([np.zeros(degree + 1), coeffs])
    else:
        coeffs[0] = _shift_rows(coeffs[0, :, None], _powers(-breaks[first - 1] / sigma, degree + 1))[:, 0]
    return HeightDistribution.analytic([0.0] + breaks[first:], coeffs * scale, unit_area_normalized=True)


# ---------------------------------------------------------------------------
# evaluation, integration, resampling
# ---------------------------------------------------------------------------

def evaluate(f: HeightDistribution, s):
    """Density f(s); zero outside the support.  Accepts scalars or arrays."""
    scalar = np.isscalar(s) or (isinstance(s, np.ndarray) and s.ndim == 0)
    x = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros_like(x)
    inside = (x >= 0.0) & (x <= f.support_max)
    if inside.any():
        xi = x[inside]
        if f.kind == "sampled":
            out[inside] = np.interp(xi, f.grid, f.values)
        else:
            # Each row's Horner sum for every point at once; a lower-degree
            # row's zero padding leaves its sum at 0 until its own top term.
            lo = f.breaks[:-1]
            idx = np.clip(np.searchsorted(lo, xi, side="right") - 1, 0, len(lo) - 1)
            t = xi - lo[idx]
            vals = np.zeros_like(t)
            for c in f.coeffs.T[::-1]:
                vals = vals * t + c[idx]
            out[inside] = vals
    return float(out[0]) if scalar else out


def projected_area(f: HeightDistribution) -> float:
    """Total projected area int_0^inf f(s) ds.

    Exact polynomial antiderivatives on analytic distributions, trapezoid
    rule on sampled ones, and the product of the two for an analytic (*)
    sampled distribution.  An area beyond the float range raises
    NumericError.
    """
    try:
        area = _projected_area(f)
    except OverflowError:  # w ** (k + 1) on Python floats
        area = math.inf
    if not math.isfinite(area):
        raise NumericError(f"projected area is not a finite float: {area!r}")
    return area


def _projected_area(f: HeightDistribution) -> float:
    if f.factors:
        return math.prod(_projected_area(part) for part in f.factors)
    if f.kind == "analytic":
        total = 0.0
        for _, w, coeffs in _rows(f):
            total += sum(c * w ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))
        return total
    return float(np.trapezoid(f.values, dx=f.bin_width))


def to_sampled(f: HeightDistribution, n: int = 2048, bin_width: float | None = None) -> HeightDistribution:
    """Sample a distribution onto a uniform grid of ``n`` nodes (or spacing ``bin_width``)."""
    if bin_width is not None:
        if not bin_width > 0:
            raise InvalidParameterError("bin_width must be positive")
        n = int(math.ceil(f.support_max / bin_width - 1e-12)) + 1
        delta = float(bin_width)
    else:
        if n < 2:
            raise InvalidParameterError("need at least 2 sample nodes")
        delta = f.support_max / (n - 1)
    values = evaluate(f, np.arange(n) * delta)
    values.setflags(write=False)
    return HeightDistribution.sampled(delta, values, f.unit_area_normalized)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def convolve(f_c: HeightDistribution, f_r: HeightDistribution) -> HeightDistribution:
    """Convolution f(s) = int_0^s f_c(s') f_r(s - s') ds'.

    The second operand is normally the unit-area-normalized roughness or
    modulation density; a warning is emitted otherwise and the un-normalized
    result is returned as-is.  Every distribution is an analytic part (*) a
    sampled part, either of which may be absent.  The analytic parts are
    convolved exactly (piecewise polynomial) and the sampled parts on their
    own uniform grid with trapezoid accuracy.  When both parts remain, the
    result keeps them as ``factors`` = (analytic, sampled) and builds their
    joint grid only on first use of its node values.  Since convolution
    commutes, the order of the layers does not change the result.
    """
    if not f_r.unit_area_normalized:
        warnings.warn(
            "second convolution operand is not unit-area normalized; "
            "result scales with its projected area",
            stacklevel=2,
        )
    (a_c, s_c), (a_r, s_r) = _parts(f_c), _parts(f_r)
    analytic = _convolve_analytic(a_c, a_r) if a_c and a_r else a_c or a_r
    sampled = _convolve_numeric(s_c, s_r) if s_c and s_r else s_c or s_r
    if sampled is None:
        return analytic
    if analytic is None:
        return sampled
    delta, n_a, n_s = _numeric_grid(analytic, sampled)
    return HeightDistribution(
        support_max=(n_a + n_s - 2) * delta,
        unit_area_normalized=f_c.unit_area_normalized and f_r.unit_area_normalized,
        bin_width=float(delta),
        factors=(analytic, sampled),
    )


def _parts(f: HeightDistribution):
    """(analytic part or None, sampled part or None) of a distribution."""
    if f.factors:
        return f.factors
    return (f, None) if f.kind == "analytic" else (None, f)


@functools.lru_cache(maxsize=None)
def _binomial_array(n: int, signed: bool = False) -> np.ndarray:
    """[j, k] = C(j, k), times (-1)^k if ``signed``, for j, k < n; zero for k > j."""
    out = np.zeros((n, n))
    for j in range(n):
        out[j, : j + 1] = [float(math.comb(j, k)) for k in range(j + 1)]
    if signed:
        out[:, 1::2] *= -1.0
    out.setflags(write=False)
    return out


def _merged_cuts(cuts, total: float, tol: float) -> list[float]:
    """Sorted piece ends, with any end within tol above the last kept one
    dropped, and the first and last set to 0 and ``total``."""
    cuts = sorted(set(cuts) | {0.0, total})
    merged = [cuts[0]]
    for c in cuts[1:]:
        if c - merged[-1] > tol:
            merged.append(c)
    merged[0], merged[-1] = 0.0, total
    return merged


# The exact convolution runs as array operations over every segment pair at
# once, with the pairs along the last axis.  Each polynomial sum below adds
# its terms in one fixed order, term by term from zero: a stage lists its
# terms in that order and ``_ordered_sums`` adds them with np.bincount,
# which adds its weights one at a time in input order.  So every
# coefficient is the same bits whatever the number of pairs, and the same
# as the term-by-term oracle of the tests.  Powers of the scaled lengths
# come from np.float_power, which calls the C library's pow per element as
# the oracle's scalar ** does; np.power may use a vectorised pow that rounds
# some results differently.  The scale factors take ** on arrays, as the
# oracle's do.

def _read_only(*arrays):
    """The arrays, marked read-only: a cached table is shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def _exponents(n: int) -> np.ndarray:
    """0, 1, ..., n - 1 as a float column."""
    return _read_only(np.arange(float(n))[:, None])[0]


def _powers(base, n: int) -> np.ndarray:
    """(n, m): base ** e for e = 0..n-1 down the first axis, as float ** gives each."""
    return np.float_power(base, _exponents(n))


def _ordered_sums(terms: np.ndarray, cells: np.ndarray, size: int) -> np.ndarray:
    """(size, m): cell c of column p holds the sum of terms[t, p] over every t
    with cells[t, 0] == c, added in increasing t to a zero start."""
    m = terms.shape[1]
    index = cells * m + np.arange(m)
    return np.bincount(index.ravel(), terms.ravel(), minlength=size * m).reshape(size, m)


@functools.lru_cache(maxsize=None)
def _shift_terms(n: int, signed: bool):
    """The terms of ``_shift_rows`` for n coefficients, source index j outer and
    target index k <= j inner: j, j - k, C(j, k) (times (-1)^k if
    ``signed``) and k."""
    j, k = np.tril_indices(n)
    return _read_only(j, j - k, _binomial_array(n, signed)[j, k, None], k[:, None])


def _shift_rows(coeffs: np.ndarray, pw: np.ndarray, signed: bool = False) -> np.ndarray:
    """Each column's polynomial sum_j c_j x^j re-anchored at delta, as
    p(delta + t) in t, or reversed, as p(delta - t), if ``signed``;
    pw[e] = delta ** e."""
    n = len(coeffs)
    j, e, binom, k = _shift_terms(n, signed)
    terms = coeffs.take(j, 0)
    terms *= binom
    terms *= pw.take(e, 0)
    return _ordered_sums(terms, k, n)


@functools.lru_cache(maxsize=None)
def _bivariate_terms(na: int, nb: int):
    """The terms of ``_bivariate_integral_rows``, pa[k] pb[q] C(q, j) (-1)^j for
    j <= q, with k outer, then q, then j, so that each cell adds its terms
    in ascending k: k, q, the signed binomials, each term's cell in the
    flattened (nb, na + nb) result and each cell's divisor."""
    n = na + nb
    k, q, j = (x.ravel() for x in np.meshgrid(np.arange(na), np.arange(nb), np.arange(nb), indexing="ij"))
    keep = j <= q
    k, q, j = k[keep], q[keep], j[keep]
    divisor = np.tile(np.maximum(np.arange(n), 1.0), nb)
    signed = _binomial_array(nb, signed=True)[q, j]
    return _read_only(k, q, signed[:, None], ((q - j) * n + k + j + 1)[:, None], divisor[:, None])


def _bivariate_integral_rows(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Antiderivative in t of p(t) q(x - t) for each column pair, as
    Bi[i, j] the coefficient of x^i t^j, shape (len(pb), len(pa) + len(pb), m)."""
    na, nb = len(pa), len(pb)
    k, q, signed, cells, divisor = _bivariate_terms(na, nb)
    terms = pb.take(q, 0)
    terms *= pa.take(k, 0)
    terms *= signed
    B = _ordered_sums(terms, cells, nb * (na + nb))
    B /= divisor
    return B.reshape(nb, na + nb, -1)


@functools.lru_cache(maxsize=None)
def _phase_terms(nb: int, n: int):
    """The entries Bi[i, j] of a rising phase, those with i + j < n, i outer,
    as flat indices into (nb, n), each one's power i + j, and the row i of
    every entry of (nb, n), which a plateau sums over."""
    i, j = (x.ravel() for x in np.meshgrid(np.arange(nb), np.arange(n), indexing="ij"))
    keep = i + j < n
    return _read_only((i * n + j)[keep], (i + j)[keep, None], i[:, None])


def _rising_rows(Bi: np.ndarray) -> np.ndarray:
    """sum_ij Bi[i, j] x^(i+j), the antiderivative from t = 0 to t = x; terms
    past x^(n-1) are zero and dropped."""
    nb, n, m = Bi.shape
    flat, power, _ = _phase_terms(nb, n)
    return _ordered_sums(Bi.reshape(nb * n, m).take(flat, 0), power, n)


def _plateau_rows(Bi: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """sum_ij Bi[i, j] x^i la^j, the antiderivative from t = 0 to t = la, with
    pw[j] = la ** j."""
    nb, n, m = Bi.shape
    return _ordered_sums((Bi * pw).reshape(nb * n, m), _phase_terms(nb, n)[2], nb)


def _pair_convolve_rows(a, b, La, Lb, s0):
    """Exact convolution of m segment pairs.

    Column p of ``a`` (na, m) and ``b`` (nb, m) holds the coefficients of
    pair p's shorter and longer segment, zero-padded to common lengths,
    La <= Lb their widths and s0 the sums of their lo.  Returns lo, hi and
    coefficient columns (na + nb, pieces) of each pair's rising, plateau
    and falling pieces, pair by pair, each anchored at its lo; a plateau is
    left out where la == lb.  A zero coefficient adds only zero terms to
    each sum, so the padding leaves every bit as it is.

    The polynomial algebra runs in a scaled coordinate (lengths divided by
    La + Lb) to keep coefficient magnitudes near the value scale.  With Bi
    the antiderivative in t of p(t) q(x - t), written sum_ij Bi[i, j] x^i t^j,
    the convolution C(x) = int p(t) q(x - t) dt has three phases in x:
    rising on [0, la] (t from 0 to x, so C is the anti-diagonal sums of Bi),
    plateau on [la, lb] when lb > la (t from 0 to la, so
    C(x) = sum_j Bi[i, j] la^j x^i), and falling on [lb, la + lb].  The
    falling phase is the rising phase of the end-reversed polynomials: with
    y = la + lb - x, C(x) = int_0^y p(la - t) q(lb - (y - t)) dt.  Computing
    it that way keeps coefficients at the local value scale, so the result
    stays clean where the convolution vanishes at its top edge.
    """
    na, m = a.shape
    nb = len(b)
    n = na + nb
    scale = La + Lb
    # x = [0, la, lb, la + lb]: the phases' ends in the scaled coordinate.
    x = np.zeros((4, m))
    x[1], x[2] = La / scale, Lb / scale
    x[3] = x[1] + x[2]
    pw = _powers(x[1:3].reshape(-1), n)

    # Each pair and its end-reversed copy share one bivariate integral.
    ab = np.zeros((max(na, nb), 2 * m))
    ab[:na, :m] = a * scale ** _exponents(na)
    ab[:nb, m:] = b * scale ** _exponents(nb)
    rev = _shift_rows(ab, pw, signed=True)
    a2 = np.concatenate([ab[:na, :m], rev[:na, :m]], axis=1)
    b2 = np.concatenate([ab[:nb, m:], rev[:nb, m:]], axis=1)
    Bi = _bivariate_integral_rows(a2, b2)
    rising = _rising_rows(Bi)
    pw_a = pw[:, :m]
    coeffs = np.zeros((n, m, 3))
    coeffs[:, :, 0] = rising[:, :m]
    coeffs[:nb, :, 1] = _shift_rows(_plateau_rows(Bi[:, :, :m], pw_a), pw_a)
    coeffs[:, :, 2] = _shift_rows(rising[:, m:], pw_a, signed=True)
    coeffs *= (scale ** (1.0 - _exponents(n)))[:, :, None]

    # Piece h of pair p is column 3 p + h; absent plateaus are dropped.
    edges = s0 + x * scale
    lo, hi, coeffs = edges[:3].T.ravel(), edges[1:].T.ravel(), coeffs.reshape(n, 3 * m)
    plateau = x[1] < x[2]
    if np.count_nonzero(plateau) == m:
        return lo, hi, coeffs
    keep = np.ones((m, 3), dtype=bool)
    keep[:, 1] = plateau
    keep = keep.ravel()
    return lo[keep], hi[keep], coeffs[:, keep]


def _pieces(fa: HeightDistribution, fb: HeightDistribution):
    """Every piece of every segment pair's convolution, in the order of the
    pairs (fa's segments outer) and of the phases within a pair: lo, hi and
    the coefficients of each piece as a column, zero-padded to a common
    length."""
    wa, wb = fa.breaks[1:] - fa.breaks[:-1], fb.breaks[1:] - fb.breaks[:-1]
    i, j = np.divmod(np.arange(len(wa) * len(wb)), len(wb))
    a, b, La, Lb = fa.coeffs.take(i, 0).T, fb.coeffs.take(j, 0).T, wa.take(i), wb.take(j)
    # Each pair's shorter segment comes first.
    swap = La > Lb
    swapped = np.count_nonzero(swap)
    if swapped == len(swap):
        a, b, La, Lb = b, a, Lb, La
    elif swapped:
        k = max(len(a), len(b))
        a, b = (np.concatenate([c, np.zeros((k - len(c), len(swap)))]) for c in (a, b))
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        La, Lb = np.where(swap, Lb, La), np.where(swap, La, Lb)
    return _pair_convolve_rows(a, b, La, Lb, fa.breaks.take(i) + fb.breaks.take(j))


def _convolve_rows(fa: HeightDistribution, fb: HeightDistribution, tol: float):
    """Breaks and coefficient rows of the exact convolution."""
    lo, hi, coeffs = _pieces(fa, fb)
    edges = np.array(_merged_cuts(lo.tolist() + hi.tolist(), fa.support_max + fb.support_max, tol))

    # Each piece covers the merged intervals whose midpoint lies within tol
    # of it.  Each (interval, covering piece) incidence, ordered by interval
    # and then by piece, is re-anchored at the interval's start and summed.
    mids = 0.5 * (edges[:-1] + edges[1:])[:, None]
    interval, piece = ((mids >= lo - tol) & (mids <= hi + tol)).nonzero()
    n = len(coeffs)
    shifted = coeffs.take(piece, 1)
    delta = edges.take(interval) - lo.take(piece)
    # A piece that starts where its interval does is already anchored there:
    # a shift by zero would add only zeros to each coefficient.
    moved = delta != 0.0
    if moved.any():
        shifted[:, moved] = _shift_rows(shifted[:, moved], _powers(delta[moved], n))
    cells = interval * n + np.arange(n)[:, None]
    return edges, np.bincount(cells.ravel(), shifted.ravel(), minlength=len(mids) * n).reshape(-1, n)


def _convolve_analytic(fa: HeightDistribution, fb: HeightDistribution) -> HeightDistribution:
    tol = 1e-12 * (fa.support_max + fb.support_max)
    # Scales far apart can overflow the pair algebra; the result is checked once.
    with np.errstate(all="ignore"):
        breaks, coeffs = _convolve_rows(fa, fb, tol)
    if not np.isfinite(coeffs).all():
        raise NumericError(f"exact convolution of supports [0, {fa.support_max:g}] and "
                           f"[0, {fb.support_max:g}] nm has a coefficient beyond the float range")
    unit = fa.unit_area_normalized and fb.unit_area_normalized
    return HeightDistribution.analytic(breaks, coeffs, unit_area_normalized=unit)


def _numeric_grid(fa: HeightDistribution, fb: HeightDistribution) -> tuple[float, int, int]:
    """Spacing of the numeric convolution grid and each operand's node count on it."""
    if fa.kind == "sampled" and fb.kind == "sampled":
        wa, wb = fa.bin_width, fb.bin_width
        if abs(wa - wb) > 1e-9 * max(wa, wb):
            warnings.warn(
                f"bin widths differ ({wa:g} vs {wb:g} nm); resampling to the finer grid",
                stacklevel=5,
            )
        delta = min(wa, wb)
    else:
        sampled = fa if fa.kind == "sampled" else fb
        other = fb if fa.kind == "sampled" else fa
        delta = min(sampled.bin_width, other.support_max / ANALYTIC_RESAMPLE_FRACTION)

    def count(f: HeightDistribution) -> int:
        if _on_grid(f, delta):
            return len(f.values)
        return int(math.ceil(f.support_max / delta - 1e-9)) + 1

    return delta, count(fa), count(fb)


def _on_grid(f: HeightDistribution, delta: float) -> bool:
    return f.kind == "sampled" and abs(f.bin_width - delta) <= 1e-9 * delta


def _convolve_numeric(fa: HeightDistribution, fb: HeightDistribution) -> HeightDistribution:
    delta, n_a, n_b = _numeric_grid(fa, fb)

    def nodes(f: HeightDistribution, n: int) -> np.ndarray:
        if _on_grid(f, delta):
            return np.asarray(f.values)
        return evaluate(f, np.arange(n) * delta)

    a = nodes(fa, n_a)
    b = nodes(fb, n_b)
    # Sampled densities are piecewise linear between nodes, so the integrand
    # of the convolution is piecewise quadratic and cell-wise Simpson is
    # exact; midpoint values are node averages, which collapses to a short
    # stencil over the plain discrete convolution c = a * b:
    #   out_k = (delta/6) (c_{k-1} + 4 c_k + c_{k+1}
    #                      - 2 a_k b_0 - 2 a_0 b_k - a_{k+1} b_0 - a_0 b_{k+1})
    n_out = len(a) + len(b) - 1
    c = np.zeros(n_out + 2)
    c[1 : n_out + 1] = np.convolve(a, b)
    a_pad = np.zeros(n_out + 1)
    a_pad[: len(a)] = a
    b_pad = np.zeros(n_out + 1)
    b_pad[: len(b)] = b
    k = np.arange(n_out)
    out = (delta / 6.0) * (
        c[k] + 4.0 * c[k + 1] + c[k + 2]
        - 2.0 * a_pad[k] * b[0] - 2.0 * a[0] * b_pad[k]
        - a_pad[k + 1] * b[0] - a[0] * b_pad[k + 1]
    )
    # At s = 0 the integral runs over an empty interval; the stencil's terms
    # cancel there only to rounding.
    out[0] = 0.0
    out.setflags(write=False)
    unit = fa.unit_area_normalized and fb.unit_area_normalized
    return HeightDistribution.sampled(delta, out, unit_area_normalized=unit)


# ---------------------------------------------------------------------------
# small-s classification
# ---------------------------------------------------------------------------

def case_number(f: HeightDistribution, tol: float = 1e-6) -> CaseReport:
    """Order n of the first non-vanishing Taylor coefficient of f at s = 0.

    On an analytic distribution these are the exact coefficients c_k of its
    first segment: n - 1 is the index of the first non-zero one and
    f^(n-1)(0) = (n-1)! c_(n-1), so any case number the degree allows is
    found.  A first segment that is all zero, with f non-zero beyond it,
    raises UnclassifiableError naming that interval.  An analytic (*)
    sampled distribution adds its factors' case numbers and multiplies
    their leading derivatives: a s^(p-1)/(p-1)! (*) b s^(q-1)/(q-1)! is
    a b s^(p+q-1)/(p+q-1)!.

    Sampled data are classified from a windowed polynomial fit of degree
    SAMPLED_FIT_DEGREE, which resolves case numbers up to
    SAMPLED_FIT_DEGREE + 1.  A fitted f^(k)(0) counts as zero when
    |f^(k)(0)| * support_max^k / max f, max f the largest node value, falls
    below ``tol``, or when it is insignificant against the fit's standard
    error.  ``tol`` decides only on sampled data.
    """
    if not 0.0 < tol < 1.0:
        raise InvalidParameterError("tol must be in (0, 1)")
    if f.factors:
        a, b = (case_number(part, tol) for part in f.factors)
        n = a.case_number + b.case_number
        lead = a.leading_coefficient * b.leading_coefficient
        return CaseReport(n, lead, (0.0,) * (n - 1) + (lead,))

    if f.kind == "analytic":
        nonzero = np.flatnonzero(f.coeffs[0])
        if not len(nonzero):
            raise UnclassifiableError(
                f"distribution is zero on its first segment [0, {f.breaks[1]:g}] nm"
                if f.coeffs.any() else "distribution is identically zero"
            )
        k = int(nonzero[0])
        coeffs = f.coeffs[0, : nonzero[-1] + 1].tolist()
        derivs = [math.factorial(j) * c for j, c in enumerate(coeffs)]
    else:
        fmax = float(f.values.max())
        if fmax <= 0.0:
            raise UnclassifiableError("distribution is identically zero")
        # The fit's c_j give f^(j)(0) = j! c_j / w^j, of size |f^(j)(0)| T^j /
        # fmax against the data; T^j and w^j alone may leave the floats.
        c, errs, w = _fit_derivatives_at_zero(f, SAMPLED_FIT_DEGREE, fmax)
        ks, fact = np.arange(len(c)), np.cumprod([1.0, *range(1, len(c))])
        size = np.abs(c) * fact * (f.support_max / w) ** ks / fmax
        k = next((j for j in range(len(c)) if size[j] >= tol and abs(c[j]) > 3.0 * errs[j]), None)
        if k is None:
            raise UnclassifiableError(
                f"all probed derivatives of order 0..{len(c) - 1} are below tolerance {tol:g}")
        with np.errstate(all="ignore"):
            derivs = c * fact / w**ks
        if not 0.0 < abs(derivs[k]) < math.inf:
            raise NumericError(f"the derivative of order {k} of f at s = 0 is not a finite nonzero float")
        # Higher fitted derivatives may leave the floats; the report ends
        # before the first that does.
        derivs = derivs[: k + 1 + int(np.isfinite(derivs[k + 1:]).cumprod().sum())]
    if derivs[k] < 0.0:
        raise UnclassifiableError(
            f"first significant derivative (order {k}) is negative; "
            "input is not a valid height distribution near s=0"
        )
    return CaseReport(k + 1, float(derivs[k]), tuple(float(v) for v in derivs))


def _fit_derivatives_at_zero(f: HeightDistribution, degree: int, fmax: float):
    """Derivatives at s=0 from a windowed polynomial fit to sampled data.

    The window starts at 5% of the support and halves until the polynomial
    model actually fits (relative residual < 1e-3) or the window hits the
    minimum point count; multi-scale distributions need the shrinking step.
    ``fmax`` is the largest node value; returns the coefficients c of the
    fit in x = s / w, their standard errors, and w.
    """
    s = f.grid
    vals = np.asarray(f.values)
    min_pts = 4 * (degree + 1)
    if len(s) < min_pts:
        min_pts = max(degree + 2, len(s))

    # The window never extends past the rise of the density itself: multi-
    # scale convolutions ramp up on a much shorter scale than the support.
    above = np.nonzero(vals >= 0.25 * fmax)[0]
    window = 0.05 * f.support_max
    if len(above) and s[above[0]] > 0:
        window = min(window, s[above[0]])
    while True:
        # Rounding slack on the grid's own scale: an absolute slack holds
        # every point of a grid finer than it, and the window never shrinks.
        m = s <= window + 1e-12 * f.bin_width
        if m.sum() < min_pts:
            m = np.zeros_like(s, dtype=bool)
            m[:min_pts] = True
        sw, vw = s[m], vals[m]
        w = sw[-1] if sw[-1] > 0 else f.bin_width
        x = sw / w
        X = np.vander(x, degree + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(X, vw, rcond=None)
        resid = vw - X @ coef
        scale = max(np.max(np.abs(vw)), 1e-300)
        rel = float(np.sqrt(np.mean(resid**2))) / scale
        dof = max(len(vw) - (degree + 1), 1)
        sigma2 = float(resid @ resid) / dof
        try:
            cov = sigma2 * np.linalg.inv(X.T @ X)
            cerr = np.sqrt(np.maximum(np.diag(cov), 0.0))
        except np.linalg.LinAlgError:
            cerr = np.full(degree + 1, np.inf)
        if rel < 1e-3 or m.sum() <= min_pts:
            break
        window /= 2.0

    return coef, cerr, w


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def distribution_to_text(f: HeightDistribution) -> str:
    """Serialize to the v1 text format (bit-exact round trip for analytic)."""
    head = f"# height-distribution v1, kind={f.kind}, unit_area={int(f.unit_area_normalized)}"
    if f.kind == "sampled":
        return table([head], (f.grid, f.values))
    rows = (",".join(FMT % v for v in [lo, hi, *c]) for hi, (lo, _, c) in zip(f.breaks[1:].tolist(), _rows(f)))
    return "\n".join([head, *rows]) + "\n"


def text_to_distribution(text: str) -> HeightDistribution:
    """Parse the v1 text format; a ParseError names the line, and the
    column of a token that is not a finite number."""
    return _read_distribution(StringLines(text))


def _read_distribution(fh) -> HeightDistribution:
    # The v1 text format from the text stream fh, on the lines of
    # str.splitlines(); sampled rows are read a block of lines at a time.
    lines, lineno = [], 0
    # The header is the first line that is not blank.
    while not lines:
        lines = fh.readline().splitlines(keepends=True)
        if not lines:
            raise ParseError("empty distribution text")
        while lines and lines[0].isspace():
            lines.pop(0)
            lineno += 1
    lineno += 1
    header = lines.pop(0).strip()
    if not header.startswith("# height-distribution v1"):
        raise ParseError(f"line {lineno}: unrecognized header {header!r}")
    fields = dict(part.strip().split("=", 1) for part in header.split(",")[1:] if "=" in part)
    kind = fields.get("kind")
    if kind not in ("analytic", "sampled"):
        raise ParseError(f"line {lineno}: kind must be analytic or sampled, got {kind!r}")
    unit = fields.get("unit_area") == "1"

    if kind == "sampled":
        s, v = read_rows(lines, lineno, width=2, fh=fh).T
        if len(s) < 2:
            raise ParseError("sampled distribution needs >= 2 rows" if len(s) else "no data rows")
        # Node k lies at k * s[1] > 0, as the writer's grid does bit for
        # bit, within 1e-9 of its own position.
        grid = np.arange(len(s)) * s[1]
        if not s[1] > 0.0 or np.any(np.abs(s - grid) > 1e-9 * grid):
            raise ParseError("sampled grid must be uniform and start at s = 0")
        return HeightDistribution.sampled(s[1], v, unit_area_normalized=unit)

    # Segment rows lo,hi,c0,...: as long as each segment's polynomial.
    text = "".join(lines).splitlines() + [line for chunk in fh for line in chunk.splitlines()]
    rows = [(i, read_line(ln, i)) for i, ln in enumerate(text, lineno + 1) if ln.strip()]
    if not rows:
        raise ParseError("no data rows")
    for i, row in rows:
        if len(row) < 3:
            raise ParseError(f"line {i}: segment rows need lo,hi,c0,...")
    for (j, prev), (i, row) in zip(rows, rows[1:]):
        if row[0] != prev[1]:
            raise ParseError(f"line {i}: segment starts at {row[0]!r}, not where line {j} ends")
    k = max(len(row) for _, row in rows)
    coeffs = [row[2:] + [0.0] * (k - len(row)) for _, row in rows]
    breaks = [row[0] for _, row in rows] + [rows[-1][1][1]]
    return HeightDistribution.analytic(breaks, coeffs, unit_area_normalized=unit)


def write_distribution(f: HeightDistribution, path) -> None:
    with open(path, "w") as fh:
        fh.write(distribution_to_text(f))


def read_distribution(path) -> HeightDistribution:
    """Parse the v1 text file at ``path``, as ``text_to_distribution``
    does, holding one block of its lines at a time.  A file that is not
    text raises ParseError naming it."""
    try:
        with open(path) as fh:
            return _read_distribution(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode as text ({exc.reason})") from exc
