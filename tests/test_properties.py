"""Paper invariants over random shape stacks (Hypothesis).

A stack is a sphere carrying one to three dome or pyramid layers, ordered
coarse to fine, with summed case number at most 6.  Across such stacks the
case numbers add, the projected areas multiply, I(d) strictly decreases in
d, and ``predict`` picks the constant, logarithmic or power-law branch by
the case number n against the kernel exponent nu.  With one measured
(sampled) Gaussian roughness layer put anywhere in the layer order, the
case numbers still add, and a sphere on the analytic roughness is case 2
with leading derivative 2 pi R f_r(0) for every touching distance s0 up
to 8 sigma.  With zero to two such layers added and all layers
permuted, I(d) does not depend on the layer order (convolution commutes)
and still strictly decreases.  The exact convolution equals the
term-by-term oracle bit for bit, on catalog stacks and on the analytic
roughness.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxint import (
    HeightDistribution,
    Kernel,
    LawForm,
    case_number,
    compose_cases,
    convolve,
    dome_distribution,
    evaluate,
    predict,
    projected_area,
    pyramid_distribution,
    sphere_distribution,
    sweep,
    truncated_gaussian_distribution,
)

from conftest import sampled_rough
from convolution_oracle import assert_same_segments, convolve_analytic

LAYERS = {
    "dome": (dome_distribution, 1),
    "pyramid": (lambda h: pyramid_distribution(h, h, per_unit_area=True), 2),
}
SPHERE_CASE = 1
ROUGH_CASE = 1
MAX_CASE = 6


@st.composite
def stacks(draw):
    radius = draw(st.floats(min_value=1e4, max_value=2e5))
    kinds = draw(
        st.lists(st.sampled_from(sorted(LAYERS)), min_size=1, max_size=3).filter(
            lambda ks: SPHERE_CASE + sum(LAYERS[k][1] for k in ks) <= MAX_CASE
        )
    )
    heights = draw(
        st.lists(st.floats(min_value=10.0, max_value=2000.0),
                 min_size=len(kinds), max_size=len(kinds))
    )
    return radius, list(zip(kinds, sorted(heights, reverse=True)))


@st.composite
def rough_stacks(draw):
    """A stack with 0-2 roughness layers (sigma, s0) appended, and a permutation of its layers."""
    radius, layers = draw(stacks())
    roughs = draw(st.lists(
        st.tuples(st.floats(min_value=5.0, max_value=10.0), st.floats(min_value=0.0, max_value=20.0)),
        max_size=2,
    ))
    layers = layers + [("rough", p) for p in roughs]
    return (radius, layers), (radius, draw(st.permutations(layers)))


@st.composite
def one_rough_stacks(draw):
    """A stack with one roughness layer (sigma, s0 <= 3 sigma) at a random place in its layer order."""
    radius, layers = draw(stacks())
    sigma = draw(st.floats(min_value=5.0, max_value=10.0))
    s0 = sigma * draw(st.floats(min_value=0.0, max_value=3.0))
    at = draw(st.integers(min_value=0, max_value=len(layers)))
    return radius, layers[:at] + [("rough", (sigma, s0))] + layers[at:]


def make_layer(kind, p):
    if kind == "rough":
        # Measured roughness, so that the stacks take the factored form and
        # the fold.  A coarse grid keeps the fold cheap; order independence
        # holds on any grid.
        return sampled_rough(*p, per_sigma=8)
    return LAYERS[kind][0](p)


def build(stack):
    radius, layers = stack
    f = sphere_distribution(radius)
    for kind, p in layers:
        f = convolve(f, make_layer(kind, p))
    return f


def cases(stack):
    return [SPHERE_CASE] + [ROUGH_CASE if kind == "rough" else LAYERS[kind][1] for kind, _ in stack[1]]


@given(stacks())
def test_case_numbers_add(stack):
    assert case_number(build(stack)).case_number == compose_cases(cases(stack))


@given(one_rough_stacks())
def test_case_numbers_add_with_one_rough_layer(stack):
    assert case_number(build(stack), tol=1e-3).case_number == compose_cases(cases(stack))


@given(st.floats(min_value=1e3, max_value=2e5), st.floats(min_value=1.0, max_value=20.0),
       st.floats(min_value=0.0, max_value=8.0))
@example(5e4, 1.0, 8.0)
def test_sphere_on_analytic_roughness_is_case_two(radius, sigma, ratio):
    # f(s) = 2 pi R f_r(0) s + O(s^2) however small f_r(0) is: at s0 = 8
    # sigma it is exp(-32) of the roughness peak.
    rough = truncated_gaussian_distribution(sigma, ratio * sigma)
    rep = case_number(convolve(sphere_distribution(radius), rough))
    assert rep.case_number == 2
    assert rep.leading_coefficient == pytest.approx(2 * math.pi * radius * evaluate(rough, 0.0), rel=1e-12)


@given(stacks())
def test_exact_convolution_bit_identical_to_triple_loop_oracle(stack):
    radius, layers = stack
    want = sphere_distribution(radius)
    for kind, p in layers:
        want = convolve_analytic(want, make_layer(kind, p))
    assert_same_segments(build(stack), want)


@st.composite
def rough_operands(draw):
    """Operands of sphere (*) rough and of rough (*) rough at unequal sigma.

    The rough (*) rough operands keep their first three pieces, so that the
    oracle stays quick; their nine pairs have cuts that do not line up."""
    radius = draw(st.floats(min_value=1e3, max_value=2e5))
    sigmas = draw(st.lists(st.floats(min_value=1.0, max_value=20.0), min_size=2, max_size=2, unique=True))
    roughs = [truncated_gaussian_distribution(sigma, sigma * draw(st.floats(min_value=0.0, max_value=3.0)))
              for sigma in sigmas]
    leading = [HeightDistribution.analytic(f.breaks[:4], f.coeffs[:3], True) for f in roughs]
    return [(sphere_distribution(radius), roughs[0]), tuple(leading)]


@given(rough_operands())
@settings(max_examples=3)
def test_exact_convolution_with_roughness_bit_identical_to_triple_loop_oracle(pairs):
    for a, b in pairs:
        assert_same_segments(convolve(a, b), convolve_analytic(a, b))


@given(stacks())
def test_projected_areas_multiply(stack):
    radius, layers = stack
    # Every modulation layer is per unit area, so the product is pi R^2.
    expected = projected_area(sphere_distribution(radius))
    for kind, h in layers:
        expected *= projected_area(LAYERS[kind][0](h))
    assert expected == pytest.approx(math.pi * radius**2, rel=1e-12)
    assert projected_area(build(stack)) == pytest.approx(expected, rel=1e-9)


@given(stacks(), st.sampled_from([1.5, 2.0, 3.0, 4.5]))
def test_interaction_strictly_decreasing(stack, nu):
    curve = sweep(build(stack), Kernel(1.0, nu), np.geomspace(0.01, 300.0, 24))
    assert np.all(np.diff(curve.values) < 0)


@pytest.mark.filterwarnings("ignore:bin widths differ")
@given(rough_stacks(), st.sampled_from([1.5, 2.0, 3.0, 4.5]))
def test_interaction_independent_of_order_and_strictly_decreasing(stacks_pair, nu):
    ordered, permuted = stacks_pair
    d = np.geomspace(0.01, 300.0, 12)
    want = sweep(build(ordered), Kernel(1.0, nu), d).values
    got = sweep(build(permuted), Kernel(1.0, nu), d).values
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.all(np.diff(got) < 0)


@given(stacks(), st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 6.5]))
def test_predict_branch_by_case_against_nu(stack, nu):
    n = compose_cases(cases(stack))
    law = predict(case_number(build(stack)), Kernel(1.0, nu))
    if nu < n:
        assert law.form == LawForm.CONSTANT
    elif nu == n:
        assert law.form == LawForm.LOGARITHMIC
    else:
        assert law.form == LawForm.POWER_LAW
        assert law.exponent == nu - n
