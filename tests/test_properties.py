"""Paper invariants over random shape stacks (Hypothesis).

A stack is a sphere carrying one to three dome or pyramid layers, ordered
coarse to fine, with summed case number at most 6.  Across such stacks the
case numbers add, the projected areas multiply, I(d) strictly decreases in
d, and ``predict`` picks the constant, logarithmic or power-law branch by
the case number n against the kernel exponent nu.  With zero to two
Gaussian roughness layers added and all layers permuted, I(d) does not
depend on the layer order (convolution commutes) and still strictly
decreases.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from proxint import (
    Kernel,
    LawForm,
    case_number,
    compose_cases,
    convolve,
    dome_distribution,
    predict,
    projected_area,
    pyramid_distribution,
    sphere_distribution,
    sweep,
    truncated_gaussian_distribution,
)

LAYERS = {
    "dome": (dome_distribution, 1),
    "pyramid": (lambda h: pyramid_distribution(h, h, per_unit_area=True), 2),
}
SPHERE_CASE = 1
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


def make_layer(kind, p):
    if kind == "rough":
        sigma, s0 = p
        # A coarse grid keeps the fold cheap; order independence holds on any grid.
        return truncated_gaussian_distribution(sigma, s0, bin_width=sigma / 8.0)
    return LAYERS[kind][0](p)


def build(stack):
    radius, layers = stack
    f = sphere_distribution(radius)
    for kind, p in layers:
        f = convolve(f, make_layer(kind, p))
    return f


def cases(stack):
    return [SPHERE_CASE] + [LAYERS[kind][1] for kind, _ in stack[1]]


@given(stacks())
def test_case_numbers_add(stack):
    assert case_number(build(stack)).case_number == compose_cases(cases(stack))


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
