from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from asm3.densepoly import DensePoly, horner
from asm3.qfield import Q, QsElem


def test_trailing_zeros_are_trimmed():
    p = DensePoly((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert DensePoly((0, 0)).coeffs == DensePoly().coeffs == ()


def test_eval_at_a_point_of_the_quadratic_field():
    coeffs = (Fraction(1, 3), -2, 0, 5)
    value = horner(coeffs, Q)
    assert isinstance(value, QsElem)
    assert value == sum((c * Q ** k for k, c in enumerate(coeffs)), QsElem(0))
    assert horner(coeffs, Fraction(1, 2)) == Fraction(1, 3) - 1 + Fraction(5, 8)
    assert horner((1, 1, 1), 3) == 13 and horner((), 3) == 0


def test_product_with_zero_polynomial():
    p = DensePoly((1, 2, 3))
    assert (p * DensePoly()).coeffs == ()
    assert (DensePoly() * p).coeffs == ()


def test_coefficients_read_as_fractions():
    p = DensePoly((1, Fraction(2, 3), 4)) * DensePoly((1, 1))
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs == (1, Fraction(5, 3), Fraction(14, 3), 4)


coeff_lists = st.lists(
    st.one_of(
        st.integers(-9, 9),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
    ),
    max_size=7,
)


@given(coeff_lists, coeff_lists)
def test_product_matches_a_fraction_convolution(x, y):
    p, q = DensePoly(x), DensePoly(y)
    want = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            want[i + j] += a * b
    while want and not want[-1]:
        want.pop()
    got = (p * q).coeffs
    assert got == tuple(want)
    assert all(type(c) is Fraction for c in got)


def test_quadratic_field_coefficients_are_refused():
    p = DensePoly((1, 2))
    with pytest.raises(TypeError):
        DensePoly((1, QsElem(0, 1)))
    with pytest.raises(TypeError):
        DensePoly((Q,))
    with pytest.raises(TypeError):
        p * Q
    with pytest.raises(TypeError):
        Q * p


def test_float_coefficients_are_refused():
    # Fraction(0.1) would read the float's exact binary value
    for bad in (0.1, 1.0, "1/3"):
        with pytest.raises(TypeError):
            DensePoly((1, bad))
