from fractions import Fraction

import pytest

from asm3.densepoly import DensePoly
from asm3.errors import OutOfRange
from asm3.qfield import Q, QsElem


def test_trailing_zeros_are_trimmed():
    p = DensePoly((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert p == DensePoly((1, 2))
    z = DensePoly((0, 0))
    assert z.degree == -1 and z.coeffs == () and z == DensePoly()


def test_coeff_outside_the_range_is_zero():
    p = DensePoly((Fraction(1, 2), 3))
    assert p.coeff(0) == Fraction(1, 2)
    assert p.coeff(1) == 3
    assert p.coeff(2) == 0
    assert p.coeff(-1) == 0


def test_reversed_poly():
    p = DensePoly((1, 2))
    assert p.reversed_poly() == DensePoly((2, 1))
    assert p.reversed_poly(3) == DensePoly((0, 0, 2, 1))
    with pytest.raises(OutOfRange):
        DensePoly((1, 2, 3)).reversed_poly(1)


def test_eval_at_a_point_of_the_quadratic_field():
    coeffs = (Fraction(1, 3), -2, 0, 5)
    value = DensePoly(coeffs).eval_at(Q)
    assert isinstance(value, QsElem)
    assert value == sum((c * Q ** k for k, c in enumerate(coeffs)), QsElem(0))
    half = DensePoly(coeffs).eval_at(Fraction(1, 2))
    assert half == Fraction(1, 3) - 1 + Fraction(5, 8)


def test_product_with_zero_polynomial():
    p = DensePoly((1, 2, 3))
    assert p * DensePoly() == DensePoly()
    assert DensePoly() * p == DensePoly()


def test_coefficients_read_as_fractions():
    p = DensePoly((1, Fraction(2, 3), 4)) * DensePoly((1, 1))
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs == (1, Fraction(5, 3), Fraction(14, 3), 4)
    assert type(p.coeff(1)) is Fraction and type(p.coeff(9)) is Fraction


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
