import doctest
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import asm3.laurent
from asm3.errors import NonExactDivision, PoleAtSample
from asm3.laurent import LaurentPoly
from asm3.qfield import OMEGA, OMEGA_BAR, Q, QsElem, S

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
polys = st.dictionaries(
    st.integers(min_value=-5, max_value=5), coeffs, max_size=5
).map(LaurentPoly)


def test_module_doctests():
    failures, _ = doctest.testmod(asm3.laurent)
    assert failures == 0


def test_constructor_drops_zero_coefficients():
    p = LaurentPoly({3: 0, 1: 1, -2: Fraction(0)})
    assert (p.min_exp, p.max_exp) == (1, 1)
    assert p.coeff(3) == 0
    assert p.coeff(1) == 1


def test_constructor_refuses_non_integer_exponents():
    # int(k) used to read 1.5 as 1 and "2" as 2
    for bad in (1.5, "2", Fraction(2)):
        with pytest.raises(TypeError):
            LaurentPoly({bad: 1})
        with pytest.raises(TypeError):
            LaurentPoly({bad: 0})


def test_zero_polynomial_has_no_support():
    z = LaurentPoly()
    assert z.is_zero
    with pytest.raises(ValueError):
        z.min_exp
    with pytest.raises(ValueError):
        z.max_exp


def test_basic_arithmetic():
    p = LaurentPoly({1: 1, -1: -1})
    q = LaurentPoly({1: 1, -1: 1})
    assert p + q == LaurentPoly({1: 2})
    assert p - p == LaurentPoly()
    assert p * q == LaurentPoly({2: 1, -2: -1})
    assert 2 * p == LaurentPoly({1: 2, -1: -2})
    assert p * Fraction(1, 2) == LaurentPoly({1: Fraction(1, 2), -1: Fraction(-1, 2)})
    assert -p == LaurentPoly({1: -1, -1: 1})
    assert p + 1 == LaurentPoly({1: 1, 0: 1, -1: -1})


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c


@given(polys, polys)
def test_exact_division_round_trip(p, d):
    if d.is_zero:
        with pytest.raises(ZeroDivisionError):
            p.divide_exact(d)
    else:
        assert (p * d).divide_exact(d) == p


def test_division_with_remainder_raises():
    num = LaurentPoly({2: 1, 0: 1})
    den = LaurentPoly({1: 1, 0: 1})
    with pytest.raises(NonExactDivision):
        num.divide_exact(den)


def test_division_handles_laurent_offsets():
    # quotient support may be negative even when both operands look plain
    num = LaurentPoly({0: 1, -2: 1})
    den = LaurentPoly({1: 1, -1: 1})
    assert num.divide_exact(den) == LaurentPoly({-1: 1})


def test_substitute_scale_by_cube_root():
    p = LaurentPoly({3: 5, 1: 2, -6: 1})
    q = p.substitute_scale(OMEGA)
    # exponents divisible by 3 are fixed by a cube root of unity
    assert q.coeff(3) == 5
    assert q.coeff(-6) == 1
    assert q.coeff(1) == 2 * OMEGA
    with pytest.raises(ZeroDivisionError):
        p.substitute_scale(0)


@given(polys)
def test_substitute_scale_composes_to_identity(p):
    assert p.substitute_scale(OMEGA).substitute_scale(OMEGA_BAR) == p


@given(polys)
def test_invert_x_is_an_involution(p):
    assert p.invert_x().invert_x() == p


@given(polys)
def test_substitute_scale_by_one_is_identity(p):
    assert p.substitute_scale(1) == p


def test_eval_at_points():
    p = LaurentPoly({1: 1, -1: 1})
    assert p.eval_at(2) == Fraction(5, 2)
    assert p.eval_at(Fraction(1, 3)) == Fraction(10, 3)
    assert p.eval_at(Q) == 1  # q + 1/q = 1
    with pytest.raises(PoleAtSample):
        p.eval_at(0)
    assert LaurentPoly().eval_at(7) == 0


@given(polys, polys)
def test_eval_is_a_ring_map(p, q):
    x0 = Fraction(3, 2)
    assert (p * q).eval_at(x0) == p.eval_at(x0) * q.eval_at(x0)
    assert (p + q).eval_at(x0) == p.eval_at(x0) + q.eval_at(x0)


@given(polys, polys)
def test_euler_derivative_product_rule(p, q):
    lhs = (p * q).euler_d()
    rhs = p.euler_d() * q + p * q.euler_d()
    assert lhs == rhs


def test_euler_derivative_kills_constants():
    assert LaurentPoly({0: 7}).euler_d().is_zero
    assert LaurentPoly({2: 1}).euler_d() == LaurentPoly({2: 2})


def test_is_rational_flag():
    # rational coefficients embed with a zero s-part
    assert LaurentPoly({1: Fraction(2, 3)}).coeff(1).sb == 0
    assert LaurentPoly({1: S}).coeff(1).sb != 0
    assert LaurentPoly({0: QsElem(1, 0)}).coeff(0).sb == 0


def test_equality_against_scalars():
    assert LaurentPoly({0: 5}) == 5
    assert LaurentPoly() == 0
    assert LaurentPoly({1: 1}) != 1
