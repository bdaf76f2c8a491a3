from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from asm3 import tq
from asm3.densepoly import DensePoly, horner
from asm3.qfield import Q, QBAR, QsElem


def test_trailing_zeros_are_trimmed():
    p = DensePoly((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert DensePoly((0, 0)).coeffs == DensePoly().coeffs == ()


def test_the_form_is_canonical():
    # the content gcd, the sign of den, trailing zeros and zero
    p = DensePoly((2, -4, 6, 0, 0), 10)
    assert (p.nums, p.den) == ((1, -2, 3), 5)
    p = DensePoly((1, 1), -2)
    assert (p.nums, p.den) == ((-1, -1), 2)
    p = DensePoly((-3, 0, 6), -9)
    assert (p.nums, p.den) == ((1, 0, -2), 3)
    for zero in (DensePoly(), DensePoly((0, 0), 7), DensePoly((), -3)):
        assert (zero.nums, zero.den) == ((), 1)
    assert DensePoly.__slots__ == ("nums", "den")


num_lists = st.lists(st.integers(-30, 30), max_size=7)
dens = st.integers(-24, 24).filter(bool)


@given(num_lists, dens)
def test_equal_polynomials_have_equal_fields(nums, den):
    p = DensePoly(nums, den)
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int for v in p.nums)
    assert gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1]
    want = [Fraction(v, den) for v in nums]
    while want and not want[-1]:
        want.pop()
    assert p.coeffs == tuple(want)
    # the same polynomial over a scaled denominator has the same fields
    q = DensePoly([3 * v for v in nums], 3 * den)
    assert (q.nums, q.den) == (p.nums, p.den)


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


def test_fraction_coefficients_and_bad_denominators_are_refused():
    # only ints enter: a Fraction coefficient belongs over den, den is an
    # int too, and den = 0 divides by zero
    for bad in (Fraction(1, 3), Fraction(2)):
        with pytest.raises(TypeError):
            DensePoly((1, bad))
    for bad in (Fraction(1, 3), Fraction(2), 2.0, "2", Q):
        with pytest.raises(TypeError):
            DensePoly((1,), bad)
    for nums in ((1, 2), ()):
        with pytest.raises(ZeroDivisionError):
            DensePoly(nums, 0)
    # coeffs is a read-only view of the two fields
    with pytest.raises(AttributeError):
        DensePoly((1, 2)).coeffs = (1,)


def test_eval_at_a_point_of_the_quadratic_field():
    nums = (1, -6, 0, 15)
    value = horner(nums, Q)
    assert isinstance(value, QsElem)
    assert value == sum((c * Q ** k for k, c in enumerate(nums)), QsElem(0))
    # at a rational point a Fraction coefficient is still read
    coeffs = (Fraction(1, 3), -2, 0, 5)
    assert horner(coeffs, Fraction(1, 2)) == Fraction(1, 3) - 1 + Fraction(5, 8)
    assert horner((1, 1, 1), 3) == 13 and horner((), 3) == 0


def test_a_fraction_coefficient_at_a_field_point_is_refused():
    for coeffs in ((Fraction(1, 3), -2, 5), (1, Fraction(2)), (Fraction(1, 2),)):
        with pytest.raises(TypeError):
            horner(coeffs, Q)
        with pytest.raises(TypeError):
            horner(coeffs, 2, QBAR)


def test_product_with_zero_polynomial():
    p = DensePoly((1, 2, 3))
    assert (p * DensePoly()).coeffs == ()
    assert (DensePoly() * p).coeffs == ()


def test_coefficients_read_as_fractions():
    # (1 + 2/3 t + 4 t^2)(1 + t)
    p = DensePoly((3, 2, 12), 3) * DensePoly((1, 1))
    assert (p.nums, p.den) == ((3, 5, 14, 12), 3)
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs == (1, Fraction(5, 3), Fraction(14, 3), 4)


@given(num_lists, dens, num_lists, dens)
def test_product_matches_a_fraction_convolution(x, dx, y, dy):
    p, q = DensePoly(x, dx), DensePoly(y, dy)
    want = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            want[i + j] += a * b
    while want and not want[-1]:
        want.pop()
    prod = p * q
    assert prod.coeffs == tuple(want)
    # the product is in canonical form
    assert prod.den > 0 and gcd(prod.den, *prod.nums) == 1


coeff_lists = st.lists(
    st.one_of(
        st.integers(-9, 9),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
    ),
    max_size=7,
)
int_lists = st.lists(st.integers(-20, 20), max_size=7)


def _qs_horner(coeffs, v):
    # the plain Horner rule, one reducing QsElem multiply and add per step
    acc = QsElem(0)
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


qs_points = st.builds(
    QsElem,
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
)


@given(int_lists, qs_points)
def test_horner_at_a_field_point_matches_the_plain_rule(coeffs, v):
    got = horner(coeffs, v)
    want = _qs_horner(coeffs, v)
    assert got == want
    if coeffs:
        assert isinstance(got, QsElem) and (got.a, got.b, got.d) == (want.a, want.b, want.d)


def _qs_homogeneous(coeffs, a, b):
    # sum_k c_k a^k b^(K-k), term by term in QsElem arithmetic, with a
    # rational a or b lifted to a QsElem
    a, b = (v if isinstance(v, QsElem) else QsElem(v) for v in (a, b))
    top = len(coeffs) - 1
    return sum((a ** k * b ** (top - k) * c for k, c in enumerate(coeffs)), QsElem(0))


def test_horner_at_the_transform_points_matches_the_plain_rule():
    # the two pairs (a, b) of tq.transform_checks at each sample, with the
    # numerator tuples it evaluates there
    for m in range(8):
        for x0 in tq.TRANSFORM_SAMPLES:
            even = (Q - x0, Q * x0 - 1)
            first = (Q * (1 / x0) - QBAR * x0, Q * x0 - QBAR * (1 / x0))
            for nums, (a, b) in (
                (tq.e_poly(m).nums, even),
                (tq.h1_poly(m + 1).nums, first),
            ):
                got, want = horner(nums, a, b), _qs_homogeneous(nums, a, b)
                assert (got.a, got.b, got.d) == (want.a, want.b, want.d)


rational_points = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=9)
)


@given(
    coeff_lists,
    st.one_of(rational_points, qs_points),
    st.one_of(st.none(), rational_points, qs_points),
)
def test_homogeneous_horner_matches_the_sum_of_its_terms(coeffs, a, b):
    # b = None stands for the default b = 1
    args = (a,) if b is None else (a, b)
    b = 1 if b is None else b
    assert horner((), a, b) == 0
    at_field_point = QsElem in (type(a), type(b))
    if coeffs and at_field_point and Fraction in map(type, coeffs):
        # at a point of Q(s) the coefficients are integer numerators
        with pytest.raises(TypeError):
            horner(coeffs, *args)
        return
    got = horner(coeffs, *args)
    want = _qs_homogeneous(coeffs, a, b)
    assert got == want
    if coeffs and at_field_point:
        assert isinstance(got, QsElem) and (got.a, got.b, got.d) == (want.a, want.b, want.d)
    else:
        # rational points give an int or a Fraction, and () gives 0
        assert type(got) in (int, Fraction)
