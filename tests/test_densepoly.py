from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from asm3 import tq
from asm3.densepoly import DensePoly, horner
from asm3.qfield import Q, QBAR, QsElem


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


@given(coeff_lists, qs_points)
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
    # coefficient tuples it evaluates there
    for m in range(8):
        for x0 in tq.TRANSFORM_SAMPLES:
            even = (Q - x0, Q * x0 - 1)
            first = (Q * (1 / x0) - QBAR * x0, Q * x0 - QBAR * (1 / x0))
            for coeffs, (a, b) in (
                (tq.e_poly(m).coeffs, even),
                (tq.h1_poly(m + 1).coeffs, first),
            ):
                got, want = horner(coeffs, a, b), _qs_homogeneous(coeffs, a, b)
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
    got = horner(coeffs, a) if b is None else horner(coeffs, a, b)
    b = 1 if b is None else b
    want = _qs_homogeneous(coeffs, a, b)
    assert got == want
    if coeffs and QsElem in (type(a), type(b)):
        assert isinstance(got, QsElem) and (got.a, got.b, got.d) == (want.a, want.b, want.d)
    else:
        # rational points give an int or a Fraction, and () gives 0
        assert type(got) in (int, Fraction)
    assert horner((), a, b) == 0
