from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from asm3 import qfield
from asm3.laurent import LaurentPoly
from asm3.qfield import ONE, Q, QBAR, S, QsElem
from asm3.tq import f_poly, tq_check

# the zero of Q(s) and the primitive cube root of unity w = q^2 = (-1 + s)/2
# with its conjugate w^-1; no package code reads them, so they are built here
ZERO = QsElem(0, 0)
OMEGA = QsElem(Fraction(-1, 2), Fraction(1, 2))
OMEGA_BAR = QsElem(Fraction(-1, 2), Fraction(-1, 2))

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=12
)
elements = st.builds(QsElem, rationals, rationals)
scalars = st.one_of(st.integers(min_value=-20, max_value=20), rationals)
pairs = st.tuples(rationals, rationals)


def _ra(z):
    # the rational part of z as a Fraction
    return Fraction(z.a, z.d)


def _sb(z):
    # the coefficient of s as a Fraction
    return Fraction(z.b, z.d)


def test_construction_and_parts():
    z = QsElem(Fraction(1, 2), Fraction(-3, 4))
    assert _ra(z) == Fraction(1, 2)
    assert _sb(z) == Fraction(-3, 4)
    assert _ra(QsElem(5)) == 5 and _sb(QsElem(5)) == 0
    assert _sb(QsElem(Fraction(2, 7))) == 0


def test_only_exact_scalars_are_accepted():
    # a float or a string is never read as a rational, so no binary
    # approximation of 0.1 can slip into a coefficient
    for bad in (0.5, 0.1, "1/3"):
        with pytest.raises(TypeError):
            QsElem(bad)
        with pytest.raises(TypeError):
            QsElem(1, bad)
        with pytest.raises(TypeError):
            LaurentPoly({0: bad})
        with pytest.raises(TypeError):
            LaurentPoly({1: 1}) * bad


def test_rational_embedding_round_trip():
    z = QsElem(Fraction(-9, 4))
    assert _ra(z) == Fraction(-9, 4) and _sb(z) == 0
    assert _sb(S) != 0


def test_square_root_of_minus_three():
    assert S * S == -3
    assert S * S == QsElem(-3)


def test_sixth_root_constants():
    assert Q * QBAR == 1
    assert Q + QBAR == 1
    assert Q ** 6 == 1
    assert Q ** 3 == -1
    assert OMEGA == Q * Q
    assert OMEGA ** 3 == 1
    assert OMEGA * OMEGA_BAR == 1
    assert ONE + OMEGA + OMEGA_BAR == ZERO


def test_mixed_arithmetic_with_python_numbers():
    assert Fraction(1, 2) * S == QsElem(0, Fraction(1, 2))
    assert (S - 1) + (-S + 1) == 0


def test_a_rational_sits_left_only_of_mul_and_eq():
    # `*` and `==` take an int or a Fraction on either side, `+` and `-`
    # only on the right: there is no __radd__ or __rsub__
    for r in (2, Fraction(1, 2)):
        assert r * S == S * r == QsElem(0, r)
        assert r == QsElem(r) and QsElem(r) == r
        assert S + r == QsElem(r, 1) and S - r == QsElem(-r, 1)
        with pytest.raises(TypeError):
            r + S
        with pytest.raises(TypeError):
            r - S


@given(elements, elements, elements)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(elements)
def test_norm_is_multiplicative_with_conjugate(a):
    # a * conj(a) is the rational ra^2 + 3 sb^2, which vanishes only at zero
    prod = a * a.conjugate()
    assert _sb(prod) == 0
    assert prod == _ra(a) ** 2 + 3 * _sb(a) ** 2
    assert (prod == 0) == (a == 0)


def test_pow_negative_exponent():
    # Q(s) arithmetic here is ring-only: a negative power is refused
    z = QsElem(1, 1)
    assert z ** 0 == 1 and ZERO ** 0 == 1
    for base in (z, S, ZERO):
        with pytest.raises(TypeError):
            base ** -1
    with pytest.raises(TypeError):
        z ** -2


def test_there_is_no_division():
    assert not hasattr(QsElem, "inverse")
    assert not hasattr(QsElem, "__truediv__")
    for divisor in (2, Fraction(1, 3), S, ZERO, 0):
        with pytest.raises(TypeError):
            S / divisor
    with pytest.raises(TypeError):
        1 / S


def test_elements_are_unhashable():
    # __eq__ reaches across int and Fraction, and no caller keys a dict
    # by an element, so no __hash__ is defined
    assert QsElem(Fraction(3, 2)) == Fraction(3, 2)
    assert QsElem(4) == 4
    with pytest.raises(TypeError):
        hash(QsElem(4))


def test_equality_rejects_irrational_vs_rational():
    assert S != 0
    assert S != Fraction(1)
    assert QsElem(1, 1) != QsElem(1, -1)


def test_bool_and_repr():
    # no element has a truth value of its own: zero is found by == 0
    assert "__bool__" not in vars(QsElem)
    assert ZERO == 0 and S != 0
    # both parts print as Fractions
    assert repr(Q) == "QsElem(Fraction(1, 2), Fraction(1, 2))"
    assert repr(S) == "QsElem(Fraction(0, 1), Fraction(1, 1))"


# -- reference arithmetic on (rational part, coefficient of s) pairs -----


def _pair(z):
    return (_ra(z), _sb(z))


def _ref_mul(x, y):
    # (a + b s)(c + d s) = (ac - 3bd) + (ad + bc) s
    (a, b), (c, d) = x, y
    return (a * c - 3 * b * d, a * d + b * c)


def _ref_pow(x, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = _ref_mul(out, x)
    return out


def _canonical(z):
    return z.d > 0 and gcd(z.a, z.b, z.d) == 1


@given(pairs, pairs, scalars, st.integers(min_value=0, max_value=4))
def test_operations_match_fraction_pair_reference(x, y, r, n):
    a, b = x
    c, d = y
    u, v = QsElem(a, b), QsElem(c, d)
    fr = Fraction(r)
    expected = [
        (u + v, (a + c, b + d)),
        (u - v, (a - c, b - d)),
        (u * v, _ref_mul(x, y)),
        (u + r, (a + fr, b)),
        (u - r, (a - fr, b)),
        (u * r, (a * fr, b * fr)),
        (r * u, (a * fr, b * fr)),
        (-u, (-a, -b)),
        (u.conjugate(), (a, -b)),
        (v ** n, _ref_pow(y, n)),
    ]
    for got, want in expected:
        assert isinstance(got, QsElem)
        assert _canonical(got)
        assert _pair(got) == want
    assert u * u.conjugate() == a * a + 3 * b * b


@given(elements, elements)
def test_equal_values_have_equal_triples(u, v):
    w = (u + v) - v
    assert w == u
    assert (w.a, w.b, w.d) == (u.a, u.b, u.d)


@given(rationals)
def test_rational_elements_equal_their_fraction(r):
    assert QsElem(r) == r


def test_canonical_form():
    z = QsElem(Fraction(2, 4), Fraction(3, 6))
    assert z == Q
    assert (z.a, z.b, z.d) == (Q.a, Q.b, Q.d) == (1, 1, 2)
    assert (ZERO.a, ZERO.b, ZERO.d) == (0, 0, 1)
    assert (QsElem(Fraction(-6, 4)).a, QsElem(Fraction(-6, 4)).d) == (-3, 2)
    assert Q * 2 - S == 1 and (Q * 2 - S).d == 1
    with pytest.raises(TypeError):
        QsElem("1/3", 0.5)


def test_hot_path_builds_no_fraction(monkeypatch):
    # ring operations, Laurent multiply and division, and the shift-equation
    # check run on integers alone; only repr builds a Fraction
    u = QsElem(Fraction(1, 2), Fraction(-3, 4))
    v = QsElem(Fraction(5, 3), Fraction(2, 7))
    p = LaurentPoly({1: Fraction(1, 2), 0: 3, -2: Fraction(5, 3)})
    k = LaurentPoly({1: 1, -1: -1})
    expected = [u * v, u + v, u - v, u ** 5, p * p]

    def no_fraction(*args, **kwargs):
        raise AssertionError("a Fraction was built in Q(s) arithmetic")

    monkeypatch.setattr(qfield, "Fraction", no_fraction)
    got = [u * v, u + v, u - v, u ** 5, p * p]
    assert got == expected
    assert (p * k).divide_exact(k) == p
    assert u * Fraction(2, 3) + 1 == QsElem(Fraction(4, 3), Fraction(-1, 2))
    assert tq_check(f_poly(3))
