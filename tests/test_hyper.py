import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from asm3 import counts, hyper, tq
from asm3.errors import DegenerateParameters, OutOfRange
from asm3.hyper import gen_binomial, hyp, pochhammer, series_coeffs
from asm3.qfield import Q


def test_gen_binomial_integer_top_matches_comb():
    for n in range(8):
        for k in range(10):
            assert gen_binomial(n, k) == (comb(n, k) if k <= n else 0)


def test_gen_binomial_rational_top():
    assert gen_binomial(Fraction(4, 3), 2) == Fraction(2, 9)
    assert gen_binomial(Fraction(1, 2), 3) == Fraction(1, 16)
    assert gen_binomial(Fraction(-1, 3), 1) == Fraction(-1, 3)
    assert gen_binomial(Fraction(7, 5), 0) == 1
    assert gen_binomial(Fraction(7, 5), -2) == 0


def test_pochhammer_values():
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(Fraction(1, 3), 2) == Fraction(4, 9)
    assert pochhammer(Fraction(-5, 2), 0) == 1
    assert pochhammer(-2, 4) == 0
    with pytest.raises(OutOfRange):
        pochhammer(1, -1)


def test_gen_binomial_refuses_a_float_top():
    for bad in (0.1, 2.0, "1/2"):
        with pytest.raises(TypeError):
            gen_binomial(bad, 1)


def test_pochhammer_refuses_a_float_base():
    for bad in (0.5, 3.0, "1/3"):
        with pytest.raises(TypeError):
            pochhammer(bad, 2)


def test_termination_order_uses_most_negative_upper():
    # the order is 3, from -3, so the sum reaches j = 2, where the lower
    # (-1)_j vanishes with the upper (-1)_j; an order of 1, from -1, would
    # stop before the clash, as it does when no upper parameter is -3
    with pytest.raises(DegenerateParameters):
        hyp((-1, -3), (-1,), 1)
    assert hyp((-1, 5), (-1,), 1) == 6
    # an upper parameter of 0 gives exactly 1
    assert hyp((0, 5), (1,), 7) == 1
    assert hyp((-2, 0), (1,), Fraction(1, 3)) == 1
    with pytest.raises(ValueError):
        hyp((Fraction(1, 2), 2), (1,), 1)


def test_known_gauss_values():
    assert hyp((-2, 1), (3,), 1) == Fraction(1, 2)
    # an int argument gives a Fraction, also at order 0
    assert type(hyp((-2, 1), (3,), 1)) is Fraction
    assert type(hyp((0, 1), (3,), 1)) is Fraction
    # its coefficients; an order past the termination adds none, a
    # shorter one truncates
    full = [1, Fraction(-2, 3), Fraction(1, 6)]
    assert series_coeffs((-2, 1), (3,), 2) == full
    assert series_coeffs((-2, 1), (3,), 7) == full
    assert series_coeffs((-2, 1), (3,), 1) == full[:2]
    assert hyp((-3, Fraction(-1, 3)), (Fraction(4, 3),), 1) == Fraction(11, 7)


def test_zero_order_series_is_one_even_with_zero_lower():
    # termination at order 0 never touches the lower parameters
    assert hyp((0, 1), (0,), Fraction(1, 2)) == 1
    assert series_coeffs((0, 1), (0,), 0) == [1]
    assert series_coeffs((0, 1), (0,), -1) == []


def test_degenerate_lower_parameter_raises():
    with pytest.raises(DegenerateParameters):
        hyp((-1, 0), (0,), Fraction(1, 2))
    with pytest.raises(DegenerateParameters):
        hyp((-3, 2), (-1,), 1)
    with pytest.raises(DegenerateParameters):
        series_coeffs((-3, 2), (-1,), 2)


def test_late_lower_zero_after_series_truncates_is_fine():
    # upper kills the series at j = 2; the lower would vanish only at j = 3
    val = hyp((-1, 5), (-2,), 1)
    assert val == 1 + Fraction(-1 * 5, -2)
    assert series_coeffs((-1, 5), (-2,), 5) == [1, Fraction(-1 * 5, -2)]


def test_argument_must_be_rational():
    # a Q(s), float or string argument raises instead of being summed
    for z in (Q, 0.5, "1/2"):
        with pytest.raises(TypeError):
            hyp((-2, 1), (1,), z)


@given(
    st.integers(min_value=0, max_value=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6),
)
def test_chu_vandermonde_holds(m, b, c):
    # (-m, b; c) at unit argument sums to (c - b)_m / (c)_m
    lhs = hyp((Fraction(-m), b), (c,), Fraction(1))
    assert lhs == pochhammer(c - b, m) / pochhammer(c, m)


@given(
    st.integers(min_value=0, max_value=5),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_matched_upper_lower_pair_cancels(m, b, d, z):
    # a parameter repeated upstairs and downstairs drops out of the sum
    base = hyp((Fraction(-m), b), (d + 7,), z)
    padded = hyp((Fraction(-m), b, d + 12), (d + 7, d + 12), z)
    assert base == padded


class _HelperCalled(Exception):
    pass


def test_independent_routes_never_call_the_series_helper(monkeypatch):
    # every route comparison keeps one side off series_coeffs, so with the
    # helper disabled in each module that binds it those sides still compute
    routes = [
        (counts.b_coeff, (4, 3)),
        (tq.f_poly, (3,)),
        (tq.g_poly, (3,)),
        (tq.q_poly, (3,)),
        (tq.p_poly, (3,)),
        (tq.v_poly, (3,)),
        (counts.refined_asm, (7, 3)),
        (pochhammer, (Fraction(1, 3), 4)),
        (gen_binomial, (Fraction(4, 3), 3)),
    ]
    expected = [f(*args) for f, args in routes]

    def disabled(*args):
        raise _HelperCalled

    modules = [
        mod
        for name, mod in sys.modules.items()
        if name == "asm3" or name.startswith("asm3.")
    ]
    for mod in modules:
        if hasattr(mod, "series_coeffs"):
            monkeypatch.setattr(mod, "series_coeffs", disabled)
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    assert [f(*args) for f, args in routes] == expected
    # the series routes do go through the helper
    for f, args in [
        (hyper.hyp, ((-2, 1), (3,), 1)),
        (tq.phi, (2, 2)),
        (tq.e_poly, (2,)),
        (tq.h1_poly, (3,)),
    ]:
        with pytest.raises(_HelperCalled):
            f(*args)
