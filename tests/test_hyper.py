import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from asm3 import counts, hyper, tq
from asm3.errors import DegenerateParameters, OutOfRange
from asm3.hyper import hyp, pochhammer, series_coeffs
from asm3.qfield import Q


def _fractions(pair):
    # the coefficients nums[j]/den of a series_coeffs result
    nums, den = pair
    return [Fraction(v, den) for v in nums]


def test_pochhammer_values():
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(Fraction(1, 3), 2) == Fraction(4, 9)
    assert pochhammer(Fraction(-5, 2), 0) == 1
    assert pochhammer(-2, 4) == 0
    with pytest.raises(OutOfRange):
        pochhammer(1, -1)


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
    assert _fractions(series_coeffs((-2, 1), (3,), 2)) == full
    assert _fractions(series_coeffs((-2, 1), (3,), 7)) == full
    assert _fractions(series_coeffs((-2, 1), (3,), 1)) == full[:2]
    # as integers over their least common denominator
    assert series_coeffs((-2, 1), (3,), 2) == ([6, -4, 1], 6)
    assert hyp((-3, Fraction(-1, 3)), (Fraction(4, 3),), 1) == Fraction(11, 7)


def test_zero_order_series_is_one_even_with_zero_lower():
    # termination at order 0 never touches the lower parameters
    assert hyp((0, 1), (0,), Fraction(1, 2)) == 1
    assert series_coeffs((0, 1), (0,), 0) == ([1], 1)
    assert series_coeffs((0, 1), (0,), -1) == ([], 1)


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
    assert _fractions(series_coeffs((-1, 5), (-2,), 5)) == [1, Fraction(-1 * 5, -2)]


def test_argument_must_be_rational():
    # a Q(s), float or string argument raises instead of being summed
    for z in (Q, 0.5, "1/2"):
        with pytest.raises(TypeError):
            hyp((-2, 1), (1,), z)


def test_series_and_hyp_refuse_float_parameters():
    # a float's as_integer_ratio is its binary value, so a float parameter
    # raises instead of being read as one
    for bad in (0.5, 2.0, "1/2"):
        with pytest.raises(TypeError):
            series_coeffs((-2, bad), (3,), 2)
        with pytest.raises(TypeError):
            series_coeffs((-2, 1), (bad,), 2)
        with pytest.raises(TypeError):
            hyp((-2, bad), (3,), 1)
        with pytest.raises(TypeError):
            hyp((-2, 1), (bad,), 1)
    with pytest.raises(TypeError):
        hyp((-2.0, 1), (3,), 1)


# -- plain Fraction reference loops for the integer term loops -----------


def _ref_pochhammer(a, j):
    out = Fraction(1)
    for i in range(j):
        out *= Fraction(a) + i
    return out


def _ref_series(upper, lower, n):
    out = [Fraction(1)] if n >= 0 else []
    for j in range(1, n + 1):
        den = Fraction(j)
        for c in lower:
            den *= Fraction(c) + j - 1
        if not den:
            raise DegenerateParameters("reference")
        num = Fraction(1)
        for a in upper:
            num *= Fraction(a) + j - 1
        if not num:
            break
        out.append(out[-1] * num / den)
    return out


def _ref_hyp(upper, lower, z):
    order = max(-a for a in upper if Fraction(a).denominator == 1 and a <= 0)
    return sum(
        c * Fraction(z) ** j
        for j, c in enumerate(_ref_series(upper, lower, int(order)))
    )


def _outcome(f, *args):
    # the value, or DegenerateParameters when f raises it
    try:
        return f(*args)
    except DegenerateParameters:
        return DegenerateParameters


rationals = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)
params = st.lists(rationals, max_size=3)


@given(rationals, st.integers(min_value=0, max_value=9))
def test_pochhammer_matches_fraction_reference(a, j):
    got = pochhammer(a, j)
    assert type(got) is Fraction and got == _ref_pochhammer(a, j)


# early stop, a lower zero after the stop, a lower zero before it, and a
# simultaneous first vanishing
@example([-2, 1], [3], 6)
@example([-1, 5], [-2], 5)
@example([-3, 2], [-1], 3)
@example([-1], [-1], 2)
@given(params, params, st.integers(min_value=-1, max_value=8))
def test_series_coeffs_match_fraction_reference(upper, lower, n):
    got = _outcome(series_coeffs, upper, lower, n)
    want = _outcome(_ref_series, upper, lower, n)
    if got is DegenerateParameters:
        assert want is DegenerateParameters
    else:
        assert _fractions(got) == want


@example([-2, 1], [3], 6)
@example([-1, 5], [-2], 5)
@example([], [], -1)
@given(params, params, st.integers(min_value=-1, max_value=8))
def test_series_coeffs_are_in_canonical_form(upper, lower, n):
    # one positive denominator with no factor common to every numerator,
    # so den is the least common denominator of the coefficients
    got = _outcome(series_coeffs, upper, lower, n)
    if got is not DegenerateParameters:
        nums, den = got
        assert all(type(v) is int for v in [*nums, den])
        assert den > 0 and gcd(den, *nums) == 1


@example(2, [1], [3], Fraction(1))
@example(3, [-1], [-1], Fraction(1))
@example(1, [0], [0], Fraction(1, 2))
@given(
    st.integers(min_value=0, max_value=6),
    params,
    params,
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
def test_hyp_matches_fraction_reference(order, rest, lower, z):
    upper = [-order, *rest]
    got = _outcome(hyp, upper, lower, z)
    assert got == _outcome(_ref_hyp, upper, lower, z)
    if got is not DegenerateParameters:
        assert type(got) is Fraction


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
        (counts.asm_table, (7,)),
        (pochhammer, (Fraction(1, 3), 4)),
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
