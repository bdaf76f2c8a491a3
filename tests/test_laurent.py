import doctest
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

import asm3.laurent
from asm3.errors import NonExactDivision, PoleAtSample
from asm3.laurent import LaurentPoly, vanishes
from asm3.qfield import OMEGA, Q, QsElem, S

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
exps = st.integers(min_value=-5, max_value=5)
polys = st.dictionaries(exps, coeffs, max_size=5).map(LaurentPoly)

# coefficients kept as {k: Fraction} so that the reference below can
# work on them without LaurentPoly arithmetic
rat_dicts = st.dictionaries(exps, coeffs, max_size=5)
rat_points = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
# divisors monic with integer coefficients, the only kind divide_exact
# takes: up to four integer terms below a top coefficient 1
monic_dicts = st.builds(
    lambda low, top: {
        **{k: Fraction(v) for k, v in low.items() if k < top},
        top: Fraction(1),
    },
    st.dictionaries(exps, st.integers(-6, 6), max_size=4),
    exps,
)
# what is neither an int nor a Fraction: a point of Q(s), a float, a str
non_rationals = (Q, S, QsElem(2), 0.5, 2.0, "1/3")


def _coeff(p, k):
    # the coefficient of x^k as a Fraction, read from the integer lane
    return Fraction(p._a.get(k, 0), p._d)


def test_module_doctests():
    failures, _ = doctest.testmod(asm3.laurent)
    assert failures == 0


def test_constructor_drops_zero_coefficients():
    p = LaurentPoly({3: 0, 1: 1, -2: Fraction(0)})
    assert (p.min_exp, p.max_exp) == (1, 1)
    assert set(p.support) == {1}
    assert _coeff(p, 3) == 0
    assert _coeff(p, 1) == 1


def test_constructor_refuses_non_integer_exponents():
    # int(k) used to read 1.5 as 1 and "2" as 2
    for bad in (1.5, "2", Fraction(2)):
        with pytest.raises(TypeError):
            LaurentPoly({bad: 1})
        with pytest.raises(TypeError):
            LaurentPoly({bad: 0})


def test_non_rational_coefficients_and_points_raise():
    # a Laurent polynomial lives over Q: nothing else becomes a
    # coefficient, an operand or an evaluation point
    p = LaurentPoly({1: 1, -1: Fraction(1, 2)})
    for bad in non_rationals:
        with pytest.raises(TypeError):
            LaurentPoly({0: bad})
        with pytest.raises(TypeError):
            LaurentPoly({2: 1, 0: bad})
        with pytest.raises(TypeError):
            p.eval_at(bad)
        with pytest.raises(TypeError):
            p * bad
        with pytest.raises(TypeError):
            bad * p
        with pytest.raises(TypeError):
            p + bad
        with pytest.raises(TypeError):
            p - bad


# integer lanes over a nonzero denominator of either sign, for from_lane
int_lanes = st.dictionaries(exps, st.integers(-40, 40), max_size=6)
denominators = st.integers(-36, 36).filter(bool)
non_integers = st.one_of(st.floats(allow_nan=False), st.text(max_size=3))


@given(int_lanes, denominators)
def test_lane_constructor_matches_the_fraction_constructor(lane, d):
    got = LaurentPoly.from_lane(lane, d)
    # the canonical form written out: each coefficient in lowest terms,
    # over the lcm of their denominators
    fracs = {k: Fraction(v, d) for k, v in lane.items() if v}
    den = lcm(*(c.denominator for c in fracs.values()))
    want = (den, {k: c.numerator * (den // c.denominator) for k, c in fracs.items()})
    assert (got._d, got._a) == want
    other = LaurentPoly({k: Fraction(v, d) for k, v in lane.items()})
    assert (other._d, other._a) == want


@given(st.dictionaries(exps, st.just(0), max_size=4), denominators)
def test_lane_of_zeros_is_the_zero_polynomial(lane, d):
    p = LaurentPoly.from_lane(lane, d)
    assert p.is_zero and (p._d, p._a) == (1, {})
    assert p == LaurentPoly()


@given(non_integers, st.integers(-3, 3), denominators)
def test_lane_constructor_refuses_non_integer_exponents(bad, v, d):
    with pytest.raises(TypeError):
        LaurentPoly.from_lane({bad: v}, d)
    with pytest.raises(TypeError):
        LaurentPoly({bad: Fraction(v, d)})


def test_lane_constructor_refuses_non_integer_values():
    for bad in (1.5, "2", Fraction(2), QsElem(1)):
        with pytest.raises(TypeError):
            LaurentPoly.from_lane({1: bad}, 3)
        with pytest.raises(TypeError):
            LaurentPoly.from_lane({1: 1}, bad)
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.from_lane({1: 1}, 0)


def test_zero_polynomial_has_no_support():
    z = LaurentPoly()
    assert z.is_zero and not z.support
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
    assert LaurentPoly() - p == LaurentPoly({1: -1, -1: 1})
    assert p + 1 == LaurentPoly({1: 1, 0: 1, -1: -1})


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c


@given(rat_dicts, monic_dicts)
def test_exact_division_round_trip(x, y):
    p, d = LaurentPoly(x), LaurentPoly(y)
    assert (p * d).divide_exact(d) == p


def test_division_refuses_other_divisors():
    # 2x + 1, x + 1/2, x/2 and 1 - x: a lead other than 1 or a
    # coefficient outside Z; a zero dividend or an exact product is
    # refused as well, since the check comes before any work
    p = LaurentPoly({1: 1, 0: Fraction(-1, 2), -2: Fraction(1, 3)})
    for c in [
        {1: 2, 0: 1},
        {1: 1, 0: Fraction(1, 2)},
        {1: Fraction(1, 2)},
        {1: -1, 0: 1},
    ]:
        den = LaurentPoly(c)
        for num in (p * den, p, LaurentPoly()):
            with pytest.raises(ValueError):
                num.divide_exact(den)
    with pytest.raises(ZeroDivisionError):
        p.divide_exact(LaurentPoly())


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


@given(polys)
def test_invert_x_is_an_involution(p):
    assert p.invert_x().invert_x() == p


def test_eval_at_points():
    p = LaurentPoly({1: 1, -1: 1})
    assert p.eval_at(2) == Fraction(5, 2)
    assert p.eval_at(Fraction(1, 3)) == Fraction(10, 3)
    assert p.eval_at(Fraction(-2, 3)) == Fraction(-13, 6)
    assert LaurentPoly({-3: 2, -1: 1}).eval_at(Fraction(1, 2)) == 18
    assert LaurentPoly({2: Fraction(1, 4), 5: 1}).eval_at(-2) == -31
    assert LaurentPoly().eval_at(7) == 0
    for x0 in (2, Fraction(1, 3)):
        assert type(p.eval_at(x0)) is Fraction
    assert type(LaurentPoly().eval_at(7)) is Fraction


def test_eval_at_zero_is_a_pole():
    for p in (LaurentPoly({1: 1, -1: 1}), LaurentPoly({2: 3}), LaurentPoly()):
        for zero in (0, Fraction(0)):
            with pytest.raises(PoleAtSample):
                p.eval_at(zero)


@given(rat_dicts, rat_points)
def test_eval_at_matches_a_fraction_sum(x, w):
    got = LaurentPoly(x).eval_at(w)
    assert type(got) is Fraction
    assert got == sum((v * w ** k for k, v in x.items()), Fraction(0))


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


@given(polys, polys, coeffs)
def test_rational_results_keep_an_empty_s_lane(p, q, c):
    # a polynomial stores one int per term and has no s-lane at all
    for r in (p, p * q, p + q, p - q, p * c, p.invert_x(), p.euler_d()):
        assert not hasattr(r, "_b")
        assert all(type(v) is int and v for v in r._a.values())


def test_equality_against_scalars():
    assert LaurentPoly({0: 5}) == 5
    assert LaurentPoly() == 0
    assert LaurentPoly({1: 1}) != 1
    assert LaurentPoly({0: Fraction(1, 2)}) == Fraction(1, 2)
    assert LaurentPoly({0: 1}) != OMEGA


# -- a per-coefficient Fraction reference for the integer kernel -------------


def _ref_clean(c):
    return {k: v for k, v in c.items() if v}


def _ref_add(x, y):
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + v
    return _ref_clean(out)


def _ref_neg(x):
    return {k: -v for k, v in x.items()}


def _ref_mul(x, y):
    out = {}
    for k1, v1 in x.items():
        for k2, v2 in y.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
    return _ref_clean(out)


def _ref_divide(x, y):
    # long division by the inverse of the divisor's lead; None for a
    # remainder
    if not x:
        return {}
    nlo, dlo, dhi = min(x), min(y), max(y)
    num = [Fraction(x.get(k, 0)) for k in range(nlo, max(x) + 1)]
    div = [Fraction(y.get(k, 0)) for k in range(dlo, dhi + 1)]
    if len(num) < len(div):
        return None
    inv = 1 / div[-1]
    quot = {}
    for i in range(len(num) - len(div), -1, -1):
        c = num[i + len(div) - 1] * inv
        quot[nlo - dlo + i] = c
        for j, d in enumerate(div):
            num[i + j] = num[i + j] - c * d
    return None if any(num) else _ref_clean(quot)


def _same(p, ref):
    # the kernel's polynomial p against a reference dict, read through _coeff
    keys = set(ref)
    if not p.is_zero:
        keys |= set(range(p.min_exp, p.max_exp + 1))
    return all(_coeff(p, k) == ref.get(k, 0) for k in keys)


def _canonical(p):
    d, entries = p._d, list(p._a.values())
    return (
        type(d) is int
        and d > 0
        and all(type(v) is int and v for v in entries)
        and gcd(d, *entries) == 1
        and (bool(entries) or d == 1)
    )


@given(rat_dicts, rat_dicts)
def test_ring_operations_match_reference(x, y):
    p, q = LaurentPoly(x), LaurentPoly(y)
    cases = [
        (p + q, _ref_add(x, y)),
        (p - q, _ref_add(x, _ref_neg(y))),
        (p * q, _ref_mul(x, y)),
        (p.euler_d(), _ref_clean({k: v * k for k, v in x.items()})),
    ]
    for got, want in cases:
        assert _canonical(got)
        assert _same(got, want)


@given(rat_dicts, coeffs)
def test_scalar_operations_match_reference(x, c):
    p = LaurentPoly(x)
    for got, want in [
        (p * c, _ref_clean({k: v * c for k, v in x.items()})),
        (c * p, _ref_clean({k: v * c for k, v in x.items()})),
        (p + c, _ref_add(x, {0: c})),
        (p - c, _ref_add(x, {0: -c})),
    ]:
        assert _canonical(got)
        assert _same(got, want)


def _check_extra_term(prod, y):
    # the dividend plus one extra term divides exactly or not as the
    # reference says
    extra = _ref_add(prod, {9: Fraction(1, 3)})
    want = _ref_divide(extra, y)
    if want is None:
        with pytest.raises(NonExactDivision):
            LaurentPoly(extra).divide_exact(LaurentPoly(y))
    else:
        assert _same(LaurentPoly(extra).divide_exact(LaurentPoly(y)), want)


@given(rat_dicts, monic_dicts)
def test_division_matches_reference(x, y):
    y = _ref_clean(y)
    p, q = LaurentPoly(x), LaurentPoly(y)
    prod = _ref_mul(x, y)
    got = LaurentPoly(prod).divide_exact(q)
    assert _canonical(got)
    assert _same(got, _ref_divide(prod, y)) and got == p
    _check_extra_term(prod, y)


@given(rat_dicts)
def test_invert_x_and_constructor_are_canonical(x):
    p = LaurentPoly(x)
    assert _canonical(p) and _canonical(p.invert_x())
    assert _same(p.invert_x(), {-k: v for k, v in x.items()})
    assert set(p.support) == set(_ref_clean(x))


def test_canonical_form_cancels_common_content():
    assert LaurentPoly({1: Fraction(2, 4)}) == LaurentPoly({1: Fraction(1, 2)})
    half = LaurentPoly({1: Fraction(1, 2), 0: Fraction(1, 6)})
    total = half + LaurentPoly({1: Fraction(1, 2), 0: Fraction(-1, 6)})
    assert total == LaurentPoly({1: 1}) and total._d == 1
    zero = half - half
    assert zero.is_zero and zero._d == 1 and zero == LaurentPoly()
    assert (LaurentPoly({2: Fraction(1, 4)}).euler_d())._d == 2
    assert (LaurentPoly({3: 6}) * Fraction(1, 4)) == LaurentPoly({3: Fraction(3, 2)})


def test_kernel_runs_without_qselem_arithmetic(monkeypatch):
    # the ring operations and the division run on the integer lane alone:
    # no field element and no Fraction is built until eval_at reads a value
    p = LaurentPoly({2: Fraction(1, 2), 0: 3, -1: Fraction(-2, 3)})
    q = LaurentPoly({1: Fraction(3, 4), -2: 5})
    k = LaurentPoly({1: 1, -1: -1})
    half = Fraction(1, 2)
    expected = [p * q, p + q, p - q, p, p.euler_d(), p * half, p.invert_x()]

    def boom(*args):
        raise AssertionError("QsElem or Fraction built inside the Laurent kernel")

    for name in ("__mul__", "__rmul__", "__add__", "__sub__"):
        monkeypatch.setattr(QsElem, name, boom)
    monkeypatch.setattr(asm3.laurent, "Fraction", boom)
    got = [
        p * q,
        p + q,
        p - q,
        (p * k).divide_exact(k),
        p.euler_d(),
        p * half,
        p.invert_x(),
    ]
    monkeypatch.undo()
    assert got == expected


# -- vanishes: one integer residue against the ring operations ---------------

# a term's scalar: an int, or a Fraction whose denominator is not 1
term_scalars = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(
        lambda c: c.denominator != 1
    ),
)
residue_terms = st.lists(st.tuples(term_scalars, polys, polys), min_size=1, max_size=4)


def _ring_sum(terms):
    # the reference: the sum of c * M * P by the ring operations
    total = LaurentPoly()
    for c, left, right in terms:
        total = total + left * right * c
    return total


@given(residue_terms)
def test_vanishes_matches_the_ring_sum(terms):
    assert vanishes(*terms) == _ring_sum(terms).is_zero


@given(residue_terms, st.integers(0, 3), exps)
def test_vanishes_on_sums_built_to_cancel(terms, turn, k):
    # each term with its negation, written with the factors swapped or
    # the scalar moved into a factor, so that the sum is zero
    def negated(c, left, right):
        return [
            (-c, right, left),
            (-1, left * c, right),
            (-2 * c, left, right * Fraction(1, 2)),
            (-c, LaurentPoly.one(), left * right),
        ][turn]

    cancel = terms + [negated(*t) for t in terms]
    assert _ring_sum(cancel).is_zero
    assert vanishes(*cancel)
    # one monomial more leaves a nonzero residue
    extra = cancel + [(Fraction(1, 3), LaurentPoly({k: 1}), LaurentPoly.one())]
    assert not vanishes(*extra)
    assert not vanishes(*extra[::-1])


def test_vanishes_refuses_non_rational_scalars_and_factors():
    p = LaurentPoly({1: 1, -1: Fraction(1, 2)})
    for bad in non_rationals:
        with pytest.raises(TypeError):
            vanishes((bad, p, p))
        with pytest.raises(TypeError):
            vanishes((1, p, p), (bad, p, p))
    for bad in (2, Fraction(1, 2), {1: 1}):
        with pytest.raises(TypeError):
            vanishes((1, bad, p))
        with pytest.raises(TypeError):
            vanishes((1, p, bad))


def test_vanishes_builds_no_polynomial(monkeypatch):
    # the residue is one integer dict: no ring operation, no canonical
    # form and no Fraction is made while it is summed
    p = LaurentPoly({2: Fraction(1, 2), 0: 3, -1: Fraction(-2, 3)})
    q = LaurentPoly({1: Fraction(3, 4), -2: 5})
    terms = [(Fraction(2, 3), p, q), (-1, q, p * Fraction(2, 3))]

    def refused(*args):
        raise AssertionError("polynomial or Fraction built in vanishes")

    for name in ("__mul__", "__rmul__", "__add__", "__sub__", "__eq__"):
        monkeypatch.setattr(LaurentPoly, name, refused)
    monkeypatch.setattr(asm3.laurent, "_poly", refused)
    monkeypatch.setattr(asm3.laurent, "Fraction", refused)
    assert vanishes(*terms)
    assert not vanishes(*terms[:1])
