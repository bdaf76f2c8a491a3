import doctest
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

import asm3.laurent
from asm3.errors import NonExactDivision, PoleAtSample
from asm3.laurent import LaurentPoly
from asm3.qfield import OMEGA, OMEGA_BAR, Q, QsElem, S, ZERO

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
exps = st.integers(min_value=-5, max_value=5)
polys = st.dictionaries(exps, coeffs, max_size=5).map(LaurentPoly)

# coefficients with an s-part, kept as {k: QsElem} so that the reference
# below can work on them without LaurentPoly arithmetic
qs_coeffs = st.builds(QsElem, coeffs, coeffs)
qs_dicts = st.dictionaries(exps, qs_coeffs, max_size=5)
qs_points = st.builds(
    QsElem,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
).filter(bool)
# divisor leads whose norm is not 1: 2, s, q = (1 + s)/2 and 3 + s
leads = st.sampled_from([QsElem(2), S, Q, QsElem(3, 1)])


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


# -- a per-coefficient QsElem reference for the Q(s) kernel ------------------


def _ref_clean(c):
    return {k: v for k, v in c.items() if v}


def _ref_add(x, y):
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, ZERO) + v
    return _ref_clean(out)


def _ref_neg(x):
    return {k: -v for k, v in x.items()}


def _ref_mul(x, y):
    out = {}
    for k1, v1 in x.items():
        for k2, v2 in y.items():
            out[k1 + k2] = out.get(k1 + k2, ZERO) + v1 * v2
    return _ref_clean(out)


def _ref_divide(x, y):
    # long division by the inverse of the divisor's lead; None for a
    # remainder
    if not x:
        return {}
    nlo, dlo, dhi = min(x), min(y), max(y)
    num = [x.get(k, ZERO) for k in range(nlo, max(x) + 1)]
    div = [y.get(k, ZERO) for k in range(dlo, dhi + 1)]
    if len(num) < len(div):
        return None
    inv = div[-1].inverse()
    quot = {}
    for i in range(len(num) - len(div), -1, -1):
        c = num[i + len(div) - 1] * inv
        quot[nlo - dlo + i] = c
        for j, d in enumerate(div):
            num[i + j] = num[i + j] - c * d
    return None if any(num) else _ref_clean(quot)


def _same(p, ref):
    # the kernel's polynomial p against a reference dict, read through coeff
    keys = set(ref)
    if not p.is_zero:
        keys |= set(range(p.min_exp, p.max_exp + 1))
    return all(p.coeff(k) == ref.get(k, ZERO) for k in keys)


def _canonical(p):
    d, pairs = p._d, list(p._c.values())
    return (
        type(d) is int
        and d > 0
        and all(type(a) is int and type(b) is int for a, b in pairs)
        and (0, 0) not in pairs
        and gcd(d, *(v for ab in pairs for v in ab)) == 1
        and (bool(pairs) or d == 1)
    )


@given(qs_dicts, qs_dicts)
def test_ring_operations_match_reference(x, y):
    p, q = LaurentPoly(x), LaurentPoly(y)
    cases = [
        (p + q, _ref_add(x, y)),
        (p - q, _ref_add(x, _ref_neg(y))),
        (-p, _ref_neg(x)),
        (p * q, _ref_mul(x, y)),
        (p.euler_d(), _ref_clean({k: v * k for k, v in x.items()})),
    ]
    for got, want in cases:
        assert _canonical(got)
        assert _same(got, want)


@given(qs_dicts, qs_coeffs)
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
    extra = _ref_add(prod, {9: QsElem(1, 1)})
    want = _ref_divide(extra, y)
    if want is None:
        with pytest.raises(NonExactDivision):
            LaurentPoly(extra).divide_exact(LaurentPoly(y))
    else:
        assert _same(LaurentPoly(extra).divide_exact(LaurentPoly(y)), want)


@given(qs_dicts, qs_dicts)
def test_division_matches_reference(x, y):
    y = _ref_clean(y)
    if not y:
        return
    p, q = LaurentPoly(x), LaurentPoly(y)
    prod = _ref_mul(x, y)
    got = LaurentPoly(prod).divide_exact(q)
    assert _canonical(got)
    assert _same(got, _ref_divide(prod, y)) and got == p
    _check_extra_term(prod, y)


@given(qs_dicts, qs_dicts, leads)
def test_division_by_a_lead_of_norm_not_one(x, y, lead):
    # the lead L of the divisor (after the conjugate, when it has an
    # s-part) is 2, 3, 4 or 12, so the dividend is prescaled by |L|^steps
    y = _ref_clean(y)
    y[6] = lead
    p, q = LaurentPoly(x), LaurentPoly(y)
    prod = _ref_mul(x, y)
    got = LaurentPoly(prod).divide_exact(q)
    assert _canonical(got)
    assert _same(got, _ref_divide(prod, y)) and got == p
    _check_extra_term(prod, y)


def test_division_prescale_by_hand():
    # divisors lead*x + low whose lead is 2, s, q and 3 + s
    for lead, low in [(2, S), (S, 1), (Q, 3), (QsElem(3, 1), S)]:
        den = LaurentPoly({1: lead, 0: low})
        p = LaurentPoly({1: 1, 0: -S, -2: Fraction(1, 3)})
        assert (p * den).divide_exact(den) == p
        with pytest.raises(NonExactDivision):
            (p * den + 1).divide_exact(den)


@given(qs_dicts, qs_points)
def test_substitute_and_eval_match_reference(x, w):
    p = LaurentPoly(x)
    scaled = p.substitute_scale(w)
    assert _canonical(scaled)
    assert _same(scaled, _ref_clean({k: v * w ** k for k, v in x.items()}))
    value = sum((v * w ** k for k, v in x.items()), ZERO)
    assert p.eval_at(w) == value


@given(qs_dicts)
def test_invert_x_and_constructor_are_canonical(x):
    p = LaurentPoly(x)
    assert _canonical(p) and _canonical(p.invert_x())
    assert _same(p.invert_x(), {-k: v for k, v in x.items()})


def test_canonical_form_cancels_common_content():
    assert LaurentPoly({1: Fraction(2, 4)}) == LaurentPoly({1: Fraction(1, 2)})
    half = LaurentPoly({1: QsElem(Fraction(1, 2), Fraction(1, 2))})
    total = half + LaurentPoly({1: QsElem(Fraction(1, 2), Fraction(-1, 2))})
    assert total == LaurentPoly({1: 1}) and total._d == 1
    zero = half - half
    assert zero.is_zero and zero._d == 1 and zero == LaurentPoly()
    assert (LaurentPoly({2: Fraction(1, 4)}).euler_d())._d == 2
    assert (LaurentPoly({3: 6}) * Fraction(1, 4)) == LaurentPoly({3: Fraction(3, 2)})


def test_kernel_runs_without_qselem_arithmetic(monkeypatch):
    p = LaurentPoly({2: QsElem(Fraction(1, 2), 3), 0: Q, -1: Fraction(-2, 3)})
    q = LaurentPoly({1: QsElem(3, 1), -2: S})
    expected = [p * q, p + q, p, p.euler_d()]

    def boom(*args):
        raise AssertionError("QsElem arithmetic inside the Laurent kernel")

    for name in ("__mul__", "__rmul__", "__add__", "__sub__"):
        monkeypatch.setattr(QsElem, name, boom)
    got = [p * q, p + q, (p * q).divide_exact(q), p.euler_d()]
    monkeypatch.undo()
    assert got == expected
