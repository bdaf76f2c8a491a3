from fractions import Fraction

import pytest

from asm3 import tq
from asm3.errors import DegenerateParameters, OutOfRange, PoleAtSample
from asm3.laurent import LaurentPoly
from asm3.tq import (
    c_norm,
    e_poly,
    f_poly,
    fg_2f1_check,
    g_poly,
    gauss_relation_checks,
    h_poly,
    ode_check_f,
    ode_check_h,
    p_poly,
    p_poly_phi,
    phi,
    q_poly,
    q_poly_phi,
    tq_check,
    transform_checks,
    v_poly,
    v_poly_phi,
    v_poly_q,
)

F = Fraction
SAMPLES = (F(2), F(3), F(5, 7))


def _support(p):
    # the exponents of the nonzero terms, ascending
    if p.is_zero:
        return ()
    return tuple(k for k in range(p.min_exp, p.max_exp + 1) if p.coeff(k))


def _is_rational(p):
    return all(not p.coeff(k).sb for k in _support(p))


def test_first_families_literal():
    assert f_poly(0) == LaurentPoly({1: 1, -1: -1})
    assert f_poly(1) == LaurentPoly(
        {4: F(2, 3), 2: F(-4, 3), -2: F(4, 3), -4: F(-2, 3)}
    )
    assert g_poly(0) == LaurentPoly({2: 1, -2: -1})
    assert g_poly(1) == LaurentPoly(
        {5: F(1, 3), 1: F(-5, 3), -1: F(5, 3), -5: F(-1, 3)}
    )
    assert h_poly(0) == LaurentPoly({2: 1, 1: 2, -1: -2, -2: -1})


def test_normalization_constants():
    assert c_norm(0) == 1
    assert c_norm(1) == F(6, 5)


def test_family_supports_are_arithmetic():
    for m in range(6):
        f_exps = {3 * m + 1 - 6 * k for k in range(m + 1)}
        assert _support(f_poly(m)) == tuple(sorted(f_exps | {-e for e in f_exps}))
        g_exps = {3 * m + 2 - 6 * k for k in range(m + 1)}
        assert _support(g_poly(m)) == tuple(sorted(g_exps | {-e for e in g_exps}))


def test_families_are_odd():
    for m in range(6):
        assert f_poly(m).invert_x() == -f_poly(m)
        assert g_poly(m).invert_x() == -g_poly(m)


def test_shift_equation_on_monomials():
    # x^k solves iff k is not divisible by 3
    for k in range(-6, 7):
        assert tq_check(LaurentPoly({k: 1})) == (k % 3 != 0)


def test_families_solve_shift_equation():
    for m in range(8):
        assert tq_check(f_poly(m))
        assert tq_check(g_poly(m))
        assert tq_check(h_poly(m))


def test_h_vanishes_at_one_and_f_does_not():
    for m in range(8):
        assert h_poly(m).eval_at(1) == 0
        assert f_poly(m).eval_at(1) == 0  # odd in x -> 1/x
        assert q_poly(m).eval_at(1) != 0


def test_quotients_literal():
    u = {1: 1, -1: 1}
    assert q_poly(0) == LaurentPoly({0: 1})
    assert q_poly(1) == LaurentPoly({1: F(2, 3), -1: F(2, 3)})
    assert q_poly(2) == LaurentPoly({2: F(5, 9), 0: F(11, 9), -2: F(5, 9)})
    assert p_poly(0) == LaurentPoly(u)
    assert p_poly(1) == LaurentPoly({2: F(1, 3), 0: 1, -2: F(1, 3)})
    assert v_poly(0) == LaurentPoly({0: 1})
    assert v_poly(1) == LaurentPoly({1: F(2, 5), 0: F(1, 5), -1: F(2, 5)})


def test_quotients_are_symmetric_and_rational():
    for m in range(6):
        for p in (q_poly(m), p_poly(m), v_poly(m)):
            assert p.invert_x() == p
            assert _is_rational(p)


def test_v_is_one_at_one():
    for m in range(8):
        assert v_poly(m).eval_at(1) == 1


def test_phi_values():
    assert phi(0, 0) == LaurentPoly({0: 1})
    assert phi(2, 0) == LaurentPoly({2: F(2, 3), 0: F(5, 3), -2: F(2, 3)})
    assert phi(2, 1) == LaurentPoly({2: F(7, 9), 0: F(16, 9), -2: F(7, 9)})


def test_phi_structural_invariants():
    for m in range(6):
        for k in range(4):
            val = phi(m, k)
            assert val.invert_x() == val
            assert _is_rational(val)
            if not val.is_zero:
                assert val.max_exp <= m
                assert all(e % 2 == m % 2 for e in _support(val))


def test_phi_builds_each_kernel_term_once(monkeypatch):
    # small^(m-j) * big^j for every j, built order by order, costs
    # (m+1)(m+2)/2 - 1 polynomial products for all k at one order m
    for obj in vars(tq).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    products = []
    mul = LaurentPoly.__mul__

    def counting(self, other):
        if isinstance(other, LaurentPoly):
            products.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    m = 6
    for k in range(m + 1):
        phi(m, k)
    assert len(products) <= (m + 1) * (m + 2) // 2


def test_phi_degenerate_case_raises():
    with pytest.raises(DegenerateParameters):
        phi(1, -1)
    with pytest.raises(DegenerateParameters):
        p_poly_phi(0)


def test_division_route_survives_where_series_route_degenerates():
    assert p_poly(0) == LaurentPoly({1: 1, -1: 1})


def test_dual_routes_agree():
    for m in range(6):
        assert q_poly(m) == q_poly_phi(m)
        assert v_poly(m) == v_poly_q(m)
        assert v_poly(m) == v_poly_phi(m)
    for m in range(1, 6):
        assert p_poly(m) == p_poly_phi(m)


def test_e_poly_literal():
    assert tuple(e_poly(0).coeffs) == (F(1),)
    assert tuple(e_poly(1).coeffs) == (F(1, 5), F(3, 5), F(1, 5))
    assert tuple(e_poly(2).coeffs) == (
        F(5, 126),
        F(5, 21),
        F(4, 9),
        F(5, 21),
        F(5, 126),
    )


def test_e_poly_shape():
    for m in range(8):
        e = e_poly(m)
        assert e.degree == 2 * m
        assert e.coeffs == e.coeffs[::-1]
        assert e.eval_at(F(1)) == 1


def test_differential_equations():
    for m in range(8):
        assert ode_check_f(m)
        assert ode_check_h(m)


def test_series_forms_of_f_and_g():
    for m in range(8):
        assert fg_2f1_check(m)


def test_relation_suite_passes():
    res = []
    for m in range(5):
        res.extend(gauss_relation_checks(m))
    assert not [r for r in res if not r.passed]


def test_relation_suite_names_are_stable():
    names = {r.name for r in gauss_relation_checks(2)}
    assert names == {
        "g_from_f_pair",
        "h_from_f_pair",
        "p_from_q_pair",
        "v_from_q_pair",
        "q_routes_agree",
        "p_routes_agree",
        "v_routes_agree",
        "phi_step_order",
        "phi_step_shift",
    }


def test_transform_checks_pass_at_rational_samples():
    for m in range(5):
        res = transform_checks(m, SAMPLES)
        assert not [r for r in res if not r.passed]
        assert len(res) == 2 * len(SAMPLES)


def test_transform_rejects_zero_sample():
    with pytest.raises(PoleAtSample):
        transform_checks(1, (F(0),))


def test_transform_refuses_float_and_str_samples():
    # Fraction(0.1) would run the check at the float's binary value
    for bad in (0.1, "5/7"):
        with pytest.raises(TypeError):
            transform_checks(1, (bad, 3))


@pytest.mark.parametrize(
    "family, checks",
    [
        ("f_poly", (ode_check_f, fg_2f1_check)),
        ("g_poly", (fg_2f1_check,)),
        ("h_poly", (ode_check_h,)),
    ],
)
def test_identity_checks_fail_on_one_extra_term(monkeypatch, family, checks):
    # a constant term solves none of the differential equations and is
    # absent from both series forms
    built = getattr(tq, family)
    monkeypatch.setattr(tq, family, lambda m: built(m) + 1)
    for m in range(4):
        assert not any(check(m) for check in checks)


def test_first_transform_sample_is_checked_like_the_rest(monkeypatch):
    # the first sample fixes the constant, so a perturbed generating
    # polynomial passes there and fails at every later sample
    exact = tq.h1_poly
    monkeypatch.setattr(tq, "h1_poly", lambda n: exact(n) + 1)
    for m in (1, 2, 3):
        res = transform_checks(m, SAMPLES)[len(SAMPLES) :]
        assert {r.name for r in res} == {"gen_fn_vs_first_solution"}
        assert [r.passed for r in res] == [True, False, False]


def test_negative_index_rejected():
    with pytest.raises(OutOfRange):
        f_poly(-1)
    with pytest.raises(OutOfRange):
        g_poly(-1)
    with pytest.raises(OutOfRange):
        e_poly(-1)
    with pytest.raises(OutOfRange):
        phi(-1, 0)
    with pytest.raises(OutOfRange):
        gauss_relation_checks(-1)
