import gc
import hashlib
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, strategies as st

from asm3 import checks, cli, counts, laurent, tq
from asm3.densepoly import DensePoly
from asm3.errors import DegenerateParameters, NonExactDivision, OutOfRange
from asm3.laurent import LaurentPoly
from asm3.qfield import Q, QBAR, S, QsElem
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

# the zero of Q(s) and the primitive cube root of unity w = q^2 with its
# conjugate w^-1; no package code reads them, so they are built here
ZERO = QsElem(0, 0)
OMEGA = Q * Q
OMEGA_BAR = OMEGA.conjugate()


def _support(p):
    # the exponents of the nonzero terms, ascending
    return tuple(sorted(p.support))


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
        assert f_poly(m).invert_x() == f_poly(m) * -1
        assert g_poly(m).invert_x() == g_poly(m) * -1


def test_shift_equation_on_monomials():
    # x^k solves iff k is not divisible by 3
    for k in range(-6, 7):
        assert tq_check(LaurentPoly({k: 1})) == (k % 3 != 0)


# rational Laurent polynomials, and ones whose exponents avoid 3Z, which
# all solve the shift equation
shift_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=5)
shift_exps = st.integers(-12, 12)
shift_dicts = st.one_of(
    st.dictionaries(shift_exps, shift_coeffs, max_size=6),
    st.dictionaries(shift_exps.filter(lambda k: k % 3), shift_coeffs, max_size=6),
)


def _omega_pow(k):
    # w^k for any integer k, with w^-1 = OMEGA_BAR
    return OMEGA ** k if k >= 0 else OMEGA_BAR ** -k


def _solves_three_term_sum(y):
    # y(x) + y(w x) + y(x/w), written out coefficient by coefficient: the
    # x^k coefficient is y_k + y_k w^k + y_k w^-k
    return all(
        _omega_pow(k) * v + _omega_pow(-k) * v + v == 0 for k, v in y.items()
    )


@given(shift_dicts)
def test_tq_check_matches_the_literal_three_term_sum(y):
    assert tq_check(LaurentPoly(y)) == _solves_three_term_sum(y)


def test_shift_factors_by_residue():
    # 1 + w^k + w^-k is 3 when 3 divides k and 0 otherwise, from w^3 = 1;
    # tq_check reads that rule, here held against powers in Q(s)
    assert OMEGA ** 3 == 1
    for k in range(-6, 7):
        factor = _omega_pow(k) + _omega_pow(-k) + 1
        assert factor == (0 if k % 3 else 3)
        assert tq_check(LaurentPoly({k: 1})) == (factor == 0)


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
        # a LaurentPoly is over Q, so each is rational by construction
        for p in (q_poly(m), p_poly(m), v_poly(m)):
            assert p.invert_x() == p


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
            if not val.is_zero:
                assert val.max_exp <= m
                assert all(e % 2 == m % 2 for e in _support(val))


def _rising(a, j):
    out = 1
    for i in range(j):
        out *= a + i
    return out


def _qs_mul(x, y):
    # the product of two Laurent polynomials kept as {k: QsElem} dicts
    out = {}
    for k1, v1 in x.items():
        for k2, v2 in y.items():
            out[k1 + k2] = out.get(k1 + k2, ZERO) + v1 * v2
    return {k: v for k, v in out.items() if v != 0}


@lru_cache(maxsize=None)
def _kernel_products(m):
    # small^(m-j) big^j for j = 0..m, over small = q/x - x/q and
    # big = q*x - 1/(q*x)
    small, big = {-1: Q, 1: -QBAR}, {1: Q, -1: -QBAR}
    small_pows, big_pows = [{0: QsElem(1)}], [{0: QsElem(1)}]
    for _ in range(m):
        small_pows.append(_qs_mul(small_pows[-1], small))
        big_pows.append(_qs_mul(big_pows[-1], big))
    return [_qs_mul(small_pows[m - j], big_pows[j]) for j in range(m + 1)]


def _gauss_sum(m, k):
    # the paper's form: s^-m sum_j t_j small^(m-j) big^j, in test-local
    # {k: QsElem} products with no LaurentPoly arithmetic, and
    # t_j = (-m)_j (k+1)_j / ((-m-k)_j j!)
    total = {}
    for j, term in enumerate(_kernel_products(m)):
        t = F(_rising(-m, j) * _rising(k + 1, j), _rising(-m - k, j) * factorial(j))
        for e, v in term.items():
            total[e] = total.get(e, ZERO) + v * t
    # s^-m = s^m / (-3)^m, since s^2 = -3
    scale = S ** m * F(1, (-3) ** m)
    return {e: v * scale for e, v in total.items() if v != 0}


# k = m + 2 is read by v_poly_phi(m + 1), one shift past relations' loop
GAUSS_PAIRS = [(m, k) for m in range(13) for k in range(m + 3)]


def _gauss_mismatches():
    # the (m, k) of GAUSS_PAIRS where tq.phi differs from the Gauss sum in
    # any coefficient; the sum's coefficients must all be rational
    out = []
    for m, k in GAUSS_PAIRS:
        p, want = tq.phi(m, k), _gauss_sum(m, k)
        got = {e: F(v, p._d) for e, v in p._a.items()}
        if got.keys() != want.keys() or any(want[e] != got[e] for e in got):
            out.append((m, k))
    return out


def test_phi_equals_the_gauss_sum():
    assert _gauss_mismatches() == []


def test_gauss_sum_comparison_catches_an_add_one_mutant(monkeypatch):
    built = tq.phi
    monkeypatch.setattr(tq, "phi", lambda m, k: built(m, k) + 1)
    assert _gauss_mismatches() == GAUSS_PAIRS


def test_phi_makes_no_polynomial_or_field_arithmetic(monkeypatch):
    # phi runs its recurrence on integers and only builds the result, so
    # it computes with every LaurentPoly and QsElem operation refused
    expected = {(m, k): phi(m, k) for m in range(10) for k in range(m + 3)}

    def refused(*args):
        raise AssertionError("polynomial or field arithmetic in phi")

    phi.cache_clear()
    for name in ("__mul__", "__add__", "divide_exact"):
        monkeypatch.setattr(LaurentPoly, name, refused)
    monkeypatch.setattr(QsElem, "__mul__", refused)
    got = {(m, k): phi(m, k) for m, k in expected}
    monkeypatch.undo()
    assert got == expected


def test_phi_cache_is_bounded_and_rebuilds_nothing(monkeypatch):
    # more (m, k) are asked for than the cache holds, yet each is built once
    for obj in vars(tq).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    cached = tq.phi
    asked, raised = [], []

    def recorded(m, k):
        asked.append((m, k))
        try:
            return cached(m, k)
        except DegenerateParameters:
            raised.append((m, k))
            raise

    monkeypatch.setattr(tq, "phi", recorded)
    assert all(r.passed for r in checks.run("tq-identities", 30, 6))
    info = cached.cache_info()
    assert len(set(asked)) > info.maxsize >= info.currsize
    # a call that raises (phi(1, -1)) caches nothing, so each is a miss
    assert info.misses == len(set(asked) - set(raised)) + len(raised)


def test_phi_cache_holds_every_order_verify_reads():
    # gauss_relation_checks(m) reads about 3m + 6 entries, orders m - 1..m + 1
    assert 3 * (cli.MAX_VERIFY_M + 4) <= tq.phi.cache_info().maxsize


def test_odd_kernel_power_equals_the_repeated_product():
    # verify divides by (x - 1/x)^(2m + 1) up to m = MAX_VERIFY_M + 1,
    # where v_poly_q reads q_poly(m + 1)
    odd = LaurentPoly({1: 1, -1: -1})
    power = LaurentPoly.one()
    for n in range(2 * cli.MAX_VERIFY_M + 4):
        assert tq._odd_kernel_pow(n) == power, n
        power = power * odd


def test_identity_suite_leaves_little_in_the_caches():
    # only builders a later block reads again keep their results; caching
    # h, p, h1 and the kernel powers as well leaves 2.07 MB traced.  With
    # one integer pair per term the cached families left 1.61 MB (Python
    # 3.10 to 3.13); as one int per term in the rational lane, 1.18-1.21 MB
    for obj in vars(tq).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        assert all(r.passed for r in checks.run("tq-identities", 24, 6))
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1.4 * 10**6


class _PhiCalled(Exception):
    pass


def test_division_routes_never_call_the_fold_primitive(monkeypatch):
    # phi is the Gauss-sum side only: with it disabled, the division
    # routes and the contiguous pairs still compute, and q_poly_phi does not
    f3, f4, g3 = f_poly(3), f_poly(4), g_poly(3)
    routes = [
        (q_poly, (3,)),
        (p_poly, (3,)),
        (v_poly, (3,)),
        (f_poly, (3,)),
        (g_poly, (3,)),
        (tq._pair_holds, (3, g3, tq._EVEN3, f3, tq._ONE, f4)),
    ]
    expected = [f(*args) for f, args in routes]

    def disabled(*args):
        raise _PhiCalled

    for obj in vars(tq).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    monkeypatch.setattr(tq, "phi", disabled)

    assert [f(*args) for f, args in routes] == expected
    with pytest.raises(_PhiCalled):
        q_poly_phi(2)


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
        e = e_poly(m).coeffs
        assert len(e) == 2 * m + 1
        assert e == e[::-1]
        assert sum(e) == 1


def test_e_poly_matches_the_b_coefficients():
    # m = 0..84 is the range that verify --max-n 170 reaches through h3_poly
    for m in range(85):
        assert e_poly(m).coeffs == counts.b_table(m)


def test_e_poly_makes_no_polynomial_products(monkeypatch):
    # the Horner rule runs on integer lists: neither polynomial class
    # multiplies while e_poly is built
    def refused(*args):
        raise AssertionError("polynomial product in e_poly")

    expected = e_poly(6).coeffs
    e_poly.cache_clear()
    monkeypatch.setattr(LaurentPoly, "__mul__", refused)
    monkeypatch.setattr(DensePoly, "__mul__", refused)
    assert e_poly(6).coeffs == expected


# sha256 of the Fraction coefficient tuples of e_poly(m), h1_poly(n) and
# h3_poly(n) for m, n <= 12, one "name index repr" line each, as written
# when the builders still made one Fraction per coefficient
T_POLY_DIGEST = "404ba3f0425ebaa2deb04d4808ba1a0e7dff2f5ddad4949800a6f11bc30253c6"


def test_t_polynomials_are_integers_over_one_denominator():
    rows = [("e", m, e_poly(m)) for m in range(13)]
    rows += [("h1", n, tq.h1_poly(n)) for n in range(1, 13)]
    rows += [("h3", n, tq.h3_poly(n)) for n in range(2, 13)]
    for _, _, p in rows:
        assert type(p.den) is int and all(type(v) is int for v in p.nums)
    text = "\n".join(f"{name} {k} {p.coeffs!r}" for name, k, p in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == T_POLY_DIGEST


def test_independent_routes_never_call_horner(monkeypatch):
    # transform_checks evaluates the coefficient tuples by horner and
    # compares them with LaurentPoly.eval_at, and b_coeff_4f3 reaches it
    # through hyp; the other sides of those comparisons, and the tables
    # the checks compare with, must compute with horner disabled
    x = Fraction(5, 7)
    routes = [
        lambda: tq.v_poly(3).eval_at(x),
        lambda: tq.q_poly(3).eval_at(x),
        lambda: counts.asm_table(6),
        lambda: counts.asm3_table(6),
        lambda: counts.b_table(4),
        lambda: tq.e_poly(4).coeffs,
    ]
    expected = [f() for f in routes]

    def disabled(*args):
        raise AssertionError("horner called")

    for name, mod in list(sys.modules.items()):
        if name != "asm3" and not name.startswith("asm3."):
            continue
        if hasattr(mod, "horner"):
            monkeypatch.setattr(mod, "horner", disabled)
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    assert [f() for f in routes] == expected
    # the coefficient and series sides do go through it
    with pytest.raises(AssertionError, match="horner called"):
        transform_checks(3)
    with pytest.raises(AssertionError, match="horner called"):
        counts.b_coeff_4f3(4, 2)


def test_differential_equations():
    for m in range(8):
        assert ode_check_f(m)
        assert ode_check_h(m)


def test_series_forms_of_f_and_g():
    for m in range(8):
        assert fg_2f1_check(m)


def _gen_binomial(top, k):
    # binom(top, k) = top (top-1) ... (top-k+1) / k!, one Fraction step at a time
    out = Fraction(1)
    for i in range(k):
        out = out * (top - i) / (i + 1)
    return out


def test_f_and_g_match_generalized_binomials():
    # the families' coefficients binom(m + r/3, k) binom(m - r/3, m - k) at
    # x^(3m+r-6k), and their negatives at the mirrored exponents, against
    # the integer falling products the builder uses
    for m in range(41):
        for r, family in ((1, f_poly), (2, g_poly)):
            want = {}
            for k in range(m + 1):
                c = _gen_binomial(m + F(r, 3), k) * _gen_binomial(m - F(r, 3), m - k)
                e = 3 * m + r - 6 * k
                want[e], want[-e] = c, -c
            p = family(m)
            assert {k: F(v, p._d) for k, v in p._a.items()} == want


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
        res = transform_checks(m)
        assert not [r for r in res if not r.passed]
        assert len(res) == 2 * len(tq.TRANSFORM_SAMPLES)


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


def _clear_tq_caches():
    for obj in vars(tq).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


@pytest.fixture
def fresh_tq_caches():
    # a mutant must not reach a cached quotient, nor stay in one after
    _clear_tq_caches()
    yield
    _clear_tq_caches()


# the relation lines that read each family, directly or through h_poly
# (which reads f_poly and g_poly).  The quotient routes q_poly, p_poly
# and v_poly divide f, g and h: for those three mutants the test pins
# the quotients to their honest values, since the division itself raises
# (test_dividing_a_mutant_family_raises), and checks the lines that read
# the family directly
RELATION_READERS = {
    "phi": {
        "q_routes_agree",
        "p_routes_agree",
        "v_routes_agree",
        "phi_step_order",
        "phi_step_shift",
    },
    "f_poly": {"g_from_f_pair", "h_from_f_pair"},
    "g_poly": {"g_from_f_pair", "h_from_f_pair"},
    "h_poly": {"h_from_f_pair"},
    "q_poly": {"p_from_q_pair", "v_from_q_pair", "q_routes_agree"},
    "p_poly": {"p_from_q_pair", "p_routes_agree"},
}
DIVIDED_FAMILIES = ("f_poly", "g_poly", "h_poly")


@pytest.mark.parametrize("family", sorted(RELATION_READERS))
def test_relation_lines_fail_on_one_extra_term(monkeypatch, fresh_tq_caches, family):
    # phi_step_shift at m = 0 reads phi(0, k + 1) and phi(0, k) alone with
    # weights 2(k + 1) and -(2k + 2), which an added constant leaves
    # balanced; m = 1..4 is where every reader can fail
    if family in DIVIDED_FAMILIES:
        for name in ("q_poly", "p_poly", "v_poly"):
            honest = {m: getattr(tq, name)(m) for m in range(6)}
            monkeypatch.setattr(tq, name, honest.__getitem__)
    built = getattr(tq, family)
    monkeypatch.setattr(tq, family, lambda *a: built(*a) + 1)
    for m in range(1, 5):
        failed = {r.name for r in gauss_relation_checks(m) if not r.passed}
        assert failed == RELATION_READERS[family], m


@pytest.mark.parametrize("family", DIVIDED_FAMILIES)
def test_dividing_a_mutant_family_raises(monkeypatch, fresh_tq_caches, family):
    # a constant term is not a multiple of (x - 1/x)^(2m+1), so the
    # quotient route that divides the family fails the relation block
    built = getattr(tq, family)
    monkeypatch.setattr(tq, family, lambda m: built(m) + 1)
    for m in range(1, 5):
        with pytest.raises(NonExactDivision):
            gauss_relation_checks(m)


# every route builder, and the orders at which it is asked for
ROUTE_BUILDERS = {
    "f_poly": range(5),
    "g_poly": range(5),
    "h_poly": range(5),
    "q_poly": range(6),
    "q_poly_phi": range(5),
    "p_poly": range(5),
    "p_poly_phi": range(1, 5),
    "v_poly": range(5),
    "v_poly_q": range(5),
    "v_poly_phi": range(5),
    "e_poly": range(5),
    "h1_poly": range(1, 6),
    "h3_poly": range(2, 7),
}


def _build_routes():
    # each route's result; a DensePoly is compared by its coefficient tuple
    out = {}
    for name, ms in ROUTE_BUILDERS.items():
        for m in ms:
            poly = getattr(tq, name)(m)
            out[name, m] = poly.coeffs if isinstance(poly, DensePoly) else poly
    out.update({("phi", m, k): tq.phi(m, k) for m in range(6) for k in range(m + 3)})
    return out


def test_route_builders_never_read_a_residue(monkeypatch, fresh_tq_caches):
    # vanishes only reads what the routes built: with it disabled every
    # builder still builds at m <= 4, while the checks that use it raise
    expected = _build_routes()
    _clear_tq_caches()

    def disabled(*terms):
        raise AssertionError("vanishes called")

    monkeypatch.setattr(laurent, "vanishes", disabled)
    assert _build_routes() == expected
    for check, args in (
        (gauss_relation_checks, (1,)),
        (ode_check_f, (1,)),
        (ode_check_h, (1,)),
        (fg_2f1_check, (1,)),
    ):
        with pytest.raises(AssertionError, match="vanishes called"):
            check(*args)


def _plus_one(poly):
    # the add-one mutant: one more in the constant term
    if isinstance(poly, DensePoly):
        return DensePoly((poly.nums[0] + poly.den, *poly.nums[1:]), poly.den)
    return poly + 1


# each polynomial transform_checks reads, and the line that compares it
TRANSFORM_INPUTS = {
    "e_poly": "weight_map_even_family",
    "v_poly": "weight_map_even_family",
    "h1_poly": "gen_fn_vs_first_solution",
    "q_poly": "gen_fn_vs_first_solution",
}


def test_first_transform_sample_is_checked_like_the_rest(monkeypatch):
    # no constant is fixed at a sample, so an add-one mutant of any input
    # fails its line at every sample and leaves the other line passing
    for family, line in TRANSFORM_INPUTS.items():
        built = getattr(tq, family)
        with monkeypatch.context() as patch:
            patch.setattr(tq, family, lambda k, built=built: _plus_one(built(k)))
            for m in (1, 2, 3):
                res = transform_checks(m)
                mine = [r.passed for r in res if r.name == line]
                assert mine == [False] * len(tq.TRANSFORM_SAMPLES), (family, m)
                assert all(r.passed for r in res if r.name != line), (family, m)


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
