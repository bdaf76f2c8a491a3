from fractions import Fraction

import pytest

from asm3 import counts
from asm3.counts import (
    asm3_table,
    asm_table,
    b_coeff,
    b_coeff_4f3,
    b_table,
    concentration_scan,
    recurrence_check,
    refined_asm,
    refined_asm2_ratio,
    refined_asm3,
    total_asm,
    total_asm3,
)
from asm3.errors import NonExactDivision, OutOfRange
from asm3.tq import e_poly, h1_poly, h3_poly

F = Fraction

KNOWN_TOTALS = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429, 6: 7436, 7: 218348}
KNOWN_TOTALS3 = {1: 1, 2: 2, 3: 9, 4: 90, 5: 2025, 6: 102060}
KNOWN_TABLES3 = {
    3: (2, 5, 2),
    4: (9, 36, 36, 9),
    5: (90, 495, 855, 495, 90),
}


def test_total_asm_known_values():
    for n, v in KNOWN_TOTALS.items():
        assert total_asm(n) == v


def test_total_asm3_known_values():
    for n, v in KNOWN_TOTALS3.items():
        assert total_asm3(n) == v


def test_refined_asm_table_n4():
    assert asm_table(4).counts == (7, 14, 14, 7)


def test_refined3_known_tables():
    for n, t in KNOWN_TABLES3.items():
        assert asm3_table(n).counts == t


def test_refined_sums_symmetry_boundary():
    for n in range(1, 9):
        t = asm_table(n)
        assert t.total == total_asm(n)
        assert t.is_symmetric()
        if n >= 2:
            assert t.counts[0] == total_asm(n - 1)


def test_refined3_sums_symmetry_boundary():
    for n in range(2, 9):
        t = asm3_table(n)
        assert t.total == total_asm3(n)
        assert t.is_symmetric()
        assert t.counts[0] == total_asm3(n - 1)


def test_refined3_values_are_integers_by_construction():
    # _int_exact would blow up inside refined_asm3 otherwise
    for n in range(2, 12):
        for r in range(1, n + 1):
            assert isinstance(refined_asm3(n, r), int)


def test_int_exact_remainder_is_a_non_exact_division():
    with pytest.raises(NonExactDivision):
        counts._int_exact(F(1, 2))
    assert counts._int_exact(F(6, 3)) == 2


def test_b_coeff_small_tables():
    assert b_table(0) == (F(1),)
    assert b_table(1) == (F(1, 5), F(3, 5), F(1, 5))
    assert b_table(2) == (
        F(5, 126),
        F(5, 21),
        F(4, 9),
        F(5, 21),
        F(5, 126),
    )


def test_b_coeff_outside_range_is_zero():
    assert b_coeff(2, -1) == 0
    assert b_coeff(2, 5) == 0
    bt = b_table(2)
    assert len(bt) == 5 and bt[4] == F(5, 126)


def test_b_coeff_series_route_range_errors():
    with pytest.raises(OutOfRange):
        b_coeff_4f3(2, -1)
    with pytest.raises(OutOfRange):
        b_coeff_4f3(2, 5)
    with pytest.raises(OutOfRange):
        b_coeff(-1, 0)


def test_b_routes_agree():
    for m in range(9):
        vals = b_table(m)
        assert vals == vals[::-1]
        assert sum(vals) == 1
        assert all(b_coeff_4f3(m, a) == vals[a] for a in range(2 * m + 1))
        assert tuple(e_poly(m).coeffs) == vals


def test_b_table_recurrence_matches_direct_sums():
    for m in range(61):
        bt = b_table(m)
        assert all(b_coeff(m, a) == bt[a] for a in range(2 * m + 1)), m


def test_b_table_recurrence_spot_values_at_m_640():
    bt = b_table(640)
    for a in (0, 1, 3, 4, 5, 319, 640, 977, 1276, 1279, 1280):
        assert b_coeff(640, a) == bt[a], a


def test_b_table_recurrence_corrupted_seed_fails_loudly(monkeypatch):
    direct = counts.b_coeff

    def corrupted(m, alpha):
        return direct(m, alpha) * (2 if alpha == 2 else 1)

    monkeypatch.setattr(counts, "b_coeff", corrupted)
    with pytest.raises(NonExactDivision):
        counts._t_row(10)


def test_scan_takes_only_the_recurrence_seeds_from_b_coeff(monkeypatch):
    # the O(m^2) direct sums must stay out of the scan's hot path
    calls = []
    direct = counts.b_coeff

    def counted(m, alpha):
        calls.append(m)
        return direct(m, alpha)

    monkeypatch.setattr(counts, "b_coeff", counted)
    concentration_scan([1280], F(1, 10))
    assert 0 < len(calls) <= 4 and set(calls) == {639}


def test_refined_asm2_ratio():
    assert refined_asm2_ratio(4, 1) == F(1, 8)
    assert refined_asm2_ratio(4, 2) == F(3, 8)
    for n in range(1, 9):
        assert sum(refined_asm2_ratio(n, r) for r in range(1, n + 1)) == 1


def test_generating_polynomial_plain():
    hp = h1_poly(4)
    assert hp.coeffs == (F(1, 6), F(1, 3), F(1, 3), F(1, 6))
    assert h1_poly(1).coeffs == (F(1),)
    for n in range(1, 9):
        hp = h1_poly(n)
        total = total_asm(n)
        assert hp.degree == n - 1
        assert hp.eval_at(F(1)) == 1
        assert hp.reversed_poly(n - 1) == hp
        for r in range(1, n + 1):
            assert hp.coeff(r - 1) * total == refined_asm(n, r)


def test_generating_polynomial_weighted():
    for n in range(2, 9):
        hp = h3_poly(n)
        total = total_asm3(n)
        assert hp.degree == n - 1
        assert hp.eval_at(F(1)) == 1
        assert hp.reversed_poly(n - 1) == hp
        for r in range(1, n + 1):
            assert hp.coeff(r - 1) * total == refined_asm3(n, r)


def test_one_by_one_tables():
    assert asm_table(1).counts == (1,)
    assert asm3_table(1).counts == (1,)


def test_range_guards():
    with pytest.raises(OutOfRange):
        total_asm(0)
    with pytest.raises(OutOfRange):
        refined_asm(3, 0)
    with pytest.raises(OutOfRange):
        refined_asm(3, 4)
    with pytest.raises(OutOfRange):
        refined_asm3(1, 1)
    with pytest.raises(OutOfRange):
        refined_asm2_ratio(2, 3)


def test_recurrence_check_passes():
    res = recurrence_check(6)
    assert not [r for r in res if not r.passed]
    assert any(r.name == "odd_step_3enum" for r in res)
    assert any(r.name == "even_step_3enum" for r in res)
    assert any(r.name == "elementary_step_total" for r in res)
    with pytest.raises(OutOfRange):
        recurrence_check(-1)


def test_concentration_scan_small_exact_values():
    assert concentration_scan([3], F(2, 5)) == [(3, F(5, 9))]
    assert concentration_scan([4], F(3, 10)) == [(4, F(4, 5))]


def test_concentration_scan_matches_direct_shares():
    eps = F(1, 4)
    for n in (5, 8, 13):
        (got_n, mass), = concentration_scan([n], eps)
        direct = sum(
            F(refined_asm3(n, r), total_asm3(n))
            for r in range(1, n + 1)
            if abs(F(r - 1, n - 1) - F(1, 2)) < eps
        )
        assert got_n == n and mass == direct


def test_concentration_scan_sorts_and_dedupes():
    out = concentration_scan([6, 4, 6], F(1, 4))
    assert [n for n, _ in out] == [4, 6]


def test_concentration_scan_refuses_floats():
    for bad in (0.1, 0.25, "1/10"):
        with pytest.raises(TypeError):
            concentration_scan([4], bad)
    # an order is an int too, never truncated from 4.7 to 4
    for bad in (4.7, 4.0, "4"):
        with pytest.raises(TypeError):
            concentration_scan([bad], F(1, 4))


def test_concentration_scan_guards():
    with pytest.raises(OutOfRange):
        concentration_scan([4], F(3, 5))
    with pytest.raises(OutOfRange):
        concentration_scan([4], 0)
    with pytest.raises(OutOfRange):
        concentration_scan([1], F(1, 10))
