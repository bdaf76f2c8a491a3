import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest

from asm3 import checks, cli, counts
from asm3.counts import (
    asm2_table,
    asm3_table,
    asm_table,
    b_coeff,
    b_coeff_4f3,
    b_table,
    concentration_scan,
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


def reference_asm(n, r):
    # the binomial product for one column r, apart from asm_table's row
    return F(
        comb(n + r - 2, n - 1) * comb(2 * n - 1 - r, n - 1) * total_asm(n),
        comb(3 * n - 2, n - 1),
    )


def reference_asm3(n, r):
    # b(m, r-1), b(m, r-2) (and b(m, r-3) at odd n) over 2 or (2, 5, 2)/9,
    # each b the sum T = b_coeff times the m-only factor of _b_scale
    if n % 2 == 0:
        m, weights, den = (n - 2) // 2, (1, 1), 2
    else:
        m, weights, den = (n - 3) // 2, (2, 5, 2), 9
    mixed = sum(w * b_coeff(m, r - 1 - i) for i, w in enumerate(weights))
    return mixed * F(*counts._b_scale(m)) * total_asm3(n) / den


def reference_total_asm(n):
    # the product formula as one Fraction reduced step by step
    val = F(1)
    for k in range(1, n + 1):
        val *= F(factorial(3 * k - 2), factorial(2 * n - k))
    return val


def reference_total_asm3(n):
    # the odd orders in closed form, each even order from the odd one below
    if n % 2:
        m = (n - 1) // 2
        val = F(3 ** (m * (m + 1)))
        for k in range(1, m + 1):
            val *= F(factorial(3 * k - 1), factorial(m + k)) ** 2
        return val
    m = (n - 2) // 2
    return F(
        3 ** m * factorial(3 * m + 2) * factorial(m) * reference_total_asm3(n - 1),
        factorial(2 * m + 1) ** 2,
    )


def test_total_asm_known_values():
    for n, v in KNOWN_TOTALS.items():
        assert total_asm(n) == v


def test_total_asm3_known_values():
    for n, v in KNOWN_TOTALS3.items():
        assert total_asm3(n) == v


def test_totals_match_the_fraction_products():
    for n in range(1, 171):
        assert total_asm(n) == reference_total_asm(n), n
    for n in range(1, 157):
        assert total_asm3(n) == reference_total_asm3(n), n


def test_factorial_quotient_is_exact():
    assert counts._factorial_quotient([(5, 3)]) == 20
    assert counts._factorial_quotient([(3, 5)], 40) == 2
    with pytest.raises(NonExactDivision):
        counts._factorial_quotient([(1, 2)])


def test_total_asm_reads_no_smaller_order(monkeypatch):
    # elementary_step_total compares total_asm(n - 1) with total_asm(n),
    # so neither may be built from the other
    direct = counts.total_asm
    calls = []

    def counted(n):
        calls.append(n)
        return direct(n)

    direct.cache_clear()
    monkeypatch.setattr(counts, "total_asm", counted)
    counts.total_asm(40)
    assert calls == [40]


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
    # _int_exact would blow up inside asm3_table otherwise
    for n in range(2, 12):
        assert all(isinstance(v, int) for v in asm3_table(n).counts)


def test_rows_match_per_column_references():
    for n in range(1, 41):
        assert asm_table(n).counts == tuple(
            reference_asm(n, r) for r in range(1, n + 1)
        ), n
    for n in range(2, 41):
        assert asm3_table(n).counts == tuple(
            reference_asm3(n, r) for r in range(1, n + 1)
        ), n


def test_asm3_table_reads_each_alpha_once(monkeypatch):
    direct = counts.b_coeff
    calls = []

    def counted(m, alpha):
        calls.append((m, alpha))
        return direct(m, alpha)

    monkeypatch.setattr(counts, "b_coeff", counted)
    for n in (2, 3, 8, 13, 40):
        direct.cache_clear()
        calls.clear()
        asm3_table(n)
        m = (n - 2) // 2 if n % 2 == 0 else (n - 3) // 2
        assert sorted(calls) == [(m, a) for a in range(2 * m + 1)], n


def test_asm3_table_stays_off_the_recurrence(monkeypatch):
    # the table reads the direct sums only; the recurrence row is
    # b_table's route, which verify checks on its own
    expected = [asm3_table(n) for n in range(1, 21)]

    def disabled(m):
        raise AssertionError("asm3_table read the recurrence row")

    monkeypatch.setattr(counts, "_t_row", disabled)
    # a warm b_table cache would hide a read of the recurrence row
    b_table.cache_clear()
    b_coeff.cache_clear()
    assert [asm3_table(n) for n in range(1, 21)] == expected


def test_int_exact_remainder_is_a_non_exact_division():
    with pytest.raises(NonExactDivision):
        counts._int_exact(1, 2)
    assert counts._int_exact(6, 3) == 2
    assert counts._int_exact(-6, 3) == -2


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


def test_b_coeff_returns_the_integer_sums():
    for m in range(6):
        row = [b_coeff(m, a) for a in range(-1, 2 * m + 2)]
        assert all(type(t) is int for t in row), m
        scale = F(*counts._b_scale(m))
        assert tuple(t * scale for t in row[1:-1]) == b_table(m), m


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
        bt, scale = b_table(m), F(*counts._b_scale(m))
        assert all(b_coeff(m, a) * scale == bt[a] for a in range(2 * m + 1)), m


def test_b_table_recurrence_spot_values_at_m_640():
    bt, scale = b_table(640), F(*counts._b_scale(640))
    for a in (0, 1, 3, 4, 5, 319, 640, 977, 1276, 1279, 1280):
        assert b_coeff(640, a) * scale == bt[a], a


def test_b_table_recurrence_corrupted_seed_fails_loudly(monkeypatch):
    direct = counts.b_coeff

    def corrupted(m, alpha):
        return direct(m, alpha) * (2 if alpha == 2 else 1)

    monkeypatch.setattr(counts, "b_coeff", corrupted)
    with pytest.raises(NonExactDivision):
        list(counts._t_row(10))


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


def test_scan_holds_no_recurrence_row():
    # the row T(m, 0..2m) at the largest size is about 18 MB of big ints;
    # the scan sums its window as the values arrive and keeps none of them
    tracemalloc.start()
    try:
        concentration_scan([cli.MAX_SCAN_N], F(1, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_refined_asm2_ratio():
    assert asm2_table(4).counts == (8, 24, 24, 8)
    assert asm2_table(1).counts == (1,)
    for n in range(1, 9):
        t = asm2_table(n)
        assert len(t.counts) == n
        assert t.total == 2 ** (n * (n - 1) // 2)
        assert t.is_symmetric()


def test_generating_polynomial_plain():
    hp = h1_poly(4)
    assert hp.coeffs == (F(1, 6), F(1, 3), F(1, 3), F(1, 6))
    assert h1_poly(1).coeffs == (F(1),)
    for n in range(1, 9):
        c = h1_poly(n).coeffs
        total = total_asm(n)
        assert len(c) == n
        assert sum(c) == 1
        assert c == c[::-1]
        assert tuple(s * total for s in c) == asm_table(n).counts


def test_generating_polynomial_weighted():
    for n in range(2, 9):
        c = h3_poly(n).coeffs
        total = total_asm3(n)
        assert len(c) == n
        assert sum(c) == 1
        assert c == c[::-1]
        assert tuple(s * total for s in c) == asm3_table(n).counts


def test_one_by_one_tables():
    assert asm_table(1).counts == (1,)
    assert asm3_table(1).counts == (1,)


def test_range_guards():
    for f in (total_asm, total_asm3):
        with pytest.raises(OutOfRange):
            f(0)


@pytest.mark.parametrize("f", [asm_table, asm3_table, asm2_table])
@pytest.mark.parametrize("n", [0, -1, -3])
def test_rows_refuse_orders_below_one(f, n):
    # an empty range of columns used to skip the range check and return ()
    with pytest.raises(OutOfRange):
        f(n)


def test_recurrence_check_passes():
    res = list(checks.recursions(6, 0))
    assert not [r for r in res if not r.passed]
    assert any(r.name == "odd_step_3enum" for r in res)
    assert any(r.name == "even_step_3enum" for r in res)
    assert any(r.name == "elementary_step_total" for r in res)
    with pytest.raises(OutOfRange):
        list(checks.recursions(-1, 0))


def test_concentration_scan_small_exact_values():
    assert concentration_scan([3], F(2, 5)) == [(3, F(5, 9))]
    assert concentration_scan([4], F(3, 10)) == [(4, F(4, 5))]


def test_concentration_scan_matches_direct_shares():
    eps = F(1, 4)
    for n in (5, 8, 13):
        (got_n, mass), = concentration_scan([n], eps)
        direct = sum(
            F(v, total_asm3(n))
            for r, v in enumerate(asm3_table(n).counts, 1)
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
