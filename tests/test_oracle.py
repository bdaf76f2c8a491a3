"""Cross-checks between the two independent brute-force enumerators.

A third, even more literal enumerator is included here in the tests: it
builds every candidate matrix from rows whose nonzero entries alternate
+1, -1, ..., +1, then filters by the same condition on columns.  That
is the definition, transcribed, with no transfer-matrix or triangle
machinery, so it anchors both production oracles for tiny sizes.
"""

import gc
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import example, given, strategies as st

from asm3 import checks, counts, oracle
from asm3.errors import OutOfRange
from asm3.oracle import (
    DP_LIMIT,
    MT_LIMIT,
    _interlacing_extensions,
    dp_refined_enum,
    dp_refined_tables,
    mt_refined_enum,
    mt_refined_tables,
    packing_bits,
    unpack,
)

F = Fraction


def _alternating_rows(n):
    rows = []
    for sz in range(1, n + 1, 2):
        for cols in combinations(range(n), sz):
            row = [0] * n
            for i, c in enumerate(cols):
                row[c] = 1 if i % 2 == 0 else -1
            rows.append(tuple(row))
    return rows


def _is_alternating(seq):
    nz = [v for v in seq if v]
    if not nz or nz[0] != 1 or nz[-1] != 1:
        return False
    return all(a == -b for a, b in zip(nz, nz[1:]))


@lru_cache(maxsize=None)
def _literal_asms(n):
    """(r - 1, number of -1 entries) of every n x n ASM, by definition."""
    # the column test, tabulated once over all 3^n sign vectors
    columns = {v for v in product((-1, 0, 1), repeat=n) if _is_alternating(v)}
    found = []
    for mat in product(_alternating_rows(n), repeat=n):
        if all(col in columns for col in zip(*mat)):
            found.append((mat[0].index(1), sum(row.count(-1) for row in mat)))
    return tuple(found)


def literal_refined_enum(n, x):
    """Definition-level enumeration; exponential, n <= 5 in practice."""
    weights = [x ** 0 - x ** 0] * n  # list of zeros of the right type
    for r, minus in _literal_asms(n):
        weights[r] = weights[r] + x ** minus
    return tuple(weights)


def test_literal_oracle_tiny_values():
    assert literal_refined_enum(1, 1) == (1,)
    assert literal_refined_enum(2, 1) == (1, 1)
    assert literal_refined_enum(3, 1) == (2, 3, 2)
    assert literal_refined_enum(3, 3) == (2, 5, 2)


def test_dp_against_literal_definition():
    for n in range(1, 5):
        for x in (1, 3, F(5, 7), 0, -2, F(-3, 4)):
            assert dp_refined_enum(n, x).counts == literal_refined_enum(n, x)


def test_dp_tables_against_literal_definition():
    # every order of one sweep is read through the padding lemma of
    # dp_refined_tables, so each is pinned to the definition, as the
    # triangle pass is
    for x in (1, 3, F(5, 7), 0, -2):
        tables = dp_refined_tables(5, x)
        assert [t.n for t in tables] == [1, 2, 3, 4, 5]
        for t in tables:
            assert t.counts == literal_refined_enum(t.n, x)
        assert dp_refined_enum(5, x) == tables[-1]


@given(st.integers(1, 9), st.integers(-50, 50), st.integers(1, 50))
@example(9, 0, 1)
@example(9, 5, 7)
@example(9, -2, 1)
@example(9, 7, 2)
@example(2, 1, 3)
def test_each_order_of_a_sweep_equals_its_own_sweep(n, p, q):
    # order m read after m - 1 rows of a wider sweep, at its own power of
    # q, equals the sweep of width m; order 1 is a Fraction too at q > 1
    x = F(p, q)
    tables = dp_refined_tables(n, x)
    kind = int if x.denominator == 1 else F
    for m in range(1, n + 1):
        alone = dp_refined_tables(m, x)[-1]
        assert tables[m - 1] == alone
        types = [type(v) for v in tables[m - 1].counts]
        assert types == [type(v) for v in alone.counts] == [kind] * m


def test_mt_against_literal_definition():
    # the literal enumeration reads r from the first row and the pass from
    # the last, so this pins the upside-down flip at every order of a pass
    for x in (1, 3, F(5, 7), 0, -2):
        tables = mt_refined_tables(5, x)
        assert [t.n for t in tables] == [1, 2, 3, 4, 5]
        for t in tables:
            assert t.counts == literal_refined_enum(t.n, x)
        assert mt_refined_enum(5, x) == tables[-1]


def test_dp_refined_small_values():
    assert dp_refined_enum(3, 1).counts == (2, 3, 2)
    assert dp_refined_enum(3, 3).counts == (2, 5, 2)
    assert dp_refined_enum(3, 2).counts == (2, 4, 2)
    assert dp_refined_enum(1, 1).counts == (1,)


def test_dp_totals():
    assert dp_refined_enum(6, 1).total == 7436
    assert dp_refined_enum(4, 2).total == 2 ** 6
    assert dp_refined_enum(4, 3).total == 90


def test_dp_matches_closed_forms():
    for n in range(1, 8):
        assert dp_refined_enum(n, 1).counts == counts.asm_table(n).counts
        assert dp_refined_enum(n, 3).counts == counts.asm3_table(n).counts


def test_dp_two_enumeration_shares():
    for n in range(1, 9):
        t = dp_refined_enum(n, 2)
        tot = t.total
        assert tuple(F(v, tot) for v in t.counts) == counts.asm2_shares(n)


@given(st.integers(1, 6), st.integers(-50, 50), st.integers(1, 1000))
@example(6, 0, 1)
@example(6, 0, 1000)
@example(6, -5, 7)
@example(6, -3, 1)
@example(5, 999, 1000)
def test_oracles_agree_on_rational_weights(n, p, q):
    x = F(p, q)
    got = dp_refined_enum(n, x).counts
    assert got == mt_refined_enum(n, x).counts
    kind = int if x.denominator == 1 else F
    assert all(type(v) is kind for v in got)


def test_dp_keeps_no_memory():
    # the sweep holds only the states of the current column, and once it
    # returns only the counts of its orders 1..n; a transition cache would
    # hold about 3**n entries.  The packed weight carries a whole
    # polynomial in each state's value.
    for x in (F(5, 7), 1 << packing_bits(12)):
        tracemalloc.start()
        try:
            dp_refined_enum(12, x)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 2 ** 20
        assert peak < 4 * 2 ** 20


def test_mt_row_cache_is_freed_when_the_call_returns():
    # the pass keeps one level of rows at a time and nothing once it
    # returns; with the cyclic collector off, rows kept alive by a
    # reference cycle would add about 40 KB per call at n = 8 and the
    # packed weight.
    # The first call runs under tracing too, so that the interpreter's
    # free lists of small tuples are filled before the baseline is read.
    x = 1 << packing_bits(MT_LIMIT)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        want = mt_refined_enum(MT_LIMIT, x)
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(2):
            assert mt_refined_enum(MT_LIMIT, x) == want
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert after - before < 4096


def test_oracles_agree_on_fractional_weight():
    # every order of one triangle pass against the DP, at 5/7 and at the
    # top order's packed weight, where every order's coefficients fit
    for x in (F(5, 7), 1 << packing_bits(MT_LIMIT)):
        tables = mt_refined_tables(MT_LIMIT, x)
        assert [t.n for t in tables] == list(range(1, MT_LIMIT + 1))
        for t in tables:
            assert t.counts == dp_refined_enum(t.n, x).counts


def test_fractional_weights_stay_exact():
    t = dp_refined_enum(4, F(1, 3))
    assert all(isinstance(v, F) for v in t.counts)
    assert t.counts == mt_refined_enum(4, F(1, 3)).counts


def test_weight_zero_counts_permutation_like_matrices():
    # x = 0 keeps only matrices with no -1 at all: the permutations
    t = dp_refined_enum(4, 0)
    assert t.total == 24
    assert t.counts == (6, 6, 6, 6)


def _packed_polys(n, bits):
    return [unpack(v, bits) for v in dp_refined_enum(n, 1 << bits).counts]


def test_packed_sweep_carries_every_weight():
    # one sweep at x = 2^B: its base-2^B digits are the coefficients of
    # A_n(r; x), so evaluating them anywhere gives the definition's counts
    for n in range(1, 6):
        polys = _packed_polys(n, packing_bits(n))
        for x in (1, 2, 3, F(5, 7)):
            got = tuple(sum(c * x ** k for k, c in enumerate(p)) for p in polys)
            assert got == literal_refined_enum(n, x)


@given(st.integers(1, 9), st.integers(-50, 50), st.integers(1, 50))
@example(9, 0, 1)
@example(9, 0, 50)
@example(9, -50, 49)
@example(8, -3, 4)
@example(9, 5, 7)
def test_sweep_at_p_over_q_reads_the_packed_polynomial(n, p, q):
    # past the literal enumeration, against the sweep at x = p/q itself:
    # the packed run keeps its 0 entries in the copies, the q != 1 run
    # rescales them in its move loops
    x = F(p, q)
    polys = _packed_polys(n, packing_bits(n))
    got = tuple(sum(c * x ** k for k, c in enumerate(poly)) for poly in polys)
    assert got == dp_refined_enum(n, x).counts


def test_interlacing_extensions_match_definition():
    # every (k+1)-subset of 1..n with ext[i] <= row[i] <= ext[i+1], in
    # lexicographic order, for every strictly increasing row of length k
    for n in range(1, 8):
        for k in range(n + 1):
            for row in combinations(range(1, n + 1), k):
                want = [
                    ext
                    for ext in combinations(range(1, n + 1), k + 1)
                    if all(ext[i] <= row[i] <= ext[i + 1] for i in range(k))
                ]
                got = _interlacing_extensions(row, n)
                assert [ext for ext, _ in got] == want
                # the drop count: entries of row missing from ext
                assert [dropped for _, dropped in got] == [
                    len(set(row) - set(ext)) for ext in want
                ]


def test_packed_slots_are_wide_enough():
    # the top degree is the most -1 entries an n x n ASM holds; every
    # coefficient is at most 2^(B-1), and slots twice as wide read the
    # same digits, so no coefficient spilled into the next slot
    for n in range(1, 13):
        bits = packing_bits(n)
        polys = _packed_polys(n, bits)
        assert max(len(p) for p in polys) - 1 == (n - 1) ** 2 // 4
        assert all(c <= 1 << (bits - 1) for p in polys for c in p)
        assert polys == _packed_polys(n, 2 * bits)


class _NoDigits(int):
    # a packed value whose digit loop fails at once instead of never ending
    def __and__(self, other):
        raise AssertionError("unpack entered its digit loop")


def test_unpack_digits():
    assert unpack(0, 3) == ()
    assert unpack(5 + 7 * 8 + 1 * 64, 3) == (5, 7, 1)
    assert unpack(1 << 6, 3) == (0, 0, 1)
    # v < 0 never shrinks under >>, and bits < 1 leaves v as it is
    for v, bits in ((-1, 3), (-(1 << 70), 3), (5, 0), (5, -1)):
        with pytest.raises(OutOfRange):
            unpack(_NoDigits(v), bits)


def test_float_weights_are_refused():
    # equal rationals swept first do not let a float or a str through
    dp_refined_enum(3, F(1, 2))
    dp_refined_enum(3, 1)
    for bad in (0.5, 1.0, "1/2"):
        with pytest.raises(TypeError):
            dp_refined_enum(3, bad)
        with pytest.raises(TypeError):
            mt_refined_enum(3, bad)


def test_verify_sweeps_each_packed_weight_once(monkeypatch):
    # against_closed_forms sweeps once at its top order's packed weight
    # and cross once at the triangle pass's; a passing run sweeps no
    # single weight apart
    real = oracle.dp_refined_tables
    calls = []

    def counted(n, x):
        calls.append((n, x))
        return real(n, x)

    monkeypatch.setattr(oracle, "dp_refined_tables", counted)
    limits = (("oracle", 0, 10), ("oracle", 0, DP_LIMIT), ("all", 8, 10))
    for suite, max_m, max_n in limits:
        calls.clear()
        results = list(checks.run(suite, max_m, max_n))
        assert results and all(r.passed for r in results)
        top, mt_top = min(max_n, DP_LIMIT), min(max_n, MT_LIMIT)
        assert calls == [
            (top, 1 << packing_bits(top)),
            (mt_top, 1 << packing_bits(mt_top)),
        ]


def test_size_limits():
    with pytest.raises(OutOfRange):
        dp_refined_enum(DP_LIMIT + 1, 1)
    with pytest.raises(OutOfRange):
        mt_refined_enum(MT_LIMIT + 1, 1)
    with pytest.raises(OutOfRange):
        dp_refined_enum(0, 1)
