"""Acceptance gate: ten end-to-end criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Every check is an exact equality; there are no tolerances
anywhere.
"""

import time
from fractions import Fraction

import pytest

from asm3 import counts, oracle, tq
from asm3.errors import DegenerateParameters
from asm3.laurent import LaurentPoly

F = Fraction
SAMPLES = (F(2), F(3), F(5, 7))


def _report(num, label, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:02d} {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_c01_oracle_equivalence_weighted():
    t0 = time.time()
    ok = True
    for n in range(1, 11):
        expected = counts.asm3_table(n).counts
        ok = ok and oracle.dp_refined_enum(n, 3).counts == expected
        if n <= 8:
            ok = ok and oracle.mt_refined_enum(n, 3).counts == expected
    elapsed = time.time() - t0
    _report(
        1,
        "oracle equivalence at x=3 (dp n<=10, mt n<=8)",
        ok and elapsed < 60,
        f"{elapsed:.1f}s",
    )


def test_c02_classical_closed_forms():
    ok = counts.total_asm(7) == 218348
    for n in range(1, 9):
        t = oracle.dp_refined_enum(n, 1)
        ok = ok and t.counts == counts.asm_table(n).counts
        ok = ok and t.total == counts.total_asm(n)
    for n in range(1, 11):
        t = oracle.dp_refined_enum(n, 2)
        tot = t.total
        ok = ok and all(
            F(t.counts[r - 1], tot) == counts.refined_asm2_ratio(n, r)
            for r in range(1, n + 1)
        )
    _report(2, "closed forms vs oracle at x=1 (n<=8) and x=2 ratios (n<=10)", ok)


def test_c03_triple_route_b_coefficients():
    t0 = time.time()
    ok = True
    for m in range(31):
        vals = counts.b_table(m)
        ok = ok and all(
            counts.b_coeff_4f3(m, a) == vals[a] for a in range(2 * m + 1)
        )
        ok = ok and tuple(tq.e_poly(m).coeffs) == vals
    elapsed = time.time() - t0
    _report(
        3,
        "b coefficients agree along all three routes (m<=30)",
        ok and elapsed < 60,
        f"{elapsed:.1f}s",
    )


def test_c04_specific_anchors():
    ok = counts.total_asm3(1) == 1 and counts.total_asm3(2) == 2
    ok = ok and counts.asm3_table(3).counts == (2, 5, 2)
    ok = ok and counts.asm3_table(4).counts == (9, 36, 36, 9)
    ok = ok and counts.asm3_table(5).counts == (90, 495, 855, 495, 90)
    _report(4, "anchor values of the 3-enumeration (n<=5)", ok)


def test_c05_tq_identity_suite():
    t0 = time.time()
    ok = True
    for m in range(21):
        ok = ok and all(
            tq.tq_check(p) for p in (tq.f_poly(m), tq.g_poly(m), tq.h_poly(m))
        )
        ok = ok and tq.ode_check_f(m) and tq.ode_check_h(m)
    res = []
    for m in range(16):
        ok = ok and tq.fg_2f1_check(m)
        res.extend(tq.gauss_relation_checks(m))
    bad = [r for r in res if not r.passed]
    ok = ok and not bad
    elapsed = time.time() - t0
    detail = f"{len(res)} relation checks, {elapsed:.1f}s"
    if bad:
        detail += f"; first failures {bad[:3]}"
    _report(5, "shift equation, ODEs, series forms, route agreements", ok, detail)


def test_c06_transformation_spot_checks():
    bad = []
    for m in range(11):
        bad.extend(r for r in tq.transform_checks(m, SAMPLES) if not r.passed)
    ok = not bad
    _report(
        6,
        "variable changes at x in {2, 3, 5/7} (m<=10)",
        ok,
        "" if ok else repr(bad[:3]),
    )


def test_c07_recurrences():
    res = counts.recurrence_check(30)
    ok = all(r.passed for r in res)
    _report(7, "totals rebuilt from their recursions (m<=30)", ok, f"{len(res)} steps")


def test_c08_structural_invariants():
    ok = True
    for m in range(31):
        vals = counts.b_table(m)
        ok = ok and vals == vals[::-1]
        ok = ok and sum(vals) == 1
        e = tq.e_poly(m).coeffs
        ok = ok and e == e[::-1]
    for n in range(2, 13):
        ok = ok and all(
            isinstance(counts.refined_asm3(n, r), int) for r in range(1, n + 1)
        )
        h3 = tq.h3_poly(n)
        ok = ok and h3.reversed_poly(n - 1) == h3 and h3.eval_at(F(1)) == 1
    for n in range(1, 13):
        h1 = tq.h1_poly(n)
        ok = ok and h1.reversed_poly(n - 1) == h1 and h1.eval_at(F(1)) == 1
    _report(8, "palindromicity, reflection, unit sums, integrality", ok)


def test_c09_concentration_scan():
    t0 = time.time()
    out = counts.concentration_scan([40, 80, 160, 320], F(1, 10))
    masses = [mass for _, mass in out]
    increasing = all(b > a for a, b in zip(masses, masses[1:]))
    ok = increasing and masses[-1] > masses[0]
    elapsed = time.time() - t0
    shown = ", ".join(f"n={n}: {float(mass):.6f}" for n, mass in out)
    _report(
        9,
        "central mass strictly increases over n in {40, 80, 160, 320}",
        ok and elapsed < 300,
        f"{shown}; {elapsed:.1f}s",
    )


def test_c10_degeneracy_guard():
    ok = True
    try:
        tq.phi(1, -1)
        ok = False
    except DegenerateParameters:
        pass
    try:
        tq.p_poly_phi(0)
        ok = False
    except DegenerateParameters:
        pass
    ok = ok and tq.p_poly(0) == LaurentPoly({1: 1, -1: 1})
    _report(10, "degenerate series raise; division route still answers", ok)
