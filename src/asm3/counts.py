"""Exact counting formulas for alternating sign matrices.

Implements the product formula for the total count, the binomial
refinement by the position of the first row's 1, the closed forms for
the 3-enumeration (each -1 weighted by 3), the normalized coefficient
family b(m, .) behind the refined 3-enumeration, the recursion checks
that reproduce the closed forms, and an exact scan of the central mass
of the refined distribution.  Everything is integer or Fraction
arithmetic.  This route module imports only the shared modules, never
oracle or tq, which verify compares it with.

b(m, .) has two routes here.  b_coeff evaluates the paper's single sum
at one alpha, O(m) big binomials per value.  b_table and the scan build
the whole integer row T(m, 0..2m) from an exact order-4 recurrence in
alpha, one integer step per value, seeded by b_coeff at alpha = 0..3.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, List, Tuple, Union

from .errors import NonExactDivision, OutOfRange
from .hyper import hyp
from .qfield import _rational
from .report import CheckResult, EnumTable


def _int_exact(fr: Fraction) -> int:
    if fr.denominator != 1:
        raise NonExactDivision(f"expected an integer, got {fr}")
    return fr.numerator


@lru_cache(maxsize=None)
def total_asm(n: int) -> int:
    """Product formula prod_k (3k-2)!/(2n-k)! for the unweighted count."""
    if n < 1:
        raise OutOfRange("n must be >= 1")
    val = Fraction(1)
    for k in range(1, n + 1):
        val *= Fraction(factorial(3 * k - 2), factorial(2 * n - k))
    return _int_exact(val)


def refined_asm(n: int, r: int) -> int:
    """Count of matrices whose first row has its 1 in column r."""
    if n < 1:
        raise OutOfRange("n must be >= 1")
    if not 1 <= r <= n:
        raise OutOfRange(f"r must lie in 1..{n}")
    ratio = Fraction(
        comb(n + r - 2, n - 1) * comb(2 * n - 1 - r, n - 1),
        comb(3 * n - 2, n - 1),
    )
    return _int_exact(ratio * total_asm(n))


@lru_cache(maxsize=None)
def total_asm3(n: int) -> int:
    """3-enumeration total: each matrix weighted by 3^(number of -1)."""
    if n < 1:
        raise OutOfRange("n must be >= 1")
    if n % 2:
        m = (n - 1) // 2
        val = Fraction(3 ** (m * (m + 1)))
        for k in range(1, m + 1):
            val *= Fraction(factorial(3 * k - 1), factorial(m + k)) ** 2
        return _int_exact(val)
    m = (n - 2) // 2
    val = Fraction(
        3 ** m * factorial(3 * m + 2) * factorial(m),
        factorial(2 * m + 1) ** 2,
    )
    return _int_exact(val * total_asm3(n - 1))


# a table reuses b(m, .) only within the rows n = 2m + 2 and 2m + 3, at most
# 2m + 5 alphas: 256 entries keep every hit of the largest x = 3 table (m <= 77)
@lru_cache(maxsize=256)
def b_coeff(m: int, alpha: int) -> Fraction:
    """Single-sum form of the refined-3-enumeration coefficient.

    Zero outside 0..2m.  The reflection symmetry b(m, alpha) =
    b(m, 2m - alpha) is not imposed here; it emerges and is checked.
    """
    if m < 0:
        raise OutOfRange("m must be >= 0")
    if alpha < 0 or alpha > 2 * m:
        return Fraction(0)
    total = 0
    for ell in range(max(0, alpha - m), alpha // 2 + 1):
        total += (
            (2 * m + 2 - alpha + 2 * ell)
            * comb(3 * m + 3, alpha - 2 * ell)
            * comb(2 * m + ell - alpha + 1, m + 1)
            * comb(m + ell + 1, m + 1)
            * 2 ** (alpha - 2 * ell)
        )
    num, den = _b_scale(m)
    return Fraction(total * num, den)


def b_coeff_4f3(m: int, alpha: int) -> Fraction:
    """Independent route through a pair of terminating 4F3 sums at 1/4.

    Valid directly for 0 <= alpha <= m; the upper half is reached by
    the reflection alpha -> 2m - alpha.
    """
    if m < 0:
        raise OutOfRange("m must be >= 0")
    if alpha < 0 or alpha > 2 * m:
        raise OutOfRange(f"alpha must lie in 0..{2 * m}")
    if alpha > m:
        alpha = 2 * m - alpha
    pref = Fraction(
        2 ** alpha * comb(3 * m + 3, alpha) * comb(2 * m + 1 - alpha, m + 1),
        3 ** m * comb(3 * m + 2, m + 1),
    )
    # the two sums differ only in the second upper parameter, -alpha/2 and
    # -alpha/2 + 1
    upper = [
        Fraction(1 - alpha, 2),
        Fraction(-alpha, 2),
        Fraction(m + 2),
        Fraction(2 * m + 2 - alpha),
    ]
    lower = (
        Fraction(3 * m + 4 - alpha, 2),
        Fraction(3 * m + 5 - alpha, 2),
        Fraction(m - alpha + 1),
    )
    z = Fraction(1, 4)
    bracket = 2 * hyp(upper, lower, z)
    if alpha:
        upper[1] += 1
        bracket -= Fraction(alpha, m + 1) * hyp(upper, lower, z)
    return pref * bracket


def _b_scale(m: int) -> Tuple[int, int]:
    """Numerator and denominator of the factor that takes T(m, .) to b(m, .).

    T(m, alpha) is the integer sum inside b_coeff; the factor
    (2m+1)! m! / (3^m (3m+2)!) depends on m alone.
    """
    return factorial(2 * m + 1) * factorial(m), 3 ** m * factorial(3 * m + 2)


def _t_row(m: int) -> List[int]:
    """T(m, 0..2m) by an exact order-4 recurrence in alpha.

    The seeds T(m, 0..3) come from b_coeff.  Each later value solves

        2(a+4)(a-2m+1)               T(a+4)
      + (5a^2-20am+19a+12m^2-48m+12) T(a+3)
      - 2(8m+1)(a-m+2)               T(a+2)
      + (-5a^2-21a+8m^2+10m-16)      T(a+1)
      - 2(a+3)(a-2m)                 T(a)    = 0

    for T(a+4).  The leading coefficient vanishes only at a = 2m-1,
    past the last step a = 2m-4, so the recurrence runs over the whole
    range and the reflection symmetry stays a check, not an input.  The
    recurrence was guessed and is checked, not proved: a nonzero
    remainder in any step raises NonExactDivision.
    """
    num, den = _b_scale(m)
    row = [
        _int_exact(b_coeff(m, a) * den / num)
        for a in range(min(4, 2 * m + 1))
    ]
    for a in range(2 * m - 3):
        t0, t1, t2, t3 = row[a:]
        rest = (
            (5 * a * a - 20 * a * m + 19 * a + 12 * m * m - 48 * m + 12) * t3
            - 2 * (8 * m + 1) * (a - m + 2) * t2
            + (-5 * a * a - 21 * a + 8 * m * m + 10 * m - 16) * t1
            - 2 * (a + 3) * (a - 2 * m) * t0
        )
        nxt, rem = divmod(-rest, 2 * (a + 4) * (a - 2 * m + 1))
        if rem:
            raise NonExactDivision(f"recurrence step to T({m}, {a + 4})")
        row.append(nxt)
    return row


@lru_cache(maxsize=None)
def b_table(m: int) -> Tuple[Fraction, ...]:
    """b(m, 0..2m) as a tuple: the recurrence row T(m, .) times an m-only factor.

    b_coeff stays the independent direct-sum route; the verify suite
    compares this table with the 4F3 and polynomial routes.
    """
    scale = Fraction(*_b_scale(m))
    return tuple(scale * t for t in _t_row(m))


def _mix(n: int) -> Tuple[int, Tuple[int, ...], int]:
    """(m, weights, den): order n mixes b(m, r-1-i) with weights[i] / den."""
    if n % 2 == 0:
        return (n - 2) // 2, (1, 1), 2
    return (n - 3) // 2, (2, 5, 2), 9


def refined_asm3(n: int, r: int) -> int:
    """Refined 3-enumeration through the b-coefficient combination.

    Even orders mix two adjacent b values over 2, odd orders mix three
    with weights (2, 5, 2) over 9.  Integrality of the result is an
    enforced invariant, not an assumption.
    """
    if n < 2:
        raise OutOfRange("n must be >= 2")
    if not 1 <= r <= n:
        raise OutOfRange(f"r must lie in 1..{n}")
    m, weights, den = _mix(n)
    mixed = sum(w * b_coeff(m, r - 1 - off) for off, w in enumerate(weights))
    return _int_exact(mixed / den * total_asm3(n))


def refined_asm2_ratio(n: int, r: int) -> Fraction:
    """Share of the 2-enumeration in column r: binom(n-1, r-1)/2^(n-1)."""
    if n < 1:
        raise OutOfRange("n must be >= 1")
    if not 1 <= r <= n:
        raise OutOfRange(f"r must lie in 1..{n}")
    return Fraction(comb(n - 1, r - 1), 2 ** (n - 1))


def asm_table(n: int) -> EnumTable:
    counts = tuple(refined_asm(n, r) for r in range(1, n + 1))
    return EnumTable(n, counts)


def asm3_table(n: int) -> EnumTable:
    if n == 1:
        return EnumTable(1, (total_asm3(1),))
    counts = tuple(refined_asm3(n, r) for r in range(1, n + 1))
    return EnumTable(n, counts)


def recurrence_check(max_m: int) -> List[CheckResult]:
    """Rebuild both total closed forms from their two-step recursions.

    The 3-enumeration total advances through the constant coefficient
    b(m, 0) in closed form; the unweighted total advances through the
    elementary factorial ratio.  Anchors are the orders 1 and 2.
    """
    if max_m < 0:
        raise OutOfRange("max_m must be >= 0")

    def b0(m: int) -> Fraction:
        return Fraction(
            factorial(2 * m + 1) * factorial(2 * m + 2),
            3 ** m * factorial(m + 1) * factorial(3 * m + 2),
        )

    out = [
        CheckResult("anchor_3enum", "n=1", total_asm3(1) == 1),
        CheckResult("anchor_3enum", "n=2", total_asm3(2) == 2),
    ]
    for m in range(max_m + 1):
        ok = total_asm3(2 * m + 3) * b0(m) ** 2 == 9 * total_asm3(2 * m + 1)
        out.append(CheckResult("odd_step_3enum", f"m={m}", ok))
    for m in range(1, max_m + 1):
        ok = total_asm3(2 * m + 2) * b0(m) * b0(m - 1) == 9 * total_asm3(2 * m)
        out.append(CheckResult("even_step_3enum", f"m={m}", ok))
    for n in range(2, 2 * max_m + 4):
        lhs = total_asm(n - 1) * factorial(3 * n - 2) * factorial(n - 1)
        rhs = total_asm(n) * factorial(2 * n - 1) * factorial(2 * n - 2)
        out.append(CheckResult("elementary_step_total", f"n={n}", lhs == rhs))
    return out


def concentration_scan(
    n_values: Iterable[int], eps: Union[Fraction, int]
) -> List[Tuple[int, Fraction]]:
    """Exact central mass of the refined 3-enumeration distribution.

    For each order n, sums the shares of the columns whose normalized
    position (r-1)/(n-1) lies strictly within eps of 1/2.  The window is
    summed over the integer recurrence row T(m, .), and the m-only factor
    and the mixing weights enter once, in one Fraction per n, so the
    astronomically large totals never materialize.
    """
    eps = Fraction(_rational(eps))
    if not 0 < eps < Fraction(1, 2):
        raise OutOfRange("eps must satisfy 0 < eps < 1/2")
    p, q = eps.numerator, eps.denominator
    out = []
    for n in sorted(set(operator.index(v) for v in n_values)):
        if n < 2:
            raise OutOfRange("scan needs n >= 2")
        m, weights, weight_den = _mix(n)
        row = _t_row(m)
        total = 0
        for r in range(1, n + 1):
            # |(r-1)/(n-1) - 1/2| < eps, cleared of denominators
            if abs(2 * r - 1 - n) * q < 2 * p * (n - 1):
                for off, w in enumerate(weights):
                    if 0 <= r - 1 - off <= 2 * m:
                        total += w * row[r - 1 - off]
        num, den = _b_scale(m)
        out.append((n, Fraction(total * num, weight_den * den)))
    return out
