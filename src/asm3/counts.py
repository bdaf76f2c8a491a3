"""Exact counting formulas for alternating sign matrices.

Implements the product formula for the total count, the binomial
refinement by the position of the first row's 1, the closed forms for
the 3-enumeration (each -1 weighted by 3), the normalized coefficient
family b(m, .) behind the refined 3-enumeration, and an exact scan of
the central mass of the refined distribution.  Everything is integer or
Fraction arithmetic.  This route module imports only the shared
modules, never oracle or tq, which verify compares it with.

Each closed-form refinement is one row per order n.  The scan keeps
its per-alpha weight sum, one big-int product per alpha where a mixed
column takes two or three: a scan over mixed columns was no faster
(0.89-0.96 s against 0.88 s at n = 8000..8010 on one Xeon core).

b(m, .) has two routes here.  b_coeff evaluates the paper's single sum
at one alpha, O(m) big binomials per value.  _t_row yields the integer
row T(m, 0..2m) from an exact order-4 recurrence in alpha, one integer
step per value, seeded by b_coeff at alpha = 0..3, and holds only the
four values a step reads.  b_table keeps the whole row as a tuple; the
scan adds each value into its window sum and keeps none, so its memory
does not grow with the row.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Iterable, Iterator, List, Tuple, Union

from .errors import NonExactDivision, OutOfRange
from .hyper import hyp
from .qfield import _rational
from .report import EnumTable


def _int_exact(num, den: int = 1) -> int:
    # num / den as an int, for an int or Fraction num; a remainder raises
    q, rem = divmod(num, den)
    if rem:
        raise NonExactDivision(f"expected an integer, got {Fraction(num, den)}")
    return q


@lru_cache(maxsize=None)
def total_asm(n: int) -> int:
    """Product formula prod_k (3k-2)!/(2n-k)! for the unweighted count."""
    if n < 1:
        raise OutOfRange("n must be >= 1")
    # reduced step by step: one exact division of the two full products
    # took three times as long over n = 1..170
    val = Fraction(1)
    for k in range(1, n + 1):
        val *= Fraction(factorial(3 * k - 2), factorial(2 * n - k))
    return _int_exact(val)


def asm_table(n: int) -> EnumTable:
    """Plain counts of order n by the column r = 1..n of the first row's 1.

    Column r holds C(n+r-2, n-1) C(2n-1-r, n-1) total_asm(n) / C(3n-2, n-1).
    """
    if n < 1:
        raise OutOfRange("n must be >= 1")
    total, den = total_asm(n), comb(3 * n - 2, n - 1)
    products = (
        comb(n + r - 2, n - 1) * comb(2 * n - 1 - r, n - 1) * total
        for r in range(1, n + 1)
    )
    return EnumTable(n, tuple(_int_exact(c, den) for c in products))


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
    return _int_exact(
        3 ** m * factorial(3 * m + 2) * factorial(m) * total_asm3(n - 1),
        factorial(2 * m + 1) ** 2,
    )


# a table row reads b(m, .) at 2m + 1 alphas, shared by the rows n = 2m + 2
# and 2m + 3: 256 entries keep every hit of the largest x = 3 table (m <= 77)
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
    pref_num = 2 ** alpha * comb(3 * m + 3, alpha) * comb(2 * m + 1 - alpha, m + 1)
    pref_den = 3 ** m * comb(3 * m + 2, m + 1)
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
    return Fraction(pref_num * bracket.numerator, pref_den * bracket.denominator)


def _b_scale(m: int) -> Tuple[int, int]:
    """Numerator and denominator of the factor that takes T(m, .) to b(m, .).

    T(m, alpha) is the integer sum inside b_coeff; the factor
    (2m+1)! m! / (3^m (3m+2)!) depends on m alone.
    """
    return factorial(2 * m + 1) * factorial(m), 3 ** m * factorial(3 * m + 2)


def _t_row(m: int) -> Iterator[int]:
    """Yield T(m, 0..2m) by an exact order-4 recurrence in alpha.

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
    remainder in any step raises NonExactDivision when that value is
    read.  Only the four values a step reads are held, so a reader that
    keeps no values needs memory for a few of them, not the whole row.
    """
    num, den = _b_scale(m)
    seeds = (b_coeff(m, a) for a in range(min(4, 2 * m + 1)))
    last = [_int_exact(b.numerator * den, b.denominator * num) for b in seeds]
    yield from last
    for a in range(2 * m - 3):
        t0, t1, t2, t3 = last
        rest = (
            (5 * a * a - 20 * a * m + 19 * a + 12 * m * m - 48 * m + 12) * t3
            - 2 * (8 * m + 1) * (a - m + 2) * t2
            + (-5 * a * a - 21 * a + 8 * m * m + 10 * m - 16) * t1
            - 2 * (a + 3) * (a - 2 * m) * t0
        )
        nxt, rem = divmod(-rest, 2 * (a + 4) * (a - 2 * m + 1))
        if rem:
            raise NonExactDivision(f"recurrence step to T({m}, {a + 4})")
        yield nxt
        last = [t1, t2, t3, nxt]


@lru_cache(maxsize=None)
def b_table(m: int) -> Tuple[Fraction, ...]:
    """b(m, 0..2m) as a tuple: the recurrence row T(m, .) times an m-only factor.

    The tuple is built from _t_row's values as they come, so the whole
    row is run and any inexact step raises here.  b_coeff stays the
    independent direct-sum route; the verify suite compares this table
    with the 4F3 and polynomial routes.
    """
    scale = Fraction(*_b_scale(m))
    return tuple(scale * t for t in _t_row(m))


def _mix(n: int) -> Tuple[int, Tuple[int, ...], int]:
    """(m, weights, den): order n mixes b(m, r-1-i) with weights[i] / den."""
    if n % 2 == 0:
        return (n - 2) // 2, (1, 1), 2
    return (n - 3) // 2, (2, 5, 2), 9


def asm3_table(n: int) -> EnumTable:
    """Refined 3-enumeration of order n, one count per column r = 1..n.

    Column r mixes b(m, r-1-i) with _mix(n)'s weights[i] / den, the row
    b(m, 0..2m) read from b_coeff once per alpha over one lcm.  Each
    count's integrality is an enforced invariant, not an assumption.
    """
    if n < 1:
        raise OutOfRange("n must be >= 1")
    if n == 1:
        return EnumTable(1, (total_asm3(1),))
    m, weights, den = _mix(n)
    row = [b_coeff(m, alpha) for alpha in range(2 * m + 1)]
    common = lcm(*(b.denominator for b in row))
    mixed = [0] * n
    for alpha, b in enumerate(row):
        t = b.numerator * (common // b.denominator)
        for off, w in enumerate(weights):
            mixed[alpha + off] += w * t
    total = total_asm3(n)
    return EnumTable(n, tuple(_int_exact(c * total, common * den) for c in mixed))


def asm2_shares(n: int) -> Tuple[Fraction, ...]:
    """Shares of the 2-enumeration by column: C(n-1, r-1)/2^(n-1), r = 1..n."""
    if n < 1:
        raise OutOfRange("n must be >= 1")
    den = 2 ** (n - 1)
    return tuple(Fraction(comb(n - 1, k), den) for k in range(n))


def concentration_scan(
    n_values: Iterable[int], eps: Union[Fraction, int]
) -> List[Tuple[int, Fraction]]:
    """Exact central mass of the refined 3-enumeration distribution.

    For each order n, sums the shares of the columns whose normalized
    position (r-1)/(n-1) lies strictly within eps of 1/2.  The window is
    summed over the integer recurrence row T(m, .) as its values arrive,
    and the row stops at the window's right edge, so one n holds a few
    row values and the sum, never the row.  The m-only factor and the
    mixing weights enter once, in one Fraction per n, so the
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
        total = 0
        for alpha, t in enumerate(_t_row(m)):
            # T(m, alpha) enters column r = alpha + 1 + off with weights[off];
            # 2r - 1 - n is 2(alpha + off) + 1 - n, and the window is
            # |(r-1)/(n-1) - 1/2| < eps, cleared of denominators
            if (2 * alpha + 1 - n) * q >= 2 * p * (n - 1):
                break  # this column and every later one lie past the window
            total += t * sum(
                w
                for off, w in enumerate(weights)
                if abs(2 * (alpha + off) + 1 - n) * q < 2 * p * (n - 1)
            )
        num, den = _b_scale(m)
        out.append((n, Fraction(total * num, weight_den * den)))
    return out
