"""Two independent brute-force ground truths for the refined counts.

The first oracle runs a transfer-matrix dynamic program over bitmask
states: state S after row k is the set of columns whose partial sum is
1, so S has exactly k bits set.  A row of the matrix is the difference
of two consecutive states; it is admissible when its prefix sums stay
in {0, 1} and close at 1, and it contributes weight x^(p-1) where p is
its number of +1 entries.  One backward pass from the full state, by
decreasing width, weighs every completion of every state, and so gives
all n refined counts at once.  It runs in integers only: for x = p/q
each row weight is scaled by a fixed power of q, divided out at the end.

The second oracle enumerates the same objects as triangles of strictly
increasing rows where consecutive rows interlace, written directly on
sorted tuples with no bitmasks and no shared code with the DP.  Each
step down weights x to the power of the entries that disappear.  The
refined index r is the single entry of the top row in both pictures.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Tuple, Union

from .counts import EnumTable, Provenance
from .errors import SizeLimitExceeded

DP_LIMIT = 14
MT_LIMIT = 8

Weight = Union[int, Fraction]


def _normalize_weight(x) -> Weight:
    x = Fraction(x)
    if x.denominator == 1:
        return x.numerator
    return x


@lru_cache(maxsize=None)
def _row_successors(n: int, state: int) -> Tuple[Tuple[int, int], ...]:
    """All states reachable from state by one admissible row.

    Walks the columns keeping the running prefix of the row difference,
    which may only sit at 0 or 1 and must end at 1.  Returns pairs
    (next_state, number_of_plus_ones).
    """
    out = []

    def walk(col: int, acc: int, prefix: int, plus: int) -> None:
        if col == n:
            if prefix == 1:
                out.append((acc, plus))
            return
        bit = (state >> col) & 1
        if bit:
            walk(col + 1, acc | (1 << col), prefix, plus)
            if prefix == 1:
                walk(col + 1, acc, 0, plus)
        else:
            walk(col + 1, acc, prefix, plus)
            if prefix == 0:
                walk(col + 1, acc | (1 << col), 1, plus + 1)

    walk(0, 0, 0, 0)
    return tuple(out)


def dp_refined_enum(n: int, x) -> EnumTable:
    """Weighted refined counts by one backward DP pass over column masks.

    done[S] is the weighted number of ways to complete the matrix from
    state S down to the full state.  A successor of a width-k state has
    width k+1, so states taken by decreasing width find every successor
    already done, and the first row singles out A_n(r; x) = done[1 << (r-1)].
    For x = p/q each row weight x^(plus-1) is scaled by q^(top-1) into
    the integer p^(plus-1) * q^(top-plus); the n-1 rows below the first
    then carry the common factor q^((top-1)(n-1)), divided out at the end.
    """
    if n < 1 or n > DP_LIMIT:
        raise SizeLimitExceeded(f"n must lie in 1..{DP_LIMIT}")
    x = _normalize_weight(x)
    p, q = x.as_integer_ratio()
    top = (n + 3) // 2
    # indexed by plus; every row has at least one +1, so slot 0 is unused
    weight = [0] + [
        p ** (plus - 1) * q ** (top - plus) for plus in range(1, top)
    ]
    full = (1 << n) - 1
    done = [0] * (full + 1)
    done[full] = 1
    for state in sorted(range(1, full), key=int.bit_count, reverse=True):
        total = 0
        for succ, plus in _row_successors(n, state):
            total += weight[plus] * done[succ]
        done[state] = total
    tops = [done[1 << (r - 1)] for r in range(1, n + 1)]
    if q == 1:
        counts = tuple(tops)
    else:
        scale = q ** ((top - 1) * (n - 1))
        counts = tuple(Fraction(v, scale) for v in tops)
    return EnumTable(n, Fraction(x), counts, Provenance.ORACLE_DP)


def _interlacing_extensions(row: Tuple[int, ...], n: int):
    """Strictly increasing rows of length len(row)+1 interlacing row."""
    k = len(row)

    def build(i: int, lo: int, acc: list):
        hi = row[i] if i < k else n
        for v in range(lo, hi + 1):
            acc.append(v)
            if i == k:
                yield tuple(acc)
            else:
                nxt_lo = max(v + 1, row[i])
                yield from build(i + 1, nxt_lo, acc)
            acc.pop()

    yield from build(0, 1, [])


def mt_refined_enum(n: int, x) -> EnumTable:
    """Weighted refined counts by recursion over interlacing triangles.

    The recursion weighs a completion of a partial triangle from its
    current row down to the full bottom row 1..n; the drop count of a
    step is how many entries of the upper row are missing from the
    lower one.  Completions are cached per row, which leaves the
    recursion structure untouched.
    """
    if n < 1 or n > MT_LIMIT:
        raise SizeLimitExceeded(f"n must lie in 1..{MT_LIMIT}")
    x = _normalize_weight(x)
    cache: dict = {}

    def below(row: Tuple[int, ...]) -> Weight:
        if len(row) == n:
            return 1
        got = cache.get(row)
        if got is not None:
            return got
        total = 0
        for ext in _interlacing_extensions(row, n):
            dropped = len(set(row) - set(ext))
            total += x ** dropped * below(ext)
        cache[row] = total
        return total

    counts = tuple(below((r,)) for r in range(1, n + 1))
    return EnumTable(n, Fraction(x), counts, Provenance.ORACLE_MT)


def oracle_cross_check(n: int, x) -> bool:
    """Agreement of the two oracles on the full refined table."""
    return dp_refined_enum(n, x).counts == mt_refined_enum(n, x).counts
