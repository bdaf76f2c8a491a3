"""Two independent brute-force ground truths for the refined counts.

The first oracle is a transfer-matrix sweep over column-sum bitmasks.
It fills the matrix one entry at a time, row by row, carrying the mask
of columns whose partial sum is 1 and the running prefix sum of the
current row, which must stay in {0, 1} and close at 1.  Every entry has
a local integer weight, so for x = p/q the sweep runs in integers and
one power of q is divided out at the end.  Only the states of the
current column are kept, and the n refined counts are read from the
states after n-1 rows.

The second oracle enumerates the same objects as triangles of strictly
increasing rows where consecutive rows interlace, written directly on
sorted tuples with no bitmasks and no shared code with the DP.  Each
step down weights x to the power of the entries that disappear.  The
refined index r is the single entry of the top row in this picture,
and of the bottom row in the sweep, which is the same count by the
upside-down flip.

Every coefficient of A_n(r; x) is a nonnegative count, and together
they sum to A_n(r; 1) <= A_n <= A_n(2) = 2^(n(n-1)/2), so each one is
below 2^B with B = packing_bits(n).  One run at the integer weight
x = 2^B therefore returns the whole polynomial packed into one integer,
whose base-2^B digits are its coefficients (`unpack`).  `verify` reads
the weights 1, 2 and 3 from this one sweep per size, and compares the
two oracles' packed integers: equal integers are equal polynomials.
Neither oracle imports counts or tq, the routes that verify checks
them against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple, Union

from .errors import OutOfRange
from .qfield import _rational
from .report import EnumTable

DP_LIMIT = 16
MT_LIMIT = 8

Weight = Union[int, Fraction]


def _normalize_weight(x) -> Weight:
    x = Fraction(_rational(x))
    if x.denominator == 1:
        return x.numerator
    return x


def dp_refined_enum(n: int, x) -> EnumTable:
    """Weighted refined counts by one forward sweep, column by column.

    A state is the column-sum mask, with the columns left of the cursor
    already updated by the current row, plus the row's prefix bit at
    position n.  Each step decides one entry: a 0 keeps the column, a -1
    needs a column sum of 1 and prefix 1, a +1 needs sum 0 and prefix 0;
    a row is admissible when it ends at prefix 1.  For x = p/q the local
    weights are integers: q for a column whose sum stays 1, p for one
    that drops to 0, and 1 otherwise.  Row k has k-1 columns at sum 1
    before it, so it carries q^(k-1) x^(number of -1 entries), and rows
    1..n-1 together carry q^((n-1)(n-2)/2), divided out at the end.

    The last row is forced: its single 1 sits in the one column still at
    sum 0.  Flipping the matrix upside down keeps the number of -1
    entries and swaps the first row with the last, so A_n(r; x) is the
    weight of the mask with only column r empty after n-1 rows.
    """
    if n < 1 or n > DP_LIMIT:
        raise OutOfRange(f"n must lie in 1..{DP_LIMIT}")
    x = _normalize_weight(x)
    p, q = x.as_integer_ratio()
    prefix = 1 << n
    states = {0: 1}
    for _ in range(n - 1):
        for col in range(n):
            bit = 1 << col
            nxt: dict = {}
            get = nxt.get
            for state, w in states.items():
                if state & bit:
                    nxt[state] = get(state, 0) + w * q
                    if state & prefix:
                        key = state ^ bit ^ prefix
                        nxt[key] = get(key, 0) + w * p
                else:
                    nxt[state] = get(state, 0) + w
                    if not state & prefix:
                        key = state | bit | prefix
                        nxt[key] = get(key, 0) + w
            states = nxt
        states = {s ^ prefix: w for s, w in states.items() if s & prefix}
    empty = [states[(prefix - 1) ^ (1 << r)] for r in range(n)]
    if q == 1:
        counts = tuple(empty)
    else:
        scale = q ** ((n - 1) * (n - 2) // 2)
        counts = tuple(Fraction(v, scale) for v in empty)
    return EnumTable(n, counts)


def packing_bits(n: int) -> int:
    """Slot width B: each coefficient of A_n(r; x) is at most 2^(B-1)."""
    return n * (n - 1) // 2 + 1


def unpack(v: int, bits: int) -> Tuple[int, ...]:
    """Base-2^bits digits of v >= 0, lowest first and none past the top.

    For v = P(2^bits) with P's coefficients in [0, 2^bits) these are
    P's coefficients, constant term first.  A negative v or a width
    below 1 raises OutOfRange, since the digit loop would never end.
    """
    if v < 0 or bits < 1:
        raise OutOfRange("unpack needs v >= 0 and bits >= 1")
    mask = (1 << bits) - 1
    digits = []
    while v:
        digits.append(v & mask)
        v >>= bits
    return tuple(digits)


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
        raise OutOfRange(f"n must lie in 1..{MT_LIMIT}")
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
    return EnumTable(n, counts)
