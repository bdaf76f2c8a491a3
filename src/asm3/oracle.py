"""Two independent brute-force ground truths for the refined counts.

The first oracle is a transfer-matrix sweep over column-sum bitmasks.
It fills the matrix one entry at a time, row by row, carrying the mask
of columns whose partial sum is 1.  The running prefix sum of the
current row must stay in {0, 1} and close at 1, and it picks which of
two dicts holds a state.  A 0 entry keeps every state, so each column
starts from a copy of the old states, and its loops make the +1 and -1
moves.  Every entry has a local integer weight, so for x = p/q the
sweep runs in integers, the same loops rescale the copies that a 0
weighs by q, and one power of q is divided out of each order.
Only the states of the current column are kept while it runs.  Order m
is read from the states after m-1 rows, so one sweep to order n yields
every order 1..n.  Those counts are all that outlives a sweep.

The second oracle enumerates the same objects as triangles of strictly
increasing rows where consecutive rows interlace, written directly on
sorted tuples with no bitmasks and no shared code with the DP.  Each
step down weights x to the power of the entries that disappear, counted
while the lower row is built and read from one table of powers.  One
pass goes down level by level from the top rows and keeps, per row, the
weight of every triangle above it.  An order-m triangle ends in the row
1..m, reached with nothing dropped from its row m-1, which misses just
the column of the last matrix row's 1; so order m is read at level m-1
from the row 1..m without r, and one pass to order n yields every order
1..n.  The index r is thus the 1 of the last row in both oracles; the
upside-down flip, which keeps the number of -1 entries, makes it the
paper's index of the first row.

Every coefficient of A_n(r; x) is a nonnegative count, and together
they sum to A_n(r; 1) <= A_n <= A_n(2) = 2^(n(n-1)/2), so each one is
below 2^B with B = packing_bits(n).  One run at the integer weight
x = 2^B therefore returns the whole polynomial packed into one integer,
whose base-2^B digits are its coefficients (`unpack`).  `verify` reads
the weights 1, 2 and 3 of every order from one sweep at the largest
size's packed weight, wide enough for every smaller size.  It also
compares one triangle pass with one DP sweep, both at the packed weight
of the triangle pass's largest size: equal packed values are equal
polynomials.
Neither oracle imports counts or tq, the routes that verify checks
them against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .errors import OutOfRange
from .qfield import _rational
from .report import EnumTable

DP_LIMIT = 16
MT_LIMIT = 8


def dp_refined_tables(n: int, x) -> Tuple[EnumTable, ...]:
    """The counts of every order 1..n at x = p/q by one forward sweep.

    A state is the column-sum mask, with the columns left of the cursor
    already updated by the current row; `closed` holds the states whose
    row prefix is 0 and `opened` those whose prefix is 1.  Each step
    decides one entry: a 0 keeps the state, a +1 moves a `closed` state
    at column sum 0 to `opened`, and a -1 moves an `opened` state at sum
    1 back to `closed`; a row is admissible when it ends in `opened`.
    For x = p/q the local weights are integers: q for a column whose sum
    stays 1, p for one that drops to 0, and 1 otherwise.  Each column
    starts from plain copies of the old states, which hold every 0 entry
    at weight 1, and one loop per dict makes the +1 and -1 moves; the
    loop that visits a state at column sum 1 also rewrites its copy at
    weight q, a write that q = 1 skips.
    Row k has k-1 columns at sum 1 before it, so it carries
    q^(k-1) x^(number of -1 entries), and rows 1..m-1 together carry
    q^((m-1)(m-2)/2), divided out of order m's counts.

    The last row is forced: its single 1 sits in the one column still at
    sum 0.  Flipping the matrix upside down keeps the number of -1
    entries and swaps the first row with the last, so A_m(r; x) is the
    weight of the mask 1..m without column r after m-1 rows.

    Every order is read from the one sweep of width n: after m-1 rows, a
    state whose mask lies inside columns 1..m has no nonzero entry right
    of column m.  Else take the rightmost column c > m with one.  Its
    sum is 0, since c is not in the mask, and its nonzero entries
    alternate from +1, so the last of them is a -1.  That -1's row has
    only zeros right of c and sums to 1, so its prefix sum before c
    would be 2.  Such a state is thus an order-m state padded with zero
    columns, each of weight 1, and it carries its order-m weight.
    """
    if n < 1 or n > DP_LIMIT:
        raise OutOfRange(f"n must lie in 1..{DP_LIMIT}")
    p, q = _rational(x).as_integer_ratio()
    scaled = q != 1
    closed = {0: 1}
    tables = []
    for m in range(1, n + 1):
        full = (1 << m) - 1
        empty = [closed[full ^ (1 << r)] for r in range(m)]
        if scaled:
            scale = q ** ((m - 1) * (m - 2) // 2)
            empty = [Fraction(v, scale) for v in empty]
        tables.append(EnumTable(m, tuple(empty)))
        if m == n:
            break
        opened: dict = {}
        for col in range(n):
            bit = 1 << col
            nxt_closed, nxt_opened = dict(closed), dict(opened)
            # an opened state at sum 1 takes a 0, at weight q, or a -1, at
            # weight p; its copy is scaled before a +1 move adds to it
            get = nxt_closed.get
            for s, w in opened.items():
                if s & bit:
                    if scaled:
                        nxt_opened[s] = w * q
                    key = s ^ bit
                    nxt_closed[key] = get(key, 0) + w * p
            # a closed state at sum 1 takes a 0, at weight q; one at sum 0
            # takes a 0, kept by the copy, or a +1
            get = nxt_opened.get
            for s, w in closed.items():
                if s & bit:
                    if scaled:
                        nxt_closed[s] = w * q
                else:
                    key = s | bit
                    nxt_opened[key] = get(key, 0) + w
            closed, opened = nxt_closed, nxt_opened
        closed = opened
    return tuple(tables)


def dp_refined_enum(n: int, x) -> EnumTable:
    """Weighted refined counts A_n(r; x), r = 1..n, for a rational x."""
    return dp_refined_tables(n, x)[-1]


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
    """Strictly increasing rows of length len(row)+1 interlacing row,
    each with the number of entries of row that it drops.

    Built slot by slot in lexicographic order: slot i takes v from the
    least value still free up to row[i], and the next slot starts at
    v + 1 if v reached row[i], at row[i] otherwise; the last slot runs
    up to n.  Slot i can only keep row[i] (v == row[i]) or row[i-1]
    (v == row[i-1], the least value the slot may take), so the kept
    entries are counted as the slots are filled.
    """
    level = [((), 1, 0)]
    prev = 0
    for top in row:
        level = [
            (acc + (v,), v + 1 if v == top else top, kept + (v == top or v == prev))
            for acc, lo, kept in level
            for v in range(lo, top + 1)
        ]
        prev = top
    k = len(row)
    return [
        (acc + (v,), k - kept - (v == prev))
        for acc, lo, kept in level
        for v in range(lo, n + 1)
    ]


def mt_refined_tables(n: int, x) -> Tuple[EnumTable, ...]:
    """Weighted refined counts of every order 1..n, from one pass.

    Level k holds each strictly increasing row of length k with the
    weight of all triangles above it; level 0 is the empty row at
    weight 1, so level 1 is the rows (r,), each at weight 1.  A step
    down pushes powers[dropped] * w into every interlacing extension,
    the drop count read from one table of the powers of x.  Order m is
    read at level m-1 from the row 1..m without r, before that level is
    extended.
    """
    if n < 1 or n > MT_LIMIT:
        raise OutOfRange(f"n must lie in 1..{MT_LIMIT}")
    # an integral weight stays an int, so its counts are ints too
    p, q = _rational(x).as_integer_ratio()
    x = p if q == 1 else Fraction(p, q)
    powers = [x ** k for k in range(n)]
    level: dict = {(): 1}
    tables = []
    for m in range(1, n + 1):
        full = tuple(range(1, m + 1))
        counts = tuple(level[full[:r] + full[r + 1 :]] for r in range(m))
        tables.append(EnumTable(m, counts))
        if m == n:
            break
        below: dict = {}
        get = below.get
        for row, w in level.items():
            for ext, dropped in _interlacing_extensions(row, n):
                below[ext] = get(ext, 0) + powers[dropped] * w
        level = below
    return tuple(tables)


def mt_refined_enum(n: int, x) -> EnumTable:
    """Weighted refined counts A_n(r; x) by the one-pass triangle oracle."""
    return mt_refined_tables(n, x)[-1]
