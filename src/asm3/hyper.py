"""Terminating hypergeometric sums with exact rational parameters.

hyp(upper, lower, z) evaluates sum_{j>=0} [prod_i (a_i)_j / prod_i
(c_i)_j] * z^j / j! only when some upper parameter a_i is a nonpositive
integer, so the sum is finite.  The truncation order is taken from the
most negative such parameter; this makes a clash between a vanishing
upper and a vanishing lower Pochhammer visible instead of silently
resolving the 0/0, and DegenerateParameters is raised for it.  Every
parameter and the argument is an int or a Fraction, and anything else,
a float included, raises TypeError.  Arguments in Q(s) or rational
functions are never pushed through hyp: callers take the coefficients
from series_coeffs, the one term-ratio loop, and use them as they are,
in integer Horner rules (e_poly), as exponent-recurrence seeds (phi) or
as the coefficients of a polynomial (h1_poly and the series forms of
f_poly and g_poly).

The term loops run on integers.  Each parameter p/q is read once as its
integer pair.  series_coeffs returns its coefficients as integers over
one denominator, (nums, den) with c_j = nums[j]/den, den > 0 and
gcd(den, *nums) = 1, from one gcd over the whole vector; its callers
and hyp work on that pair directly, with no Fraction per term.  hyp
sums the series at z = u/v as densepoly.horner(nums, u, v), the
homogeneous integer Horner rule, over den v^n.  pochhammer is an
integer product with one Fraction at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import List, Tuple, Union

from .densepoly import horner
from .errors import DegenerateParameters, OutOfRange
from .qfield import _rational

Rational = Union[int, Fraction]


def _ratio(v) -> tuple:
    # (p, q) with v = p/q, q > 0, for an int or a Fraction; anything else
    # raises TypeError, since a float's as_integer_ratio is its binary value
    return _rational(v).as_integer_ratio()


def pochhammer(a: Rational, j: int) -> Fraction:
    """Rising factorial (a)_j = a (a+1) ... (a+j-1); empty product is 1."""
    if j < 0:
        raise OutOfRange("length of a rising factorial must be >= 0")
    p, q = _ratio(a)
    num = 1
    for i in range(j):
        num *= p + i * q
    return Fraction(num, q ** j)


def series_coeffs(upper, lower, n: int) -> Tuple[List[int], int]:
    """Coefficients c_0..c_n of sum_j [prod (a)_j / (prod (c)_j j!)] z^j.

    Returns (nums, den) with c_j = nums[j]/den, den > 0 and gcd(den,
    *nums) = 1, so den is the least common denominator of the c_j.  Each
    step multiplies by the term ratio prod (a+j-1) / (j prod (c+j-1)).
    The list stops early once an upper factor vanishes, since every later
    coefficient carries that zero, and is ([], 1) for n < 0.  A lower
    factor vanishing at a step whose numerator has not already died at a
    strictly earlier step raises DegenerateParameters; a simultaneous
    first vanishing of numerator and denominator is treated the same way.
    """
    # with a = p/q, the factor a+j-1 is (p + (j-1)q)/q: the integer
    # factors go into the step and the q's into one constant per side
    ups = [_ratio(a) for a in upper]
    lows = [_ratio(c) for c in lower]
    up_q = prod(q for _, q in ups)
    low_q = prod(q for _, q in lows)
    # c_j = nums[j] / (steps[0] ... steps[j-1]), nums the running product
    # of the step numerators
    nums = [1] if n >= 0 else []
    steps = []
    for i in range(n):  # i = j - 1
        step_den = (i + 1) * up_q
        for p, q in lows:
            step_den *= p + i * q
        if not step_den:
            raise DegenerateParameters(
                f"lower Pochhammer factor vanishes at term {i + 1}"
            )
        step_num = low_q
        for p, q in ups:
            step_num *= p + i * q
        if not step_num:
            break
        nums.append(nums[-1] * step_num)
        steps.append(step_den)
    # over den, the product of every step, c_j is nums[j] times the steps
    # after j, which a backward pass accumulates; c_0 = 1 is den itself
    den = 1
    for j in range(len(steps), 0, -1):
        nums[j] *= den
        den *= steps[j - 1]
    if nums:
        nums[0] = den
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    return [v // g for v in nums], den // g


def hyp(upper, lower, argument: Rational) -> Fraction:
    """Exact value of the terminating series with these parameters.

    Parameters and the argument are ints or Fractions; one of any other
    type, a float or a QsElem included, raises TypeError.  The sum runs
    through the order N of the most negative nonpositive integer upper
    parameter -N, and ValueError is raised when no upper parameter is
    one; degenerate parameters raise as described in series_coeffs.
    """
    u, v = _ratio(argument)
    orders = [-a for a in map(_rational, upper) if a.denominator == 1 and a <= 0]
    if not orders:
        raise ValueError("no nonpositive integer upper parameter")
    nums, den = series_coeffs(upper, lower, int(max(orders)))
    # sum_j (nums_j/den) (u/v)^j = sum_j nums_j u^j v^(n-j) / (den v^n)
    return Fraction(horner(nums, u, v), den * v ** (len(nums) - 1))
