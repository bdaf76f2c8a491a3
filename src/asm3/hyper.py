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

The term loops run on integers: each parameter p/q is read once as its
integer pair, the running term of series_coeffs is an integer numerator
and denominator reduced once per coefficient, gen_binomial and
pochhammer are integer products with one Fraction at the end, and hyp
sums its terms over one common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod
from typing import List, Union

from .errors import DegenerateParameters, OutOfRange
from .qfield import _rational

Rational = Union[int, Fraction]


def _ratio(v) -> tuple:
    # (p, q) with v = p/q, q > 0, for an int or a Fraction; anything else
    # raises TypeError, since a float's as_integer_ratio is its binary value
    return _rational(v).as_integer_ratio()


def gen_binomial(r: Rational, k: int) -> Fraction:
    """Generalized binomial coefficient with a rational top.

    binom(r, k) = r (r-1) ... (r-k+1) / k! for k >= 0, and 0 for k < 0.
    """
    if k < 0:
        return Fraction(0)
    p, q = _ratio(r)
    num = 1
    for i in range(k):
        num *= p - i * q
    return Fraction(num, q ** k * factorial(k))


def pochhammer(a: Rational, j: int) -> Fraction:
    """Rising factorial (a)_j = a (a+1) ... (a+j-1); empty product is 1."""
    if j < 0:
        raise OutOfRange("length of a rising factorial must be >= 0")
    p, q = _ratio(a)
    num = 1
    for i in range(j):
        num *= p + i * q
    return Fraction(num, q ** j)


def series_coeffs(upper, lower, n: int) -> List[Fraction]:
    """Coefficients c_0..c_n of sum_j [prod (a)_j / (prod (c)_j j!)] z^j.

    Each step multiplies by the term ratio prod (a+j-1) / (j prod (c+j-1)).
    The list stops early once an upper factor vanishes, since every later
    coefficient carries that zero, and is empty for n < 0.  A lower
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
    out = [Fraction(1)] if n >= 0 else []
    num = den = 1
    for i in range(n):  # i = j - 1
        step_den = i + 1
        for p, q in lows:
            step_den *= p + i * q
        if not step_den:
            raise DegenerateParameters(
                f"lower Pochhammer factor vanishes at term {i + 1}"
            )
        step_num = 1
        for p, q in ups:
            step_num *= p + i * q
        if not step_num:
            break
        c = Fraction(num * step_num * low_q, den * step_den * up_q)
        out.append(c)
        num, den = c.numerator, c.denominator
    return out


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
    coeffs = series_coeffs(upper, lower, int(max(orders)))
    # sum_j c_j (u/v)^j = sum_j c_j den u^j v^(n-j) / (den v^n), by Horner in u
    den = lcm(*(c.denominator for c in coeffs))
    total = 0
    v_pow = 1
    for c in reversed(coeffs):
        total = total * u + c.numerator * (den // c.denominator) * v_pow
        v_pow *= v
    return Fraction(total, den * v ** (len(coeffs) - 1))
