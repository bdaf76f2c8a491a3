"""Terminating hypergeometric sums with exact rational parameters.

hyp(upper, lower, z) evaluates sum_{j>=0} [prod_i (a_i)_j / prod_i
(c_i)_j] * z^j / j! only when some upper parameter a_i is a nonpositive
integer, so the sum is finite.  The truncation order is taken from the
most negative such parameter; this makes a clash between a vanishing
upper and a vanishing lower Pochhammer visible instead of silently
resolving the 0/0, and DegenerateParameters is raised for it.  Arguments
may be rational or live in Q(s); results follow the argument.  Rational
function arguments are never pushed through hyp: callers clear
denominators into polynomial arithmetic first, multiplying the
coefficients from series_coeffs, the one term-ratio loop, into their own
polynomial powers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Union

from .errors import DegenerateParameters, OutOfRange
from .qfield import QsElem, _rational

Rational = Union[int, Fraction]
Argument = Union[int, Fraction, QsElem]


def gen_binomial(r: Rational, k: int) -> Fraction:
    """Generalized binomial coefficient with a rational top.

    binom(r, k) = r (r-1) ... (r-k+1) / k! for k >= 0, and 0 for k < 0.
    """
    if k < 0:
        return Fraction(0)
    r = Fraction(_rational(r))
    num = Fraction(1)
    for i in range(k):
        num *= r - i
        num /= i + 1
    return num


def pochhammer(a: Rational, j: int) -> Fraction:
    """Rising factorial (a)_j = a (a+1) ... (a+j-1); empty product is 1."""
    if j < 0:
        raise OutOfRange("length of a rising factorial must be >= 0")
    a = Fraction(_rational(a))
    out = Fraction(1)
    for i in range(j):
        out *= a + i
    return out


def series_coeffs(upper, lower, n: int) -> List[Fraction]:
    """Coefficients c_0..c_n of sum_j [prod (a)_j / (prod (c)_j j!)] z^j.

    Each step multiplies by the term ratio prod (a+j-1) / (j prod (c+j-1)).
    The list stops early once an upper factor vanishes, since every later
    coefficient carries that zero, and is empty for n < 0.  A lower
    factor vanishing at a step whose numerator has not already died at a
    strictly earlier step raises DegenerateParameters; a simultaneous
    first vanishing of numerator and denominator is treated the same way.
    """
    out = [Fraction(1)] if n >= 0 else []
    for j in range(1, n + 1):
        den = j
        for c in lower:
            den *= c + j - 1
        if not den:
            raise DegenerateParameters(
                f"lower Pochhammer factor vanishes at term {j}"
            )
        num = 1
        for a in upper:
            num *= a + j - 1
        if not num:
            break
        out.append(out[-1] * num / den)
    return out


def hyp(upper, lower, argument):
    """Exact value of the terminating series with these parameters.

    Parameters are ints or Fractions.  The sum runs through the order N
    of the most negative nonpositive integer upper parameter -N, and
    ValueError is raised when no upper parameter is one; degenerate
    parameters raise as described in series_coeffs.  The result is a
    Fraction for a rational argument and a QsElem for one in Q(s).
    """
    orders = [-a for a in upper if a.denominator == 1 and a <= 0]
    if not orders:
        raise ValueError("no nonpositive integer upper parameter")
    coeffs = series_coeffs(upper, lower, int(max(orders)))
    total: Argument = coeffs[0]
    power: Argument = Fraction(1)
    for c in coeffs[1:]:
        power = power * argument
        total = total + c * power
    return total
