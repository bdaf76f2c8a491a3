"""Terminating hypergeometric sums with exact rational parameters.

A series sum_{j>=0} [prod_i (a_i)_j / prod_i (c_i)_j] * z^j / j! is
evaluated only when some upper parameter a_i is a nonpositive integer,
so the sum is finite.  The truncation order is taken from the most
negative such parameter; this makes a clash between a vanishing upper
and a vanishing lower Pochhammer visible instead of silently resolving
the 0/0, and DegenerateParameters is raised for it.  Arguments may be
rational or live in Q(s); results follow the argument.  Rational
function arguments are never pushed through here, callers clear
denominators into polynomial arithmetic first, multiplying the
coefficients from series_coeffs into their own polynomial powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from .errors import DegenerateParameters
from .qfield import QsElem

Rational = Union[int, Fraction]
Argument = Union[int, Fraction, QsElem]


def gen_binomial(r: Rational, k: int) -> Fraction:
    """Generalized binomial coefficient with a rational top.

    binom(r, k) = r (r-1) ... (r-k+1) / k! for k >= 0, and 0 for k < 0.
    """
    if k < 0:
        return Fraction(0)
    r = Fraction(r)
    num = Fraction(1)
    for i in range(k):
        num *= r - i
        num /= i + 1
    return num


def pochhammer(a: Rational, j: int) -> Fraction:
    """Rising factorial (a)_j = a (a+1) ... (a+j-1); empty product is 1."""
    if j < 0:
        raise ValueError("length of a rising factorial must be >= 0")
    a = Fraction(a)
    out = Fraction(1)
    for i in range(j):
        out *= a + i
    return out


def _is_nonpositive_int(a: Fraction) -> bool:
    return a.denominator == 1 and a <= 0


@dataclass(frozen=True)
class HypSpec:
    """Parameter block of a terminating series."""

    upper: Tuple[Fraction, ...]
    lower: Tuple[Fraction, ...]
    argument: Argument

    @classmethod
    def of(cls, upper, lower, argument) -> "HypSpec":
        up = tuple(Fraction(a) for a in upper)
        low = tuple(Fraction(c) for c in lower)
        if isinstance(argument, int):
            argument = Fraction(argument)
        return cls(up, low, argument)

    @property
    def termination_order(self) -> int:
        witnesses = [-a for a in self.upper if _is_nonpositive_int(a)]
        if not witnesses:
            raise ValueError("no nonpositive integer upper parameter")
        return int(max(witnesses))


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


def hyp_terminating(spec: HypSpec):
    """Exact value of the terminating series described by spec.

    Terms are accumulated through the truncation order N; degenerate
    parameters raise as described in series_coeffs.
    """
    coeffs = series_coeffs(spec.upper, spec.lower, spec.termination_order)
    total: Argument = coeffs[0]
    power: Argument = Fraction(1)
    for c in coeffs[1:]:
        power = power * spec.argument
        total = total + c * power
    return total


def hyp(upper, lower, argument):
    """Convenience wrapper building the HypSpec inline."""
    return hyp_terminating(HypSpec.of(upper, lower, argument))


def chu_vandermonde_check(m: int, b: Rational, c: Rational) -> bool:
    """Check the evaluation at unit argument of a (-m, b; c) series.

    The closed form is (c - b)_m / (c)_m; a vanishing (c)_m surfaces as
    DegenerateParameters from the series itself.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    b = Fraction(b)
    c = Fraction(c)
    lhs = hyp((Fraction(-m), b), (c,), Fraction(1))
    rhs = pochhammer(c - b, m) / pochhammer(c, m)
    return lhs == rhs
