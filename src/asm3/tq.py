"""Polynomial solutions of the three-term shift equation and their algebra.

The central functional equation is

    y(x) + y(w*x) + y(x/w) = 0,      w = q**2 the primitive cube root,

whose odd Laurent solutions come in two adjacent families f_poly and
g_poly with explicit generalized-binomial coefficients.  Dividing out
forced root factors produces symmetric quotients q_poly, p_poly and
v_poly; v_poly carries a palindromic even companion e_poly in the count
variable t.  Each quotient has at least two independent construction
routes (polynomial division versus a finite Gauss-type sum over the
symmetric kernels q/x - x/q and q*x - 1/(q*x)), and the route
comparisons plus the contiguous three-term relations are the artifact's
working correctness argument, so none of them may be collapsed into a
single code path.

All arithmetic is exact over Q or Q(s).  The family builders are
memoized; polynomials are immutable so sharing cached instances is safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .densepoly import DensePoly
from .errors import PoleAtSample
from .hyper import gen_binomial, pochhammer, series_coeffs
from .laurent import LaurentPoly
from .qfield import OMEGA, OMEGA_BAR, Q, QBAR, S, QsElem
from .report import CheckResult

THIRD = Fraction(1, 3)

# q/x - x/q and q*x - 1/(q*x): the two symmetric kernels every finite
# sum below is written in
_SMALL = LaurentPoly({-1: Q, 1: -QBAR})
_BIG = LaurentPoly({1: Q, -1: -QBAR})


@lru_cache(maxsize=None)
def _odd_kernel_pow(n: int) -> LaurentPoly:
    """(x - 1/x) ** n."""
    return LaurentPoly({1: 1, -1: -1}) ** n


@lru_cache(maxsize=None)
def _kernel_pows(n: int) -> tuple:
    """(small ** n, big ** n) for the two symmetric kernels."""
    if n == 0:
        return LaurentPoly.one(), LaurentPoly.one()
    small, big = _kernel_pows(n - 1)
    return small * _SMALL, big * _BIG


def c_norm(m: int) -> Fraction:
    """Normalization making the combined family h_poly vanish at x = 1."""
    return Fraction(
        (3 * m + 1) * 3 ** (m + 1) * factorial(m) * factorial(2 * m + 2),
        factorial(3 * m + 3),
    )


@lru_cache(maxsize=None)
def f_poly(m: int) -> LaurentPoly:
    """Odd solution with support in +-(3m+1-6k), k = 0..m."""
    if m < 0:
        raise ValueError("family index must be >= 0")
    coeffs: dict = {}
    for k in range(m + 1):
        c = gen_binomial(m + THIRD, k) * gen_binomial(m - THIRD, m - k)
        e = 3 * m + 1 - 6 * k
        coeffs[e] = coeffs.get(e, 0) + c
        coeffs[-e] = coeffs.get(-e, 0) - c
    return LaurentPoly(coeffs)


@lru_cache(maxsize=None)
def g_poly(m: int) -> LaurentPoly:
    """Adjacent odd solution with support in +-(3m+2-6k), k = 0..m."""
    if m < 0:
        raise ValueError("family index must be >= 0")
    two_thirds = Fraction(2, 3)
    coeffs: dict = {}
    for k in range(m + 1):
        c = gen_binomial(m + two_thirds, k) * gen_binomial(m - two_thirds, m - k)
        e = 3 * m + 2 - 6 * k
        coeffs[e] = coeffs.get(e, 0) + c
        coeffs[-e] = coeffs.get(-e, 0) - c
    return LaurentPoly(coeffs)


@lru_cache(maxsize=None)
def h_poly(m: int) -> LaurentPoly:
    """Combined solution c_norm(m) * (g_m + (3m+2)/(3m+1) * f_m).

    Vanishes at x = 1 because it factors through (x - 1/x)^(2m+1) times
    (x + 2 + 1/x); see v_poly.
    """
    return (g_poly(m) + f_poly(m) * Fraction(3 * m + 2, 3 * m + 1)) * c_norm(m)


def tq_check(p: LaurentPoly) -> bool:
    """True when p solves the three-term shift equation."""
    return (p + p.substitute_scale(OMEGA) + p.substitute_scale(OMEGA_BAR)).is_zero


@lru_cache(maxsize=None)
def phi(m: int, k: int) -> LaurentPoly:
    """Finite Gauss-type sum over the two symmetric kernels.

    The sum is invariant under x -> 1/x, has purely rational
    coefficients, and is a degree-m polynomial in x + 1/x.  It is built
    from the cleared form: the j-th term carries the coefficient
    (-m)_j (k+1)_j / ((-m-k)_j j!) on small^(m-j) * big^j, all divided
    by s^m.  A vanishing (-m-k)_j factor with a numerator that has not
    already died raises DegenerateParameters; the smallest such case is
    phi(1, -1).
    """
    if m < 0:
        raise ValueError("order must be >= 0")
    total = LaurentPoly()
    for j, c in enumerate(series_coeffs((-m, k + 1), (-m - k,), m)):
        total = total + _kernel_pows(m - j)[0] * _kernel_pows(j)[1] * c
    return total * S ** (-m)


class TqFamily(NamedTuple):
    """The three solution families of one index, with the normalization."""

    m: int
    f: LaurentPoly
    g: LaurentPoly
    h: LaurentPoly
    c: Fraction


def tq_family(m: int) -> TqFamily:
    return TqFamily(m, f_poly(m), g_poly(m), h_poly(m), c_norm(m))


# -- symmetric quotients, each with its independent routes --------------


@lru_cache(maxsize=None)
def q_poly(m: int) -> LaurentPoly:
    """Symmetric quotient f_m / (x - 1/x)^(2m+1); division route."""
    return f_poly(m).divide_exact(_odd_kernel_pow(2 * m + 1))


def q_poly_phi(m: int) -> LaurentPoly:
    """Gauss-sum route to the same quotient."""
    pref = Fraction(factorial(2 * m), 3 ** m * factorial(m) ** 2)
    return phi(m, m) * pref


@lru_cache(maxsize=None)
def p_poly(m: int) -> LaurentPoly:
    """Symmetric quotient g_m / (x - 1/x)^(2m+1); division route.

    Its index as a solution family is m + 1.
    """
    return g_poly(m).divide_exact(_odd_kernel_pow(2 * m + 1))


def p_poly_phi(m: int) -> LaurentPoly:
    """Gauss-sum route; degenerate at m = 0, where phi(1, -1) appears."""
    pref = Fraction(factorial(2 * m), 3 ** m * factorial(m) * factorial(m + 1))
    combo = phi(m + 1, m - 1) * (3 * m + 2) - phi(m + 1, m) * (2 * m + 1)
    return combo * pref


@lru_cache(maxsize=None)
def v_poly(m: int) -> LaurentPoly:
    """Quotient h_m / ((x - 1/x)^(2m+1) (x + 2 + 1/x)); division route.

    Normalized so that the value at x = 1 is 1.
    """
    ker = _odd_kernel_pow(2 * m + 1) * LaurentPoly({1: 1, 0: 2, -1: 1})
    return h_poly(m).divide_exact(ker)


def v_poly_q(m: int) -> LaurentPoly:
    """Route through the adjacent pair q_poly(m), q_poly(m+1)."""
    w = LaurentPoly({1: 1, 0: -1, -1: 1})
    neg = LaurentPoly({1: 1, 0: -2, -1: 1})
    lead = c_norm(m) * Fraction(3 * m + 2, 2 * (3 * m + 1))
    inner = w * w * q_poly(m) - neg * q_poly(m + 1) * Fraction(
        3 * m + 3, 3 * m + 2
    )
    return inner * lead


def v_poly_phi(m: int) -> LaurentPoly:
    """Gauss-sum route; the m = 0 case simply drops the second term."""
    pref = Fraction(
        factorial(2 * m) * factorial(2 * m + 2),
        factorial(m + 1) * factorial(3 * m + 2),
    )
    acc = phi(m, m + 1) * (2 * m + 1)
    if m >= 1:
        w = LaurentPoly({1: 1, 0: -1, -1: 1})
        acc = acc - w * phi(m - 1, m + 1) * m
    return acc * pref


@lru_cache(maxsize=None)
def e_poly(m: int) -> DensePoly:
    """Palindromic companion of v_poly in the count variable t.

    Degree 2m, value 1 at t = 1.  Built from the cleared form of a pair
    of terminating series in the combined argument (1+2t)/(t(t+2)): the
    rational-function argument is expanded into polynomial arithmetic
    rather than evaluated.
    """
    if m < 0:
        raise ValueError("index must be >= 0")
    t = DensePoly((0, 1))
    t_plus_2 = DensePoly((2, 1))
    lin = DensePoly((1, 2))
    t_pow = [DensePoly((1,))]
    t2_pow = [DensePoly((1,))]
    lin_pow = [DensePoly((1,))]
    for _ in range(m):
        t_pow.append(t_pow[-1] * t)
        t2_pow.append(t2_pow[-1] * t_plus_2)
        lin_pow.append(lin_pow[-1] * lin)

    first = DensePoly()
    for j, c in enumerate(series_coeffs((-m, m + 2), (-2 * m - 1,), m)):
        first = first + lin_pow[j] * t_pow[m - j] * t2_pow[m - j] * c

    second = DensePoly()
    for j, c in enumerate(series_coeffs((1 - m, m + 2), (-2 * m,), m - 1)):
        second = second + lin_pow[j] * t_pow[m - j] * t2_pow[m - 1 - j] * c

    pref = Fraction(
        factorial(2 * m) * factorial(2 * m + 2),
        3 ** m * factorial(m + 1) * factorial(3 * m + 2),
    )
    return (first * (2 * m + 1) - second * (3 * m)) * pref


# -- checks -------------------------------------------------------------


def ode_check_f(m: int) -> bool:
    """Second-order differential equation for f_m, in Euler-operator form.

    With D = x d/dx the angular equation becomes, after clearing the
    trigonometric denominators into x^3 - 1/x^3,

        (x^3 - x^-3) D^2 f - 6m (x^3 + x^-3) D f
            + (3m+1)(3m-1)(x^3 - x^-3) f = 0.
    """
    f = f_poly(m)
    d1 = f.euler_d()
    d2 = d1.euler_d()
    odd3 = LaurentPoly({3: 1, -3: -1})
    even3 = LaurentPoly({3: 1, -3: 1})
    lhs = odd3 * d2 - even3 * d1 * (6 * m) + odd3 * f * ((3 * m + 1) * (3 * m - 1))
    return lhs.is_zero


def ode_check_h(m: int) -> bool:
    """Differential equation for h_m in the same cleared form:

        (x^3 - x^-3) D^2 h - 3 [(2m+1)(x^3 + x^-3) - 2] D h
            + (3m+1)(3m+2)(x^3 - x^-3) h = 0.
    """
    h = h_poly(m)
    d1 = h.euler_d()
    d2 = d1.euler_d()
    odd3 = LaurentPoly({3: 1, -3: -1})
    mid = LaurentPoly({3: 2 * m + 1, 0: -2, -3: 2 * m + 1})
    lhs = odd3 * d2 - mid * d1 * 3 + odd3 * h * ((3 * m + 1) * (3 * m + 2))
    return lhs.is_zero


def _one_sided_series(upper, lower, base_exp: int, step: int, n_terms: int):
    """sum_j r_j x^(base_exp + step*j) with r_j the series coefficients."""
    coeffs = series_coeffs(upper, lower, n_terms)
    return LaurentPoly({base_exp + step * j: c for j, c in enumerate(coeffs)})


def fg_2f1_check(m: int) -> bool:
    """Compare f_poly and g_poly with their one-sided series forms.

    Each family equals a prefactor times the difference of two series in
    x^6 and x^-6 hung on boundary exponents; the prefactors reduce to
    Pochhammer ratios (1/3)_m / m! and (4/3)_m / m!.
    """
    four_thirds = Fraction(4, 3)
    pf = pochhammer(four_thirds, m) / factorial(m)
    up_f = (Fraction(-m), -m + THIRD)
    low_f = (four_thirds,)
    f_ref = (
        _one_sided_series(up_f, low_f, -3 * m + 1, 6, m)
        - _one_sided_series(up_f, low_f, 3 * m - 1, -6, m)
    ) * pf

    pg = pochhammer(THIRD, m) / factorial(m)
    up_g = (Fraction(-m), -m - 2 * THIRD)
    low_g = (THIRD,)
    g_ref = (
        _one_sided_series(up_g, low_g, 3 * m + 2, -6, m)
        - _one_sided_series(up_g, low_g, -3 * m - 2, 6, m)
    ) * pg

    return f_ref == f_poly(m) and g_ref == g_poly(m)


def gauss_relation_checks(m: int) -> list:
    """Contiguous relations and route agreements at one index.

    Covers the expressions of g, h, p, v through adjacent families, the
    agreement of all alternative construction routes, and the three-term
    recursions of phi in its order and in its shift.  Relations that
    would consume a negative index are skipped at m = 0.
    """
    if m < 0:
        raise ValueError("index must be >= 0")
    out = []
    tag = f"m={m}"
    even3 = LaurentPoly({3: 1, -3: 1})
    even3_shift = LaurentPoly({3: 1, 0: 2, -3: 1})
    half = Fraction(1, 2 * (3 * m + 1))

    rhs = even3 * f_poly(m) * ((3 * m + 2) * half) - f_poly(m + 1) * (
        3 * (m + 1) * half
    )
    out.append(CheckResult("g_from_f_pair", tag, g_poly(m) == rhs))

    rhs = (
        even3_shift * f_poly(m) * ((3 * m + 2) * half)
        - f_poly(m + 1) * ((3 * m + 3) * half)
    ) * c_norm(m)
    out.append(CheckResult("h_from_f_pair", tag, h_poly(m) == rhs))

    ker2 = _odd_kernel_pow(2)
    rhs = even3 * q_poly(m) * ((3 * m + 2) * half) - ker2 * q_poly(m + 1) * (
        3 * (m + 1) * half
    )
    out.append(CheckResult("p_from_q_pair", tag, p_poly(m) == rhs))

    out.append(CheckResult("v_from_q_pair", tag, v_poly(m) == v_poly_q(m)))
    out.append(CheckResult("q_routes_agree", tag, q_poly(m) == q_poly_phi(m)))
    if m >= 1:
        out.append(CheckResult("p_routes_agree", tag, p_poly(m) == p_poly_phi(m)))
    out.append(CheckResult("v_routes_agree", tag, v_poly(m) == v_poly_phi(m)))

    u = LaurentPoly({1: 1, -1: 1})
    sq = LaurentPoly({2: 1, 0: 1, -2: 1})
    for k in range(m + 1):
        ktag = f"m={m} k={k}"
        if m >= 1:
            coeff = Fraction(m * (m + 2 * k + 1), 3 * (m + k + 1) * (m + k))
            rhs = u * phi(m, k) - sq * phi(m - 1, k) * coeff
            out.append(CheckResult("phi_step_order", ktag, phi(m + 1, k) == rhs))
        rhs = phi(m, k) * Fraction(m + 2 * k + 2, 2 * (m + k + 1))
        if m >= 1:
            rhs = rhs + u * phi(m - 1, k + 1) * Fraction(m, 2 * (m + k + 1))
        out.append(CheckResult("phi_step_shift", ktag, phi(m, k + 1) == rhs))
    return out


def transform_checks(m: int, sample_xs) -> list:
    """Spot checks of the two variable changes at rational samples.

    (a) The count variable t = -(x - q)/(q x - 1) links e_poly and
        v_poly through E(t) = t^-m e_poly(t) = v_poly(x)/(x - 1 + 1/x)^m.
    (b) With t = (q/x - x/q)/(q x - 1/(q x)), the refined-count
        generating polynomial of order n = m + 1 is proportional to
        q_poly(m)/(q x - 1/(q x))^(n-1); the constant is fixed at the
        first sample and must persist at the rest.
    """
    from .counts import h1_poly  # deferred: counts builds on e_poly

    out = []
    e = e_poly(m)
    v = v_poly(m)
    for x0 in sample_xs:
        x0 = Fraction(x0)
        if not x0:
            raise PoleAtSample("sample x = 0")
        xq = QsElem(x0)
        den = Q * xq - 1
        if not den:
            raise PoleAtSample(f"q*x - 1 vanishes at x = {x0}")
        t = -(xq - Q) / den
        if not t:
            raise PoleAtSample(f"count variable vanishes at x = {x0}")
        lhs = e.eval_at(t) * t ** (-m) * (xq - 1 + xq.inverse()) ** m
        rhs = v.eval_at(x0)
        out.append(
            CheckResult("weight_map_even_family", f"m={m} x={x0}", lhs == rhs)
        )

    n = m + 1
    hp = h1_poly(n)
    qp = q_poly(m)
    const = None
    for x0 in sample_xs:
        x0 = Fraction(x0)
        if not x0:
            raise PoleAtSample("sample x = 0")
        xq = QsElem(x0)
        big = Q * xq - QBAR * xq.inverse()
        if not big:
            raise PoleAtSample(f"symmetric kernel vanishes at x = {x0}")
        t = (Q * xq.inverse() - QBAR * xq) / big
        lhs = hp.eval_at(t) * big ** (n - 1)
        rhs = qp.eval_at(x0)
        if const is None:
            if not rhs:
                raise PoleAtSample(f"first solution vanishes at x = {x0}")
            const = lhs / rhs
            out.append(
                CheckResult(
                    "gen_fn_vs_first_solution",
                    f"n={n} x={x0}",
                    True,
                    "sets the constant",
                )
            )
        else:
            out.append(
                CheckResult(
                    "gen_fn_vs_first_solution",
                    f"n={n} x={x0}",
                    lhs == rhs * const,
                )
            )
    return out
