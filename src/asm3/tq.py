"""Polynomial solutions of the three-term shift equation and their algebra.

The central functional equation is

    y(x) + y(w*x) + y(x/w) = 0,      w = q**2 the primitive cube root,

whose odd Laurent solutions come in two adjacent families f_poly and
g_poly with explicit generalized-binomial coefficients.  Dividing out
forced root factors produces symmetric quotients q_poly, p_poly and
v_poly; v_poly carries a palindromic even companion e_poly in the count
variable t, from which h3_poly, the generating polynomial of the refined
3-enumeration, is glued; h1_poly is that of the unweighted refinement.
Each quotient has at least two independent construction routes
(polynomial division versus a finite Gauss-type sum over the symmetric
kernels q/x - x/q and q*x - 1/(q*x)), and the route comparisons plus the
contiguous three-term relations are the artifact's working correctness
argument, so none of them may be collapsed into a single code path.

All arithmetic is exact over Q or Q(s).  The family builders are
memoized; polynomials are immutable so sharing cached instances is safe.
This route module imports only the shared modules, never counts or
oracle, which verify compares it with.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .densepoly import DensePoly
from .errors import OutOfRange, PoleAtSample
from .hyper import gen_binomial, pochhammer, series_coeffs
from .laurent import LaurentPoly
from .qfield import OMEGA, OMEGA_BAR, Q, QBAR, S, QsElem, _rational
from .report import CheckResult

THIRD = Fraction(1, 3)

# q/x - x/q and q*x - 1/(q*x): the two symmetric kernels every finite
# sum below is written in
_SMALL = LaurentPoly({-1: Q, 1: -QBAR})
_BIG = LaurentPoly({1: Q, -1: -QBAR})

# x^3 - x^-3, x^3 + x^-3 and x^3 + 2 + x^-3: the cleared trigonometric
# factors of the differential equations and the contiguous relations; then
# the root factors of the quotients and the coefficients of their routes
_ODD3 = LaurentPoly({3: 1, -3: -1})
_EVEN3 = LaurentPoly({3: 1, -3: 1})
_EVEN3_SHIFT = LaurentPoly({3: 1, 0: 2, -3: 1})
_ODD1 = LaurentPoly({1: 1, -1: -1})
_EVEN1_SHIFT = LaurentPoly({1: 1, 0: 2, -1: 1})
_EVEN1_MINUS1 = LaurentPoly({1: 1, 0: -1, -1: 1})
_EVEN1_MINUS2 = LaurentPoly({1: 1, 0: -2, -1: 1})
_EVEN1 = LaurentPoly({1: 1, -1: 1})
_EVEN2_PLUS1 = LaurentPoly({2: 1, 0: 1, -2: 1})


@lru_cache(maxsize=None)
def _odd_kernel_pow(n: int) -> LaurentPoly:
    """(x - 1/x) ** n."""
    if n == 0:
        return LaurentPoly.one()
    return _odd_kernel_pow(n - 1) * _ODD1


@lru_cache(maxsize=None)
def _kernel_terms(m: int) -> tuple:
    """small^(m-j) * big^j for j = 0..m, in m + 1 products from order m - 1."""
    if m == 0:
        return (LaurentPoly.one(),)
    prev = _kernel_terms(m - 1)
    return tuple(t * _SMALL for t in prev) + (prev[-1] * _BIG,)


def c_norm(m: int) -> Fraction:
    """Normalization making the combined family h_poly vanish at x = 1."""
    return Fraction(
        (3 * m + 1) * 3 ** (m + 1) * factorial(m) * factorial(2 * m + 2),
        factorial(3 * m + 3),
    )


def _odd_family(m: int, r: int) -> LaurentPoly:
    """Odd solution with support in +-(3m+r-6k), k = 0..m, for r = 1 or 2.

    No two of the exponents +-e coincide, since each e is r mod 3.
    """
    if m < 0:
        raise OutOfRange("family index must be >= 0")
    third = Fraction(r, 3)
    coeffs: dict = {}
    for k in range(m + 1):
        c = gen_binomial(m + third, k) * gen_binomial(m - third, m - k)
        e = 3 * m + r - 6 * k
        coeffs[e] = c
        coeffs[-e] = -c
    return LaurentPoly(coeffs)


@lru_cache(maxsize=None)
def f_poly(m: int) -> LaurentPoly:
    """Odd solution with support in +-(3m+1-6k), k = 0..m."""
    return _odd_family(m, 1)


@lru_cache(maxsize=None)
def g_poly(m: int) -> LaurentPoly:
    """Adjacent odd solution with support in +-(3m+2-6k), k = 0..m."""
    return _odd_family(m, 2)


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
        raise OutOfRange("order must be >= 0")
    total = LaurentPoly()
    coeffs = series_coeffs((-m, k + 1), (-m - k,), m)
    for term, c in zip(_kernel_terms(m), coeffs):
        total = total + term * c
    return total * S ** (-m)


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
    ker = _odd_kernel_pow(2 * m + 1) * _EVEN1_SHIFT
    return h_poly(m).divide_exact(ker)


def v_poly_q(m: int) -> LaurentPoly:
    """Route through the adjacent pair q_poly(m), q_poly(m+1)."""
    lead = c_norm(m) * Fraction(3 * m + 2, 2 * (3 * m + 1))
    inner = _EVEN1_MINUS1 * _EVEN1_MINUS1 * q_poly(m)
    inner = inner - _EVEN1_MINUS2 * q_poly(m + 1) * Fraction(3 * m + 3, 3 * m + 2)
    return inner * lead


def v_poly_phi(m: int) -> LaurentPoly:
    """Gauss-sum route; the m = 0 case simply drops the second term."""
    pref = Fraction(
        factorial(2 * m) * factorial(2 * m + 2),
        factorial(m + 1) * factorial(3 * m + 2),
    )
    acc = phi(m, m + 1) * (2 * m + 1)
    if m >= 1:
        acc = acc - _EVEN1_MINUS1 * phi(m - 1, m + 1) * m
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
        raise OutOfRange("index must be >= 0")
    quad = DensePoly((0, 2, 1))  # t(t+2), the denominator of the argument
    lin = DensePoly((1, 2))
    quad_pow = [DensePoly((1,))]
    lin_pow = [DensePoly((1,))]
    for _ in range(m):
        quad_pow.append(quad_pow[-1] * quad)
        lin_pow.append(lin_pow[-1] * lin)

    first = DensePoly()
    for j, c in enumerate(series_coeffs((-m, m + 2), (-2 * m - 1,), m)):
        first = first + lin_pow[j] * quad_pow[m - j] * c

    # each term of the second sum has one factor t more than (t(t+2))^(m-1-j)
    second = DensePoly()
    for j, c in enumerate(series_coeffs((1 - m, m + 2), (-2 * m,), m - 1)):
        second = second + lin_pow[j] * quad_pow[m - 1 - j] * c
    second = second * DensePoly((0, 1))

    pref = Fraction(
        factorial(2 * m) * factorial(2 * m + 2),
        3 ** m * factorial(m + 1) * factorial(3 * m + 2),
    )
    return (first * (2 * m + 1) - second * (3 * m)) * pref


@lru_cache(maxsize=None)
def h1_poly(n: int) -> DensePoly:
    """Generating polynomial of the unweighted refinement.

    Degree n-1 in t, coefficient r-1 equals refined_asm(n, r)/total_asm(n);
    reciprocal and equal to 1 at t = 1.
    """
    if n < 1:
        raise OutOfRange("n must be >= 1")
    pref = Fraction(
        factorial(2 * n - 1) * factorial(2 * n - 2),
        factorial(3 * n - 2) * factorial(n - 1),
    )
    return DensePoly(
        [pref * c for c in series_coeffs((1 - n, n), (2 - 2 * n,), n - 1)]
    )


def h3_poly(n: int) -> DensePoly:
    """Generating polynomial of the 3-enumeration refinement.

    Built by gluing a degree-2 prefactor onto the palindromic companion
    polynomial of half order; reciprocal and equal to 1 at t = 1.
    """
    if n < 2:
        raise OutOfRange("n must be >= 2")
    if n % 2 == 0:
        m = (n - 2) // 2
        glue = DensePoly((Fraction(1, 2), Fraction(1, 2)))
    else:
        m = (n - 3) // 2
        glue = DensePoly((Fraction(2, 9), Fraction(5, 9), Fraction(2, 9)))
    return glue * e_poly(m)


# -- checks -------------------------------------------------------------


def _euler_residue_vanishes(p: LaurentPoly, mid: LaurentPoly, const) -> bool:
    """True when (x^3 - x^-3)(D^2 p + const p) - mid D p = 0, D = x d/dx."""
    d1 = p.euler_d()
    return (_ODD3 * (d1.euler_d() + p * const) - mid * d1).is_zero


def ode_check_f(m: int) -> bool:
    """Second-order differential equation for f_m, in Euler-operator form.

    With D = x d/dx the angular equation becomes, after clearing the
    trigonometric denominators into x^3 - 1/x^3,

        (x^3 - x^-3) D^2 f - 6m (x^3 + x^-3) D f
            + (3m+1)(3m-1)(x^3 - x^-3) f = 0.
    """
    return _euler_residue_vanishes(
        f_poly(m), _EVEN3 * (6 * m), (3 * m + 1) * (3 * m - 1)
    )


def ode_check_h(m: int) -> bool:
    """Differential equation for h_m in the same cleared form:

        (x^3 - x^-3) D^2 h - 3 [(2m+1)(x^3 + x^-3) - 2] D h
            + (3m+1)(3m+2)(x^3 - x^-3) h = 0.
    """
    mid = (_EVEN3 * (2 * m + 1) - 2) * 3
    return _euler_residue_vanishes(h_poly(m), mid, (3 * m + 1) * (3 * m + 2))


def _odd_series(upper, lower, top: int, m: int) -> LaurentPoly:
    """s(x) - s(1/x) for s = sum_j r_j x^(top - 6j), r_j the series coefficients."""
    coeffs = series_coeffs(upper, lower, m)
    s = LaurentPoly({top - 6 * j: c for j, c in enumerate(coeffs)})
    return s - s.invert_x()


def fg_2f1_check(m: int) -> bool:
    """Compare f_poly and g_poly with their one-sided series forms.

    Each family equals a prefactor times s(x) - s(1/x), for a series s
    in x^-6 hung on the top exponent (with the sign flipped for f); the
    prefactors reduce to Pochhammer ratios (1/3)_m / m! and (4/3)_m / m!.
    """
    four_thirds = Fraction(4, 3)
    pf = pochhammer(four_thirds, m) / factorial(m)
    f_ref = _odd_series((Fraction(-m), -m + THIRD), (four_thirds,), 3 * m - 1, m)
    pg = pochhammer(THIRD, m) / factorial(m)
    g_ref = _odd_series((Fraction(-m), -m - 2 * THIRD), (THIRD,), 3 * m + 2, m)
    return f_ref * -pf == f_poly(m) and g_ref * pg == g_poly(m)


def _pair(m: int, a, x_m: LaurentPoly, b, x_next: LaurentPoly) -> LaurentPoly:
    """a X_m (3m+2)/(2(3m+1)) - b X_{m+1} (3m+3)/(2(3m+1)), the contiguous pair."""
    half = Fraction(1, 2 * (3 * m + 1))
    return a * x_m * ((3 * m + 2) * half) - b * x_next * ((3 * m + 3) * half)


def gauss_relation_checks(m: int) -> list:
    """Contiguous relations and route agreements at one index.

    Covers the expressions of g, h, p, v through adjacent families, the
    agreement of all alternative construction routes, and the three-term
    recursions of phi in its order and in its shift.  Relations that
    would consume a negative index are skipped at m = 0.
    """
    if m < 0:
        raise OutOfRange("index must be >= 0")
    out = []
    tag = f"m={m}"
    rhs = _pair(m, _EVEN3, f_poly(m), 1, f_poly(m + 1))
    out.append(CheckResult("g_from_f_pair", tag, g_poly(m) == rhs))
    rhs = _pair(m, _EVEN3_SHIFT, f_poly(m), 1, f_poly(m + 1)) * c_norm(m)
    out.append(CheckResult("h_from_f_pair", tag, h_poly(m) == rhs))
    rhs = _pair(m, _EVEN3, q_poly(m), _odd_kernel_pow(2), q_poly(m + 1))
    out.append(CheckResult("p_from_q_pair", tag, p_poly(m) == rhs))

    out.append(CheckResult("v_from_q_pair", tag, v_poly(m) == v_poly_q(m)))
    out.append(CheckResult("q_routes_agree", tag, q_poly(m) == q_poly_phi(m)))
    if m >= 1:
        out.append(CheckResult("p_routes_agree", tag, p_poly(m) == p_poly_phi(m)))
    out.append(CheckResult("v_routes_agree", tag, v_poly(m) == v_poly_phi(m)))

    for k in range(m + 1):
        ktag = f"m={m} k={k}"
        if m >= 1:
            coeff = Fraction(m * (m + 2 * k + 1), 3 * (m + k + 1) * (m + k))
            rhs = _EVEN1 * phi(m, k) - _EVEN2_PLUS1 * phi(m - 1, k) * coeff
            out.append(CheckResult("phi_step_order", ktag, phi(m + 1, k) == rhs))
        rhs = phi(m, k) * Fraction(m + 2 * k + 2, 2 * (m + k + 1))
        if m >= 1:
            rhs = rhs + _EVEN1 * phi(m - 1, k + 1) * Fraction(m, 2 * (m + k + 1))
        out.append(CheckResult("phi_step_shift", ktag, phi(m, k + 1) == rhs))
    return out


def transform_checks(m: int, sample_xs) -> list:
    """Spot checks of the two variable changes at rational samples.

    (a) The count variable t = -(x - q)/(q x - 1) links e_poly and
        v_poly through E(t) = t^-m e_poly(t) = v_poly(x)/(x - 1 + 1/x)^m.
    (b) With t = (q/x - x/q)/(q x - 1/(q x)), the refined-count
        generating polynomial of order n = m + 1 is proportional to
        q_poly(m)/(q x - 1/(q x))^(n-1); the constant is fixed at the
        first sample and must hold at every sample.
    """
    xs = [_rational(x0) for x0 in sample_xs]
    out = []
    e = e_poly(m)
    v = v_poly(m)
    # q is not real, so at a rational x != 0 none of q*x - 1, x - q and
    # q*x - qbar/x vanishes: only x = 0 is a pole of the maps below
    for x0 in xs:
        if not x0:
            raise PoleAtSample("sample x = 0")
        xq = QsElem(x0)
        t = -(xq - Q) / (Q * xq - 1)
        lhs = e.eval_at(t) * t ** (-m) * (xq - 1 + xq.inverse()) ** m
        rhs = v.eval_at(x0)
        out.append(
            CheckResult("weight_map_even_family", f"m={m} x={x0}", lhs == rhs)
        )

    n = m + 1
    hp = h1_poly(n)
    qp = q_poly(m)
    const = None
    for x0 in xs:
        xq = QsElem(x0)
        big = Q * xq - QBAR * xq.inverse()
        t = (Q * xq.inverse() - QBAR * xq) / big
        lhs = hp.eval_at(t) * big ** (n - 1)
        rhs = qp.eval_at(x0)
        if const is None:
            if not rhs:
                raise PoleAtSample(f"first solution vanishes at x = {x0}")
            const = lhs / rhs
        out.append(
            CheckResult(
                "gen_fn_vs_first_solution", f"n={n} x={x0}", lhs == rhs * const
            )
        )
    return out
