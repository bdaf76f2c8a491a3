"""Polynomial solutions of the three-term shift equation and their algebra.

The central functional equation is

    y(x) + y(w*x) + y(x/w) = 0,      w = q**2 the primitive cube root,

whose odd Laurent solutions come in two adjacent families f_poly and
g_poly with explicit generalized-binomial coefficients, built as integer
falling products over one denominator.  Dividing out forced root factors
produces symmetric quotients q_poly, p_poly and v_poly; v_poly carries a
palindromic even companion e_poly in the count variable t, from which
h3_poly, the generating polynomial of the refined 3-enumeration, is
glued; h1_poly is that of the unweighted refinement.  Each quotient has
at least two independent construction routes: polynomial division, in
LaurentPoly arithmetic, versus phi, the finite Gauss-type sum over the
symmetric kernels q/x - x/q and q*x - 1/(q*x), whose coefficients phi
builds by an integer recurrence in the exponent from two seeds read off
the sum, with no polynomial arithmetic.  The route comparisons plus the
contiguous three-term relations are the artifact's working correctness
argument, so none of them may be collapsed into a single code path.
Every check line that is not a route comparison (the contiguous pairs,
the two steps of phi, the two differential equations and the series
forms of f and g) is one integer residue: laurent.vanishes sums c * M * P
over polynomials the builders have already made and tests that sum for
zero without building it.  No route builder calls it, and each route
comparison stays an == of two built polynomials.

All arithmetic is exact.  Every polynomial here is a LaurentPoly or a
DensePoly over Q; Q(s) enters only through the pairs of points of Q(s)
at which transform_checks evaluates its coefficient tuples by the
homogeneous densepoly.horner, so nothing divides in Q(s).  The factors
1 + w^k + w^-k of the shift equation are 3 or 0 by k mod 3, so
tq_check reads them as integers.  The series builders (phi, e_poly,
h1_poly and the series forms of f_poly and g_poly) take
hyper.series_coeffs as its integer numerators over one denominator and
stay in integers up to the constructor of their result.
A builder keeps a cache only where a later verify block reads the same
order again: f_poly, g_poly, q_poly, v_poly and e_poly (read 2 to 9
times per order) and phi (bounded to the orders one relation block
reads).  h_poly, p_poly, h1_poly and the kernel powers (x - 1/x)^n are
cheap to rebuild or read once per call, so they are not cached.
Polynomials are immutable, so sharing cached instances is safe.  This
route module imports only the shared modules, never counts or oracle,
which verify compares it with.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from . import laurent
from .densepoly import DensePoly, horner
from .errors import OutOfRange, PoleAtSample
from .hyper import pochhammer, series_coeffs
from .laurent import LaurentPoly
from .qfield import Q, QBAR, S
from .report import CheckResult

THIRD = Fraction(1, 3)

# x^3 - x^-3, x^3 + x^-3 and x^3 + 2 + x^-3: the cleared trigonometric
# factors of the differential equations and the contiguous relations; then
# the root factors of the quotients and the coefficients of their routes
_ODD3 = LaurentPoly({3: 1, -3: -1})
_EVEN3 = LaurentPoly({3: 1, -3: 1})
_EVEN3_SHIFT = LaurentPoly({3: 1, 0: 2, -3: 1})
_EVEN1_SHIFT = LaurentPoly({1: 1, 0: 2, -1: 1})
_EVEN1_MINUS1 = LaurentPoly({1: 1, 0: -1, -1: 1})
_EVEN1_MINUS2 = LaurentPoly({1: 1, 0: -2, -1: 1})
_EVEN1 = LaurentPoly({1: 1, -1: 1})
_EVEN2_PLUS1 = LaurentPoly({2: 1, 0: 1, -2: 1})
_ONE = LaurentPoly.one()


def _odd_kernel_pow(n: int) -> LaurentPoly:
    """(x - 1/x) ** n, by the binomial theorem."""
    return LaurentPoly({n - 2 * k: (-1) ** k * comb(n, k) for k in range(n + 1)})


def c_norm(m: int) -> Fraction:
    """Normalization making the combined family h_poly vanish at x = 1."""
    return Fraction(
        (3 * m + 1) * 3 ** (m + 1) * factorial(m) * factorial(2 * m + 2),
        factorial(3 * m + 3),
    )


def _odd_family(m: int, r: int) -> LaurentPoly:
    """Odd solution with support in +-(3m+r-6k), k = 0..m, for r = 1 or 2.

    The coefficient at x^(3m+r-6k) is binom(m + r/3, k) binom(m - r/3,
    m - k) = P_k Q_(m-k) C(m, k) / (3^m m!), with P_k and Q_k the falling
    products of 3m+r-3i and 3m-r-3i over i < k.  No two of the exponents
    +-e coincide, since each e is r mod 3.
    """
    if m < 0:
        raise OutOfRange("family index must be >= 0")
    up, down = [1], [1]
    for i in range(m):
        up.append(up[-1] * (3 * m + r - 3 * i))
        down.append(down[-1] * (3 * m - r - 3 * i))
    lane = {}
    for k in range(m + 1):
        c = up[k] * down[m - k] * comb(m, k)
        e = 3 * m + r - 6 * k
        lane[e] = c
        lane[-e] = -c
    return LaurentPoly.from_lane(lane, 3 ** m * factorial(m))


@lru_cache(maxsize=None)
def f_poly(m: int) -> LaurentPoly:
    """Odd solution with support in +-(3m+1-6k), k = 0..m."""
    return _odd_family(m, 1)


@lru_cache(maxsize=None)
def g_poly(m: int) -> LaurentPoly:
    """Adjacent odd solution with support in +-(3m+2-6k), k = 0..m."""
    return _odd_family(m, 2)


def h_poly(m: int) -> LaurentPoly:
    """Combined solution c_norm(m) * (g_m + (3m+2)/(3m+1) * f_m).

    Vanishes at x = 1 because it factors through (x - 1/x)^(2m+1) times
    (x + 2 + 1/x); see v_poly.
    """
    return (g_poly(m) + f_poly(m) * Fraction(3 * m + 2, 3 * m + 1)) * c_norm(m)


def tq_check(p: LaurentPoly) -> bool:
    """True when p solves the three-term shift equation.

    The x^k coefficient of p(x) + p(w*x) + p(x/w) is p_k (1 + w^k + w^-k),
    and since w^3 = 1 that factor is 3 when 3 divides k and 0 otherwise;
    so p solves it exactly when no exponent in its support is a multiple
    of 3.
    """
    return all(k % 3 for k in p.support)


# gauss_relation_checks(m) reads phi at orders m - 1, m and m + 1 with
# shifts up to m + 1, about 3m + 6 entries: 256 hold those of every order
# up to cli.MAX_VERIFY_M = 64, so an ascending run never rebuilds one
@lru_cache(maxsize=256)
def phi(m: int, k: int) -> LaurentPoly:
    """Finite Gauss-type sum over the two symmetric kernels, by a recurrence.

    The paper's sum is s^-m sum_j t_j small^(m-j) big^j, with small =
    q/x - x/q, big = q*x - 1/(q*x) and t_j = (-m)_j (k+1)_j / ((-m-k)_j j!).
    It is invariant under x -> 1/x, has rational coefficients, and is
    sum_j c_j x^(2j-m) for j = 0..m.  The seeds c_0 and c_1 are that sum
    read at x^-m and x^(2-m): there small^(m-j) big^j is q^(m+j) and
    -(m-j) q^(m+j-2) + j q^(m+j+2), with q^6 = 1, so no Q(s) arithmetic
    is needed.  Every later coefficient follows from

        (j+2)(j+3) c_(j+3) = a (j+2) c_(j+2) + a (j-m+1) c_(j+1)
                             + (j-m)(j-m+1) c_j,      a = m + 3k + 2,

    run without division on the integers N_j = c_j j! D, with
    D = 2d (-3)^(m//2).  series_coeffs gives the t_j as n_j/d, d their
    least common denominator, and the c_j reach the polynomial as one
    integer lane N_j m!/j! over D m!.  The recurrence was guessed and is
    checked, not proved, as counts._t_row is: it equals the Gauss sum for
    every m <= 65 and 0 <= k <= m + 2, all the phi that verify reads;
    the ROADMAP plans its proof.  A vanishing (-m-k)_j factor with a
    numerator that has not already died raises DegenerateParameters; the
    smallest such case is phi(1, -1).
    """
    if m < 0:
        raise OutOfRange("order must be >= 0")
    n, d = series_coeffs((-m, k + 1), (-m - k,), m)
    # 2 q^e = A[e % 6] + B[e % 6] s; s^-m keeps the A part for even m and
    # the B part for odd m
    lane = (2, 1, -1, -2, -1, 1) if m % 2 == 0 else (0, 1, 1, 0, -1, -1)
    n0 = sum(v * lane[(m + j) % 6] for j, v in enumerate(n))
    n1 = -sum(
        v * ((m - j) * lane[(m + j - 2) % 6] + j * lane[(m + j + 2) % 6])
        for j, v in enumerate(n)
    )
    a = m + 3 * k + 2
    seq = [0, n0, n1]  # N_-1, N_0, N_1
    for j in range(-1, m - 2):
        seq.append(
            a * seq[-1]
            + a * (j - m + 1) * seq[-2]
            + (j + 1) * (j - m) * (j - m + 1) * seq[-3]
        )
    # c_j = N_j (m!/j!) / (D m!), with m!/j! built from the top
    coeffs = {}
    scale = 1
    for j in range(m, -1, -1):
        coeffs[2 * j - m] = seq[j + 1] * scale
        scale *= j or 1
    return LaurentPoly.from_lane(coeffs, 2 * d * (-3) ** (m // 2) * scale)


# -- symmetric quotients, each with its independent routes --------------


@lru_cache(maxsize=None)
def q_poly(m: int) -> LaurentPoly:
    """Symmetric quotient f_m / (x - 1/x)^(2m+1); division route."""
    return f_poly(m).divide_exact(_odd_kernel_pow(2 * m + 1))


def q_poly_phi(m: int) -> LaurentPoly:
    """Gauss-sum route to the same quotient."""
    pref = Fraction(factorial(2 * m), 3 ** m * factorial(m) ** 2)
    return phi(m, m) * pref


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
    of terminating series in the combined argument L/Q, L = 1 + 2t and
    Q = t(t+2): (2m+1) sum_j c_j L^j Q^(m-j) - 3m t sum_j d_j L^j Q^(m-1-j).
    Both sums run through one integer Horner rule, S_k = Q S_(k-1) +
    (2m+1) c_k L^k - 3m d_(k-1) t L^(k-1), with L^k built one factor at
    a time and the coefficients over one denominator.
    """
    if m < 0:
        raise OutOfRange("index must be >= 0")
    first, d1 = series_coeffs((-m, m + 2), (-2 * m - 1,), m)
    second, d2 = series_coeffs((1 - m, m + 2), (-2 * m,), m - 1)
    den = lcm(d1, d2)
    a = [(2 * m + 1) * (den // d1) * v for v in first]
    b = [-3 * m * (den // d2) * v for v in second]

    acc = [a[0]]  # S_0; integer coefficients, constant term first
    lin_pow = [1]  # L^0
    for k in range(1, m + 1):
        # Q S_(k-1) + t L^(k-1) b_(k-1), then L^k = (1 + 2t) L^(k-1)
        acc = [2 * x + y for x, y in zip([0, *acc, 0], [0, 0, *acc])]
        for i, v in enumerate(lin_pow):
            acc[i + 1] += b[k - 1] * v
        lin_pow = [x + 2 * y for x, y in zip([*lin_pow, 0], [0, *lin_pow])]
        for i, v in enumerate(lin_pow):
            acc[i] += a[k] * v

    top = factorial(2 * m) * factorial(2 * m + 2)
    den *= 3 ** m * factorial(m + 1) * factorial(3 * m + 2)
    return DensePoly(Fraction(top * c, den) for c in acc)


def h1_poly(n: int) -> DensePoly:
    """Generating polynomial of the unweighted refinement.

    Degree n-1 in t, coefficient r-1 equals column r of asm_table(n)
    over total_asm(n); reciprocal and equal to 1 at t = 1.
    """
    if n < 1:
        raise OutOfRange("n must be >= 1")
    nums, den = series_coeffs((1 - n, n), (2 - 2 * n,), n - 1)
    top = factorial(2 * n - 1) * factorial(2 * n - 2)
    den *= factorial(3 * n - 2) * factorial(n - 1)
    return DensePoly(Fraction(top * v, den) for v in nums)


def h3_poly(n: int) -> DensePoly:
    """Generating polynomial of the 3-enumeration refinement.

    Built by gluing a degree-2 prefactor onto the palindromic companion
    polynomial of half order; reciprocal and equal to 1 at t = 1.  The
    glue repeats counts._mix on purpose: the two are independent routes.
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
    return laurent.vanishes(
        (1, _ODD3, d1.euler_d()), (const, _ODD3, p), (-1, mid, d1)
    )


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


def _series_form_holds(family, pref, upper, lower, top: int, m: int) -> bool:
    """family = pref * (s(x) - s(1/x)), as one residue.

    s = sum_j r_j x^(top - 6j), with r_j the series coefficients.
    """
    nums, den = series_coeffs(upper, lower, m)
    s = LaurentPoly.from_lane({top - 6 * j: v for j, v in enumerate(nums)}, den)
    return laurent.vanishes(
        (1, _ONE, family), (-pref, _ONE, s), (pref, _ONE, s.invert_x())
    )


def fg_2f1_check(m: int) -> bool:
    """Compare f_poly and g_poly with their one-sided series forms.

    Each family equals a prefactor times s(x) - s(1/x), for a series s
    in x^-6 hung on the top exponent (with the sign flipped for f); the
    prefactors reduce to Pochhammer ratios (1/3)_m / m! and (4/3)_m / m!.
    """
    four_thirds = Fraction(4, 3)
    pf = pochhammer(four_thirds, m) / factorial(m)
    pg = pochhammer(THIRD, m) / factorial(m)
    return _series_form_holds(
        f_poly(m), -pf, (Fraction(-m), -m + THIRD), (four_thirds,), 3 * m - 1, m
    ) and _series_form_holds(
        g_poly(m), pg, (Fraction(-m), -m - 2 * THIRD), (THIRD,), 3 * m + 2, m
    )


def _pair_holds(m: int, lhs, a, x_m, b, x_next, scale=1) -> bool:
    """True when lhs = scale (a X_m (3m+2) - b X_(m+1) (3m+3)) / (2(3m+1)).

    The contiguous pair, read as one residue cleared of 2(3m+1).
    """
    return laurent.vanishes(
        (2 * (3 * m + 1), _ONE, lhs),
        (-(3 * m + 2) * scale, a, x_m),
        ((3 * m + 3) * scale, b, x_next),
    )


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
    f_m, f_next = f_poly(m), f_poly(m + 1)
    ok = _pair_holds(m, g_poly(m), _EVEN3, f_m, _ONE, f_next)
    out.append(CheckResult("g_from_f_pair", tag, ok))
    ok = _pair_holds(m, h_poly(m), _EVEN3_SHIFT, f_m, _ONE, f_next, c_norm(m))
    out.append(CheckResult("h_from_f_pair", tag, ok))
    p = p_poly(m)
    ok = _pair_holds(m, p, _EVEN3, q_poly(m), _odd_kernel_pow(2), q_poly(m + 1))
    out.append(CheckResult("p_from_q_pair", tag, ok))

    out.append(CheckResult("v_from_q_pair", tag, v_poly(m) == v_poly_q(m)))
    out.append(CheckResult("q_routes_agree", tag, q_poly(m) == q_poly_phi(m)))
    if m >= 1:
        out.append(CheckResult("p_routes_agree", tag, p == p_poly_phi(m)))
    out.append(CheckResult("v_routes_agree", tag, v_poly(m) == v_poly_phi(m)))

    # each step of phi is one residue, cleared of its denominator
    for k in range(m + 1):
        ktag = f"m={m} k={k}"
        if m >= 1:
            den = 3 * (m + k + 1) * (m + k)
            ok = laurent.vanishes(
                (den, _ONE, phi(m + 1, k)),
                (-den, _EVEN1, phi(m, k)),
                (m * (m + 2 * k + 1), _EVEN2_PLUS1, phi(m - 1, k)),
            )
            out.append(CheckResult("phi_step_order", ktag, ok))
        terms = [
            (2 * (m + k + 1), _ONE, phi(m, k + 1)),
            (-(m + 2 * k + 2), _ONE, phi(m, k)),
        ]
        if m >= 1:
            terms.append((-m, _EVEN1, phi(m - 1, k + 1)))
        out.append(CheckResult("phi_step_shift", ktag, laurent.vanishes(*terms)))
    return out


# the rational points transform_checks evaluates both sides at
TRANSFORM_SAMPLES = (Fraction(2), Fraction(3), Fraction(5, 7))


def transform_checks(m: int) -> list:
    """Spot checks of the two variable changes at TRANSFORM_SAMPLES.

    Both are written without division, with q + 1/q = 1.
    (a) The count variable t = N/D, N = q - x and D = q x - 1, links
        e_poly and v_poly through
        t^-m e_poly(t) = v_poly(x)/(x - 1 + 1/x)^m.  Since
        N D = -q x (x - 1 + 1/x) and e_poly has degree 2m, that equation
        times the nonzero (N D)^m is sum_k e_k N^k D^(2m-k) =
        (-q x)^m v_poly(x), which gives the same verdict.
    (b) With t = small/big, small = q/x - x/q and big = q x - 1/(q x), the
        refined-count generating polynomial of order n = m + 1 is
        proportional to q_poly(m)/big^(n-1).  G(x) = h1_poly(t) big^(n-1)
        = sum_r c_r small^r big^(n-1-r) takes the value s^(n-1) sum_r c_r
        at x = 1, where both kernels are s, so the claim is G(x) q_poly(1)
        = G(1) q_poly(x) at each sample: the constant is fixed away from
        the samples and each of their lines can fail.
    """
    out = []
    e = e_poly(m).coeffs
    v = v_poly(m)
    # at a rational x != 0, as every sample is, neither q*x - 1 nor x - q
    # vanishes, since q is not real, nor does x - 1 + 1/x = (x^2 - x + 1)/x
    for x0 in TRANSFORM_SAMPLES:
        lhs = horner(e, Q - x0, Q * x0 - 1)
        rhs = (-Q * x0) ** m * v.eval_at(x0)
        out.append(
            CheckResult("weight_map_even_family", f"m={m} x={x0}", lhs == rhs)
        )

    n = m + 1
    hp = h1_poly(n).coeffs
    qp = q_poly(m)
    q_one = qp.eval_at(1)
    if not q_one:
        raise PoleAtSample("first solution vanishes at x = 1")
    g_one = S ** (n - 1) * sum(hp)
    for x0 in TRANSFORM_SAMPLES:
        x_inv = 1 / x0
        small = Q * x_inv - QBAR * x0
        big = Q * x0 - QBAR * x_inv
        lhs = horner(hp, small, big) * q_one
        out.append(
            CheckResult(
                "gen_fn_vs_first_solution",
                f"n={n} x={x0}",
                lhs == g_one * qp.eval_at(x0),
            )
        )
    return out
