"""The verify suites as one flat registry of named check blocks.

Each block is a generator of CheckResult over the limits (max_m, max_n)
and compares independent routes to the same objects: closed forms
against known values and against each other, the division routes of the
shift-equation quotients against their Gauss-sum routes, and the DP
oracle against the monotone-triangle oracle.  A block's name is part of
the output: a block that raises is reported as one failed check under
that name, and the blocks after it still run.

BLOCKS lists every block once, with its suite, in output order.  Blocks
reach library code through module attributes (`counts.b_table`,
`tq.phi`, ...), so a monkeypatched or wrapped function is the one called.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, List, Tuple

from . import counts, oracle, tq
from .errors import DegenerateParameters
from .laurent import LaurentPoly
from .report import CheckResult

Block = Callable[[int, int], Iterator[CheckResult]]


# -- closed-forms -------------------------------------------------------


def anchors(max_m: int, max_n: int) -> Iterator[CheckResult]:
    known_plain = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429, 6: 7436, 7: 218348}
    for n, v in known_plain.items():
        yield CheckResult("total_known", f"n={n}", counts.total_asm(n) == v)
    known3 = {1: 1, 2: 2, 3: 9, 4: 90, 5: 2025}
    for n, v in known3.items():
        yield CheckResult("total3_known", f"n={n}", counts.total_asm3(n) == v)
    tables3 = {3: (2, 5, 2), 4: (9, 36, 36, 9), 5: (90, 495, 855, 495, 90)}
    for n, v in tables3.items():
        yield CheckResult(
            "refined3_known", f"n={n}", counts.asm3_table(n).counts == v
        )


def refinement(max_m: int, max_n: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        t = counts.asm_table(n)
        tag = f"n={n}"
        yield CheckResult(
            "refined_sums_to_total", tag, t.total == counts.total_asm(n)
        )
        yield CheckResult("refined_symmetric", tag, t.is_symmetric())
        if n >= 2:
            yield CheckResult(
                "refined_boundary_drops_order",
                tag,
                t.counts[0] == counts.total_asm(n - 1),
            )
    for n in range(2, max_n + 1):
        t3 = counts.asm3_table(n)
        tag = f"n={n}"
        yield CheckResult(
            "refined3_sums_to_total", tag, t3.total == counts.total_asm3(n)
        )
        yield CheckResult("refined3_symmetric", tag, t3.is_symmetric())
        yield CheckResult(
            "refined3_boundary_drops_order",
            tag,
            t3.counts[0] == counts.total_asm3(n - 1),
        )
        ratios = [counts.refined_asm2_ratio(n, r) for r in range(1, n + 1)]
        yield CheckResult("ratio2_sums_to_one", tag, sum(ratios) == 1)


def b_family(max_m: int, max_n: int) -> Iterator[CheckResult]:
    for m in range(max_m + 1):
        bt = counts.b_table(m)
        tag = f"m={m}"
        yield CheckResult("b_reflective", tag, bt == bt[::-1])
        yield CheckResult("b_sums_to_one", tag, sum(bt) == 1)
        yield CheckResult(
            "b_matches_series_route",
            tag,
            all(
                counts.b_coeff_4f3(m, a) == bt[a]
                for a in range(2 * m + 1)
            ),
        )
        yield CheckResult(
            "b_matches_polynomial_route",
            tag,
            tuple(tq.e_poly(m).coeffs) == bt,
        )


def generating_polys(max_m: int, max_n: int) -> Iterator[CheckResult]:
    # built per call, so a monkeypatched tq or counts function is the one called
    families = (
        ("h1", 1, tq.h1_poly, counts.total_asm, counts.refined_asm),
        ("h3", 2, tq.h3_poly, counts.total_asm3, counts.refined_asm3),
    )
    for name, n_min, poly, total, refined in families:
        for n in range(n_min, max_n + 1):
            hp = poly(n)
            count = total(n)
            tag = f"n={n}"
            yield CheckResult(
                f"{name}_matches_refinement",
                tag,
                all(
                    hp.coeff(r - 1) * count == refined(n, r)
                    for r in range(1, n + 1)
                ),
            )
            yield CheckResult(
                f"{name}_reciprocal", tag, hp.reversed_poly(n - 1) == hp
            )
            yield CheckResult(f"{name}_unit_at_one", tag, hp.eval_at(1) == 1)


def recursions(max_m: int, max_n: int) -> Iterator[CheckResult]:
    yield from counts.recurrence_check(max_m)


def scan_fixed(max_m: int, max_n: int) -> Iterator[CheckResult]:
    got_a = counts.concentration_scan([3], Fraction(2, 5))
    got_b = counts.concentration_scan([4], Fraction(3, 10))
    yield CheckResult("scan_small_case", "n=3", got_a == [(3, Fraction(5, 9))])
    yield CheckResult("scan_small_case", "n=4", got_b == [(4, Fraction(4, 5))])


# -- tq-identities ------------------------------------------------------

_TRANSFORM_SAMPLES = (Fraction(2), Fraction(3), Fraction(5, 7))


def shift_equation(max_m: int, max_n: int) -> Iterator[CheckResult]:
    for m in range(max_m + 1):
        h = tq.h_poly(m)
        tag = f"m={m}"
        yield CheckResult("shift_equation_f", tag, tq.tq_check(tq.f_poly(m)))
        yield CheckResult("shift_equation_g", tag, tq.tq_check(tq.g_poly(m)))
        yield CheckResult("shift_equation_h", tag, tq.tq_check(h))
        yield CheckResult("h_vanishes_at_one", tag, h.eval_at(1) == 0)


def differential(max_m: int, max_n: int) -> Iterator[CheckResult]:
    for m in range(max_m + 1):
        yield CheckResult("ode_f", f"m={m}", tq.ode_check_f(m))
        yield CheckResult("ode_h", f"m={m}", tq.ode_check_h(m))


def series_forms(max_m: int, max_n: int) -> Iterator[CheckResult]:
    for m in range(max_m + 1):
        yield CheckResult("series_form_fg", f"m={m}", tq.fg_2f1_check(m))


def relations(max_m: int, max_n: int) -> Iterator[CheckResult]:
    for m in range(max_m + 1):
        yield from tq.gauss_relation_checks(m)


def transforms(max_m: int, max_n: int) -> Iterator[CheckResult]:
    for m in range(max_m + 1):
        yield from tq.transform_checks(m, _TRANSFORM_SAMPLES)


def degeneracy_guards(max_m: int, max_n: int) -> Iterator[CheckResult]:
    def degenerate(fn, *args) -> bool:
        try:
            fn(*args)
        except DegenerateParameters:
            return True
        return False

    yield CheckResult("phi_degenerate_guard", "m=1 k=-1", degenerate(tq.phi, 1, -1))
    yield CheckResult("p_series_route_guard", "m=0", degenerate(tq.p_poly_phi, 0))
    yield CheckResult(
        "p_division_route_at_zero",
        "m=0",
        tq.p_poly(0) == LaurentPoly({1: 1, -1: 1}),
    )


# -- oracle -------------------------------------------------------------


def _horner(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def against_closed_forms(max_m: int, max_n: int) -> Iterator[CheckResult]:
    # one sweep per n at x = 2^B; the weights 1, 3 and 2 are read from
    # the unpacked polynomials
    for n in range(1, min(max_n, oracle.DP_LIMIT) + 1):
        bits = oracle.packing_bits(n)
        polys = [
            oracle.unpack(v, bits)
            for v in oracle.dp_refined_enum(n, 1 << bits).counts
        ]
        t1, t3, t2 = (tuple(_horner(p, x) for p in polys) for x in (1, 3, 2))
        yield CheckResult(
            "dp_matches_refined",
            f"n={n} x=1",
            t1 == counts.asm_table(n).counts,
        )
        yield CheckResult(
            "dp_matches_refined3",
            f"n={n} x=3",
            t3 == counts.asm3_table(n).counts,
        )
        total2 = sum(t2)
        share_ok = all(
            Fraction(t2[r - 1], total2) == counts.refined_asm2_ratio(n, r)
            for r in range(1, n + 1)
        )
        yield CheckResult("dp_matches_ratio2", f"n={n} x=2", share_ok)


def cross(max_m: int, max_n: int) -> Iterator[CheckResult]:
    # the packed integers at x = 2^B are equal exactly when the two
    # polynomials are; only when they differ is each weight swept apart,
    # so that a failure names its weight
    for n in range(1, min(max_n, oracle.MT_LIMIT) + 1):
        packed = 1 << oracle.packing_bits(n)
        same = (
            oracle.dp_refined_enum(n, packed).counts
            == oracle.mt_refined_enum(n, packed).counts
        )
        for x in (1, 2, 3):
            ok = same or (
                oracle.dp_refined_enum(n, x).counts
                == oracle.mt_refined_enum(n, x).counts
            )
            yield CheckResult("oracles_agree", f"n={n} x={x}", ok)


# -- registry -----------------------------------------------------------

BLOCKS: Tuple[Tuple[str, Block], ...] = (
    ("closed-forms", anchors),
    ("closed-forms", refinement),
    ("closed-forms", b_family),
    ("closed-forms", generating_polys),
    ("closed-forms", recursions),
    ("closed-forms", scan_fixed),
    ("tq-identities", shift_equation),
    ("tq-identities", differential),
    ("tq-identities", series_forms),
    ("tq-identities", relations),
    ("tq-identities", transforms),
    ("tq-identities", degeneracy_guards),
    ("oracle", against_closed_forms),
    ("oracle", cross),
)

# the suite names in registry order, then "all" for every block
SUITES = tuple(dict.fromkeys(suite for suite, _ in BLOCKS)) + ("all",)


def run_block(block: Block, max_m: int, max_n: int) -> List[CheckResult]:
    """Results of one block; a block that raises is one failed check.

    The traceback goes to stderr and the message into the result's detail,
    so the remaining blocks still run and report.
    """
    try:
        return list(block(max_m, max_n))
    except Exception as exc:
        import traceback  # only a raising block pays for this import

        traceback.print_exc()
        return [
            CheckResult(
                block.__name__, f"raised {type(exc).__name__}", False, str(exc)
            )
        ]


def run(suite: str, max_m: int, max_n: int) -> List[CheckResult]:
    """Results of every block of one suite (or of "all"), in order."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return [
        r
        for block_suite, block in BLOCKS
        if suite in (block_suite, "all")
        for r in run_block(block, max_m, max_n)
    ]
