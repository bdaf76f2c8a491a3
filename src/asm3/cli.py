"""Command line interface.

Three subcommands: `table` prints a refined enumeration table, `verify`
runs the identity and cross-check suites with one PASS/FAIL line per
item, and `scan` reports the exact central mass of the refined
3-enumeration distribution.  Output is byte-deterministic; JSON
serializes every integer as a decimal string so magnitude never costs
precision.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from . import counts, oracle, tq
from .errors import OutOfRange, SizeLimitExceeded
from .report import CheckResult

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+|\.\d+)?$")

# no a..b range may take one --n argument past this many sizes; the check
# comes before the range is expanded, so a huge range costs no memory
MAX_N_VALUES = 1000

# the largest verify limits whose `verify --suite all` ran within 60 s on a
# 2-CPU VM (Python 3.11.7), each with the other limit at its default:
# max-m 48 took 47 s (50 took 49-62 s), max-n 170 took 52-54 s (180: 64 s)
MAX_VERIFY_M = 48
MAX_VERIFY_N = 170


def parse_rational(text: str) -> Fraction:
    """Accept p/q or a decimal literal with at most 18 fractional digits."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    if "." in text:
        frac_digits = len(text.split(".", 1)[1])
        if frac_digits > 18:
            raise ValueError("more than 18 fractional digits")
    return Fraction(text)


def parse_n_values(text: str) -> List[int]:
    """Accept comma-separated entries, each an integer or a..b range."""
    out: List[int] = []
    for item in text.split(","):
        item = item.strip()
        if ".." in item:
            lo_s, hi_s = item.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError(f"empty range {item!r}")
            if len(out) + hi - lo + 1 > MAX_N_VALUES:
                raise ValueError(f"more than {MAX_N_VALUES} sizes")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(item))
    if not out:
        raise ValueError("no sizes given")
    return out


def decimal_string(fr: Fraction, digits: int = 12) -> str:
    """Fixed-point decimal rendering of an exact rational, half-up."""
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    scale = 10 ** digits
    q, rem = divmod(fr.numerator * scale, fr.denominator)
    if 2 * rem >= fr.denominator:
        q += 1
    whole, part = divmod(q, scale)
    return f"{sign}{whole}.{part:0{digits}d}"


@dataclass
class RunConfig:
    command: str
    n_values: List[int] = field(default_factory=list)
    weight_x: Fraction = Fraction(1)
    epsilon: Fraction = Fraction(1, 10)
    suite: str = "all"
    max_m: int = 8
    max_n: int = 6
    fmt: str = "csv"


# -- table --------------------------------------------------------------


def _table_rows(cfg: RunConfig) -> List[Tuple[int, int, str]]:
    rows = []
    for n in cfg.n_values:
        if cfg.weight_x == 1 or cfg.weight_x == 3:
            table = counts.closed_form_table(n, cfg.weight_x)
        else:
            table = oracle.dp_refined_enum(n, cfg.weight_x)
        for r, value in enumerate(table.counts, start=1):
            rows.append((n, r, str(value)))
    return rows


def cmd_table(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    rows = _table_rows(cfg)
    if cfg.fmt == "json":
        doc = {
            "command": "table",
            "params": {
                "n": [str(n) for n in cfg.n_values],
                "x": str(cfg.weight_x),
            },
            "results": [
                {"n": str(n), "r": str(r), "value": v} for n, r, v in rows
            ],
        }
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        out.write("n,r,value\n")
        for n, r, v in rows:
            out.write(f"{n},{r},{v}\n")
    return 0


# -- verify -------------------------------------------------------------


def _closed_form_items(cfg: RunConfig) -> List[Callable[[], List[CheckResult]]]:
    max_n = cfg.max_n
    max_m = cfg.max_m

    def anchors() -> List[CheckResult]:
        known_plain = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429, 6: 7436, 7: 218348}
        out = [
            CheckResult(
                "total_known", f"n={n}", counts.total_asm(n) == v
            )
            for n, v in known_plain.items()
        ]
        known3 = {1: 1, 2: 2, 3: 9, 4: 90, 5: 2025}
        out += [
            CheckResult(
                "total3_known", f"n={n}", counts.total_asm3(n) == v
            )
            for n, v in known3.items()
        ]
        tables3 = {
            3: (2, 5, 2),
            4: (9, 36, 36, 9),
            5: (90, 495, 855, 495, 90),
        }
        out += [
            CheckResult(
                "refined3_known",
                f"n={n}",
                counts.asm3_table(n).counts == v,
            )
            for n, v in tables3.items()
        ]
        return out

    def refinement() -> List[CheckResult]:
        out = []
        for n in range(1, max_n + 1):
            t = counts.asm_table(n)
            out.append(
                CheckResult(
                    "refined_sums_to_total",
                    f"n={n}",
                    t.total == counts.total_asm(n),
                )
            )
            out.append(CheckResult("refined_symmetric", f"n={n}", t.is_symmetric()))
            if n >= 2:
                out.append(
                    CheckResult(
                        "refined_boundary_drops_order",
                        f"n={n}",
                        t.counts[0] == counts.total_asm(n - 1),
                    )
                )
        for n in range(2, max_n + 1):
            t3 = counts.asm3_table(n)
            out.append(
                CheckResult(
                    "refined3_sums_to_total",
                    f"n={n}",
                    t3.total == counts.total_asm3(n),
                )
            )
            out.append(
                CheckResult("refined3_symmetric", f"n={n}", t3.is_symmetric())
            )
            out.append(
                CheckResult(
                    "refined3_boundary_drops_order",
                    f"n={n}",
                    t3.counts[0] == counts.total_asm3(n - 1),
                )
            )
            ratios = [
                counts.refined_asm2_ratio(n, r) for r in range(1, n + 1)
            ]
            out.append(
                CheckResult("ratio2_sums_to_one", f"n={n}", sum(ratios) == 1)
            )
        return out

    def b_family() -> List[CheckResult]:
        out = []
        for m in range(max_m + 1):
            bt = counts.b_table(m)
            out.append(
                CheckResult(
                    "b_reflective",
                    f"m={m}",
                    bt.values == bt.values[::-1],
                )
            )
            out.append(
                CheckResult("b_sums_to_one", f"m={m}", sum(bt.values) == 1)
            )
            out.append(
                CheckResult(
                    "b_matches_series_route",
                    f"m={m}",
                    all(
                        counts.b_coeff_4f3(m, a) == bt.values[a]
                        for a in range(2 * m + 1)
                    ),
                )
            )
            out.append(
                CheckResult(
                    "b_matches_polynomial_route",
                    f"m={m}",
                    tuple(tq.e_poly(m).coeffs) == bt.values,
                )
            )
        return out

    def generating_polys() -> List[CheckResult]:
        out = []
        for n in range(1, max_n + 1):
            hp = counts.h1_poly(n)
            total = counts.total_asm(n)
            out.append(
                CheckResult(
                    "h1_matches_refinement",
                    f"n={n}",
                    all(
                        hp.coeff(r - 1) * total == counts.refined_asm(n, r)
                        for r in range(1, n + 1)
                    ),
                )
            )
            out.append(
                CheckResult(
                    "h1_reciprocal",
                    f"n={n}",
                    hp.reversed_poly(n - 1) == hp,
                )
            )
            out.append(
                CheckResult("h1_unit_at_one", f"n={n}", hp.eval_at(1) == 1)
            )
        for n in range(2, max_n + 1):
            hp3 = counts.h3_poly(n)
            total3 = counts.total_asm3(n)
            out.append(
                CheckResult(
                    "h3_matches_refinement",
                    f"n={n}",
                    all(
                        hp3.coeff(r - 1) * total3 == counts.refined_asm3(n, r)
                        for r in range(1, n + 1)
                    ),
                )
            )
            out.append(
                CheckResult(
                    "h3_reciprocal", f"n={n}", hp3.reversed_poly(n - 1) == hp3
                )
            )
            out.append(
                CheckResult("h3_unit_at_one", f"n={n}", hp3.eval_at(1) == 1)
            )
        return out

    def recursions() -> List[CheckResult]:
        return counts.recurrence_check(max_m)

    def scan_fixed() -> List[CheckResult]:
        got_a = counts.concentration_scan([3], Fraction(2, 5))
        got_b = counts.concentration_scan([4], Fraction(3, 10))
        return [
            CheckResult(
                "scan_small_case", "n=3", got_a == [(3, Fraction(5, 9))]
            ),
            CheckResult(
                "scan_small_case", "n=4", got_b == [(4, Fraction(4, 5))]
            ),
        ]

    return [anchors, refinement, b_family, generating_polys, recursions, scan_fixed]


def _tq_items(cfg: RunConfig) -> List[Callable[[], List[CheckResult]]]:
    max_m = cfg.max_m
    samples = (Fraction(2), Fraction(3), Fraction(5, 7))

    def shift_equation() -> List[CheckResult]:
        out = []
        for m in range(max_m + 1):
            fam = tq.tq_family(m)
            out.append(
                CheckResult("shift_equation_f", f"m={m}", tq.tq_check(fam.f))
            )
            out.append(
                CheckResult("shift_equation_g", f"m={m}", tq.tq_check(fam.g))
            )
            out.append(
                CheckResult("shift_equation_h", f"m={m}", tq.tq_check(fam.h))
            )
            out.append(
                CheckResult(
                    "h_vanishes_at_one", f"m={m}", fam.h.eval_at(1) == 0
                )
            )
        return out

    def differential() -> List[CheckResult]:
        out = []
        for m in range(max_m + 1):
            out.append(CheckResult("ode_f", f"m={m}", tq.ode_check_f(m)))
            out.append(CheckResult("ode_h", f"m={m}", tq.ode_check_h(m)))
        return out

    def series_forms() -> List[CheckResult]:
        return [
            CheckResult("series_form_fg", f"m={m}", tq.fg_2f1_check(m))
            for m in range(max_m + 1)
        ]

    def relations() -> List[CheckResult]:
        out = []
        for m in range(max_m + 1):
            out.extend(tq.gauss_relation_checks(m))
        return out

    def transforms() -> List[CheckResult]:
        out = []
        for m in range(min(max_m, 10) + 1):
            out.extend(tq.transform_checks(m, samples))
        return out

    def degeneracy_guards() -> List[CheckResult]:
        from .errors import DegenerateParameters
        from .laurent import LaurentPoly

        try:
            tq.phi(1, -1)
            raised = False
        except DegenerateParameters:
            raised = True
        out = [CheckResult("phi_degenerate_guard", "m=1 k=-1", raised)]
        try:
            tq.p_poly_phi(0)
            raised = False
        except DegenerateParameters:
            raised = True
        out.append(CheckResult("p_series_route_guard", "m=0", raised))
        out.append(
            CheckResult(
                "p_division_route_at_zero",
                "m=0",
                tq.p_poly(0) == LaurentPoly({1: 1, -1: 1}),
            )
        )
        return out

    return [shift_equation, differential, series_forms, relations, transforms, degeneracy_guards]


def _oracle_items(cfg: RunConfig) -> List[Callable[[], List[CheckResult]]]:
    dp_n = min(cfg.max_n, oracle.DP_LIMIT)
    mt_n = min(cfg.max_n, oracle.MT_LIMIT)

    def against_closed_forms() -> List[CheckResult]:
        out = []
        for n in range(1, dp_n + 1):
            t1 = oracle.dp_refined_enum(n, 1)
            out.append(
                CheckResult(
                    "dp_matches_refined",
                    f"n={n} x=1",
                    t1.counts == counts.asm_table(n).counts,
                )
            )
            t3 = oracle.dp_refined_enum(n, 3)
            out.append(
                CheckResult(
                    "dp_matches_refined3",
                    f"n={n} x=3",
                    t3.counts == counts.asm3_table(n).counts,
                )
            )
            t2 = oracle.dp_refined_enum(n, 2)
            share_ok = all(
                Fraction(t2.counts[r - 1], t2.total)
                == counts.refined_asm2_ratio(n, r)
                for r in range(1, n + 1)
            )
            out.append(CheckResult("dp_matches_ratio2", f"n={n} x=2", share_ok))
        return out

    def cross() -> List[CheckResult]:
        out = []
        for n in range(1, mt_n + 1):
            for x in (1, 2, 3):
                out.append(
                    CheckResult(
                        "oracles_agree",
                        f"n={n} x={x}",
                        oracle.oracle_cross_check(n, x),
                    )
                )
        return out

    return [against_closed_forms, cross]


def _suite_items(cfg: RunConfig) -> List[Callable[[], List[CheckResult]]]:
    items: List[Callable[[], List[CheckResult]]] = []
    if cfg.suite in ("closed-forms", "all"):
        items.extend(_closed_form_items(cfg))
    if cfg.suite in ("tq-identities", "all"):
        items.extend(_tq_items(cfg))
    if cfg.suite in ("oracle", "all"):
        items.extend(_oracle_items(cfg))
    return items


def _run_block(block: Callable[[], List[CheckResult]]) -> List[CheckResult]:
    """Results of one suite block; a block that raises is one failed check.

    The traceback goes to stderr and the message into the result's detail,
    so the remaining blocks still run and report.
    """
    try:
        return block()
    except Exception as exc:
        traceback.print_exc()
        return [
            CheckResult(
                block.__name__, f"raised {type(exc).__name__}", False, str(exc)
            )
        ]


def cmd_verify(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    results = [r for item in _suite_items(cfg) for r in _run_block(item)]
    for r in results:
        if not r.passed and r.detail:
            print(f"FAIL,{r.name},{r.params}: {r.detail}", file=sys.stderr)
    if cfg.fmt == "json":
        doc = {
            "command": "verify",
            "params": {
                "suite": cfg.suite,
                "max_m": str(cfg.max_m),
                "max_n": str(cfg.max_n),
            },
            "results": [
                {"name": r.name, "params": r.params, "passed": r.passed}
                for r in results
            ],
        }
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            out.write(f"{status},{r.name},{r.params}\n")
    n_fail = sum(1 for r in results if not r.passed)
    out.write(
        f"# {len(results) - n_fail}/{len(results)} checks passed\n"
        if cfg.fmt != "json"
        else ""
    )
    return 0 if n_fail == 0 else 1


# -- scan ---------------------------------------------------------------


def cmd_scan(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    masses = counts.concentration_scan(cfg.n_values, cfg.epsilon)
    if cfg.fmt == "json":
        doc = {
            "command": "scan",
            "params": {
                "epsilon": str(cfg.epsilon),
                "n": [str(n) for n in sorted(set(cfg.n_values))],
            },
            "results": [
                {
                    "n": str(n),
                    "mass_exact": str(mass),
                    "mass_decimal": decimal_string(mass),
                }
                for n, mass in masses
            ],
        }
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        out.write("n,epsilon,mass_exact,mass_decimal\n")
        for n, mass in masses:
            out.write(
                f"{n},{cfg.epsilon},{mass},{decimal_string(mass)}\n"
            )
    return 0


# -- wiring -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asm3",
        description=(
            "Exact refined enumeration of alternating sign matrices with "
            "weighted -1 entries, plus identity verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a refined count table")
    p_table.add_argument(
        "--n", required=True, help="sizes: an integer, a..b, or a comma list"
    )
    p_table.add_argument(
        "--x", default="1", help="weight per -1 entry (p/q or decimal)"
    )
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--suite",
        choices=("closed-forms", "tq-identities", "oracle", "all"),
        default="all",
    )
    p_verify.add_argument("--max-m", type=int, default=8)
    p_verify.add_argument("--max-n", type=int, default=6)
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")

    p_scan = sub.add_parser("scan", help="central mass of the 3-enumeration")
    p_scan.add_argument(
        "--n", required=True, help="sizes: an integer, a..b, or a comma list"
    )
    p_scan.add_argument("--epsilon", default="1/10", help="half-width, in (0, 1/2)")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.fmt = args.format
    if args.command == "table":
        cfg.n_values = parse_n_values(args.n)
        cfg.weight_x = parse_rational(args.x)
        if any(n < 1 for n in cfg.n_values):
            raise ValueError("sizes must be >= 1")
        if cfg.weight_x not in (1, 3) and max(cfg.n_values) > oracle.DP_LIMIT:
            raise ValueError(
                f"sizes above {oracle.DP_LIMIT} need x = 1 or x = 3"
            )
    elif args.command == "verify":
        cfg.suite = args.suite
        cfg.max_m = args.max_m
        cfg.max_n = args.max_n
        if cfg.max_m < 0 or cfg.max_n < 1:
            raise ValueError("limits must be sensible: max-m >= 0, max-n >= 1")
        if cfg.max_m > MAX_VERIFY_M or cfg.max_n > MAX_VERIFY_N:
            raise ValueError(
                f"limits too large: max-m <= {MAX_VERIFY_M}, "
                f"max-n <= {MAX_VERIFY_N}"
            )
    elif args.command == "scan":
        cfg.n_values = parse_n_values(args.n)
        cfg.epsilon = parse_rational(args.epsilon)
        if not 0 < cfg.epsilon < Fraction(1, 2):
            raise ValueError("epsilon must lie strictly between 0 and 1/2")
        if any(n < 2 for n in cfg.n_values):
            raise ValueError("scan sizes must be >= 2")
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if cfg.command == "table":
            return cmd_table(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        if cfg.command == "scan":
            return cmd_scan(cfg)
    except (OutOfRange, SizeLimitExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
