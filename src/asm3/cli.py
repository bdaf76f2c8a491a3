"""Command line interface.

Three subcommands: `table` prints a refined enumeration table, `verify`
runs the identity and cross-check suites of checks.py with one PASS/FAIL
line per check, and `scan` reports the exact central mass of the refined
3-enumeration distribution.  Output is byte-deterministic; JSON
serializes every integer as a decimal string so magnitude never costs
precision.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from itertools import chain
from typing import Iterable, List, Optional, Sequence

from . import checks, counts, oracle

_RATIONAL_RE = re.compile(r"([+-]?)(\d+)(?:/(\d+)|\.(\d+))?")

# the largest numerator or denominator, in lowest terms, of a parsed
# rational: every `table` count at x = p/q with |p|, q <= 10^18 and n up to
# oracle.DP_LIMIT = 16 has under 1,040 digits (measured at seven weights of
# that height), far below the 4300-digit int-to-str limit
MAX_HEIGHT = 10 ** 18

# the longest digit run, without the zeros that do not change its value,
# that a rational within MAX_HEIGHT can need: a decimal whose fractional
# part has k such digits has a denominator of at least 2^k in lowest terms,
# and 2^59 < 10^18 < 2^60.  A longer p/q run is refused even when a common
# factor would bring it within the height.  The cap is checked before any
# int is built, since Python refuses to read an int of over 4300 digits.
# Sizes given to --n are held to the same cap
MAX_DIGITS = MAX_HEIGHT.bit_length() - 1

# no --n argument may list more than this many sizes, counting every
# entry of a comma list and every size of an a..b range; the check comes
# before a range is expanded, so a huge range costs no memory
MAX_N_VALUES = 1000

# wall-time caps on `verify --suite all`, measured on a 2-CPU VM (Python
# 3.11.7) with the other limit at its default.  max-m is the largest
# measured value under 45 s on every run: 64 took 32.8, 27.7 and 32.1 s at
# 54 MB peak RSS, against 20.6, 20.2 and 17.5 s for 56 and 57.2, 39.1 and
# 45.2 s for 72 (68 MB).  max-n 170 took 52, 54, 55.9 and 62.4 s, so it
# does not stay under a minute on every run (180 took 64 s); both caps at
# once took 50.6 s at 96 MB peak RSS in one run.  The VM's speed swings
# from run to run
MAX_VERIFY_M = 64
MAX_VERIFY_N = 170

# the largest table size at each closed-form weight: one size more holds a
# count past Python's default 4300-digit int-to-str limit (Python 3.11.7,
# measured: n = 195 at x = 1 and n = 157 at x = 3 have 4319- and 4303-digit
# counts), which would fail only after the whole table was computed
MAX_TABLE_N = {1: 194, 3: 156}

# the largest scan size whose exact mass prints under that same limit at
# every epsilon: the mass is below 1, and its denominator divides that of
# gcd(T(m, .)) * (2m+1)! m! / (w * 3^m (3m+2)!), with T(m, .) the
# recurrence row and w = 2 or 9 the weight denominator.  That bound has
# 4300 digits at n = 8723 and 4301 at n = 8724; it grows by about 0.49
# digits per size and wobbles by under 20 (computed at every n in
# 8662..8759 and at every 74th n from 2002 up)
MAX_SCAN_N = 8723


def _quote(text: str) -> str:
    # an error quotes a bounded prefix of the rejected text, so its length
    # does not grow with the input
    return repr(text) if len(text) <= 40 else repr(text[:40]) + "..."


class _Parser(argparse.ArgumentParser):
    # argparse echoes a rejected value whole; a message longer than any it
    # writes from this parser's own text keeps only a quoted prefix, and the
    # usage line above it still lists every choice.  Subparsers inherit this
    def error(self, message):
        super().error(message if len(message) <= 120 else _quote(message))


def parse_rational(text: str) -> Fraction:
    """Accept p/q or a decimal literal of height at most MAX_HEIGHT.

    Zeros that do not change the value (leading ones of each digit run,
    trailing ones of a decimal's fractional part) are dropped first, so a
    run longer than MAX_DIGITS is refused before any integer is built.
    """
    match = _RATIONAL_RE.fullmatch(text.strip())
    if not match:
        raise ValueError(f"not a rational literal: {_quote(text)}")
    sign, whole, den, frac = match.groups()
    whole = whole.lstrip("0")
    if den is not None:
        den = den.lstrip("0")
    frac = (frac or "").rstrip("0")
    if max(len(whole), len(den or ""), len(frac)) > MAX_DIGITS:
        raise ValueError(
            f"more than {MAX_DIGITS} significant digits in one digit run: "
            f"numerator and denominator must be at most {MAX_HEIGHT} "
            f"in absolute value"
        )
    if den == "":
        raise ValueError(f"zero denominator: {_quote(text)}")
    value = Fraction(
        int(sign + (whole + frac or "0")),
        int(den) if den is not None else 10 ** len(frac),
    )
    if abs(value.numerator) > MAX_HEIGHT or value.denominator > MAX_HEIGHT:
        raise ValueError(
            f"numerator and denominator must be at most {MAX_HEIGHT} "
            f"in absolute value"
        )
    return value


def _parse_size(text: str) -> int:
    # int() counts leading zeros toward Python's 4300-digit limit, so they
    # are dropped before the digit cap is checked and the int is built
    body = text.strip()
    sign = body[:1] if body[:1] in ("+", "-") else ""
    digits = body[len(sign):]
    if not digits.isdecimal():
        raise ValueError(f"not an integer: {_quote(text)}")
    digits = digits.lstrip("0")
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"size of more than {MAX_DIGITS} digits: {_quote(text)}")
    return int(sign + (digits or "0"))


def parse_n_values(text: str) -> List[int]:
    """Accept comma-separated entries, each an integer or a..b range."""
    out: List[int] = []
    for item in text.split(","):
        item = item.strip()
        if ".." in item:
            lo_s, hi_s = item.split("..", 1)
            lo, hi = _parse_size(lo_s), _parse_size(hi_s)
            if hi < lo:
                raise ValueError(f"empty range {_quote(item)}")
        else:
            lo = hi = _parse_size(item)
        if len(out) + hi - lo + 1 > MAX_N_VALUES:
            raise ValueError(f"more than {MAX_N_VALUES} sizes")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError("no sizes given")
    return out


def decimal_string(fr: Fraction) -> str:
    """Fixed-point decimal of an exact rational to 12 places, half-up."""
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    scale = 10 ** 12
    q, rem = divmod(fr.numerator * scale, fr.denominator)
    if 2 * rem >= fr.denominator:
        q += 1
    whole, part = divmod(q, scale)
    return f"{sign}{whole}.{part:012d}"


def _emit(
    args: argparse.Namespace,
    params: dict,
    results: Iterable[dict],
    lines: Iterable[str],
) -> None:
    """Write one command's stdout in the format that --format chose.

    JSON is the document {"command", "params", "results"} with `results`
    listed; CSV is `lines`, written as they come.  Only the iterable of
    the chosen format is consumed, so both can be lazy generators and a
    large table streams to stdout.
    """
    if args.format == "json":
        # imported here: only a --format json run pays for loading json
        import json

        doc = {"command": args.command, "params": params, "results": list(results)}
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.writelines(lines)


# -- table --------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> int:
    n_values = parse_n_values(args.n)
    x = parse_rational(args.x)
    if any(n < 1 for n in n_values):
        raise ValueError("sizes must be >= 1")
    # the closed form at its weight, else the DP oracle; looked up per call
    route = {1: counts.asm_table, 3: counts.asm3_table}.get(x)
    if route is None:
        if max(n_values) > oracle.DP_LIMIT:
            raise ValueError(f"sizes above {oracle.DP_LIMIT} need x = 1 or x = 3")
        route = lambda n: oracle.dp_refined_enum(n, x)
    elif max(n_values) > MAX_TABLE_N[x]:
        raise ValueError(
            f"sizes above {MAX_TABLE_N[x]} at x = {x} have counts of "
            f"more than 4300 digits"
        )
    # a repeated size is computed once; its rows still print at every repeat
    values = {
        n: [str(value) for value in route(n).counts]
        for n in dict.fromkeys(n_values)
    }
    rows = ((n, r, v) for n in n_values for r, v in enumerate(values[n], 1))
    _emit(
        args,
        {"n": [str(n) for n in n_values], "x": str(x)},
        ({"n": str(n), "r": str(r), "value": v} for n, r, v in rows),
        chain(["n,r,value\n"], (f"{n},{r},{v}\n" for n, r, v in rows)),
    )
    return 0


# -- verify -------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    max_m, max_n = _parse_size(args.max_m), _parse_size(args.max_n)
    if max_m < 0 or max_n < 1:
        raise ValueError("limits must be sensible: max-m >= 0, max-n >= 1")
    if max_m > MAX_VERIFY_M or max_n > MAX_VERIFY_N:
        raise ValueError(
            f"limits too large: max-m <= {MAX_VERIFY_M}, "
            f"max-n <= {MAX_VERIFY_N}"
        )
    results = checks.run(args.suite, max_m, max_n)
    for r in results:
        if not r.passed and r.detail:
            print(f"FAIL,{r.name},{r.params}: {r.detail}", file=sys.stderr)
    n_fail = sum(1 for r in results if not r.passed)
    _emit(
        args,
        {"suite": args.suite, "max_m": str(max_m), "max_n": str(max_n)},
        ({"name": r.name, "params": r.params, "passed": r.passed} for r in results),
        chain(
            (
                f"{'PASS' if r.passed else 'FAIL'},{r.name},{r.params}\n"
                for r in results
            ),
            [f"# {len(results) - n_fail}/{len(results)} checks passed\n"],
        ),
    )
    return 0 if n_fail == 0 else 1


# -- scan ---------------------------------------------------------------


def cmd_scan(args: argparse.Namespace) -> int:
    n_values = parse_n_values(args.n)
    epsilon = parse_rational(args.epsilon)
    if not 0 < epsilon < Fraction(1, 2):
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    if any(n < 2 for n in n_values):
        raise ValueError("scan sizes must be >= 2")
    if max(n_values) > MAX_SCAN_N:
        raise ValueError(
            f"scan sizes above {MAX_SCAN_N} can have masses of more than "
            f"4300 digits"
        )
    rows = (
        (n, mass, decimal_string(mass))
        for n, mass in counts.concentration_scan(n_values, epsilon)
    )
    _emit(
        args,
        {"epsilon": str(epsilon), "n": [str(n) for n in sorted(set(n_values))]},
        ({"n": str(n), "mass_exact": str(m), "mass_decimal": d} for n, m, d in rows),
        chain(
            ["n,epsilon,mass_exact,mass_decimal\n"],
            (f"{n},{epsilon},{m},{d}\n" for n, m, d in rows),
        ),
    )
    return 0


# -- wiring -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=checks.SUITES, default="all")
    # read by _parse_size in cmd_verify, the integer grammar of --n
    p_verify.add_argument("--max-m", default="8")
    p_verify.add_argument("--max-n", default="6")
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="central mass of the 3-enumeration")
    p_scan.add_argument(
        "--n", required=True, help="sizes: an integer, a..b, or a comma list"
    )
    p_scan.add_argument("--epsilon", default="1/10", help="half-width, in (0, 1/2)")
    p_scan.set_defaults(func=cmd_scan)

    # declared last so that each usage line lists it after the command's
    # own options
    for p in sub.choices.values():
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; a usage error or an input past a limit exits 2.

    Each subcommand checks its arguments and limits before it computes
    anything, so a refused input costs no work.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 0 if exc.code == 0 else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
