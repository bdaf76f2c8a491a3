"""Command line interface.

Three subcommands: `table` prints a refined enumeration table, `verify`
runs the identity and cross-check suites of checks.py with one PASS/FAIL
line per check, and `scan` reports the exact central mass of the refined
3-enumeration distribution.  Output is byte-deterministic; JSON
serializes every integer as a decimal string so magnitude never costs
precision.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from . import checks, counts, oracle
from .report import CheckResult

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
# 3.11.7) with the other limit at its default: max-m 64 took 2.1 to 2.6 s
# at 19.4 to 19.5 MB peak RSS, and max-n 170 took 5.9 to 7.5 s at 52.4 to
# 52.6 MB (three runs each); both caps at once took 7.6 s at 56.4 MB in
# one run.
# The VM's speed swings up to fourfold from day to day: on a slow day
# max-n 170 took 52 to 65 s against a one-minute aim, so neither cap was
# raised
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
    args: SimpleNamespace,
    params: dict,
    results: Iterable[dict],
    lines: Iterable[str],
) -> None:
    """Write one command's stdout in the format that --format chose.

    JSON is the document {"command", "params", "results"}, byte for byte
    what json.dumps(doc, indent=2) gives, written as the envelope and then
    one result at a time; CSV is `lines`, written as they come.  Only the
    iterable of the chosen format is consumed, so both can be lazy
    generators and neither format holds the whole output.
    """
    if args.format == "json":
        # imported here: only a --format json run pays for loading json
        import json

        doc = {"command": args.command, "params": params, "results": [None]}
        # the last null is the one result slot: the text around it is the
        # envelope, and a result two levels deep indents each line by four
        # more spaces (a JSON string holds no raw newline)
        head, _, tail = json.dumps(doc, indent=2).rpartition("null")
        encode = json.JSONEncoder(indent=2).encode
        sep = head
        for result in results:
            sys.stdout.write(sep + encode(result).replace("\n", "\n    "))
            sep = ",\n    "
        if sep is head:
            # no result: json.dumps writes an empty list as []
            doc["results"] = []
            tail = json.dumps(doc, indent=2)
        sys.stdout.write(tail + "\n")
    else:
        sys.stdout.writelines(lines)


# -- table --------------------------------------------------------------


def _table_rows(n_values: List[int], route) -> Iterator[tuple]:
    """(n, r, value) for each size in turn, computed as it is reached.

    A repeated size is computed once: its values are kept until its last
    repeat has printed, and no longer, so memory holds one size's rows
    plus those of sizes still to repeat.
    """
    last = {n: i for i, n in enumerate(n_values)}
    kept: Dict[int, List[str]] = {}
    for i, n in enumerate(n_values):
        values = kept.pop(n) if n in kept else [str(v) for v in route(n).counts]
        if last[n] > i:
            kept[n] = values
        for r, v in enumerate(values, 1):
            yield n, r, v


def cmd_table(args: SimpleNamespace) -> int:
    n_values = parse_n_values(args.n)
    x = parse_rational(args.x)
    if any(n < 1 for n in n_values):
        raise ValueError("sizes must be >= 1")
    # the closed form at its weight, else the DP oracle; looked up per call
    route = {1: counts.asm_table, 3: counts.asm3_table}.get(x)
    if route is None:
        if max(n_values) > oracle.DP_LIMIT:
            raise ValueError(f"sizes above {oracle.DP_LIMIT} need x = 1 or x = 3")
        # one sweep to the largest size reads every smaller one
        tables = oracle.dp_refined_tables(max(n_values), x)
        route = lambda n: tables[n - 1]
    elif max(n_values) > MAX_TABLE_N[x]:
        raise ValueError(
            f"sizes above {MAX_TABLE_N[x]} at x = {x} have counts of "
            f"more than 4300 digits"
        )
    rows = _table_rows(n_values, route)
    _emit(
        args,
        {"n": [str(n) for n in n_values], "x": str(x)},
        ({"n": str(n), "r": str(r), "value": v} for n, r, v in rows),
        chain(["n,r,value\n"], (f"{n},{r},{v}\n" for n, r, v in rows)),
    )
    return 0


# -- verify -------------------------------------------------------------


def cmd_verify(args: SimpleNamespace) -> int:
    max_m, max_n = _parse_size(args.max_m), _parse_size(args.max_n)
    if max_m < 0 or max_n < 1:
        raise ValueError("limits must be sensible: max-m >= 0, max-n >= 1")
    if max_m > MAX_VERIFY_M or max_n > MAX_VERIFY_N:
        raise ValueError(
            f"limits too large: max-m <= {MAX_VERIFY_M}, "
            f"max-n <= {MAX_VERIFY_N}"
        )
    results = checks.run(args.suite, max_m, max_n)
    # each result is written as its block finishes, so the summary line
    # and the exit code come from a running count
    n_all = n_fail = 0

    def tallied() -> Iterator[CheckResult]:
        nonlocal n_all, n_fail
        for r in results:
            n_all += 1
            if not r.passed:
                n_fail += 1
                if r.detail:
                    print(f"FAIL,{r.name},{r.params}: {r.detail}", file=sys.stderr)
            yield r

    def summary() -> Iterator[str]:
        yield f"# {n_all - n_fail}/{n_all} checks passed\n"

    rows = tallied()
    _emit(
        args,
        {"suite": args.suite, "max_m": str(max_m), "max_n": str(max_n)},
        ({"name": r.name, "params": r.params, "passed": r.passed} for r in rows),
        chain(
            (
                f"{'PASS' if r.passed else 'FAIL'},{r.name},{r.params}\n"
                for r in rows
            ),
            summary(),
        ),
    )
    return 0 if n_fail == 0 else 1


# -- scan ---------------------------------------------------------------


def cmd_scan(args: SimpleNamespace) -> int:
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


_DESCRIPTION = (
    "Exact refined enumeration of alternating sign matrices with weighted -1\n"
    "entries, plus identity verification suites."
)

# the help of the flags whose grammar their name does not tell
_FLAG_HELP = {
    "--n": "sizes: an integer, a..b, or a comma list",
    "--x": "weight per -1 entry (p/q or decimal)",
    "--epsilon": "half-width, in (0, 1/2)",
}


def build_parser() -> Dict[str, tuple]:
    """The option table: each subcommand's handler, help line and flags.

    A flag maps to (default, choices): a default of None marks a required
    flag, and choices of None accept any value.
    """
    commands = {
        "table": (
            cmd_table,
            "print a refined count table",
            {"--n": (None, None), "--x": ("1", None)},
        ),
        "verify": (
            cmd_verify,
            "run a verification suite",
            # --max-m and --max-n are read by _parse_size, the grammar of --n
            {
                "--suite": ("all", checks.SUITES),
                "--max-m": ("8", None),
                "--max-n": ("6", None),
            },
        ),
        "scan": (
            cmd_scan,
            "central mass of the 3-enumeration",
            {"--n": (None, None), "--epsilon": ("1/10", None)},
        ),
    }
    # declared last so that each usage line lists it after the command's
    # own flags
    for _, _, flags in commands.values():
        flags["--format"] = ("csv", ("csv", "json"))
    return commands


def _arg(flag: str, choices: Optional[Sequence[str]]) -> str:
    # a flag with its value's placeholder: the choices, else its name
    if choices:
        return f"{flag} {{{','.join(choices)}}}"
    return f"{flag} {flag[2:].upper().replace('-', '_')}"


def _usage(commands: dict, name: Optional[str]) -> str:
    if name is None:
        return "usage: asm3 [-h] {" + ",".join(commands) + "} ...\n"
    words = (
        _arg(flag, choices) if default is None else f"[{_arg(flag, choices)}]"
        for flag, (default, choices) in commands[name][2].items()
    )
    return f"usage: asm3 {name} [-h] {' '.join(words)}\n"


def _help(commands: dict, name: Optional[str]) -> str:
    # the usage line, a description and one line per command or flag
    if name is None:
        head, title = _DESCRIPTION, "commands"
        rows = [(cmd, spec[1]) for cmd, spec in commands.items()]
    else:
        head, title = commands[name][1], "options"
        rows = [("-h, --help", "show this help message and exit")]
        for flag, (default, choices) in commands[name][2].items():
            note = "(required)" if default is None else f"(default: {default})"
            text = f"{_FLAG_HELP[flag]} {note}" if flag in _FLAG_HELP else note
            rows.append((_arg(flag, choices), text))
    width = max(len(left) for left, _ in rows) + 2
    body = "".join(f"  {left.ljust(width)}{right}\n" for left, right in rows)
    return f"{_usage(commands, name)}\n{head}\n\n{title}:\n{body}"


def _fail(commands: dict, name: Optional[str], message: str) -> int:
    # a usage error: the usage line and one message on stderr, exit 2
    prog = "asm3" if name is None else f"asm3 {name}"
    sys.stderr.write(f"{_usage(commands, name)}{prog}: error: {message}\n")
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; a usage error or an input past a limit exits 2.

    Flags are matched by exact name and take their value as the next
    argument or after `=`; a repeated flag keeps its last value.  Each
    subcommand checks its arguments and limits before it computes
    anything, so a refused input costs no work.
    """
    commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        sys.stdout.write(_help(commands, None))
        return 0
    if name not in commands:
        return _fail(
            commands,
            None,
            "no command given" if name is None else f"unknown command {_quote(name)}",
        )
    func, _, flags = commands[name]
    values = {}
    rest = iter(argv[1:])
    for token in rest:
        if token in ("-h", "--help"):
            sys.stdout.write(_help(commands, name))
            return 0
        flag, eq, value = token.partition("=")
        if flag not in flags:
            return _fail(commands, name, f"unrecognized argument {_quote(token)}")
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                return _fail(commands, name, f"{flag} expects a value")
        choices = flags[flag][1]
        if choices is not None and value not in choices:
            return _fail(commands, name, f"invalid choice for {flag}: {_quote(value)}")
        values[flag] = value
    for flag, (default, _) in flags.items():
        if default is None and flag not in values:
            return _fail(commands, name, f"{flag} is required")
    args = SimpleNamespace(
        command=name,
        **{
            flag[2:].replace("-", "_"): values.get(flag, default)
            for flag, (default, _) in flags.items()
        },
    )
    try:
        return func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
