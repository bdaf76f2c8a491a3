"""The three benchmark workloads: seeded CLI argv and output checks.

Each workload is one asm3 command line made from the seed; the program
sees only that argv.  Seed 0 gives the reference inputs:

    table_frac   table --n 1..9 --x 5/7
    verify_all   verify --suite all --max-m 8 --max-n 10
    scan_large   scan --n 240,480 --epsilon 1/10
                 (memory probe: scan --n 800 --epsilon 1/10)

One invocation takes 0.5 to 2 s.  Longer ones would make the speed
calibration in child.py less exact, because a shared host's speed can
change within a few seconds; a run takes many invocations instead.  At those sizes the b_coeff cache
of a scan is too small to show in peak RSS, so scan_large also has a
memory probe, one scan at an order near 800, whose peak RSS the workload
reports instead of that of its timed invocations.

A check takes the argv and the captured stdout and returns an empty
string when the output is right, otherwise the reason it is wrong.

Run as a script it records the scan reference (scan_reference.json):
the exact central mass for every order the scan_large seeds can draw.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SCAN_REFERENCE = HERE / "scan_reference.json"

# Every non-integer positive p/q of height 7; the DP costs about the same
# for each, so the seed varies the input without varying the work much.
TABLE_WEIGHTS = ("5/7", "1/7", "2/7", "3/7", "4/7", "6/7",
                 "7/2", "7/3", "7/4", "7/5", "7/6")
# Offsets for the scan orders; even, so each order keeps its parity.
SCAN_OFFSETS = (0, 2, -2, 4, -4, 6, -6)
SCAN_BASES = (240, 480)
SCAN_PROBE_BASE = 800
SCAN_EPSILON = "1/10"
# Number of checks `verify --suite all --max-m 8 --max-n 10` runs.
VERIFY_CHECKS = 537


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int], List[str]]
    check: Callable[[List[str], str], str]
    # Argv of a run measured for peak RSS only, or None to take the peak
    # RSS of the timed invocations.
    memory_argv: Optional[Callable[[int], List[str]]] = None


def _arg(argv: List[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


# -- table_frac ---------------------------------------------------------


def table_argv(seed: int) -> List[str]:
    return ["table", "--n", "1..9", "--x", TABLE_WEIGHTS[seed % len(TABLE_WEIGHTS)]]


def check_table(argv: List[str], out: str) -> str:
    from asm3.oracle import MT_LIMIT, mt_refined_enum

    lo, hi = (int(v) for v in _arg(argv, "--n").split(".."))
    x = Fraction(_arg(argv, "--x"))
    rows: Dict[int, List[Fraction]] = {}
    reader = csv.reader(io.StringIO(out))
    if next(reader, None) != ["n", "r", "value"]:
        return "missing CSV header"
    for rec in reader:
        if len(rec) != 3:
            return f"malformed row {rec!r}"
        n, r, value = int(rec[0]), int(rec[1]), Fraction(rec[2])
        if r != len(rows.setdefault(n, [])) + 1:
            return f"row n={n} r={r} out of order"
        rows[n].append(value)
    if sorted(rows) != list(range(lo, hi + 1)):
        return f"orders {sorted(rows)} != {lo}..{hi}"
    for n, row in rows.items():
        if len(row) != n:
            return f"n={n} has {len(row)} entries"
        if row != row[::-1]:
            return f"n={n} is not symmetric in r"
        below = sum(rows[n - 1]) if n - 1 in rows else (1 if n == 1 else None)
        if below is not None and row[0] != below:
            return f"n={n}: r=1 entry differs from the order-{n - 1} total"
        if n <= MT_LIMIT and tuple(row) != tuple(Fraction(v) for v in mt_refined_enum(n, x).counts):
            return f"n={n} differs from the monotone-triangle oracle"
    return ""


# -- verify_all ---------------------------------------------------------


def verify_argv(seed: int) -> List[str]:
    return ["verify", "--suite", "all", "--max-m", "8", "--max-n", "10"]


def check_verify(argv: List[str], out: str, expected: int = VERIFY_CHECKS) -> str:
    lines = out.splitlines()
    if not lines or lines[-1] != f"# {expected}/{expected} checks passed":
        return f"summary line {lines[-1] if lines else ''!r}, want {expected}/{expected}"
    if sum(1 for ln in lines if ln.startswith("PASS,")) != expected:
        return "PASS line count differs from the summary"
    return ""


# -- scan_large ---------------------------------------------------------


def scan_orders(seed: int) -> List[int]:
    k = len(SCAN_OFFSETS)
    return [SCAN_BASES[0] + SCAN_OFFSETS[seed % k],
            SCAN_BASES[1] + SCAN_OFFSETS[(seed // k) % k]]


def scan_argv(seed: int) -> List[str]:
    return ["scan", "--n", ",".join(map(str, scan_orders(seed))), "--epsilon", SCAN_EPSILON]


def scan_probe_argv(seed: int) -> List[str]:
    n = SCAN_PROBE_BASE + SCAN_OFFSETS[seed % len(SCAN_OFFSETS)]
    return ["scan", "--n", str(n), "--epsilon", SCAN_EPSILON]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_scan(argv: List[str], out: str, reference: Dict[str, Dict[str, str]] = None) -> str:
    if reference is None:
        reference = json.loads(SCAN_REFERENCE.read_text())["masses"]
    eps = _arg(argv, "--epsilon")
    want = sorted(set(int(v) for v in _arg(argv, "--n").split(",")))
    reader = csv.reader(io.StringIO(out))
    if next(reader, None) != ["n", "epsilon", "mass_exact", "mass_decimal"]:
        return "missing CSV header"
    got = list(reader)
    if [int(rec[0]) for rec in got] != want:
        return f"orders {[rec[0] for rec in got]} != {want}"
    prev = Fraction(0)
    for n_s, e_s, exact, dec in got:
        mass = Fraction(exact)
        if e_s != eps:
            return f"n={n_s}: epsilon {e_s} != {eps}"
        if not 0 < mass < 1:
            return f"n={n_s}: mass outside (0, 1)"
        if mass <= prev:
            return f"n={n_s}: mass does not increase with n"
        prev = mass
        ref = reference.get(n_s)
        if eps != SCAN_EPSILON or ref is None:
            return f"n={n_s}: no reference mass recorded"
        if _digest(exact) != ref["sha256"] or dec != ref["decimal"]:
            return f"n={n_s}: mass differs from the recorded reference"
    return ""


def record_scan_reference() -> None:
    """Write the exact masses of every order any seed can draw."""
    from asm3.cli import decimal_string
    from asm3.counts import concentration_scan

    bases = SCAN_BASES + (SCAN_PROBE_BASE,)
    orders = sorted({base + off for base in bases for off in SCAN_OFFSETS})
    masses = {}
    for n, mass in concentration_scan(orders, Fraction(SCAN_EPSILON)):
        masses[str(n)] = {"decimal": decimal_string(mass), "sha256": _digest(str(mass))}
    doc = {"epsilon": SCAN_EPSILON, "masses": masses}
    SCAN_REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


WORKLOADS: Dict[str, Workload] = {
    "table_frac": Workload(table_argv, check_table),
    "verify_all": Workload(verify_argv, check_verify),
    "scan_large": Workload(scan_argv, check_scan, scan_probe_argv),
}


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    record_scan_reference()
