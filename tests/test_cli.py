import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from asm3 import checks, cli, counts, oracle, tq
from asm3.densepoly import DensePoly
from asm3.errors import DegenerateParameters, NonExactDivision
from asm3.report import CheckResult, EnumTable

F = Fraction


# -- parsing helpers ----------------------------------------------------


def test_parse_rational_forms():
    assert cli.parse_rational("5/7") == F(5, 7)
    assert cli.parse_rational("3") == 3
    assert cli.parse_rational("-2") == -2
    assert cli.parse_rational("0.25") == F(1, 4)
    assert cli.parse_rational("-1.5") == F(-3, 2)
    assert cli.parse_rational(" 1/3 ") == F(1, 3)
    # the height limit is read in lowest terms
    top = cli.MAX_HEIGHT
    assert cli.parse_rational(f"-{top}/{top - 1}") == F(-top, top - 1)
    assert cli.parse_rational(f"{2 * top}/{2 * top - 2}") == F(top, top - 1)
    assert cli.parse_rational("0.5" + "0" * 30) == F(1, 2)
    # zeros that do not change the value never count against the digit cap
    assert cli.parse_rational("0.5" + "0" * 5000) == F(1, 2)
    assert cli.parse_rational("0" * 5000 + "3/" + "0" * 5000 + "4") == F(3, 4)
    assert cli.parse_rational("-" + "0" * 5000) == 0


def test_parse_rational_rejects_garbage():
    top = cli.MAX_HEIGHT
    over = (f"{top + 1}", f"-{top + 1}/3", f"1/{top + 1}", "1/" + "7" * 600)
    for bad in ("abc", "1/2/3", "1.2.3", "2e5", "", "1/", "1/0", "0/0") + over:
        with pytest.raises(ValueError):
            cli.parse_rational(bad)


def test_parse_rational_digit_limit():
    assert cli.parse_rational("0." + "3" * 18) == F(int("3" * 18), 10 ** 18)
    with pytest.raises(ValueError):
        cli.parse_rational("0." + "3" * 19)
    # 1/2^59 needs a 59-digit fractional part and lies within the height;
    # 1/2^60 needs 60 digits and does not
    cap = cli.MAX_DIGITS
    assert cli.parse_rational("0." + str(5**cap).rjust(cap, "0")) == F(1, 2**cap)
    over = (
        "0." + str(5 ** (cap + 1)).rjust(cap + 1, "0"),
        "1/" + "7" * 5000,
        "0.5" + "0" * 5000 + "1",
        "7" * 5000,
    )
    for bad in over:
        with pytest.raises(ValueError) as info:
            cli.parse_rational(bad)
        assert str(cap) in str(info.value)
        assert "set_int_max_str_digits" not in str(info.value)


def test_parse_n_values():
    assert cli.parse_n_values("5") == [5]
    assert cli.parse_n_values("2..5") == [2, 3, 4, 5]
    assert cli.parse_n_values("1,4..6,9") == [1, 4, 5, 6, 9]
    with pytest.raises(ValueError):
        cli.parse_n_values("5..3")
    with pytest.raises(ValueError):
        cli.parse_n_values("x")
    cap = cli.MAX_N_VALUES
    assert len(cli.parse_n_values(f"1..{cap}")) == cap
    with pytest.raises(ValueError):
        cli.parse_n_values(f"1..{cap + 1}")
    with pytest.raises(ValueError):
        cli.parse_n_values(f"7,1..{cap}")
    # every comma entry counts, repeats included
    assert len(cli.parse_n_values(",".join(["194"] * cap))) == cap
    with pytest.raises(ValueError):
        cli.parse_n_values(",".join(["194"] * (cap + 1)))
    with pytest.raises(ValueError):
        cli.parse_n_values(f"1..{cap},7")
    # a bound is held to the digit cap once its leading zeros are dropped
    digits = cli.MAX_DIGITS
    assert cli.parse_n_values("0" * 5000 + "3, -0..1") == [3, 0, 1]
    for bad in ("9" * (digits + 1), "1.." + "9" * 5000, "-" + "9" * (digits + 1)):
        with pytest.raises(ValueError) as info:
            cli.parse_n_values(bad)
        assert str(digits) in str(info.value)


def test_decimal_string_rounding():
    assert cli.decimal_string(F(1, 3)) == "0.333333333333"
    assert cli.decimal_string(F(2, 3)) == "0.666666666667"
    assert cli.decimal_string(F(-1, 2)) == "-0.500000000000"
    assert cli.decimal_string(F(5)) == "5.000000000000"
    # half-up at the twelfth place: 0.0000000000125 rounds up
    assert cli.decimal_string(F(1, 8 * 10**10)) == "0.000000000013"


# -- subcommands --------------------------------------------------------


def test_table_csv(capsys):
    rc = cli.main(["table", "--n", "3", "--x", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "n,r,value\n3,1,2\n3,2,5\n3,3,2\n"


def test_table_fractional_weight_goes_through_oracle(capsys):
    rc = cli.main(["table", "--n", "3", "--x", "5/7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "3,2,19/7" in out
    # a long literal of a short value is the same weight
    assert cli.main(["table", "--n", "3", "--x", "0.5" + "0" * 5000]) == 0
    assert capsys.readouterr().out == "n,r,value\n3,1,2\n3,2,5/2\n3,3,2\n"


def test_table_json_serializes_integers_as_strings(capsys):
    rc = cli.main(["table", "--n", "2..3", "--x", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "table"
    assert doc["params"]["x"] == "1"
    assert all(isinstance(row["value"], str) for row in doc["results"])
    assert doc["results"][0] == {"n": "2", "r": "1", "value": "1"}
    assert doc["results"][-1] == {"n": "3", "r": "3", "value": "2"}


def test_table_large_values_survive_json_round_trip(capsys):
    cli.main(["table", "--n", "12", "--x", "3", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    values = [int(row["value"]) for row in doc["results"]]
    from asm3 import counts

    assert sum(values) == counts.total_asm3(12)


def test_scan_csv(capsys):
    rc = cli.main(["scan", "--n", "3,4", "--epsilon", "2/5"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,epsilon,mass_exact,mass_decimal"
    assert lines[1] == "3,2/5,5/9,0.555555555556"
    assert lines[2].startswith("4,2/5,")


def test_scan_json(capsys):
    rc = cli.main(["scan", "--n", "4", "--epsilon", "3/10", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["results"] == [
        {"n": "4", "mass_exact": "4/5", "mass_decimal": "0.800000000000"}
    ]


def test_verify_small_suite_passes(capsys):
    rc = cli.main(["verify", "--suite", "closed-forms", "--max-m", "2", "--max-n", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("PASS") > 20
    assert out.strip().splitlines()[-1].startswith("#")


def test_verify_json_shape(capsys):
    argv = ["verify", "--suite", "oracle", "--format", "json", "--max-n"]
    rc = cli.main(argv + ["3"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert rc == 0
    assert doc["command"] == "verify"
    assert doc["params"]["max_n"] == "3"
    assert all(set(r) == {"name", "params", "passed"} for r in doc["results"])
    assert all(r["passed"] is True for r in doc["results"])
    # a limit is read like a size of --n, so leading zeros change nothing
    assert cli.main(argv + ["0" * 5000 + "3"]) == 0
    assert capsys.readouterr().out == out


def test_verify_all_suites_runnable(capsys):
    rc = cli.main(["verify", "--suite", "all", "--max-m", "1", "--max-n", "3"])
    capsys.readouterr()
    assert rc == 0


@pytest.mark.parametrize(
    "fmt, n_lines, digest",
    [
        ("csv", 239, "7626d9325786650fe7c04d661275aa173a4beec45b333fcdd83c4f9ca92805a3"),
        ("json", 1200, "aaf683e8d66d06e2f22981c485ab3a9ed0237b5f395b09980317a19e80d9e74a"),
    ],
)
def test_verify_output_is_pinned(capsys, fmt, n_lines, digest):
    # every check name, its params and their order, in both formats
    argv = ["verify", "--suite", "all", "--max-m", "3", "--max-n", "5"]
    assert cli.main(argv + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == n_lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, n_lines, digest",
    [
        (
            ["table", "--n", "1..9", "--x", "5/7"],
            46,
            "ba68fe82f73d79dade143574dfe754ffbe4310ac607557d16d1cdaa92e8d82f5",
        ),
        (
            ["table", "--n", "1..9", "--x", "5/7", "--format", "json"],
            244,
            "8ca700978600d62c29c934da7de756dcb7e62dbb495c13eb9ca7250cc55a9a07",
        ),
        (
            ["scan", "--n", "40,80", "--epsilon", "1/10"],
            3,
            "530033fd88bf0bd0fe54db1aa41dc548b287ac210d49ee7e037355fd64e3cc98",
        ),
        (
            ["scan", "--n", "40,80", "--epsilon", "1/10", "--format", "json"],
            22,
            "0d07a8bc18aa442ee9acbf41786f2775b10ba01032bdde74c84eae40f02e47ad",
        ),
    ],
)
def test_table_and_scan_output_is_pinned(capsys, argv, n_lines, digest):
    # every value, its formatting and the document around it, whole
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == n_lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_wide_oracle_output_is_pinned(capsys):
    # n = 12..14 read their counts from slots 67 to 92 bits wide
    argv = ["verify", "--suite", "oracle", "--max-m", "0", "--max-n", "14"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 67
    digest = "e1ce1f5201cf2c649487786d07cf724a8f962a8b68e66ab93345a394b324bd84"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_output_is_deterministic(capsys):
    cli.main(["verify", "--suite", "tq-identities", "--max-m", "2"])
    first = capsys.readouterr().out
    cli.main(["verify", "--suite", "tq-identities", "--max-m", "2"])
    second = capsys.readouterr().out
    assert first == second


def _cross_with_one_oracle_off(monkeypatch, name, max_n):
    # cross with the oracle `name` off by one at every weight but 1: the
    # packed comparison is spoiled, and each weight is then judged on its
    # own sweep, so only the x = 2 and 3 lines fail, at every order that
    # the triangle pass reaches, and the block does not raise
    real = getattr(oracle, name)

    def off_by_one(n, x):
        tables = real(n, x)
        if x == 1:
            return tables
        return tuple(
            t._replace(counts=tuple(v + 1 for v in t.counts)) for t in tables
        )

    monkeypatch.setattr(oracle, name, off_by_one)
    results = checks.run_block(checks.cross, 0, max_n)
    sizes = range(1, oracle.MT_LIMIT + 1)
    assert [r.name for r in results] == ["oracles_agree"] * 3 * len(sizes)
    assert [r.params for r in results if r.passed] == [
        f"n={n} x=1" for n in sizes
    ]
    assert [r.params for r in results if not r.passed] == [
        f"n={n} x={x}" for n in sizes for x in (2, 3)
    ]


def test_cross_failure_names_its_weight(monkeypatch):
    _cross_with_one_oracle_off(monkeypatch, "mt_refined_tables", oracle.MT_LIMIT)


def test_cross_failure_names_its_weight_on_the_dp_side(monkeypatch):
    # run above MT_LIMIT, where cross still reads only the orders the
    # triangle pass reaches
    _cross_with_one_oracle_off(monkeypatch, "dp_refined_tables", 10)


def test_generating_polynomial_of_the_wrong_length_fails_its_family(monkeypatch):
    # a palindrome two coefficients too long is judged by its length: the
    # h1 lines fail at every n, the block does not raise, and the h3 lines
    # are still checked
    real = tq.h1_poly

    def too_long(n):
        c = real(n).coeffs
        return DensePoly(c[:1] + c + c[-1:])

    monkeypatch.setattr(tq, "h1_poly", too_long)
    results = checks.run_block(checks.generating_polys, 0, 6)
    assert not [r for r in results if r.params.startswith("raised")]
    h1 = [r for r in results if r.name.startswith("h1_")]
    h3 = [r for r in results if r.name.startswith("h3_")]
    for name in ("h1_matches_refinement", "h1_reciprocal"):
        assert [r.params for r in h1 if r.name == name] == [
            f"n={n}" for n in range(1, 7)
        ]
    assert not any(r.passed for r in h1)
    assert len(h3) == 3 * 5 and all(r.passed for r in h3)


def test_generating_polynomial_one_short_fails_its_family(monkeypatch):
    # the integer comparison reads c[r - 1] for r = 1..n only after the
    # length: an h3 row one coefficient short fails its lines without
    # raising, and the h1 lines still pass
    real = tq.h3_poly
    monkeypatch.setattr(tq, "h3_poly", lambda n: DensePoly(real(n).coeffs[:-1]))
    results = checks.run_block(checks.generating_polys, 0, 6)
    assert not [r for r in results if r.params.startswith("raised")]
    failed = [(r.name, r.params) for r in results if not r.passed]
    for name in ("h3_matches_refinement", "h3_reciprocal", "h3_unit_at_one"):
        assert [p for n, p in failed if n == name] == [f"n={n}" for n in range(2, 7)]
    assert all(r.passed for r in results if r.name.startswith("h1_"))


@pytest.mark.parametrize("change", ["short", "long"])
def test_dp_row_of_the_wrong_length_fails_its_share_line(monkeypatch, change):
    # the x = 2 shares are compared cross-multiplied after the row's
    # length: a row one count short or one count long fails
    # dp_matches_ratio2 at every order, and the block does not raise
    real = oracle.dp_refined_tables

    def altered(n, x):
        return tuple(
            EnumTable(t.n, t.counts[:-1] if change == "short" else t.counts + (1,))
            for t in real(n, x)
        )

    monkeypatch.setattr(oracle, "dp_refined_tables", altered)
    results = checks.run_block(checks.against_closed_forms, 0, 6)
    assert len(results) == 3 * 6
    shares = [r for r in results if r.name == "dp_matches_ratio2"]
    assert [r.params for r in shares] == [f"n={n} x=2" for n in range(1, 7)]
    assert not any(r.passed for r in shares)


@pytest.mark.parametrize(
    "exc", [DegenerateParameters, NonExactDivision, ZeroDivisionError]
)
def test_raising_block_is_one_failed_check(capsys, monkeypatch, exc):
    def factorial(k):
        raise exc("broken on purpose")

    # only the recursions block calls checks.factorial
    monkeypatch.setattr(checks, "factorial", factorial)
    argv = ["verify", "--suite", "closed-forms", "--max-m", "1", "--max-n", "3"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert (
        f"FAIL,recursions,raised {exc.__name__}: broken on purpose"
        in captured.err.splitlines()
    )
    assert "Traceback (most recent call last)" in captured.err
    lines = captured.out.splitlines()
    fails = [line for line in lines if not line.startswith(("PASS", "#"))]
    assert fails == [f"FAIL,recursions,raised {exc.__name__}"]
    # the blocks after the raising one still ran
    assert "PASS,scan_small_case,n=4" in lines
    passed = len(lines) - 2
    assert lines[-1] == f"# {passed}/{passed + 1} checks passed"

    assert cli.main(argv + ["--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert {
        "name": "recursions",
        "params": f"raised {exc.__name__}",
        "passed": False,
    } in doc["results"]

    [res] = checks.run_block(checks.recursions, 1, 3)
    assert res == CheckResult(
        "recursions", f"raised {exc.__name__}", False, "broken on purpose"
    )
    with pytest.raises(ValueError):
        checks.run("no-such-suite", 1, 3)


# -- exit codes ---------------------------------------------------------


def test_usage_errors_exit_two(capsys, monkeypatch):
    # oversized fractional-weight tables are refused before any DP runs
    monkeypatch.setattr(
        oracle, "dp_refined_tables", lambda n, x: pytest.fail("DP was run")
    )
    assert cli.main(["table", "--n", "0", "--x", "1"]) == 2
    assert cli.main(["table", "--n", "3", "--x", "zebra"]) == 2
    assert cli.main(["scan", "--n", "4", "--epsilon", "2/3"]) == 2
    assert cli.main(["scan", "--n", "1", "--epsilon", "1/10"]) == 2
    assert cli.main(["table", "--n", "99", "--x", "5/7"]) == 2
    assert cli.main(["table", "--n", "1..17", "--x", "5/7"]) == 2
    assert cli.main(["table", "--n", "10", "--x", "1/" + "7" * 600]) == 2
    assert cli.main(["table", "--n", "1..2000000000"]) == 2
    assert cli.main(["table", "--n", "3", "--x", "1/0"]) == 2
    assert cli.main(["scan", "--n", "4", "--epsilon", "1/0"]) == 2
    # literals and sizes too long for Python's int-to-str limit are refused
    # by the digit cap, whose message names no interpreter setting
    assert cli.main(["table", "--n", "3", "--x", "1/" + "7" * 5000]) == 2
    assert cli.main(["table", "--n", "3", "--x", "0.5" + "0" * 4999 + "1"]) == 2
    assert cli.main(["table", "--n", "9" * 5000]) == 2
    assert cli.main(["table", "--n", "1.." + "9" * 5000]) == 2
    assert cli.main(["scan", "--n", "9" * 5000]) == 2
    assert "set_int_max_str_digits" not in capsys.readouterr().err
    # closed-form tables whose counts pass the int-to-str digit limit are
    # refused before any row is computed
    for route in ("asm_table", "asm3_table"):
        monkeypatch.setattr(counts, route, lambda n: pytest.fail("table was run"))
    assert cli.main(["table", "--n", "195", "--x", "1"]) == 2
    assert cli.main(["table", "--n", "1..157", "--x", "3"]) == 2
    assert cli.main(["table", "--n", "1000", "--x", "3"]) == 2
    # verify limits above the caps are refused before any block runs
    monkeypatch.setattr(
        checks, "run", lambda *args: pytest.fail("verify was run")
    )
    over_m = str(cli.MAX_VERIFY_M + 1)
    over_n = str(cli.MAX_VERIFY_N + 1)
    assert cli.main(["verify", "--max-m", over_m]) == 2
    assert cli.main(["verify", "--max-n", over_n]) == 2
    assert cli.main(["verify", "--max-m", "1000000000000"]) == 2
    # the limits follow the integer grammar of --n, which has no underscores
    assert cli.main(["verify", "--max-m", "1_0"]) == 2
    # scans whose masses pass the int-to-str digit limit are refused before
    # any mass is computed
    monkeypatch.setattr(
        counts, "concentration_scan", lambda *args: pytest.fail("scan was run")
    )
    over_scan = str(cli.MAX_SCAN_N + 1)
    assert cli.main(["scan", "--n", over_scan]) == 2
    assert cli.main(["scan", "--n", f"40,{over_scan}", "--epsilon", "2/5"]) == 2
    assert cli.main(["scan", "--n", "1000000000000"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--n", "3", "--x", "x" * 100_000],
        ["scan", "--n", "4", "--epsilon", "1/" + "0" * 100_000],
        ["table", "--n", "9.." + "0" * 3000 + "1"],
        ["verify", "--suite", "x" * 100_000],
        ["table", "--n", "3", "--format", "x" * 100_000],
        ["verify", "--max-m", "9" * 5000],
        ["verify", "--max-n", "9" * 5000],
    ],
)
def test_errors_quote_a_bounded_prefix(capsys, argv):
    assert cli.main(argv) == 2
    assert len(capsys.readouterr().err.encode()) < 300


def test_table_prints_up_to_the_digit_cap(capsys):
    for x, n in cli.MAX_TABLE_N.items():
        assert cli.main(["table", "--n", str(n), "--x", str(x)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == n + 1
        assert max(len(line) for line in lines) > 4000


def test_scan_prints_up_to_the_digit_cap(capsys):
    n = cli.MAX_SCAN_N
    for eps in ("1/10", "49/100"):
        assert cli.main(["scan", "--n", str(n), "--epsilon", eps]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[1].startswith(f"{n},{eps},")
        assert len(lines[1]) > 8000


def test_table_computes_each_distinct_size_once(capsys, monkeypatch):
    calls = []
    closed_form = counts.asm3_table

    def counted(n):
        calls.append(n)
        return closed_form(n)

    monkeypatch.setattr(counts, "asm3_table", counted)
    assert cli.main(["table", "--n", "3,2,3,3", "--x", "3"]) == 0
    assert calls == [3, 2]
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows == ["3,1,2", "3,2,5", "3,3,2", "2,1,1", "2,2,1"] + [
        "3,1,2", "3,2,5", "3,3,2"
    ] * 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_writes_each_size_before_computing_the_next(capsys, monkeypatch, fmt):
    # when size n is computed, every row of the sizes before it is on stdout
    closed_form = counts.asm3_table
    out = []

    def route(n):
        out.append(capsys.readouterr().out)
        text = "".join(out)
        rows = text.count('"r": ') if fmt == "json" else text.count("\n") - 1
        assert rows == sum(range(2, n)), (n, text)
        return closed_form(n)

    monkeypatch.setattr(counts, "asm3_table", route)
    assert cli.main(["table", "--n", "2..6", "--x", "3", "--format", fmt]) == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_writes_each_block_before_running_the_last(capsys, monkeypatch, fmt):
    # when the last block starts, the first block's results are on stdout
    *rest, (suite, last) = checks.BLOCKS
    seen = []

    def last_block(max_m, max_n):
        seen.append(capsys.readouterr().out)
        yield from last(max_m, max_n)

    monkeypatch.setattr(checks, "BLOCKS", (*rest, (suite, last_block)))
    argv = ["verify", "--suite", "all", "--max-m", "1", "--max-n", "3"]
    assert cli.main(argv + ["--format", fmt]) == 0
    [text] = seen
    first = list(rest[0][1](1, 3))
    assert first and all(r.passed for r in first)
    for r in first:
        if fmt == "json":
            result = {"name": r.name, "params": r.params, "passed": True}
            line = json.dumps(result, indent=2).replace("\n", "\n    ")
        else:
            line = f"PASS,{r.name},{r.params}\n"
        assert line in text
    assert "checks passed" not in text


def test_table_json_keeps_a_small_peak(monkeypatch):
    # the document is written one result at a time, never built whole
    monkeypatch.setattr(cli.sys, "stdout", open(os.devnull, "w"))
    tracemalloc.start()
    try:
        assert cli.main(["table", "--n", "1..100", "--x", "3", "--format", "json"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        cli.sys.stdout.close()
    assert peak < 2 * 2**20


@pytest.mark.parametrize(
    "results",
    [
        [],
        [{"n": "1", "r": "1", "value": "1"}],
        [{"name": "a\nb\"c", "params": "m=0 k=1", "passed": True}, {"x": []}] * 3,
    ],
)
def test_streamed_json_equals_one_dumps(capsys, results):
    args = SimpleNamespace(command="verify", format="json")
    params = {"suite": "all", "n": ["1", "2"], "empty": {}}
    cli._emit(args, params, iter(results), iter(()))
    doc = {"command": "verify", "params": params, "results": results}
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def test_table_picks_one_route_per_weight(capsys, monkeypatch):
    # x = 1 and x = 3 have closed forms; every other weight goes to the DP
    routes = {"asm_table": counts, "asm3_table": counts, "dp_refined_tables": oracle}
    real = {name: getattr(mod, name) for name, mod in routes.items()}
    for x, expected in (
        ("1", "asm_table"),
        ("3", "asm3_table"),
        ("2", "dp_refined_tables"),
        ("5/7", "dp_refined_tables"),
    ):
        calls = []
        for name, mod in routes.items():

            def route(*args, name=name):
                if name != expected:
                    pytest.fail(f"{name} was run at x = {x}")
                calls.append(name)
                return real[name](*args)

            monkeypatch.setattr(mod, name, route)
        assert cli.main(["table", "--n", "4", "--x", x]) == 0
        assert calls == [expected]
        assert len(capsys.readouterr().out.splitlines()) == 5


def test_table_sweeps_once_for_every_size(capsys, monkeypatch):
    # unsorted and repeated sizes at a fractional weight: one sweep to the
    # largest size prints the rows of the per-order sweeps
    real = oracle.dp_refined_tables
    calls = []

    def counted(n, x):
        calls.append((n, x))
        return real(n, x)

    monkeypatch.setattr(oracle, "dp_refined_tables", counted)
    assert cli.main(["table", "--n", "9,1..3,9", "--x", "5/7"]) == 0
    out = capsys.readouterr().out
    x = Fraction(5, 7)
    assert calls == [(9, x)]
    want = ["n,r,value"] + [
        f"{n},{r},{v}"
        for n in (9, 1, 2, 3, 9)
        for r, v in enumerate(oracle.dp_refined_enum(n, x).counts, 1)
    ]
    assert out.splitlines() == want


def test_unknown_subcommand_exits_two(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "table" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, flags",
    [
        ("table", ["--n", "--x"]),
        ("verify", ["--suite", "--max-m", "--max-n"]),
        ("scan", ["--n", "--epsilon"]),
    ],
)
def test_command_help_names_every_flag(capsys, command, flags):
    for help_flag in ("--help", "-h"):
        assert cli.main([command, help_flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: asm3 {command} ")
        for flag in flags + ["--format"]:
            assert flag in out
    # flags are read left to right: valid ones before --help do not stop
    # it, and an error before it exits 2 first
    assert cli.main([command, "--bogus", "1", "--help"]) == 2
    assert cli.main([command, "--format", "json", "--help"]) == 0
    capsys.readouterr()


# -- option grammar -----------------------------------------------------


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["table", "--n", "1..4", "--x", "5/7"], ["table", "--n=1..4", "--x=5/7"]),
        (
            ["verify", "--suite", "closed-forms", "--max-m", "2", "--format", "json"],
            ["verify", "--suite=closed-forms", "--max-m=2", "--format=json"],
        ),
        (["scan", "--n", "3,4", "--epsilon", "2/5"], ["scan", "--epsilon=2/5", "--n=3,4"]),
    ],
)
def test_flag_equals_value_is_flag_space_value(capsys, spaced, joined):
    assert cli.main(spaced) == 0
    expected = capsys.readouterr().out
    assert cli.main(joined) == 0
    assert capsys.readouterr().out == expected


def test_repeated_flag_keeps_its_last_value(capsys):
    assert cli.main(["table", "--n", "3", "--x", "3"]) == 0
    expected = capsys.readouterr().out
    argv = ["table", "--n", "5", "--x", "1", "--n=3", "--format", "json"]
    assert cli.main(argv + ["--x", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["table", "--n", "3", "--y", "2"],
        ["table", "--n", "3", "--x"],
        ["table", "--n", "--x", "3"],
        ["table", "--x", "3"],
        ["scan", "--n", "4", "--eps", "1/10"],
        ["verify", "--max", "3"],
        ["table", "--n", "3", "--format", "xml"],
        ["table", "3"],
        ["--n", "3"],
        ["x" * 100_000],
        ["table", "--n", "3", "--" + "y" * 100_000],
    ],
)
def test_grammar_errors_exit_two(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 2 and err[0].startswith("usage: asm3")
    assert len(captured.err.encode()) < 300


# -- start-up -----------------------------------------------------------


def test_startup_loads_no_unused_stdlib():
    # modules that only a rare path uses (json output, a raising block), that
    # the records no longer need, or that only argparse loaded (gettext and
    # locale) must stay out of a parsed command's start-up
    unused = (
        "argparse", "dataclasses", "gettext", "inspect", "json", "locale",
        "traceback",
    )
    code = (
        "import asm3.cli, sys; asm3.cli.build_parser(); "
        "asm3.cli.main(['table', '--n', '3', '--x', '5/7']); "
        f"print([m for m in {unused!r} if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_records_are_immutable_values():
    records = [CheckResult("a", "n=1", True), counts.asm_table(4)]
    for rec in records:
        same = type(rec)(*rec)
        assert rec == same and rec is not same
        assert rec != rec._replace(**{rec._fields[0]: "other"})
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], "other")
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert hash(rec) == hash(type(rec)(*rec))
    # indexing and unpacking give the fields
    n, values = records[1]
    assert n == 4 and values == records[1].counts
    assert records[1][1] is values
