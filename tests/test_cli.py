import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from asm3 import checks, cli, counts, oracle, tq
from asm3.errors import DegenerateParameters, NonExactDivision
from asm3.report import CheckResult

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
    rc = cli.main(
        ["verify", "--suite", "oracle", "--max-n", "3", "--format", "json"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["command"] == "verify"
    assert all(set(r) == {"name", "params", "passed"} for r in doc["results"])
    assert all(r["passed"] is True for r in doc["results"])


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


def test_output_is_deterministic(capsys):
    cli.main(["verify", "--suite", "tq-identities", "--max-m", "2"])
    first = capsys.readouterr().out
    cli.main(["verify", "--suite", "tq-identities", "--max-m", "2"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize(
    "exc", [DegenerateParameters, NonExactDivision, ZeroDivisionError]
)
def test_raising_block_is_one_failed_check(capsys, monkeypatch, exc):
    def recurrence_check(max_m):
        raise exc("broken on purpose")

    monkeypatch.setattr(counts, "recurrence_check", recurrence_check)
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
        oracle, "dp_refined_enum", lambda n, x: pytest.fail("DP was run")
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
    # literals too long for Python's int-to-str limit are refused by the
    # digit cap, whose message names no interpreter setting
    assert cli.main(["table", "--n", "3", "--x", "1/" + "7" * 5000]) == 2
    assert cli.main(["table", "--n", "3", "--x", "0.5" + "0" * 4999 + "1"]) == 2
    assert "set_int_max_str_digits" not in capsys.readouterr().err
    # closed-form tables whose counts pass the int-to-str digit limit are
    # refused before any row is computed
    monkeypatch.setattr(
        counts, "closed_form_table", lambda n, x: pytest.fail("table was run")
    )
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
    closed_form = counts.closed_form_table

    def counted(n, x):
        calls.append(n)
        return closed_form(n, x)

    monkeypatch.setattr(counts, "closed_form_table", counted)
    assert cli.main(["table", "--n", "3,2,3,3", "--x", "3"]) == 0
    assert calls == [3, 2]
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows == ["3,1,2", "3,2,5", "3,3,2", "2,1,1", "2,2,1"] + [
        "3,1,2", "3,2,5", "3,3,2"
    ] * 2


def test_unknown_subcommand_exits_two(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "table" in capsys.readouterr().out


# -- start-up -----------------------------------------------------------


def test_startup_loads_no_unused_stdlib():
    # modules that only a rare path uses (json output, a raising block) or
    # that the records no longer need must stay out of every run's start-up
    code = (
        "import asm3.cli, sys; asm3.cli.build_parser(); "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'json', "
        "'traceback') if m in sys.modules))"
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
    assert proc.stdout.strip() == ""


def test_records_are_immutable_values():
    records = [
        CheckResult("a", "n=1", True),
        counts.asm_table(4),
        counts.b_table(2),
        tq.tq_family(1),
    ]
    for rec in records:
        same = type(rec)(*rec)
        assert rec == same and rec is not same
        assert rec != rec._replace(**{rec._fields[0]: "other"})
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], "other")
        with pytest.raises(AttributeError):
            rec.extra = 1
    for rec in records[:3]:
        assert hash(rec) == hash(type(rec)(*rec))
    # the family holds LaurentPoly values, which are unhashable by design
    with pytest.raises(TypeError):
        hash(records[3])
    # [alpha] indexes the values, unpacking gives the fields
    m, values = records[2]
    assert m == 2 and values == records[2].values
    assert records[2][4] == values[4] and records[2][5] == 0
