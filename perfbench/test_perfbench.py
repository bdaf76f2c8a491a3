"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Workload  # noqa: E402

tracer.ensure_src_path()

from asm3 import cli  # noqa: E402
from asm3.counts import concentration_scan  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_TABLE = ["table", "--n", "1..5", "--x", "5/7"]
TINY_SCAN = ["scan", "--n", "40,81", "--epsilon", "1/10"]
TINY_SCAN_PROBE = ["scan", "--n", "81", "--epsilon", "1/10"]
TINY_VERIFY = ["verify", "--suite", "all", "--max-m", "2", "--max-n", "4"]
TINY_VERIFY_CHECKS = 183


def cli_output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def tiny_scan_reference():
    return {
        str(n): {"decimal": cli.decimal_string(m), "sha256": workloads._digest(str(m))}
        for n, m in concentration_scan([40, 81], Fraction(1, 10))
    }


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a whole measurement takes about a second."""
    ref = tiny_scan_reference()
    monkeypatch.setitem(run.WORKLOADS, "table_frac", Workload(
        lambda seed: TINY_TABLE, workloads.check_table))
    monkeypatch.setitem(run.WORKLOADS, "verify_all", Workload(
        lambda seed: TINY_VERIFY,
        lambda argv, out: workloads.check_verify(argv, out, TINY_VERIFY_CHECKS)))
    monkeypatch.setitem(run.WORKLOADS, "scan_large", Workload(
        lambda seed: TINY_SCAN,
        lambda argv, out: workloads.check_scan(argv, out, ref),
        lambda seed: TINY_SCAN_PROBE))


def test_seed_zero_gives_the_reference_inputs():
    assert workloads.table_argv(0) == ["table", "--n", "1..9", "--x", "5/7"]
    assert workloads.verify_argv(0) == ["verify", "--suite", "all", "--max-m", "8", "--max-n", "10"]
    assert workloads.scan_argv(0) == ["scan", "--n", "240,480", "--epsilon", "1/10"]
    assert workloads.scan_probe_argv(0) == ["scan", "--n", "800", "--epsilon", "1/10"]


def test_seeds_keep_height_and_parity_and_repeat():
    for seed in range(60):
        x = Fraction(workloads.table_argv(seed)[-1])
        assert x.denominator != 1 and max(x.numerator, x.denominator) == 7
        lo, hi = workloads.scan_orders(seed)
        assert lo % 2 == 0 and hi % 2 == 0 and abs(lo - 240) <= 6 and abs(hi - 480) <= 6
        assert workloads.scan_argv(seed) == workloads.scan_argv(seed)
    reference = json.loads(workloads.SCAN_REFERENCE.read_text())["masses"]
    drawn = {n for s in range(49) for n in workloads.scan_orders(s)}
    drawn |= {int(workloads.scan_probe_argv(s)[2]) for s in range(7)}
    assert {str(n) for n in drawn} == set(reference)


def test_benchmark_json_names_match_what_the_runs_report(tiny):
    r = run.Run()
    e2e = dict(run.measure_workload(r, "table_frac", 0, 0.0))
    e2e["setup_s"] = None
    assert r.failed == 0
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}
    layers = run.measure_traced(r, "scan_large", 0, 0.0)
    assert r.failed == 0
    assert list(layers) == [m["name"] for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(units[k] == unit for k, (_, unit, _) in layers.items())


@pytest.mark.parametrize("workload", ["table_frac", "verify_all", "scan_large"])
def test_bypass_properties(tiny, workload):
    r = run.Run()
    metrics = run.measure_traced(r, workload, 0, 0.0)
    assert r.failed == 0, r.reasons
    calls = {t["name"]: metrics[f"{t['name']}.calls"][0] for t in tracer.LAYERS}
    expected_zero = {t["name"] for t in tracer.LAYERS if workload in t["expect_zero_on"]}
    assert {n for n in expected_zero if calls[n]} == set()
    assert calls["cli.main"] == 1
    if workload == "verify_all":
        assert calls["laurent.LaurentPoly.__mul__"] > 0
        assert calls["qfield.QsElem.__mul__"] > 0
    if workload != "verify_all":
        assert all(calls[n] == 0 for n in calls if n.startswith(("laurent.", "tq.", "qfield.")))
    if workload == "scan_large":
        assert all(calls[n] == 0 for n in calls if n.startswith("oracle."))


def test_wrappers_are_gone_after_a_traced_run():
    from asm3 import counts, hyper, laurent

    hyp, mul = hyper.hyp, laurent.LaurentPoly.__dict__["__mul__"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, tr = tracer.run_cli(TINY_VERIFY, "verify_all")
    assert code == 0
    seen = {name for name, *_ in tr.spans}
    assert {"hyper.hyp", "laurent.LaurentPoly.__mul__", "cli.main"} <= seen
    assert tr.counts["qfield.QsElem.__mul__"] > 0
    assert tracer.wrappers_left() == []
    assert hyper.hyp is hyp and counts.hyp is hyp
    assert laurent.LaurentPoly.__dict__["__rmul__"] is mul
    for t in tracer.LAYERS:
        assert tracer._resolve(t["name"])[2] is tr._originals[t["name"]]


def test_aliases_and_imported_names_are_traced():
    from asm3 import counts
    from asm3.laurent import LaurentPoly

    tr = tracer.Tracer("unit")
    tr.install()
    try:
        one = LaurentPoly.one()
        one * 2, 2 * one
        counts.hyp((-1,), (1,), 1)
    finally:
        tr.remove()
    names = [name for name, *_ in tr.spans]
    assert names.count("laurent.LaurentPoly.__mul__") == 2
    assert names.count("hyper.hyp") == 1
    assert tracer.wrappers_left() == []


def test_self_time_excludes_children():
    tr = tracer.Tracer("unit")
    tr.spans = [("cli.main", 0.0, 10.0, -1), ("tq.phi", 1.0, 5.0, 0), ("tq.phi", 2.0, 3.0, 1)]
    m = tr.metrics()
    assert m["cli.main.self_s"] == 6.0 and m["cli.main.total_s"] == 10.0
    assert m["tq.phi.calls"] == 2 and m["tq.phi.self_s"] == 4.0 and m["tq.phi.total_s"] == 4.0


def test_checks_accept_right_and_reject_wrong_outputs():
    good = cli_output(TINY_TABLE)
    assert workloads.check_table(TINY_TABLE, good) == ""
    last = good.rstrip("\n").rsplit(",", 1)
    assert workloads.check_table(TINY_TABLE, f"{last[0]},{last[1]}1\n") != ""
    assert workloads.check_table(TINY_TABLE, good.replace("\n1,1,1\n", "\n1,1,2\n")) != ""

    out = cli_output(TINY_VERIFY)
    assert workloads.check_verify(TINY_VERIFY, out, TINY_VERIFY_CHECKS) == ""
    assert workloads.check_verify(TINY_VERIFY, out, TINY_VERIFY_CHECKS + 1) != ""

    ref = tiny_scan_reference()
    out = cli_output(TINY_SCAN)
    assert workloads.check_scan(TINY_SCAN, out, ref) == ""
    lines = out.splitlines()
    fields = lines[-1].split(",")
    fields[2] = str(Fraction(fields[2]) * Fraction(999999, 1000000))
    bad = "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
    assert workloads.check_scan(TINY_SCAN, bad, ref) != ""


def test_a_wrong_output_counts_as_a_failure(tiny):
    r = run.Run()
    argv = run.WORKLOADS["table_frac"].argv(0)
    right = r.call("plain", "table_frac", argv)
    wrong = run.Outcome(0, 1.0, 1.0, right.stdout.replace("\n1,1,1\n", "\n1,1,2\n"),
                        False, right.report)
    usage_error = r.call("plain", "table_frac", ["table", "--n", "0"])
    assert right.ok and not usage_error.ok
    r.check("table_frac", argv, [right, wrong, usage_error])
    assert (r.attempted, r.failed) == (2, 2)


def test_peak_rss_is_the_childs_own():
    ballast = b"\1" * (64 << 20)  # a parent RSS far above the child's
    res = run.Run().call("setup")
    assert res.ok and 5 < res.peak_rss_mb < 48
    del ballast


def test_child_imports_only_built_ins_before_the_measured_part():
    tree = ast.parse((HERE / "child.py").read_text())
    top = {alias.name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
           for alias in node.names}
    assert top == {"time", "_signal", "gc", "sys"}
    assert top <= set(sys.builtin_module_names)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table_frac", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
