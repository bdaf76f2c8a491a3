"""One measured asm3 invocation in a fresh interpreter.

    python3 perfbench/child.py OUT plain WORKLOAD ARGV...
    python3 perfbench/child.py OUT trace WORKLOAD ARGV...
    python3 perfbench/child.py OUT setup

The measured part is `import asm3.cli` plus `main(ARGV)`, which prints
the CLI's output on stdout; with `trace` it also wraps the layers
(tracer.py); with `setup` it is `import asm3.cli` plus `build_parser()`.
The child exits with the CLI's code and writes a JSON report to OUT.
Before the measured part the child imports nothing but the built-in
modules time, sys, gc and _signal (which the interpreter loads at
start-up), so the program pays for every other module it imports, as
it would under `python -m asm3.cli`.

A shared virtual machine can change speed by up to 2x within a second
(seen on a 2-vCPU Xeon guest), and the change reaches every process
alike.  So the child times a fixed calibration job right before and
right after the measured part, and once every PROBE_PERIOD_S during it
from a SIGALRM handler; the parent rescales the measured time by the
mean speed these calibrations saw, to the speed at which one unit of the
job takes CAL_REF_S.  On that guest, over 20 to 26 invocations of a
1.6 s `verify`, this cut the standard deviation of single times over
their mean from 15-21% to about 3%; calibrating only before and after
left 8-15%.  The job runs with the garbage collector off, so the heap
the program leaves behind does not slow it.

The report also gives the wall and CPU time of the child's own harness
(all calibrations and the report), which the parent subtracts from what
wait4 says the process took; everything else, interpreter start-up
included, is the invocation.

The report gives the child's peak RSS as the VmHWM of its own address
space.  The ru_maxrss that wait4 returns would not do: on Linux, exec
carries the high-water RSS of the address space it replaces into the
process's maxrss, and a child started by posix_spawn (or fork) execs
from its parent's address space, so ru_maxrss reads at least the
parent's RSS.
"""

import time

T0, P0 = time.perf_counter(), time.process_time()

import _signal  # noqa: E402  (built in and loaded at start-up, unlike signal)
import gc  # noqa: E402
import sys  # noqa: E402

# Seconds one unit of the calibration job takes at the reference speed;
# the parent rescales every time to that speed.
CAL_REF_S = 0.7e-3
CAL_UNITS = 20
PROBE_PERIOD_S = 0.05
CAL_MODULUS = 11 ** 900

# Seconds per unit of every calibration taken, and the wall and CPU
# seconds all calibrations cost.
costs = []
cal_wall_s = cal_cpu_s = 0.0


class _Rational:
    """A cut-down fractions.Fraction built from built-ins only."""

    __slots__ = ("_numerator", "_denominator")

    def __new__(cls, numerator, denominator):
        self = object.__new__(cls)
        if type(numerator) is int is type(denominator):
            a, b = numerator, denominator
            while b:
                a, b = b, a % b
            numerator //= a
            denominator //= a
        self._numerator = numerator
        self._denominator = denominator
        return self

    @property
    def numerator(self):
        return self._numerator

    @property
    def denominator(self):
        return self._denominator

    def __add__(self, other):
        if isinstance(other, _Rational):
            na, da = self.numerator, self.denominator
            nb, db = other.numerator, other.denominator
            return _Rational(na * db + nb * da, da * db)
        return NotImplemented


def _unit() -> None:
    """One unit of the calibration job."""
    acc, table, big = _Rational(0, 1), {}, 7 ** 800
    for i in range(1, 81):
        acc += _Rational(i % 97 + 1, i % 89 + 2)
        table[i & 1023] = table.get(i & 1023, 0) + i * i
        if i % 20 == 0:
            big = big * 12345678901234567 % CAL_MODULUS


def calibrate(units: int, warmups: int = 0) -> None:
    """Time `units` runs of a fixed pure-Python job, with the GC off.

    The job does what the program spends its time on: exact rational
    sums, dict updates and big-integer products.  Among the jobs tried,
    this one, which allocates objects and calls methods the way
    Fraction does, followed the program's changes of speed most nearly
    one to one; a job of bare integer arithmetic changed speed about a
    quarter less.  It uses only built-ins, and it lives here, not in the
    program, so no change to asm3 can move it.  `warmups` untimed units
    run first, so that a probe taken amid the program's work times the
    job with its code and data in cache, as the runs before and after do.
    """
    global cal_wall_s, cal_cpu_s
    enabled = gc.isenabled()
    gc.disable()
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(warmups):
        _unit()
    w1 = time.perf_counter()
    for _ in range(units):
        _unit()
    w2, c2 = time.perf_counter(), time.process_time()
    if enabled:
        gc.enable()
    costs.append((w2 - w1) / units)
    cal_wall_s += w2 - w0
    cal_cpu_s += c2 - c0


def probe(signum, frame) -> None:
    calibrate(1, warmups=1)


def main() -> int:
    out, mode = sys.argv[1], sys.argv[2]
    workload, argv = (sys.argv[3], sys.argv[4:]) if mode != "setup" else ("", [])

    calibrate(CAL_UNITS)
    _signal.signal(_signal.SIGALRM, probe)
    _signal.setitimer(_signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    a_wall, a_cpu = time.perf_counter(), time.process_time()
    a_probe_wall, a_probe_cpu = cal_wall_s, cal_cpu_s
    traced = None
    if mode == "setup":
        import asm3.cli

        asm3.cli.build_parser()
        code = 0
    elif mode == "trace":
        import tracer

        code, traced = tracer.run_cli(argv, workload)
    else:
        import asm3.cli

        code = asm3.cli.main(argv)
        sys.stdout.flush()
    b_wall, b_cpu = time.perf_counter(), time.process_time()
    in_run_wall, in_run_cpu = cal_wall_s - a_probe_wall, cal_cpu_s - a_probe_cpu
    _signal.setitimer(_signal.ITIMER_REAL, 0, 0)
    with open("/proc/self/status") as fh:
        peak_rss_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    calibrate(CAL_UNITS)

    import json

    report = {"exit": code, "cal_s": costs, "peak_rss_kb": peak_rss_kb}
    if traced:
        report["metrics"] = traced.metrics()
        report["wrappers_left"] = tracer.wrappers_left()
        traced.write_spans(out[:-len(".json")] + ".spans.jsonl")
    report["harness_wall_s"] = (a_wall - T0) + in_run_wall + (time.perf_counter() - b_wall)
    report["harness_cpu_s"] = (a_cpu - P0) + in_run_cpu + (time.process_time() - b_cpu)
    with open(out, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
