"""Benchmark of the three asm3 CLI commands: table, verify and scan.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is table_frac, verify_all or scan_large (see workloads.py), or
`all` to run the three in turn.  The loop is closed with one client:
each invocation is a fresh interpreter (child.py) that imports asm3.cli
and runs main(ARGV), started only after the previous one has ended,
with ASM3_THREADS unset and PYTHONPATH pointing at this checkout's src/.

--trace 0 reports the end-to-end metrics, each the median over the
invocations of the run: wall_s (wall time of one invocation), cpu_s
(its user+sys time, from the child's wait4 rusage), peak_rss_mb (the
child's peak RSS, which the child reads itself; for a workload with a
memory probe, the median of MEMORY_PROBES probe invocations) and
setup_s (a fresh interpreter importing asm3.cli and building its
parser, sampled SETUP_SAMPLES times after one warm-up).
Times are rescaled to a reference machine speed; child.py says why.

--trace 1 runs each invocation twice, once plain and once with every
layers.json target wrapped, and reports the per-layer metrics plus the
tracing overhead (traced wall_s minus plain wall_s).

Every output is checked after the timed loop; a nonzero exit, a timeout
or a wrong output is a failed operation.  The last stdout line is the
JSON result; the lines before it give the environment, each metric with
its unit and sample count, and the fail ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from child import CAL_REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 15
MEMORY_PROBES = 3
CHILD = str(HERE / "child.py")
REPORT = OUT / "child.json"
# A run (set-up, timed loop and checks) must end within RUN_DEADLINE s.
RUN_DEADLINE = 170.0


@dataclass
class Outcome:
    code: int
    wall_s: float
    cpu_s: float
    stdout: str
    timed_out: bool
    report: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.timed_out and self.report is not None

    @property
    def peak_rss_mb(self) -> float:
        return self.report["peak_rss_kb"] / 1024.0

    @property
    def scale(self) -> float:
        """Factor taking this child's times to the reference speed.

        The child's speed is the mean of the speeds its calibrations saw,
        so a probe taken in a slow spell counts for the time it stands for.
        """
        return CAL_REF_S * statistics.mean(1.0 / c for c in self.report["cal_s"])

    def scaled(self) -> Tuple[float, float]:
        """(wall, cpu) seconds of the invocation at the reference speed."""
        r = self.report
        return ((self.wall_s - r["harness_wall_s"]) * self.scale,
                (self.cpu_s - r["harness_cpu_s"]) * self.scale)


def child_env() -> Dict[str, str]:
    """Pinned environment: no ASM3_THREADS, this checkout's src first."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
    }


def spawn(args: List[str], timeout: float) -> Outcome:
    """Run one child to completion; time it and read its own rusage."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    timed_out = threading.Event()
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + args, child_env(),
                         file_actions=actions)
    reaped = False

    def kill() -> None:
        if not reaped:
            timed_out.set()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        reaped = True
        wall = time.perf_counter() - start
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
        timer.join()
    code = os.waitstatus_to_exitcode(status)
    return Outcome(code, wall, usage.ru_utime + usage.ru_stime,
                   out_path.read_text(), timed_out.is_set())


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "asm3").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'none' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> Dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "ASM3_THREADS": None,
    }


class Run:
    """Counts the operations of one benchmark run against its deadline."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def remaining(self) -> float:
        return RUN_DEADLINE - (time.perf_counter() - self.start)

    def call(self, mode: str, workload: str = "", argv: Sequence[str] = ()) -> Outcome:
        """One child.py invocation (mode plain, trace or setup).

        A bad exit, a timeout or a missing report is a failure.
        """
        REPORT.unlink(missing_ok=True)
        args = [mode] if mode == "setup" else [mode, workload, *argv]
        res = spawn([CHILD, str(REPORT)] + args, self.remaining())
        self.attempted += 1
        if res.code == 0 and not res.timed_out and REPORT.is_file():
            res.report = json.loads(REPORT.read_text())
        if not res.ok:
            self.fail(f"{' '.join(args)}: exit {res.code}"
                      + (" after timeout" if res.timed_out else ""))
        return res

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons.append(reason)

    def check(self, workload: str, argv: List[str], outputs: List[Outcome]) -> None:
        """Check each successful output; identical outputs are checked once."""
        verdicts: Dict[str, str] = {}
        for res in outputs:
            if not res.ok:
                continue
            if res.stdout not in verdicts:
                try:
                    verdicts[res.stdout] = WORKLOADS[workload].check(argv, res.stdout)
                except Exception as exc:  # a malformed output must count, not crash
                    verdicts[res.stdout] = f"check raised {exc!r}"
            if verdicts[res.stdout]:
                self.fail(f"{workload}: {verdicts[res.stdout]}")


def timed_loop(run: Run, seconds: float, once) -> list:
    """Call once() back to back for about `seconds`, at least once.

    A call is started only if the previous one's duration still fits, so
    a run overshoots by little however long one invocation takes.
    """
    results = []
    begin = time.perf_counter()
    last = 0.0
    while not results or time.perf_counter() - begin + last <= seconds:
        if run.remaining() <= 0:
            break
        t = time.perf_counter()
        results.append(once())
        last = time.perf_counter() - t
    return results


def measure_setup(run: Run) -> Dict[str, tuple]:
    run.call("setup")  # warm-up: compiles the bytecode caches
    probes = [run.call("setup") for _ in range(SETUP_SAMPLES)]
    walls = [res.scaled()[0] for res in probes if res.ok]
    return {"setup_s": (statistics.median(walls), "s", len(walls))} if walls else {}


def measure_workload(run: Run, workload: str, seed: int, seconds: float) -> Dict[str, tuple]:
    wl = WORKLOADS[workload]
    argv = wl.argv(seed)
    outs = timed_loop(run, seconds, lambda: run.call("plain", workload, argv))
    run.check(workload, argv, outs)
    ok = [res for res in outs if res.ok]
    memory = ok
    if wl.memory_argv:
        probe_argv = wl.memory_argv(seed)
        print(f"# {workload} memory probe: asm3 {' '.join(probe_argv)}")
        probes = [run.call("plain", workload, probe_argv) for _ in range(MEMORY_PROBES)]
        run.check(workload, probe_argv, probes)
        memory = [res for res in probes if res.ok]
    if not ok or not memory:
        return {}
    scaled = [res.scaled() for res in ok]
    cal = [r.report["cal_s"] for r in ok]
    during = [v for c in cal for v in c[1:-1]] or [float("nan")]
    print(f"# {workload} calibration unit median before "
          f"{statistics.median(c[0] for c in cal) * 1e3:.4f} ms, during "
          f"{statistics.median(during) * 1e3:.4f} ms, after "
          f"{statistics.median(c[-1] for c in cal) * 1e3:.4f} ms; "
          f"unscaled wall_s median {statistics.median(r.wall_s for r in ok):.4f} s; "
          f"speed scale median {statistics.median(r.scale for r in ok):.4f}")
    n = len(ok)
    return {
        "wall_s": (statistics.median(w for w, _ in scaled), "s", n),
        "cpu_s": (statistics.median(c for _, c in scaled), "s", n),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in memory), "MB", len(memory)),
    }


def measure_traced(run: Run, workload: str, seed: int, seconds: float) -> Dict[str, tuple]:
    argv = WORKLOADS[workload].argv(seed)
    pairs = timed_loop(run, seconds, lambda: (run.call("plain", workload, argv),
                                              run.call("trace", workload, argv)))
    run.check(workload, argv, [res for pair in pairs for res in pair])
    plain = [p for p, _ in pairs if p.ok]
    traced = [t for _, t in pairs if t.ok]
    for res in traced:
        if res.report["wrappers_left"]:
            run.fail(f"wrappers left after the traced run: {res.report['wrappers_left']}")
    if not plain or not traced:
        return {}
    out: Dict[str, tuple] = {}
    for name, unit in tracer.metric_names():
        values = [r.report["metrics"][name] * (r.scale if unit == "s" else 1) for r in traced]
        out[name] = (statistics.median(values), unit, len(traced))
    wall_t = statistics.median(r.scaled()[0] for r in traced)
    wall_u = statistics.median(r.scaled()[0] for r in plain)
    out["trace.wall_s"] = (wall_t, "s", len(traced))
    out["trace.untraced_wall_s"] = (wall_u, "s", len(plain))
    out["trace.overhead_s"] = (wall_t - wall_u, "s", len(traced))
    return out


def layer_shares(metrics: Dict[str, tuple]) -> Dict[str, float]:
    """Each module's share of the traced cli.main time, by self time."""
    total = metrics["cli.main.total_s"][0]
    shares: Dict[str, float] = {}
    for name, (value, _, _) in metrics.items():
        if name.endswith(".self_s"):
            module = name.split(".", 1)[0]
            shares[module] = shares.get(module, 0.0) + value
    return {m: v / total for m, v in shares.items()} if total else {}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "asm3" / "cli.py").is_file():
        print(f"error: no asm3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer.ensure_src_path()  # the table check runs the monotone-triangle oracle

    print("# env " + json.dumps(environment(), sort_keys=True))
    run = Run()
    metrics: Dict[str, tuple] = {}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    prefix = (lambda w, k: f"{w}.{k}") if args.workload == "all" else (lambda w, k: k)
    try:
        if not args.trace:
            metrics.update(measure_setup(run))
        for w in names:
            print(f"# workload {w} seed {args.seed}: asm3 {' '.join(WORKLOADS[w].argv(args.seed))}")
            measure = measure_traced if args.trace else measure_workload
            got = measure(run, w, args.seed, args.seconds)
            if args.trace and got:
                shares = sorted(layer_shares(got).items(), key=lambda kv: -kv[1])
                print(f"# {w} self-time share: " + ", ".join(f"{m} {v:.3f}" for m, v in shares))
            for k, v in got.items():
                metrics[prefix(w, k)] = v
    except KeyboardInterrupt:
        return 130

    for name, (value, unit, n) in metrics.items():
        print(f"{name} {value:.6g} {unit} (median of {n})")
    print(f"fail_ratio {run.failed / max(run.attempted, 1):.6g} ({run.failed}/{run.attempted})")
    for reason in run.reasons:
        print(f"# failed: {reason}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
