"""Record one tree's benchmark and stretched runs in BENCH_<LABEL>.json.

    python3 bench_record.py LABEL

First runs `perfbench/run.py --workload all --seconds 30` and keeps its
`# env {...}` line and its last line, the JSON result.  Then times each
run of STRETCHED once, in a fresh interpreter that imports asm3.cli from
this checkout's src/ and runs main(ARGV) with its stdout discarded: the
wall time of that process, start-up included, and its peak RSS.  The
child reads the peak RSS itself, as the VmHWM line of /proc/self/status
just before it exits; perfbench/child.py says why wait4's ru_maxrss
would read the parent's pages too.  Writes BENCH_<LABEL>.json next to
this script as

    {"env": {...}, "benchmark": {...},
     "stretched": [{"argv", "wall_s", "peak_rss_mb", "exit_code"}, ...]}

A perf change records one file before and one after it, on one machine
in one sitting, since the machine's speed is part of every number.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent

# the stretched runs: each one's own time is many times the start-up
STRETCHED = (
    ("verify", "--suite", "all", "--max-n", "170"),
    ("verify", "--suite", "closed-forms", "--max-n", "170"),
    ("verify", "--suite", "all", "--max-m", "64"),
    ("verify", "--suite", "tq-identities", "--max-m", "64"),
    ("verify", "--suite", "oracle", "--max-n", "16"),
    ("table", "--n", "1..16", "--x", "5/7"),
    ("scan", "--n", "8723"),
)

# runs main(ARGV), then writes the process's VmHWM in kB as the last
# line of stderr and exits with the CLI's code
_CHILD = r"""
import sys
from asm3.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as fh:
    kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
sys.stderr.write(f"\nVmHWM {kb}\n")
sys.exit(code)
"""


def benchmark() -> tuple:
    """The `# env` object and the JSON result of one perfbench run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--seconds", "30"]
    out = subprocess.run(
        argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    ).stdout
    lines = out.splitlines()
    env = next(line for line in lines if line.startswith("# env "))
    return json.loads(env[len("# env "):]), json.loads(lines[-1])


def stretched(argv: tuple) -> dict:
    """Wall time, peak RSS and exit code of one run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    wall = time.perf_counter() - start
    last = proc.stderr.splitlines()[-1] if proc.stderr else ""
    kb = int(last.split()[1]) if last.startswith("VmHWM ") else None
    return {
        "argv": list(argv),
        "wall_s": round(wall, 3),
        "peak_rss_mb": None if kb is None else round(kb / 1024, 1),
        "exit_code": proc.returncode,
    }


def main(args: list) -> int:
    if len(args) != 1 or not re.fullmatch(r"[A-Za-z0-9_.-]+", args[0]):
        sys.stderr.write("usage: python3 bench_record.py LABEL  (letters, digits, _ . -)\n")
        return 2
    env, result = benchmark()
    record = {
        "env": env,
        "benchmark": result,
        "stretched": [stretched(argv) for argv in STRETCHED],
    }
    path = ROOT / f"BENCH_{args[0]}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
