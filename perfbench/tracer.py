"""In-process tracer for the layers of asm3, kept outside the package.

The traced run wraps the public functions named in layers.json from
here, records one span (name, start, end, parent id, workload) per call
in memory, and derives per-layer calls, self time and total time from
the spans when the run ends.  Count-only targets get a cheaper wrapper
that just counts calls.  Each wrapper is installed under every name that
binds the original object: a module that did `from .hyper import hyp`
holds its own reference, and a class whose `__rmul__ = __mul__` holds
two.  `Tracer.remove` puts every original back.

child.py runs it in a fresh interpreter, so the program's caches start
empty exactly as in `python -m asm3.cli`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = json.loads((HERE / "layers.json").read_text())["targets"]

_MARK = "__perfbench_wrapper__"


def ensure_src_path() -> None:
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def metric_names() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = []
    for t in LAYERS:
        out.append((f"{t['name']}.calls", "count"))
        if t["kind"] == "span":
            out.append((f"{t['name']}.self_s", "s"))
            out.append((f"{t['name']}.total_s", "s"))
        if t.get("cached"):
            out.append((f"{t['name']}.cache_hit_ratio", "ratio"))
            out.append((f"{t['name']}.cache_size", "count"))
    return out


def _resolve(name: str):
    """Split 'module.Class.attr' or 'module.func' into (owner, attr, obj)."""
    parts = name.split(".")
    owner = importlib.import_module("asm3." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], vars(owner)[parts[-1]]


def _asm3_modules():
    return [
        m for k, m in list(sys.modules.items())
        if (k == "asm3" or k.startswith("asm3.")) and m is not None
    ]


class Tracer:
    """Wraps the layers.json targets; one instance per traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        ensure_src_path()
        importlib.import_module("asm3.cli")
        self._originals = {t["name"]: _resolve(t["name"])[2] for t in LAYERS}

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)

        setattr(traced, _MARK, True)
        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(counted, _MARK, True)
        return counted

    # -- install / remove ----------------------------------------------

    def install(self) -> None:
        for t in LAYERS:
            owner, original = _resolve(t["name"])[0], self._originals[t["name"]]
            make = self._span_wrapper if t["kind"] == "span" else self._count_wrapper
            wrapper = make(t["name"], original)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = _asm3_modules()
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))

    def remove(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    # -- aggregation ----------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics from the recorded spans and counters.

        self_s is a span's duration minus that of its direct children;
        total_s sums only spans with no ancestor of the same name, so a
        recursive or re-entrant layer is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for sid, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total_s[name] += end - start
        out: Dict[str, float] = {}
        for t in LAYERS:
            name = t["name"]
            if t["kind"] == "span":
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.self_s"] = self_s[name]
                out[f"{name}.total_s"] = total_s[name]
            else:
                out[f"{name}.calls"] = self.counts[name]
            if t.get("cached"):
                info = self._originals[name].cache_info()
                looked_up = info.hits + info.misses
                out[f"{name}.cache_hit_ratio"] = info.hits / looked_up if looked_up else 0.0
                out[f"{name}.cache_size"] = info.currsize
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "workload": self.workload,
                }) + "\n")


def wrappers_left() -> List[str]:
    """Names in asm3 modules and classes still bound to a tracer wrapper."""
    left = []
    for mod in _asm3_modules():
        for key, val in vars(mod).items():
            if getattr(val, _MARK, False):
                left.append(f"{mod.__name__}.{key}")
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for ckey, cval in vars(val).items():
                    if getattr(cval, _MARK, False):
                        left.append(f"{mod.__name__}.{key}.{ckey}")
    return left


def run_cli(argv: List[str], workload: str):
    """One traced in-process CLI call; returns (exit code, tracer)."""
    tracer = Tracer(workload)
    tracer.install()
    try:
        code = importlib.import_module("asm3.cli").main(argv)
    finally:
        tracer.remove()
    sys.stdout.flush()
    return code, tracer
