"""The package holds no code that its commands do not run, in layers.

Every function and method under src/asm3 must be entered by one of a
few small CLI runs, and every top-level import must be used.  A name that
only a test calls belongs in that test.  Package imports sit at the top
of each module, the route modules counts, oracle and tq import none of
each other, and the import graph has no cycle.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "asm3"

# kept for debugging only: no command prints a QsElem or a LaurentPoly,
# and QsElem.sb is read only by these two
UNREACHED_BY_DESIGN = {"__repr__", "__str__", "sb"}

# small runs of every subcommand in both formats, `table` at x = 5/7, 1
# and 3, plus three usage errors; the profile hook is set before asm3 is
# imported, so calls made at import time count
_TRACE = r"""
import contextlib, io, json, os, sys

src = os.path.realpath(sys.argv[1])
entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(hook)
from asm3 import cli

RUNS = (
    ["table", "--n", "1..4", "--x", "5/7"],
    ["table", "--n", "1..4", "--x", "1"],
    ["table", "--n", "2..5", "--x", "3"],
    ["table", "--n", "3", "--x", "0.5", "--format", "json"],
    ["verify", "--max-m", "2", "--max-n", "4"],
    ["verify", "--max-m", "2", "--max-n", "4", "--format", "json"],
    ["scan", "--n", "3,4,40"],
    ["scan", "--n", "5", "--format", "json"],
    ["table", "--n", "1", "--x", "abc"],
    ["verify", "--suite", "nope"],
    ["scan", "--n", "x"],
)
sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    codes = [cli.main(argv) for argv in RUNS]
sys.setprofile(None)
ours = [
    (os.path.basename(c.co_filename), c.co_firstlineno)
    for c in entered
    if os.path.dirname(os.path.realpath(c.co_filename)) == src
]
print(json.dumps({"codes": codes, "entered": sorted(ours)}))
"""


def _defs(path: Path):
    # (file name, first line of the code object) of every def in one module
    out = []
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                stack.append(const)
                if not const.co_name.startswith("<"):
                    out.append((path.name, const.co_firstlineno, const.co_name))
    return out


def test_every_def_is_entered_by_a_command():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE, str(SRC)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["codes"] == [0] * 8 + [2] * 3
    entered = {tuple(e) for e in doc["entered"]}
    missed = [
        d
        for path in sorted(SRC.glob("*.py"))
        for d in _defs(path)
        if d[:2] not in entered and d[2] not in UNREACHED_BY_DESIGN
    ]
    assert not missed


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "QsElem | None"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(
        (path.name, line, name) for name, line in bound.items() if name not in used
    )


def test_no_unused_top_level_imports():
    unused = [u for path in sorted(SRC.glob("*.py")) for u in _unused_imports(path)]
    assert not unused


# the three routes that verify compares; none may import another
ROUTES = {"counts", "oracle", "tq"}


def _package_imports(node):
    # names of the asm3 modules imported anywhere under node
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            for alias in sub.names:
                parts = alias.name.split(".")
                if parts[0] == "asm3" and len(parts) > 1:
                    out.add(parts[1])
        elif isinstance(sub, ast.ImportFrom):
            if sub.level:
                base = sub.module
            elif sub.module and sub.module.split(".")[0] == "asm3":
                base = sub.module.partition(".")[2]
            else:
                continue
            if base:
                out.add(base.split(".")[0])
            else:  # from . import name: each name is a module
                out.update(alias.name for alias in sub.names)
    return out


def _import_graph():
    return {
        path.stem: _package_imports(ast.parse(path.read_text())) - {path.stem}
        for path in sorted(SRC.glob("*.py"))
    }


def test_no_package_import_inside_a_function():
    # a deferred import of a sibling module hides a dependency from the
    # module header; deferred stdlib imports (json, traceback) are fine
    deferred = [
        (path.name, node.name, sorted(_package_imports(node)))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _package_imports(node)
    ]
    assert not deferred


def test_routes_import_no_route_and_the_graph_is_acyclic():
    graph = _import_graph()
    crossed = sorted((name, dep) for name in ROUTES for dep in graph[name] & ROUTES)
    assert not crossed
    # repeatedly drop the modules that import nothing left in the graph;
    # whatever remains lies on or above a cycle
    left = dict(graph)
    while True:
        leaves = {name for name, deps in left.items() if not deps & left.keys()}
        if not leaves:
            break
        for name in leaves:
            del left[name]
    assert not left
