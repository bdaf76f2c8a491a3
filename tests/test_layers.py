"""Every layer the benchmark traces still names a function of the package.

perfbench/layers.json lists the functions the traced benchmark run wraps.
Its tracer looks each one up as a module attribute, or as an entry in the
class's own __dict__, and reads cache_info() from the cached ones; a
rename or deletion in the package would otherwise surface only in the
benchmark's own test suite.
"""

import importlib
import json
from pathlib import Path

import pytest

LAYERS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "layers.json")
    .read_text()
)["targets"]


def _resolve(name: str):
    # the same lookup as the tracer: 'module.Class.attr' or 'module.func',
    # with the last part taken from the owner's own namespace
    parts = name.split(".")
    owner = importlib.import_module("asm3." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return vars(owner)[parts[-1]]


@pytest.mark.parametrize("target", LAYERS, ids=[t["name"] for t in LAYERS])
def test_traced_layer_resolves(target):
    obj = _resolve(target["name"])
    assert callable(obj)
    if target.get("cached"):
        assert callable(obj.cache_info)
