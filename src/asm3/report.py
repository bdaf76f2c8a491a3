"""The record every identity check returns."""

from __future__ import annotations

from typing import NamedTuple


class CheckResult(NamedTuple):
    name: str
    params: str
    passed: bool
    detail: str = ""
