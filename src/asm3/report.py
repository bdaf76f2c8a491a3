"""Small result records returned by the bulk check operations."""

from __future__ import annotations

from typing import Iterable, List, NamedTuple


class CheckResult(NamedTuple):
    name: str
    params: str
    passed: bool
    detail: str = ""


def all_passed(results: Iterable[CheckResult]) -> bool:
    return all(r.passed for r in results)


def failures(results: Iterable[CheckResult]) -> List[CheckResult]:
    return [r for r in results if not r.passed]
