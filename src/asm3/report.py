"""The package's two records: a check's result and a refined enumeration.

Every route module returns these, so they live apart from all routes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Tuple, Union

Count = Union[int, Fraction]


class CheckResult(NamedTuple):
    name: str
    params: str
    passed: bool
    detail: str = ""


class EnumTable(NamedTuple):
    """One refined enumeration: counts indexed by r = 1..n."""

    n: int
    counts: Tuple[Count, ...]

    @property
    def total(self) -> Count:
        return sum(self.counts)

    def is_symmetric(self) -> bool:
        return self.counts == self.counts[::-1]
