"""One report shape for every invariant check.

A check names itself, counts the cases it decided and lists one structured
witness per failing case; it passes exactly when that list is empty.
Witnesses and metrics hold only strings, integers, booleans and lists or
tuples of those (exact values are rendered with ``str``), so both serialize
with ``json.dumps`` as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping


def _plain(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(_plain(v) for v in value)
    return isinstance(value, (str, int))  # bool is an int


@dataclass(frozen=True)
class CheckReport:
    name: str
    checked: int
    failures: tuple[dict, ...] = ()
    metrics: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "failures", tuple(self.failures))
        object.__setattr__(self, "metrics", MappingProxyType(dict(self.metrics)))
        for entry in self.failures + (self.metrics,):
            if not all(isinstance(k, str) and _plain(v) for k, v in entry.items()):
                raise TypeError(f"{self.name}: report entries must be plain data: {entry}")

    @property
    def passed(self) -> bool:
        return not self.failures
