"""Supported base manifolds and generic chart domains for forms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .chartfn import ChartSpace


def _default_torus_names(n: int) -> tuple[str, ...]:
    if n == 1:
        return ("x",)
    if n == 2:
        return ("x", "y")
    if n % 2 == 0:
        pairs = []
        for j in range(1, n // 2 + 1):
            pairs += [f"x{j}", f"y{j}"]
        return tuple(pairs)
    return tuple(f"x{j}" for j in range(1, n + 1))


@dataclass(frozen=True)
class Torus:
    """Flat torus R^n / Z^n with unit lattice and unit volume.

    ``space`` is built once, at construction (so duplicate names raise
    ValueError there); it is left out of equality, hashing and repr."""

    n: int
    names: Optional[tuple[str, ...]] = None
    space: ChartSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("torus dimension must be >= 1")
        if self.names is None:
            object.__setattr__(self, "names", _default_torus_names(self.n))
        if len(self.names) != self.n:
            raise ValueError("coordinate names must match dimension")
        object.__setattr__(self, "space", ChartSpace.torus(self.names))

    @property
    def dim(self) -> int:
        return self.n

    @property
    def covectors(self) -> tuple[str, ...]:
        return tuple(f"d{n}" for n in self.names)

    @property
    def is_compact(self) -> bool:
        return True


@dataclass(frozen=True)
class Sphere2:
    """Round 2-sphere with form algebra restricted to span{1, area form}.

    The area form is normalized to total integral 1.
    """

    @property
    def dim(self) -> int:
        return 2

    @property
    def space(self) -> ChartSpace:
        return ChartSpace.euclidean(())

    @property
    def covectors(self) -> tuple[str, ...]:
        return ("s1", "s2")

    @property
    def is_compact(self) -> bool:
        return True


@dataclass(frozen=True)
class EuclideanChart:
    """An open chart of R^n with named coordinates."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) < 1:
            raise ValueError("chart needs at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def space(self) -> ChartSpace:
        return ChartSpace.euclidean(self.names)

    @property
    def covectors(self) -> tuple[str, ...]:
        return tuple(f"d{n}" for n in self.names)

    @property
    def is_compact(self) -> bool:
        return False


Manifold = Torus | Sphere2 | EuclideanChart
