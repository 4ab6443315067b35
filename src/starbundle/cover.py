"""Good covers of flat tori by axis-aligned rectangles with explicit lifts.

``GoodCover`` reads every chart's bounds once as integers in units of 1/den,
den the lcm of all chart centre and halfwidth denominators, and decides all
geometry on that lattice.  A pair's lift on an axis is the integer s that
makes chart j's interval, moved by s, meet chart i's: unique while widths
stay below 1/2, so two mean a disconnected overlap.  A triple is in the
nerve when its two pair overlaps in the first chart's frame meet; its lifts
are then forced.  Coverage is exact: the uncovered set is closed and a
union of faces of the arrangement that the chart edges cut, so when it is
not empty it holds a vertex, a point whose every coordinate is an edge, and
the vertices are what is probed.  One lift table holds all ordered pairs
and the diagonal; ``frame_shift`` is minus the lift, in ints.
``pair_rect`` and ``triple_rect`` turn the same integer overlaps back into
``Rect``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from types import MappingProxyType
from typing import Mapping, Sequence

from .manifold import Torus

Box = tuple[tuple[int, int], ...]  # per axis (lo, hi) in units of 1/den


@dataclass(frozen=True)
class Rect:
    """Open axis-aligned rectangle in lifted coordinates."""

    center: tuple[Fraction, ...]
    halfwidth: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.center) != len(self.halfwidth):
            raise ValueError("center/halfwidth dimension mismatch")
        for q in self.center + self.halfwidth:
            if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
                raise TypeError(f"Rect takes int or Fraction bounds, not {type(q).__name__}")
        if any(w <= 0 for w in self.halfwidth):
            raise ValueError("halfwidths must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)

    def bounds(self, axis: int) -> tuple[Fraction, Fraction]:
        return (
            self.center[axis] - self.halfwidth[axis],
            self.center[axis] + self.halfwidth[axis],
        )


def _meet(a: Box, b: Box) -> Box:
    return tuple((max(lo1, lo2), min(hi1, hi2)) for (lo1, hi1), (lo2, hi2) in zip(a, b))


class GoodCover:
    """Rectangle cover of a torus with nerve pairs/triples and chosen lifts.

    ``lattice[i][a]`` is chart i's (lo, hi) on axis a in units of 1/``den``.
    """

    def __init__(self, torus: Torus, charts: Sequence[Rect], grid_shape: tuple[int, ...] | None = None):
        self.torus = torus
        self.charts = tuple(charts)
        self.grid_shape = grid_shape
        for r in self.charts:
            if r.dim != torus.dim:
                raise ValueError("chart dimension mismatch")
        self.den = den = lcm(*(q.denominator for r in self.charts for q in r.center + r.halfwidth))
        self.lattice: tuple[Box, ...] = tuple(
            tuple((int(lo * den), int(hi * den)) for lo, hi in map(r.bounds, range(r.dim)))
            for r in self.charts
        )
        if any(hi - lo >= den for box in self.lattice for lo, hi in box):
            raise ValueError("chart halfwidths must stay below 1/2")
        self._build_nerve()
        self._check_coverage()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def grid(torus: Torus, n: int, halfwidth: Fraction | None = None) -> "GoodCover":
        """n x ... x n grid of congruent rectangles, centers at lattice/n."""
        if not isinstance(n, int):
            raise TypeError(f"grid size n must be an int, not {type(n).__name__}")
        if n < 3:
            raise ValueError("grid covers need n >= 3 per axis to stay good")
        dim = torus.dim
        if halfwidth is not None and not isinstance(halfwidth, (int, Fraction)):
            raise TypeError(f"halfwidth must be a Fraction, not {type(halfwidth).__name__}")
        w = halfwidth if halfwidth is not None else Fraction(5, 8 * n)
        if not Fraction(1, 2 * n) < w < Fraction(1, 2):
            raise ValueError("halfwidth must cover the grid gap and embed")
        charts = []
        for coords in product(range(n), repeat=dim):
            center = tuple(Fraction(c, n) for c in coords)
            charts.append(Rect(center, (w,) * dim))
        return GoodCover(torus, charts, grid_shape=(n,) * dim)

    # -- construction --------------------------------------------------------

    def _build_nerve(self):
        den, lattice, dim = self.den, self.lattice, self.torus.dim
        n = len(lattice)
        self._lifts: dict[tuple[int, int], tuple[int, ...]] = {(i, i): (0,) * dim for i in range(n)}
        boxes: dict[tuple[int, int], Box] = {}
        for i, j in combinations(range(n), 2):
            lift = []
            for ax, ((lo1, hi1), (lo2, hi2)) in enumerate(zip(lattice[i], lattice[j])):
                # integers s with (lo1, hi1) meeting (lo2 + s*den, hi2 + s*den)
                ns = range((lo1 - hi2) // den + 1, -((lo2 - hi1) // den))
                if len(ns) > 1:
                    raise ValueError(
                        f"overlap of charts {i},{j} is disconnected on axis {ax}; "
                        "not a good cover"
                    )
                lift.append(ns)
            if all(lift):
                lift = tuple(ns[0] for ns in lift)
                self._lifts[(i, j)], self._lifts[(j, i)] = lift, tuple(-s for s in lift)
                boxes[(i, j)] = self._overlap(i, j)
        self.pairs = tuple(boxes)
        self._frame_shifts = {
            key: MappingProxyType({a: -s for a, s in zip(self.torus.names, lift)})
            for key, lift in self._lifts.items()
        }
        triples = []
        for i in range(n):
            above = [j for j in range(i + 1, n) if (i, j) in boxes]
            for j, k in combinations(above, 2):
                # _meet(boxes[(i, j)], boxes[(i, k)]) is nonempty on every axis
                if (j, k) in boxes and all(
                    lo1 < hi2 and lo2 < hi1
                    for (lo1, hi1), (lo2, hi2) in zip(boxes[(i, j)], boxes[(i, k)])
                ):
                    triples.append((i, j, k))
        self.triples = tuple(triples)

    def _overlap(self, i: int, j: int) -> Box:
        """Chart i met with chart j lifted into chart i's frame."""
        den, lift = self.den, self.pair_lift(i, j)
        moved = [(lo + s * den, hi + s * den) for (lo, hi), s in zip(self.lattice[j], lift)]
        return _meet(self.lattice[i], moved)

    def _check_coverage(self):
        """Probe each vertex (module docstring) with the bitmask of charts
        that hold it per axis; narrow the live charts one axis at a time,
        keeping one point per live set, and name a point no chart holds."""
        den, axes = self.den, []
        for ax in range(self.torus.dim):
            sides = [(box[ax][0], box[ax][1] - box[ax][0]) for box in self.lattice]
            edges = sorted({(lo + d) % den for lo, width in sides for d in (0, width)}) or [0]
            axes.append([
                (e, sum(1 << i for i, (lo, w) in enumerate(sides) if 0 < (e - lo) % den < w))
                for e in edges
            ])
        live = {(1 << len(self.charts)) - 1: ()}
        for ax, probes in enumerate(axes):
            narrowed = {}
            for mask, point in live.items():
                for e, holds in probes:
                    if not mask & holds:
                        point += (e,) + tuple(later[0][0] for later in axes[ax + 1:])
                        where = ", ".join(str(Fraction(q, den)) for q in point)
                        raise ValueError(
                            f"charts do not cover the torus: ({where}) lies in no chart"
                        )
                    narrowed.setdefault(mask & holds, point + (e,))
            live = narrowed

    # -- nerve queries ------------------------------------------------------------

    def pair_lift(self, i: int, j: int) -> tuple[int, ...]:
        """Integer lift applied to chart j in chart i's frame."""
        lift = self._lifts.get((i, j))
        if lift is None:
            raise KeyError(f"charts {i} and {j} do not overlap")
        return lift

    def frame_shift(self, i: int, j: int) -> Mapping[str, int]:
        """The shift moving chart j's frame into chart i's frame: a function
        f in chart j's coordinates reads ``f.shift(frame_shift(i, j))`` in
        chart i's.  Each is built once, in ``_build_nerve``, and read-only."""
        shift = self._frame_shifts.get((i, j))
        if shift is None:
            raise KeyError(f"charts {i} and {j} do not overlap")
        return shift

    def _rect(self, box: Box) -> Rect:
        two_den = 2 * self.den
        return Rect(
            tuple(Fraction(lo + hi, two_den) for lo, hi in box),
            tuple(Fraction(hi - lo, two_den) for lo, hi in box),
        )

    def pair_rect(self, i: int, j: int) -> Rect:
        """Overlap rectangle in chart i's frame."""
        return self._rect(self._overlap(i, j))

    def triple_rect(self, i: int, j: int, k: int) -> Rect:
        """Triple overlap of a nerve triple in chart i's frame."""
        if (i, j, k) not in self.triples:
            raise KeyError(f"charts {i}, {j}, {k} are not a nerve triple")
        return self._rect(_meet(self._overlap(i, j), self._overlap(i, k)))

    def complete_pairwise(self) -> bool:
        n = len(self.charts)
        return len(self.pairs) == n * (n - 1) // 2
