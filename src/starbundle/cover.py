"""Good covers of flat tori by axis-aligned rectangles with explicit lifts.

All branch bookkeeping is integral: for each overlapping pair of charts the
relative lift (the integer translation making the lifted rectangles meet) is
unique because chart widths stay below 1/2, and triple lifts are forced by
pair lifts.  Contractibility is rectangle geometry, checked exactly.

The nerve is built in integer units of 1/den, where den is the lcm of the
denominators of every chart centre and halfwidth (1/(8n) for the default
grid): chart bounds, pair lifts and triple intersections are plain integers,
and no overlap rectangle is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from types import MappingProxyType
from typing import Mapping, Sequence

from .manifold import Torus


@dataclass(frozen=True)
class Rect:
    """Open axis-aligned rectangle in lifted coordinates."""

    center: tuple[Fraction, ...]
    halfwidth: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.center) != len(self.halfwidth):
            raise ValueError("center/halfwidth dimension mismatch")
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

    def translated(self, shift: Sequence[int]) -> "Rect":
        return Rect(
            tuple(c + s for c, s in zip(self.center, shift)), self.halfwidth
        )

    def intersect(self, other: "Rect") -> "Rect | None":
        centers, widths = [], []
        for ax in range(self.dim):
            lo1, hi1 = self.bounds(ax)
            lo2, hi2 = other.bounds(ax)
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo >= hi:
                return None
            centers.append((lo + hi) / 2)
            widths.append((hi - lo) / 2)
        return Rect(tuple(centers), tuple(widths))


class GoodCover:
    """Rectangle cover of a torus with nerve pairs/triples and chosen lifts."""

    def __init__(self, torus: Torus, charts: Sequence[Rect], grid_shape: tuple[int, ...] | None = None):
        self.torus = torus
        self.charts = tuple(charts)
        self.grid_shape = grid_shape
        dim = torus.dim
        for r in self.charts:
            if r.dim != dim:
                raise ValueError("chart dimension mismatch")
            if any(w >= Fraction(1, 2) for w in r.halfwidth):
                raise ValueError("chart halfwidths must stay below 1/2")
        self._check_coverage()
        self._pair_lifts: dict[tuple[int, int], tuple[int, ...]] = {}
        self._frame_shifts: dict[tuple[int, int], Mapping[str, Fraction]] = {}
        self._build_nerve()

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

    # -- validation ----------------------------------------------------------

    def _check_coverage(self):
        # per-axis arc union must cover the circle (sufficient for product
        # rectangles on a product grid; exact interval sweep on open arcs,
        # strict overlaps required so no boundary point is missed)
        dim = self.torus.dim
        for ax in range(dim):
            arcs = []
            for r in self.charts:
                lo, hi = r.bounds(ax)
                start = lo % 1
                arcs.append((start, start + (hi - lo)))
            arcs.sort()
            extended = sorted(arcs + [(s + 1, e + 1) for s, e in arcs])
            frontier = extended[0][1]
            target = extended[0][0] + 1
            for s, e in extended[1:]:
                if frontier > target:
                    break
                if s >= frontier:
                    raise ValueError(f"axis {ax}: coverage gap near {frontier}")
                frontier = max(frontier, e)
            if frontier <= target:
                raise ValueError(f"axis {ax}: charts do not wrap the circle")

    def _build_nerve(self):
        # bounds in integer units of 1/den (see the module docstring)
        den = lcm(*(q.denominator for r in self.charts for q in r.center + r.halfwidth))
        bounds = []
        for r in self.charts:
            cs = [int(c * den) for c in r.center]
            ws = [int(w * den) for w in r.halfwidth]
            bounds.append([(c - w, c + w) for c, w in zip(cs, ws)])
        n = len(self.charts)
        pairs = []
        for i, j in combinations(range(n), 2):
            lifts_per_axis = []
            for ax, ((lo1, hi1), (lo2, hi2)) in enumerate(zip(bounds[i], bounds[j])):
                # integers s with (lo1, hi1) meeting (lo2 + s*den, hi2 + s*den)
                ns = range((lo1 - hi2) // den + 1, -((lo2 - hi1) // den))
                if len(ns) > 1:
                    raise ValueError(
                        f"overlap of charts {i},{j} is disconnected on axis {ax}; "
                        "not a good cover"
                    )
                lifts_per_axis.append(ns)
            if all(lifts_per_axis):
                self._pair_lifts[(i, j)] = tuple(ns[0] for ns in lifts_per_axis)
                pairs.append((i, j))
        self.pairs = tuple(pairs)
        for i, j in [(i, i) for i in range(n)] + pairs + [(j, i) for i, j in pairs]:
            lift = self.pair_lift(i, j)
            shift = {a: Fraction(-s) for a, s in zip(self.torus.names, lift)}
            self._frame_shifts[(i, j)] = MappingProxyType(shift)
        triples = []
        for i, j, k in combinations(range(n), 3):
            mj = self._pair_lifts.get((i, j))
            mk = self._pair_lifts.get((i, k))
            njk = self._pair_lifts.get((j, k))
            if mj is None or mk is None or njk is None:
                continue
            if all(
                max(lo1, lo2 + sj * den, lo3 + sk * den) < min(hi1, hi2 + sj * den, hi3 + sk * den)
                for (lo1, hi1), (lo2, hi2), (lo3, hi3), sj, sk in zip(
                    bounds[i], bounds[j], bounds[k], mj, mk
                )
            ):
                # pair lift uniqueness forces consistency; assert it
                if tuple(a - b for a, b in zip(mk, mj)) != njk:
                    raise AssertionError("triple lift inconsistent with pair lifts")
                triples.append((i, j, k))
        self.triples = tuple(triples)

    # -- nerve queries ------------------------------------------------------------

    def pair_lift(self, i: int, j: int) -> tuple[int, ...]:
        """Integer lift applied to chart j in chart i's frame."""
        if i == j:
            return (0,) * self.torus.dim
        if (i, j) in self._pair_lifts:
            return self._pair_lifts[(i, j)]
        if (j, i) in self._pair_lifts:
            return tuple(-s for s in self._pair_lifts[(j, i)])
        raise KeyError(f"charts {i} and {j} do not overlap")

    def frame_shift(self, i: int, j: int) -> Mapping[str, Fraction]:
        """The shift moving chart j's frame into chart i's frame: a function
        f in chart j's coordinates reads ``f.shift(frame_shift(i, j))`` in
        chart i's.  Each is built once, in ``_build_nerve``, and read-only."""
        shift = self._frame_shifts.get((i, j))
        if shift is None:
            raise KeyError(f"charts {i} and {j} do not overlap")
        return shift

    def pair_rect(self, i: int, j: int) -> Rect:
        """Overlap rectangle in chart i's frame."""
        lift = self.pair_lift(i, j)
        rect = self.charts[i].intersect(self.charts[j].translated(lift))
        if rect is None:
            raise KeyError(f"charts {i} and {j} do not overlap")
        return rect

    def triple_rect(self, i: int, j: int, k: int) -> Rect:
        """Triple overlap of a nerve triple in chart i's frame."""
        if (i, j, k) not in self.triples:
            raise KeyError(f"charts {i}, {j}, {k} are not a nerve triple")
        return self.pair_rect(i, j).intersect(self.pair_rect(i, k))

    def complete_pairwise(self) -> bool:
        n = len(self.charts)
        return len(self.pairs) == n * (n - 1) // 2
