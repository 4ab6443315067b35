"""Local line bundles assembled from Cech data.

Over each chart square U_i x U_i the bundle is trivial with connection
d + i*alpha_i boxtimes its dual; two trivializations are glued by the
product unitary e^{i phi_ij(x)} x e^{-i phi_ij(y)}.  Because the triple
sums phi_ij + phi_jk + phi_ki are constant, the conjugated gluings form an
exact cocycle on squared triple overlaps and the composition over germs is
associative; both facts are checked symbolically and at sampled points.

Fiber elements are represented in polar form r * e^{i*gamma} with rational
magnitude and Scalar phase, so unitarity and phase cancellations are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cech import CechConnectionData
from .cover import Rect
from .report import CheckReport
from .scalar import Scalar


@dataclass(frozen=True)
class PolarC:
    """Exact complex number r * e^{i*gamma}; r rational >= 0, gamma a Scalar."""

    mag: Fraction
    phase: Scalar

    def __post_init__(self):
        if self.mag < 0:
            raise ValueError("polar magnitude must be nonnegative")

    @staticmethod
    def one() -> "PolarC":
        return PolarC(Fraction(1), Scalar.zero())

    @staticmethod
    def unit(phase: Scalar) -> "PolarC":
        return PolarC(Fraction(1), phase)

    @staticmethod
    def minus_one() -> "PolarC":
        return PolarC(Fraction(1), Scalar.pi())

    def __mul__(self, other: "PolarC") -> "PolarC":
        return PolarC(self.mag * other.mag, self.phase + other.phase)

    def inverse(self) -> "PolarC":
        if self.mag == 0:
            raise ZeroDivisionError("zero fiber element")
        return PolarC(1 / self.mag, -self.phase)

    def conj(self) -> "PolarC":
        return PolarC(self.mag, -self.phase)

    def __eq__(self, other: object) -> bool:
        """Equality as complex numbers: phases compared mod 2*pi."""
        if not isinstance(other, PolarC):
            return NotImplemented
        if self.mag != other.mag:
            return False
        if self.mag == 0:
            return True
        return (self.phase - other.phase).is_two_pi_integer()

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(self.mag)

    def __str__(self) -> str:
        return f"{self.mag}*e^(i*({self.phase}))"


@dataclass(frozen=True)
class GermElement:
    """A fiber element over a pair of nearby points, in a chart trivialization."""

    chart: int
    point_left: tuple[Fraction, ...]
    point_right: tuple[Fraction, ...]
    value: PolarC


class BundleError(ValueError):
    pass


@dataclass(frozen=True)
class TripleAssociativityReport:
    triples_checked: int
    points_per_triple: int
    violations: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


class LocalLineBundle:
    """Cech presentation of a line bundle near the diagonal of T^2 x T^2."""

    def __init__(self, data: CechConnectionData):
        self.data = data
        self.cover = data.cover
        self.torus = data.torus

    # -- construction -------------------------------------------------------

    @staticmethod
    def build(data: CechConnectionData) -> "LocalLineBundle":
        report = data.verify()
        if not report.passed:
            raise BundleError(
                f"descent data violates its invariants: {report.failures[0]}"
            )
        bundle = LocalLineBundle(data)
        cocycle = bundle.check_gluing_cocycle()
        if not cocycle.passed:
            raise BundleError(f"gluing cocycle fails: {cocycle.failures[0]}")
        return bundle

    # -- phase evaluation ----------------------------------------------------

    def _phase_at(self, i: int, j: int, anchor: int, point: Sequence[Fraction]) -> Scalar:
        """phi_ij evaluated at a point given in the anchor chart's frame."""
        # phi read in the anchor frame is phi.shift(-lift), and
        # phi.shift(-lift)(x) = phi(x - lift): move the point, not phi
        lift = self.cover.pair_lift(anchor, i)
        value = self.data.transition(i, j).evaluate(
            {n: p - s for n, p, s in zip(self.torus.names, point, lift)}
        )
        if not value.is_real():
            raise AssertionError("transition phase must be real")
        return value.re

    def gluing_value(
        self,
        i: int,
        j: int,
        anchor: int,
        x: Sequence[Fraction],
        y: Sequence[Fraction],
    ) -> PolarC:
        """The unitary e^{i phi_ij(x)} * e^{-i phi_ij(y)} mapping the chart-j
        trivialization of the fiber over (x, y) to the chart-i one."""
        return PolarC.unit(self._phase_at(i, j, anchor, x) - self._phase_at(i, j, anchor, y))

    def transport(self, germ: GermElement, to_chart: int, anchor: int) -> GermElement:
        if germ.chart == to_chart:
            return germ
        g = self.gluing_value(to_chart, germ.chart, anchor, germ.point_left, germ.point_right)
        return GermElement(to_chart, germ.point_left, germ.point_right, g * germ.value)

    def compose(self, u: GermElement, v: GermElement, anchor: int, chart: int | None = None) -> GermElement:
        """H(u (x) v): multiply in a common trivialization.

        The germs must be composable: u over (x, y), v over (y, z)."""
        if u.point_right != v.point_left:
            raise BundleError("germs are not composable")
        chart = u.chart if chart is None else chart
        uu = self.transport(u, chart, anchor)
        vv = self.transport(v, chart, anchor)
        return GermElement(chart, u.point_left, v.point_right, uu.value * vv.value)

    # -- invariant checks ------------------------------------------------------

    def check_gluing_cocycle(self) -> CheckReport:
        """g_ij * g_jk == g_ik on squared triple overlaps, symbolically.

        The left/right phase difference of the triple sum is an exact zero
        polynomial because the triple sums are constant.
        """
        base = self.torus.space
        pair = base.copies(2)
        failures = []
        for i, j, k in self.cover.triples:
            total = self.data.triple_sum(i, j, k)
            left = total.embed(pair, base.copy_map(1))
            right = total.embed(pair, base.copy_map(2))
            defect = left - right
            if not defect.is_zero():
                failures.append({"triple": (i, j, k), "defect": str(defect)})
        return CheckReport("gluing_cocycle", len(self.cover.triples), failures)

    def _sample_points(self, rect: Rect, count: int = 4) -> list[tuple[Fraction, ...]]:
        """Deterministic rational points spread inside a rectangle."""
        out = []
        for s in range(count):
            point = tuple(
                c + w * Fraction(2 * s - count + 1, 2 * count + 1)
                for c, w in zip(rect.center, rect.halfwidth)
            )
            out.append(point)
        return out

    def check_triple_associativity(self, points_per_triple: int = 4) -> TripleAssociativityReport:
        """Both composition orders of H agree exactly at sampled germs.

        For each nerve triple, germs u, v, w are trivialized in the three
        different charts, so the comparison exercises every gluing; the two
        orders agree iff the triple sums are constant.  A chain of germs needs
        four points, so fewer raise ValueError rather than check nothing.
        """
        if points_per_triple < 4:
            raise ValueError(f"points_per_triple must be >= 4, got {points_per_triple}")
        violations = []
        for i, j, k in self.cover.triples:
            rect = self.cover.triple_rect(i, j, k)
            pts = self._sample_points(rect, points_per_triple)
            for t in range(len(pts) - 3):
                p, q, r, s = pts[t], pts[t + 1], pts[t + 2], pts[t + 3]
                u = GermElement(i, p, q, PolarC(Fraction(2), Scalar.pi(1, Fraction(1, 3))))
                v = GermElement(j, q, r, PolarC(Fraction(1, 3), Scalar.rational(Fraction(1, 5))))
                w = GermElement(k, r, s, PolarC(Fraction(5), -Scalar.pi()))
                left = self.compose(self.compose(u, v, anchor=i, chart=i), w, anchor=i, chart=i)
                right = self.compose(u, self.compose(v, w, anchor=i, chart=j), anchor=i, chart=i)
                if left.value != right.value:
                    delta = left.value.phase - right.value.phase
                    violations.append(
                        {
                            "triple": (i, j, k),
                            "points": [[str(c) for c in pt] for pt in (p, q, r, s)],
                            "phase_defect": str(delta),
                        }
                    )
        return TripleAssociativityReport(
            triples_checked=len(self.cover.triples),
            points_per_triple=points_per_triple,
            violations=tuple(violations),
        )

    def diagonal_unit(self) -> CheckReport:
        """The canonical section e with H(e (x) e) = e and identity action.

        In the canonical trivializations e is the constant 1 on the diagonal
        of every chart; the report records the idempotence check and the
        rejection of -e at sampled points of every chart, and the identity
        action on a germ over every pair overlap.
        """
        failures = []
        checked = 0
        for idx, rect in enumerate(self.cover.charts):
            for x in self._sample_points(rect, 3):
                point = [str(c) for c in x]
                e = GermElement(idx, x, x, PolarC.one())
                if self.compose(e, e, anchor=idx, chart=idx).value != e.value:
                    failures.append({"identity": "idempotence", "chart": idx, "point": point})
                neg = GermElement(idx, x, x, PolarC.minus_one())
                if self.compose(neg, neg, anchor=idx, chart=idx).value == neg.value:
                    failures.append({"identity": "minus-e-rejected", "chart": idx, "point": point})
                checked += 2
        # identity action across charts on pair overlaps
        for i, j in self.cover.pairs:
            rect = self.cover.pair_rect(i, j)
            pts = self._sample_points(rect, 3)
            x, y = pts[0], pts[1]
            u = GermElement(i, x, y, PolarC(Fraction(7, 2), Scalar.pi(1, Fraction(2, 7))))
            e_left = GermElement(j, x, x, PolarC.one())  # unit trivialized elsewhere
            if self.compose(e_left, u, anchor=i, chart=i).value != u.value:
                failures.append({"identity": "identity-action", "pair": (i, j)})
            checked += 1
        return CheckReport("diagonal_unit", checked, failures)

    def honest_cocycle_closes(self) -> CheckReport:
        """Does the one-sided cocycle e^{i phi_ij} already close on triples?

        Passes exactly when every triple constant lies in 2*pi*Z, i.e. when
        the bundle class is integral and an honest line bundle exists; each
        triple whose constant does not is a failure.
        """
        constants = sorted(self.data.triple_constants.items())
        failures = [
            {"triple": triple, "constant": str(const)}
            for triple, const in constants
            if not const.is_two_pi_integer()
        ]
        return CheckReport("honest_cocycle", len(constants), failures)


def build_local_line_bundle(data: CechConnectionData) -> LocalLineBundle:
    return LocalLineBundle.build(data)
