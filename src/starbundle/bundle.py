"""Local line bundles assembled from Cech data.

Over each chart square U_i x U_i the bundle is trivial with connection
d + i*alpha_i boxtimes its dual; two trivializations are glued by the
product unitary e^{i phi_ij(x)} x e^{-i phi_ij(y)}.  The conjugated gluings
form an exact cocycle on squared triple overlaps, and the composition over
germs is associative, exactly when every triple sum phi_ij + phi_jk + phi_ki
is constant: ``check_gluing_cocycle`` decides that symbolically, and
``check_triple_associativity`` at sampled germs through ``compose``.  The
unit on the diagonal is the constant 1 in every chart; its gluing over
(x, x) is e^{i(phi(x) - phi(x))} = 1 for every phi, so it is not checked.

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


# points sampled per triple: the one chain p, q, r, s that germs u, v, w span
_CHAIN = 4


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

        The phase defect is T(x) - T(y) for the triple sum T, which vanishes
        on the squared overlap exactly when T is constant.
        """
        failures = []
        for i, j, k in self.cover.triples:
            total = self.data.triple_sum(i, j, k)
            if not total.is_constant():
                failures.append({"triple": (i, j, k), "sum": str(total)})
        return CheckReport("gluing_cocycle", len(self.cover.triples), failures)

    def _sample_points(self, rect: Rect, count: int) -> list[tuple[Fraction, ...]]:
        """Deterministic rational points spread inside a rectangle."""
        out = []
        for s in range(count):
            point = tuple(
                c + w * Fraction(2 * s - count + 1, 2 * count + 1)
                for c, w in zip(rect.center, rect.halfwidth)
            )
            out.append(point)
        return out

    def check_triple_associativity(self) -> TripleAssociativityReport:
        """Both composition orders of H agree exactly at sampled germs.

        For each nerve triple, germs u, v, w over a chain of four sampled
        points are trivialized in the three different charts, so the
        comparison exercises every gluing; the two orders agree iff the
        triple sums are constant.
        """
        violations = []
        for i, j, k in self.cover.triples:
            p, q, r, s = points = self._sample_points(self.cover.triple_rect(i, j, k), _CHAIN)
            u = GermElement(i, p, q, PolarC(Fraction(2), Scalar.pi(1, Fraction(1, 3))))
            v = GermElement(j, q, r, PolarC(Fraction(1, 3), Scalar.rational(Fraction(1, 5))))
            w = GermElement(k, r, s, PolarC(Fraction(5), -Scalar.pi()))
            left = self.compose(self.compose(u, v, anchor=i, chart=i), w, anchor=i, chart=i)
            right = self.compose(u, self.compose(v, w, anchor=i, chart=j), anchor=i, chart=i)
            if left.value != right.value:
                violations.append(
                    {
                        "triple": (i, j, k),
                        "points": [[str(c) for c in pt] for pt in points],
                        "phase_defect": str(left.value.phase - right.value.phase),
                    }
                )
        return TripleAssociativityReport(
            triples_checked=len(self.cover.triples),
            points_per_triple=_CHAIN,
            violations=tuple(violations),
        )

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
