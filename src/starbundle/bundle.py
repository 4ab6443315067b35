"""Local line bundles assembled from Cech data.

Over each chart square U_i x U_i the bundle is trivial with connection
d + i*alpha_i boxtimes its dual; two trivializations are glued by the
product unitary e^{i phi_ij(x)} x e^{-i phi_ij(y)}.  Both bundle laws hold
exactly when every triple sum T = phi_ij + phi_jk + phi_ki is constant: the
gluing cocycle's phase defect is T(x) - T(y), and the composition's over a
chain p, q, r, s is T(s) - T(r).  Both checks read T from the datum's table
and evaluate no point.  The unit on the diagonal is the constant 1 in every
chart; its gluing over (x, x) is e^{i(phi(x) - phi(x))} = 1 for every phi,
so it is not checked.

``build_local_line_bundle`` relies on ``data.verify()`` for the cocycle
law: verify already proves every nerve triple sum equal to its stored
constant, so the build runs neither check.  They serve data wrapped
directly by ``LocalLineBundle(data)``.

Fiber elements are represented in polar form r * e^{i*gamma} with rational
magnitude and Scalar phase, so unitarity and phase cancellations are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .cech import CechConnectionData
from .chartfn import ChartFunction
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

    # -- phase evaluation ----------------------------------------------------

    def _phase_at(self, i: int, j: int, anchor: int, point: Sequence[Fraction]) -> Scalar:
        """phi_ij evaluated at a point given in the anchor chart's frame."""
        # phi read in the anchor frame is phi.shift(d) with d = frame_shift(anchor, i),
        # and phi.shift(d)(x) = phi(x + d): move the point, not phi
        shift = self.cover.frame_shift(anchor, i)
        value = self.data.transition(i, j).evaluate(
            {n: p + shift[n] for n, p in zip(self.torus.names, point)}
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

    def _nonconstant_sums(self) -> Iterator[tuple[tuple[int, int, int], ChartFunction]]:
        """(triple, T) for each nerve triple whose triple sum T is not constant."""
        for triple in self.cover.triples:
            total = self.data.triple_sum(*triple)
            if not total.is_constant():
                yield triple, total

    def check_gluing_cocycle(self) -> CheckReport:
        """g_ij * g_jk == g_ik on squared triple overlaps, symbolically.

        The phase defect is T(x) - T(y) for the triple sum T, which vanishes
        on the squared overlap exactly when T is constant.
        """
        failures = [{"triple": t, "sum": str(total)} for t, total in self._nonconstant_sums()]
        return CheckReport("gluing_cocycle", len(self.cover.triples), failures)

    def check_triple_associativity(self) -> TripleAssociativityReport:
        """Both composition orders of H agree on every chain of germs.

        Take germs u over (p, q) in chart i, v over (q, r) in chart j and
        w over (r, s) in chart k, read in chart i's frame.  H(H(u, v), w) in
        chart i moves v by phi_ij(q) - phi_ij(r) and w by phi_ik(r) - phi_ik(s);
        H(u, H(v, w)) moves w into chart j by phi_jk(r) - phi_jk(s), then v w
        by phi_ij(q) - phi_ij(s).  The germ values cancel, and with
        phi_ki = -phi_ik left - right = T(s) - T(r), which vanishes on the
        triple overlap exactly when T is constant.  A violation carries that
        defect on the chain p, q, r, s = copies 1 to 4 of the chart;
        ``points_per_triple`` is the chain's length, 4, which the benchmark
        digest reads.
        """
        space = self.torus.space
        chain, r, s = space.copies(4), space.copy_map(3), space.copy_map(4)
        violations = tuple(
            {"triple": t, "phase_defect": str(total.embed(chain, s) - total.embed(chain, r))}
            for t, total in self._nonconstant_sums()
        )
        return TripleAssociativityReport(len(self.cover.triples), 4, violations)

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
    report = data.verify()
    if not report.passed:
        raise BundleError(f"descent data violates its invariants: {report.failures[0]}")
    return LocalLineBundle(data)
