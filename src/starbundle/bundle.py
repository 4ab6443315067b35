"""Local line bundles assembled from Cech data.

Over each chart square U_i x U_i the bundle is trivial with connection
d + i*alpha_i boxtimes its dual; two trivializations are glued by the
product unitary e^{i phi_ij(x)} x e^{-i phi_ij(y)}.  Both bundle laws hold
exactly when every triple sum T = phi_ij + phi_jk + phi_ki is constant: the
gluing cocycle's phase defect is T(x) - T(y), and the composition's over a
chain p, q, r, s is T(s) - T(r).  Both checks read T from the datum's table
and evaluate no point: after ``verify`` the table holds the constant
function T(0) of each triple that verify proved constant by telescoping
(``cech`` module docstring), and any other sum is built on first use.  The
unit on the diagonal is the constant 1 in every chart; its gluing over
(x, x) is e^{i(phi(x) - phi(x))} = 1 for every phi, so it is not checked.

``build_local_line_bundle`` relies on ``data.verify()`` for the cocycle
law: verify already proves every nerve triple sum equal to its stored
constant, so the build runs neither check.  They serve data wrapped
directly by ``LocalLineBundle(data)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .cech import CechConnectionData
from .chartfn import ChartFunction
from .report import CheckReport


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
