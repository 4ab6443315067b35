"""Cech descent data for constant closed 2-forms on the 2-torus.

For omega = theta dx^dy the chart primitives are alpha_i = theta (x - a_i) dy
in lifted chart coordinates.  Transition functions are induced from the single
universal-cover potential theta * x dy with a fixed multiplier convention, so
the triple-overlap constants come out as theta times signed integer lattice
areas: they all lie in 2*pi*Z exactly when theta does, which is the honest
line-bundle criterion.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .chartfn import ChartFunction
from .cover import GoodCover
from .forms import DifferentialForm
from .manifold import Torus
from .report import CheckReport
from .scalar import Scalar


class CechError(ValueError):
    """Raised when descent data violates one of its defining identities."""


def _triple_sum(cover: GoodCover, transitions: Mapping, i: int, j: int, k: int) -> ChartFunction:
    """phi_ij + phi_jk + phi_ki in the frame anchored at chart i."""
    total = ChartFunction.zero(cover.torus.space)
    for a, b in ((i, j), (j, k), (k, i)):
        if a != b:
            total = total + transitions[(a, b)].shift(cover.frame_shift(i, a))
    return total


class CechConnectionData:
    """Per-chart 1-forms, overlap transitions, triple constants for omega.

    Immutable: the three maps are read-only views of private copies, so the
    report of ``verify`` is computed once and kept.  Two private tables
    hold what ``verify``, the bundle checks and the glue all read: the
    triple sums (``triple_sum``) and the differentials d phi_ij
    (``differential``).  Each entry is built on first use from this
    instance's own transitions and kept; nothing here can change, so no
    entry goes stale, and the tables die with the instance.
    """

    __slots__ = (
        "cover", "omega", "alphas", "transitions", "triple_constants",
        "_report", "_sums", "_dphis", "__weakref__",
    )

    def __init__(
        self,
        cover: GoodCover,
        omega: DifferentialForm,
        alphas: Mapping[int, DifferentialForm],
        transitions: Mapping[tuple[int, int], ChartFunction],
        triple_constants: Mapping[tuple[int, int, int], Scalar],
    ):
        object.__setattr__(self, "cover", cover)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "alphas", MappingProxyType(dict(alphas)))
        object.__setattr__(self, "transitions", MappingProxyType(dict(transitions)))
        object.__setattr__(self, "triple_constants", MappingProxyType(dict(triple_constants)))
        object.__setattr__(self, "_report", None)
        object.__setattr__(self, "_sums", {})
        object.__setattr__(self, "_dphis", {})

    def __setattr__(self, name, value):
        raise AttributeError("CechConnectionData is immutable")

    def __delattr__(self, name):
        raise AttributeError("CechConnectionData is immutable")

    @property
    def torus(self) -> Torus:
        return self.cover.torus

    def theta(self) -> Scalar:
        """The constant coefficient of omega against dx^dy."""
        coeff = self.omega.terms.get((0, 1))
        if coeff is None:
            return Scalar.zero()
        v = coeff.constant_value()
        if not v.is_real():
            raise CechError("omega coefficient must be real")
        return v.re

    def transition(self, i: int, j: int) -> ChartFunction:
        """phi_ij expressed in chart i's frame (identically 0 when i == j)."""
        if i == j:
            return ChartFunction.zero(self.torus.space)
        return self.transitions[(i, j)]

    def triple_sum(self, i: int, j: int, k: int) -> ChartFunction:
        """phi_ij + phi_jk + phi_ki in the frame anchored at chart i."""
        total = self._sums.get((i, j, k))
        if total is None:
            total = self._sums[(i, j, k)] = _triple_sum(self.cover, self.transitions, i, j, k)
        return total

    def differential(self, i: int, j: int) -> DifferentialForm:
        """d(phi_ij) in chart i's frame."""
        dphi = self._dphis.get((i, j))
        if dphi is None:
            dphi = DifferentialForm.from_function(self.torus, self.transition(i, j)).exterior_d()
            self._dphis[(i, j)] = dphi
        return dphi

    # -- verification -----------------------------------------------------

    def overlap_failures(self, forms: Mapping[int, DifferentialForm]) -> list[tuple[int, int]]:
        """The overlaps (i, j) where forms[i] - forms[j] != d(phi_ij), with
        forms[j] moved into chart i's frame; compared coefficient by
        coefficient, a covector index missing from a form reading 0; an
        overlap of a chart with no form fails."""
        zero = ChartFunction.zero(self.torus.space)
        terms = {i: form.terms for i, form in forms.items()}
        failures = []
        for i, j in self.transitions:
            if i not in terms or j not in terms:
                failures.append((i, j))
                continue
            here, there, dphi = terms[i], terms[j], self.differential(i, j).terms
            delta = self.cover.frame_shift(i, j)
            if any(
                here.get(idx, zero) != there.get(idx, zero).shift(delta) + dphi.get(idx, zero)
                for idx in here.keys() | there.keys() | dphi.keys()
            ):
                failures.append((i, j))
        return failures

    def verify(self) -> CheckReport:
        """Check every descent identity; computed on the first call only."""
        if self._report is None:
            object.__setattr__(self, "_report", self._check())
        return self._report

    def _check(self) -> CheckReport:
        charts = range(len(self.cover.charts))
        failures = [
            {"identity": "primitive", "chart": i, "missing": True}
            for i in charts
            if i not in self.alphas
        ]
        nerve_pairs = [p for i, j in self.cover.pairs for p in ((i, j), (j, i))]
        failures += (
            {"identity": "transition", "pair": pair, "missing": True}
            for pair in nerve_pairs
            if pair not in self.transitions
        )
        failures += (
            {"identity": "curl", "chart": i}
            for i, alpha in self.alphas.items()
            if alpha.exterior_d() != self.omega
        )
        failures += (
            {"identity": "overlap", "pair": pair} for pair in self.overlap_failures(self.alphas)
        )
        for (i, j), phi in self.transitions.items():
            reverse = self.transitions.get((j, i))
            if reverse is None or reverse != (-phi).shift(self.cover.frame_shift(j, i)):
                failures.append(
                    {"identity": "antisymmetry", "pair": (i, j), "missing": reverse is None}
                )
        nerve = self.cover.triples
        failures += (
            {"identity": "triple", "triple": t, "extra": True}
            for t in self.triple_constants
            if t not in nerve
        )
        space = self.torus.space
        for i, j, k in nerve:
            const = self.triple_constants.get((i, j, k))
            if const is None:
                failures.append({"identity": "triple", "triple": (i, j, k), "missing": True})
            elif {(i, j), (j, k), (k, i)} <= self.transitions.keys():  # else reported missing
                total = self.triple_sum(i, j, k)
                if total != ChartFunction.constant(space, const):
                    found = {"sum": str(total), "stored": str(const)}
                    failures.append({"identity": "triple", "triple": (i, j, k), **found})
        checked = len(charts) + len(nerve_pairs) + 2 * len(self.transitions) + len(nerve)
        return CheckReport("cech_descent", checked, failures)


def solve_cech(omega: DifferentialForm, cover: GoodCover) -> CechConnectionData:
    """Solve the descent equations for omega = theta dx^dy on Torus(2).

    Produces alpha_i with d(alpha_i) = omega, transitions with
    alpha_i - alpha_j = d(phi_ij), and constant triple sums, all exact.
    """
    torus = cover.torus
    if not isinstance(omega.manifold, Torus) or omega.manifold.n != 2:
        raise CechError("the supported family lives on Torus(2)")
    if omega.manifold != torus:
        raise CechError("omega and cover live on different tori")
    if not omega.is_closed():
        raise CechError("omega must be closed")
    if any(len(idx) != 2 for idx in omega.terms):
        raise CechError("omega must be a 2-form")
    coeff = omega.terms.get((0, 1), ChartFunction.zero(torus.space))
    if not coeff.is_constant():
        raise CechError(
            "unsupported family: only constant-coefficient 2-forms are handled"
        )
    value = coeff.constant_value()
    if not value.is_real():
        raise CechError("omega must be a real form")
    theta = value.re

    space = torus.space
    xname, yname = torus.names
    x = ChartFunction.variable(space, xname)

    alphas = {}
    for i, rect in enumerate(cover.charts):
        a_x = rect.center[0]
        coeff_i = (x - ChartFunction.constant(space, a_x)).scale(theta)
        alphas[i] = DifferentialForm(torus, {(1,): coeff_i})

    y = ChartFunction.variable(space, yname)
    transitions: dict[tuple[int, int], ChartFunction] = {}
    for i, j in cover.pairs:
        n = cover.pair_lift(i, j)
        a_i, a_j = cover.charts[i].center, cover.charts[j].center
        delta_x = a_j[0] + n[0] - a_i[0]
        const = -(a_j[0] + n[0]) * Fraction(n[1])
        phi = (y.scale(delta_x) + ChartFunction.constant(space, const)).scale(theta)
        transitions[(i, j)] = phi
        transitions[(j, i)] = (-phi).shift(cover.frame_shift(j, i))

    sums = {triple: _triple_sum(cover, transitions, *triple) for triple in cover.triples}
    consts: dict[tuple[int, int, int], Scalar] = {}
    for triple, total in sums.items():
        if not total.is_constant():
            raise AssertionError(f"triple sum {triple} is not constant: {total}")
        consts[triple] = total.constant_value().re

    data = CechConnectionData(cover, omega, alphas, transitions, consts)
    data._sums.update(sums)  # built from the same transitions the datum holds
    report = data.verify()
    if not report.passed:  # construction is supposed to be exact
        raise AssertionError(f"descent solution failed verification: {report.failures}")
    return data


def constant_two_form(torus: Torus, theta: Scalar | int | Fraction) -> DifferentialForm:
    """theta dx^dy on Torus(2)."""
    if torus.n != 2:
        raise ValueError("constant_two_form expects Torus(2)")
    return DifferentialForm.basis(torus, *torus.covectors).scale(Scalar.coerce(theta))
