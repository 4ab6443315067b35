"""Characteristic-class calculus: even cohomology classes, Todd classes,
and exponential twists, all with exact Laurent-pi coefficients."""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable

from .forms import DifferentialForm
from .manifold import Manifold, Sphere2, Torus
from .scalar import Scalar


class CohomologyClass:
    """Even-graded list of closed differential-form representatives."""

    __slots__ = ("manifold", "components")

    def __init__(self, manifold: Manifold, components: Iterable[DifferentialForm]):
        split: dict[int, DifferentialForm] = {}
        for form in components:
            if form.manifold != manifold:
                raise ValueError("representative lives on the wrong manifold")
            for deg in form.degrees():
                if deg % 2 != 0:
                    raise ValueError("cohomology classes here are even-graded")
                piece = form.component(deg)
                split[deg] = split.get(deg, DifferentialForm.zero(manifold)) + piece
        for deg, form in split.items():
            if not form.is_closed():
                raise ValueError(f"degree-{deg} representative is not closed")
        object.__setattr__(self, "manifold", manifold)
        object.__setattr__(
            self,
            "components",
            tuple(split[d] for d in sorted(split) if not split[d].is_zero()),
        )

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CohomologyClass is immutable")

    @staticmethod
    def zero(manifold: Manifold) -> "CohomologyClass":
        return CohomologyClass(manifold, ())

    @staticmethod
    def unit(manifold: Manifold) -> "CohomologyClass":
        return CohomologyClass(manifold, (DifferentialForm.constant(manifold, 1),))

    def component(self, degree: int) -> DifferentialForm:
        for form in self.components:
            if form.degrees() == (degree,):
                return form
        return DifferentialForm.zero(self.manifold)

    def total(self) -> DifferentialForm:
        out = DifferentialForm.zero(self.manifold)
        for form in self.components:
            out = out + form
        return out

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        if self.manifold != other.manifold:
            raise ValueError("manifold mismatch")
        return CohomologyClass(self.manifold, self.components + other.components)

    def __neg__(self) -> "CohomologyClass":
        return CohomologyClass(self.manifold, tuple(-f for f in self.components))

    def __sub__(self, other: "CohomologyClass") -> "CohomologyClass":
        return self + (-other)

    def cup(self, other: "CohomologyClass") -> "CohomologyClass":
        """Wedge of representatives; degrees beyond the dimension vanish."""
        if self.manifold != other.manifold:
            raise ValueError("manifold mismatch")
        return CohomologyClass(
            self.manifold, (self.total().wedge(other.total()),)
        )

    def integrate(self) -> Scalar:
        """Pair the top-degree component against the fundamental class."""
        top = self.component(self.manifold.dim)
        if top.is_zero():
            return Scalar.zero()
        return top.integrate()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        return self.manifold == other.manifold and self.components == other.components

    def __hash__(self) -> int:
        return hash((self.manifold, self.components))

    def __str__(self) -> str:
        return " + ".join(str(f) for f in self.components) if self.components else "0"


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n with the B_1 = -1/2 convention, by the defining recurrence."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += comb(m + 1, k) * out[k]
        out.append(-acc / (m + 1))
    return out


def todd_series_coefficients(order: int) -> list[Fraction]:
    """Taylor coefficients of x / (1 - e^{-x}) up to x^order."""
    from math import factorial

    bern = bernoulli_numbers(order)
    return [Fraction((-1) ** n) * bern[n] / factorial(n) for n in range(order + 1)]


def todd_of_line(c1: DifferentialForm) -> CohomologyClass:
    """Td of a line bundle with first Chern form c1, truncated at dim."""
    manifold = c1.manifold
    if not c1.is_closed():
        raise ValueError("first Chern representative must be closed")
    max_power = manifold.dim // 2
    coeffs = todd_series_coefficients(max_power)
    total = DifferentialForm.zero(manifold)
    power = DifferentialForm.constant(manifold, 1)
    for k in range(max_power + 1):
        total = total + power.scale(Scalar.rational(coeffs[k]))
        power = power.wedge(c1)
    return CohomologyClass(manifold, (total,))


def todd_class(manifold: Manifold) -> CohomologyClass:
    """Td of the complexified tangent bundle.

    Flat tori have trivial(ized) tangent bundles, so Td = 1.  For the
    2-sphere the complexification splits into the holomorphic tangent line
    and its inverse; the two series factors cancel below degree 4, which
    this function computes rather than assumes.
    """
    if isinstance(manifold, Torus):
        return CohomologyClass.unit(manifold)
    if isinstance(manifold, Sphere2):
        euler = DifferentialForm.area(manifold, 2)  # integral 2 = chi(S^2)
        plus = todd_of_line(euler)
        minus = todd_of_line(-euler)
        return plus.cup(minus)
    raise ValueError(f"Todd class unsupported for {manifold!r}")


def exp_twist(omega: DifferentialForm) -> CohomologyClass:
    """exp(omega / 2*pi) = sum_k (omega/2*pi)^k / k!, truncated at dim."""
    from math import factorial

    manifold = omega.manifold
    if not omega.is_closed():
        raise ValueError("twisting form must be closed")
    if any(len(idx) != 2 for idx in omega.terms):
        raise ValueError("twisting form must be homogeneous of degree 2")
    scaled = omega.scale(Scalar.pi(-1, Fraction(1, 2)))
    total = DifferentialForm.zero(manifold)
    power = DifferentialForm.constant(manifold, 1)
    for k in range(manifold.dim // 2 + 1):
        total = total + power.scale(Scalar.rational(Fraction(1, factorial(k))))
        power = power.wedge(scaled)
    return CohomologyClass(manifold, (total,))
