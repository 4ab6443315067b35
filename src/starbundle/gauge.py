"""Gauge twisting of star products by formal operators T = Id + sum t^k D_k."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .chartfn import ChartFunction, ChartSpace
from .scalar import Scalar
from .series import FormalSeries, _check_order
from .star import PureStarProduct, StarInput, _check_product


@dataclass(frozen=True)
class ConstCoeffOperator:
    """Differential operator with constant Scalar coefficients.

    ``terms`` maps per-coordinate derivative orders to coefficients, e.g.
    the Laplacian on (x, y) is {(2,0): 1, (0,2): 1}.
    """

    space: ChartSpace
    terms: tuple[tuple[tuple[int, ...], Scalar], ...]

    @staticmethod
    def from_dict(space: ChartSpace, data: Mapping[tuple[int, ...], Scalar | int]) -> "ConstCoeffOperator":
        items = []
        for order, coeff in data.items():
            order = tuple(_check_order(o, f"derivative order in {order!r}") for o in order)
            if len(order) != space.dim:
                raise ValueError(f"bad derivative multi-index {order}")
            coeff = Scalar.coerce(coeff)
            if not coeff.is_zero():
                items.append((order, coeff))
        return ConstCoeffOperator(space, tuple(sorted(items)))

    @staticmethod
    def laplacian(space: ChartSpace) -> "ConstCoeffOperator":
        data = {}
        for i in range(space.dim):
            order = tuple(2 if j == i else 0 for j in range(space.dim))
            data[order] = Scalar.one()
        return ConstCoeffOperator.from_dict(space, data)

    def annihilates_constants(self) -> bool:
        zero = (0,) * self.space.dim
        return all(order != zero for order, _ in self.terms)

    def apply(self, f: ChartFunction) -> ChartFunction:
        if f.space != self.space:
            raise ValueError("operator applied on the wrong chart")
        total = ChartFunction.zero(self.space)
        for order, coeff in self.terms:
            g = f
            for name, o in zip(self.space.names, order):
                for _ in range(o):
                    g = g.derive(name)
                if g.is_zero():
                    break
            if not g.is_zero():
                total = total + g.scale(coeff)
        return total


@dataclass(frozen=True)
class GaugeOperator:
    """T = Id + sum_{k>=1} t^k D_k, formally invertible by construction."""

    space: ChartSpace
    K: int
    operators: tuple[tuple[int, ConstCoeffOperator], ...]

    def __post_init__(self):
        _check_order(self.K, "truncation order K")

    @staticmethod
    def from_dict(space: ChartSpace, K: int, ops: Mapping[int, ConstCoeffOperator]) -> "GaugeOperator":
        items = []
        for k, op in ops.items():
            k = _check_order(k, f"gauge order {k!r}")
            if k < 1:
                raise ValueError(
                    "gauge operator has an order-0 part: not formally invertible"
                )
            if op.space != space:
                raise ValueError("gauge operator chart mismatch")
            items.append((k, op))
        return GaugeOperator(space, K, tuple(sorted(items)))

    @staticmethod
    def identity(space: ChartSpace, K: int) -> "GaugeOperator":
        return GaugeOperator(space, K, ())

    @staticmethod
    def laplacian_twist(space: ChartSpace, K: int) -> "GaugeOperator":
        """T = Id + t*Laplacian."""
        return GaugeOperator.from_dict(space, K, {1: ConstCoeffOperator.laplacian(space)})

    def preserves_unit(self) -> bool:
        return all(op.annihilates_constants() for _, op in self.operators)

    def apply(self, series: FormalSeries) -> FormalSeries:
        if series.space != self.space:
            raise ValueError("series chart mismatch")
        out = []
        for k in range(series.K + 1):
            c = series.coeffs[k]
            for j, op in self.operators:
                if j <= k:
                    c = c + op.apply(series.coeffs[k - j])
            out.append(c)
        return FormalSeries(self.space, out)

    def apply_inverse(self, series: FormalSeries) -> FormalSeries:
        """Solve T u = series order by order (triangular, exact)."""
        if series.space != self.space:
            raise ValueError("series chart mismatch")
        out: list[ChartFunction] = []
        for k in range(series.K + 1):
            c = series.coeffs[k]
            for j, op in self.operators:
                if j <= k:
                    c = c - op.apply(out[k - j])
            out.append(c)
        return FormalSeries(self.space, out)


@dataclass(frozen=True)
class TwistedProduct:
    """The product a *' b = T^{-1}(T(a) * T(b)), evaluated per order."""

    base: PureStarProduct
    gauge: GaugeOperator

    def _conjugated(self, base_op, a: StarInput, b: StarInput, K: int | None) -> FormalSeries:
        """T^{-1}(base_op(T(a), T(b), K)); plain functions are promoted at K,
        or at the gauge's K when K is None."""
        order = K if K is not None else self.gauge.K
        sa, sb = (self.gauge.apply(self.base._promote(x, order)) for x in (a, b))
        return self.gauge.apply_inverse(base_op(sa, sb, K))

    def multiply(self, a: StarInput, b: StarInput, K: int | None = None) -> FormalSeries:
        return self._conjugated(self.base.multiply, a, b, K)

    def commutator(self, a: StarInput, b: StarInput, K: int | None = None) -> FormalSeries:
        """a *' b - b *' a = T^{-1}(T(a) * T(b) - T(b) * T(a)) through one
        base ``commutator`` call."""
        return self._conjugated(self.base.commutator, a, b, K)


def gauge_twist(product: PureStarProduct, gauge: GaugeOperator) -> TwistedProduct:
    _check_product(product, "gauge_twist")
    if not isinstance(gauge, GaugeOperator):
        raise TypeError(f"gauge_twist needs a GaugeOperator, not {type(gauge).__name__}")
    if gauge.space != product.space:
        raise ValueError("gauge operator chart does not match the product")
    return TwistedProduct(product, gauge)
