"""Formal power series in the deformation parameter t, truncated at order K.

Coefficients are chart functions on a fixed chart.  Binary operations take
the minimum truncation of their operands and never extrapolate.
"""

from __future__ import annotations

from typing import Sequence

from .chartfn import ChartFunction, ChartSpace


def _check_order(n, what: str) -> int:
    """``n`` when it is an int >= 0, not a bool; a named TypeError or
    ValueError if not."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{what} must be an int, not {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{what} must be >= 0, not {n}")
    return n


class FormalSeries:
    __slots__ = ("space", "coeffs")

    def __init__(self, space: ChartSpace, coeffs: Sequence[ChartFunction]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the order-0 coefficient")
        for c in coeffs:
            if c.space != space:
                raise ValueError("series coefficients live on mismatched charts")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("FormalSeries is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(f: ChartFunction, K: int) -> "FormalSeries":
        """Embed a chart function as an order-0 series truncated at K."""
        zero = ChartFunction.zero(f.space)
        return FormalSeries(f.space, [f] + [zero] * _check_order(K, "truncation order K"))

    # -- structure ---------------------------------------------------------

    @property
    def K(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> ChartFunction:
        if not 0 <= k <= self.K:
            raise IndexError(f"order {k} outside truncation {self.K}")
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def first_nonzero_order(self) -> int | None:
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        return None

    # -- arithmetic -----------------------------------------------------------

    def _align(self, other: "FormalSeries") -> int:
        if self.space != other.space:
            raise ValueError("series charts do not match")
        return min(self.K, other.K)

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        K = self._align(other)
        return FormalSeries(
            self.space, [self.coeffs[k] + other.coeffs[k] for k in range(K + 1)]
        )

    def __neg__(self) -> "FormalSeries":
        return FormalSeries(self.space, [-c for c in self.coeffs])

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.space == other.space and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.space, self.coeffs))

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            head = "" if k == 0 else ("t*" if k == 1 else f"t^{k}*")
            parts.append(f"{head}({c})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"FormalSeries(K={self.K}, {self})"
