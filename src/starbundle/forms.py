"""Exact differential forms on the supported manifolds.

Forms are stored in antisymmetric normal form: a map from strictly
increasing covector multi-indices to chart-function coefficients.  Mixed
degrees are allowed (characteristic classes are inhomogeneous).
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Mapping, Sequence

from .chartfn import ChartFunction, CoeffLike
from .manifold import Manifold, Sphere2
from .scalar import CScalar, Scalar


def _sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort a covector index tuple, tracking permutation parity.

    Returns (sorted tuple, sign); sign 0 when an index repeats.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


class DifferentialForm:
    """Immutable graded form over a manifold or chart domain."""

    __slots__ = ("manifold", "_terms")

    def __init__(
        self,
        manifold: Manifold,
        terms: Mapping[tuple[int, ...], ChartFunction] | None = None,
    ):
        ncov = len(manifold.covectors)
        space = manifold.space
        clean: dict[tuple[int, ...], ChartFunction] = {}
        if terms:
            for idx, coeff in terms.items():
                try:
                    ints = tuple(map(index, idx))
                except TypeError:
                    raise TypeError(f"covector index {idx!r} needs int entries") from None
                sorted_idx, sign = _sort_with_sign(ints)
                if sign == 0:
                    continue
                if any(i < 0 or i >= ncov for i in sorted_idx):
                    raise ValueError(f"covector index out of range in {idx}")
                if len(sorted_idx) > ncov:
                    raise ValueError("degree exceeds manifold dimension")
                if coeff.space != space:
                    raise ValueError("coefficient lives on the wrong chart")
                if isinstance(manifold, Sphere2) and sorted_idx not in ((), (0, 1)):
                    raise ValueError(
                        "Sphere2 forms are restricted to multiples of 1 and the area form"
                    )
                c = coeff if sign == 1 else -coeff
                acc = clean.get(sorted_idx)
                clean[sorted_idx] = c if acc is None else acc + c
        object.__setattr__(self, "manifold", manifold)
        object.__setattr__(
            self, "_terms", {k: v for k, v in clean.items() if not v.is_zero()}
        )

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("DifferentialForm is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(manifold: Manifold) -> "DifferentialForm":
        return DifferentialForm(manifold)

    @staticmethod
    def from_function(manifold: Manifold, f: ChartFunction) -> "DifferentialForm":
        return DifferentialForm(manifold, {(): f})

    @staticmethod
    def constant(manifold: Manifold, c: CoeffLike) -> "DifferentialForm":
        return DifferentialForm.from_function(
            manifold, ChartFunction.constant(manifold.space, c)
        )

    @staticmethod
    def basis(manifold: Manifold, *covector_names: str) -> "DifferentialForm":
        """Wedge of named covectors with coefficient 1, e.g. basis(M, 'dx', 'dy')."""
        labels = manifold.covectors
        for n in covector_names:
            if n not in labels:
                raise KeyError(f"no covector {n!r} on {manifold}, whose covectors are {labels}")
        idx = tuple(labels.index(n) for n in covector_names)
        return DifferentialForm(
            manifold, {idx: ChartFunction.one(manifold.space)}
        )

    @staticmethod
    def area(manifold: Sphere2, c: CoeffLike = 1) -> "DifferentialForm":
        return DifferentialForm(
            manifold, {(0, 1): ChartFunction.constant(manifold.space, c)}
        )

    # -- structure ----------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], ChartFunction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({len(k) for k in self._terms}))

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = self.degrees()
        if not degs:
            return True
        if degree is None:
            return len(degs) == 1
        return degs == (degree,)

    def component(self, degree: int) -> "DifferentialForm":
        return DifferentialForm(
            self.manifold,
            {k: v for k, v in self._terms.items() if len(k) == degree},
        )

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "DifferentialForm"):
        if self.manifold != other.manifold:
            raise ValueError("manifold mismatch")

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check(other)
        out = dict(self._terms)
        for k, v in other._terms.items():
            acc = out.get(k)
            out[k] = v if acc is None else acc + v
        return DifferentialForm(self.manifold, out)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(self.manifold, {k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def scale(self, c: CoeffLike) -> "DifferentialForm":
        return DifferentialForm(
            self.manifold, {k: v.scale(c) for k, v in self._terms.items()}
        )

    def multiply_function(self, f: ChartFunction) -> "DifferentialForm":
        return DifferentialForm(
            self.manifold, {k: f * v for k, v in self._terms.items()}
        )

    def wedge(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check(other)
        out: dict[tuple[int, ...], ChartFunction] = {}
        for i1, c1 in self._terms.items():
            for i2, c2 in other._terms.items():
                merged, sign = _sort_with_sign(i1 + i2)
                if sign == 0:
                    continue
                coeff = (c1 * c2) if sign == 1 else -(c1 * c2)
                acc = out.get(merged)
                out[merged] = coeff if acc is None else acc + coeff
        return DifferentialForm(self.manifold, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return self.manifold == other.manifold and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.manifold, frozenset(self._terms.items())))

    # -- calculus ----------------------------------------------------------------

    def exterior_d(self) -> "DifferentialForm":
        manifold = self.manifold
        if isinstance(manifold, Sphere2):
            # constants and the top form: d vanishes identically
            return DifferentialForm.zero(manifold)
        names = manifold.space.names
        out: dict[tuple[int, ...], ChartFunction] = {}
        for idx, coeff in self._terms.items():
            for i, name in enumerate(names):
                dc = coeff.derive(name)
                if dc.is_zero():
                    continue
                merged, sign = _sort_with_sign((i,) + idx)
                if sign == 0:
                    continue
                add = dc if sign == 1 else -dc
                acc = out.get(merged)
                out[merged] = add if acc is None else acc + add
        return DifferentialForm(manifold, out)

    def is_closed(self) -> bool:
        return self.exterior_d().is_zero()

    def integrate(self) -> Scalar:
        """Exact integral of a top-degree form over a compact manifold."""
        manifold = self.manifold
        if not manifold.is_compact:
            raise ValueError("integration requires a compact manifold")
        dim = manifold.dim
        for idx, coeff in self._terms.items():
            if len(idx) != dim and not coeff.is_zero():
                raise ValueError("integrand is not top-degree")
        if isinstance(manifold, Sphere2):
            coeff = self._terms.get((0, 1))
            value = coeff.constant_value() if coeff is not None else CScalar.zero()
        else:  # Torus: unit volume, Fourier mean
            top = tuple(range(dim))
            coeff = self._terms.get(top)
            value = coeff.torus_mean() if coeff is not None else CScalar.zero()
        if not value.is_real():
            raise ValueError(f"integral has a nonzero imaginary part: {value}")
        return value.re

    # -- transport between charts ---------------------------------------------

    def shift(self, delta: Mapping[str, Fraction]) -> "DifferentialForm":
        """Translate coefficients: returns the form with coefficients f(u + delta).

        A key of ``delta`` that is not a coordinate raises KeyError."""
        space = self.manifold.space
        for name in delta:
            space.index(name)
        return DifferentialForm(
            self.manifold, {k: v.shift(delta) for k, v in self._terms.items()}
        )

    # -- rendering ------------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        labels = self.manifold.covectors
        chunks = []
        for idx in sorted(self._terms, key=lambda k: (len(k), k)):
            coeff = self._terms[idx]
            base = "^".join(labels[i] for i in idx) if idx else "1"
            chunks.append(f"[{coeff}] {base}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"DifferentialForm({self})"
