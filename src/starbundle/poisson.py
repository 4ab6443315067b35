"""Constant Poisson structures on symplectic vector spaces and flat tori."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .chartfn import ChartFunction, ChartSpace
from .scalar import Scalar

Matrix = tuple[tuple[Scalar, ...], ...]


def _det(m: Matrix) -> Scalar:
    n = len(m)
    total = Scalar.zero()
    for perm in permutations(range(n)):
        # permutation parity by counting inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        sign = -1 if inv % 2 else 1
        prod = Scalar.one()
        for i in range(n):
            prod = prod * m[i][perm[i]]
        total = total + (prod if sign == 1 else -prod)
    return total


@dataclass(frozen=True)
class PoissonStructure:
    """Constant antisymmetric bivector Pi on a 2n-dimensional chart.

    The symplectic form is the exact matrix inverse of Pi; inversion is only
    defined when det(Pi) is a monomial in the Laurent-pi scalar ring.
    """

    space: ChartSpace
    matrix: Matrix

    def __post_init__(self):
        n = self.space.dim
        if n % 2 != 0 or n == 0:
            raise ValueError("Poisson chart dimension must be even and positive")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError("bivector matrix shape does not match the chart")
        for i in range(n):
            for j in range(n):
                if self.matrix[i][j] != -self.matrix[j][i]:
                    raise ValueError("bivector must be antisymmetric")
        if _det(self.matrix).is_zero():
            raise ValueError("bivector must be invertible")

    @staticmethod
    def standard(space: ChartSpace, scale: Scalar | int | Fraction = 1) -> "PoissonStructure":
        """Pairs consecutive coordinates: {x_i, y_i} = scale."""
        n = space.dim
        s = Scalar.coerce(scale)
        rows = [[Scalar.zero() for _ in range(n)] for _ in range(n)]
        for k in range(n // 2):
            rows[2 * k][2 * k + 1] = s
            rows[2 * k + 1][2 * k] = -s
        return PoissonStructure(space, tuple(tuple(r) for r in rows))

    def nonzero_entries(self) -> list[tuple[int, int, Scalar]]:
        out = []
        n = self.space.dim
        for i in range(n):
            for j in range(n):
                if not self.matrix[i][j].is_zero():
                    out.append((i, j, self.matrix[i][j]))
        return out

    def symplectic_form(self) -> Matrix:
        """omega = Pi^{-1} via the adjugate; exact when det is a monomial."""
        n = self.space.dim
        det = _det(self.matrix)
        inv_det = det.inverse()
        cof = [[Scalar.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = tuple(
                    tuple(self.matrix[r][c] for c in range(n) if c != j)
                    for r in range(n)
                    if r != i
                )
                sign = -1 if (i + j) % 2 else 1
                m = _det(minor) * inv_det
                cof[j][i] = m if sign == 1 else -m
        return tuple(tuple(row) for row in cof)


def poisson_bracket(
    a: ChartFunction, b: ChartFunction, structure: PoissonStructure
) -> ChartFunction:
    """{a, b} = sum_ij Pi^ij (d_i a)(d_j b), exactly."""
    if a.space != structure.space or b.space != structure.space:
        raise ValueError("functions do not live on the Poisson chart")
    names = structure.space.names
    total = ChartFunction.zero(structure.space)
    da = {i: a.derive(names[i]) for i in range(len(names))}
    db = {j: b.derive(names[j]) for j in range(len(names))}
    for i, j, s in structure.nonzero_entries():
        if da[i].is_zero() or db[j].is_zero():
            continue
        total = total + (da[i] * db[j]).scale(s)
    return total
