"""Hardy-space Toeplitz operators on the circle with numerical index.

The compression of multiplication by a trig polynomial f to the span of
Fourier modes 0..N is the banded matrix T_f[j, k] = fhat(j - k).  Finite
square truncations of T_f T_g and T_g T_f have equal traces, so the naive
trace difference is identically zero; the stabilized estimate multiplies
the semi-infinite operators first (by padding with the joint bandwidth and
compressing afterwards), which reproduces -winding(f) as N and the
parametrix order M grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np


class SymbolFunction:
    """Trig polynomial with complex float coefficients (the index is a float trace)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, complex]):
        clean = {}
        for n, c in coeffs.items():
            c = complex(c)
            if c:
                clean[int(n)] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("SymbolFunction is immutable")

    @staticmethod
    def constant(c) -> "SymbolFunction":
        return SymbolFunction({0: c})

    @staticmethod
    def mode(n: int, c=1) -> "SymbolFunction":
        return SymbolFunction({n: c})

    def __add__(self, other: "SymbolFunction") -> "SymbolFunction":
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, 0j) + c
        return SymbolFunction(out)

    def __mul__(self, other: "SymbolFunction") -> "SymbolFunction":
        out: dict[int, complex] = {}
        for n1, c1 in self.coeffs.items():
            for n2, c2 in other.coeffs.items():
                n = n1 + n2
                out[n] = out.get(n, 0j) + c1 * c2
        return SymbolFunction(out)

    @property
    def bandwidth(self) -> int:
        return max((abs(n) for n in self.coeffs), default=0)

    def coefficient(self, n: int) -> complex:
        return self.coeffs.get(n, 0j)

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def sample(self, count: int) -> np.ndarray:
        theta = 2 * np.pi * np.arange(count) / count
        values = np.zeros(count, dtype=complex)
        for n, c in self.coeffs.items():
            values += c * np.exp(1j * n * theta)
        return values

    def margin(self, samples: int = 4096) -> float:
        """Certified lower bound for min |f| on the circle.

        Dense-grid minimum minus the Lipschitz slack sum |n c_n| * (pi/L).
        """
        if not self.coeffs:
            return 0.0
        values = np.abs(self.sample(samples))
        slack = sum(abs(n) * abs(c) for n, c in self.coeffs.items())
        return float(values.min() - slack * np.pi / samples)

    def is_elliptic(self) -> bool:
        return self.margin() > 0

    def winding_number(self) -> int:
        """Independent oracle: (1/2*pi*i) contour integral of f'/f.

        For a trig polynomial f = e^{-iB theta} p(e^{i theta}) the winding
        equals the number of roots of p inside the unit disk minus B.
        """
        if not self.is_elliptic():
            raise ValueError("winding number needs an elliptic symbol")
        lo = min(self.coeffs)
        hi = max(self.coeffs)
        poly = [self.coefficient(n) for n in range(hi, lo - 1, -1)]
        roots = np.roots(poly)
        inside = int(np.sum(np.abs(roots) < 1.0))
        return inside + lo


def toeplitz(f: SymbolFunction, size: int) -> np.ndarray:
    """The banded compression P M_f P on modes 0..size-1."""
    out = np.zeros((size, size), dtype=complex)
    for band, c in f.coeffs.items():
        idx = np.arange(max(0, band), min(size, size + band))
        out[idx, idx - band] = c
    return out


@dataclass(frozen=True)
class ParametrixResult:
    symbol: SymbolFunction
    truncation_bound: float
    method: str


def invert_symbol(f: SymbolFunction, M: int) -> ParametrixResult:
    """Order-M Fourier truncation of 1/f with a reported error bound.

    Monomials invert directly; dominant-constant symbols use the Neumann
    recursion with a geometric tail bound; everything else falls back to
    dense-grid quadrature with an empirical decay bound.
    """
    if not f.coeffs:
        raise ValueError("cannot invert the zero symbol")
    if f.is_monomial():
        ((n, c),) = f.coeffs.items()
        return ParametrixResult(SymbolFunction({-n: 1 / c}), 0.0, "exact-monomial")
    c0 = f.coefficient(0)
    rest_mass = sum(abs(c) for n, c in f.coeffs.items() if n != 0)
    if abs(c0) > rest_mass:
        # Neumann series sum (-1)^k (f - c0)^k / c0^{k+1}, clipped to [-M, M]
        rest = SymbolFunction({n: c for n, c in f.coeffs.items() if n != 0})
        ratio = rest_mass / abs(c0)
        term = SymbolFunction({0: 1 / c0})
        total = term
        clipped = 0.0
        k = 0
        while True:
            k += 1
            term = term * rest
            term = SymbolFunction({n: -c / c0 for n, c in term.coeffs.items()})
            kept = {n: c for n, c in term.coeffs.items() if abs(n) <= M}
            clipped += sum(abs(c) for n, c in term.coeffs.items() if abs(n) > M)
            total = total + SymbolFunction(kept)
            tail = ratio**k / (abs(c0) * (1 - ratio))
            if tail < 1e-30 or k > 400:
                break
        return ParametrixResult(total, tail + clipped, "neumann")
    # quadrature fallback (FFT-free by design)
    B = f.bandwidth
    L = max(1024, 8 * (M + B))
    theta = 2 * np.pi * np.arange(L) / L
    inv_values = 1.0 / f.sample(L)
    ns = np.arange(-M, M + 1)
    phases = np.exp(-1j * np.outer(ns, theta))
    ghat = phases @ inv_values / L
    coeffs = {int(n): value for n, value in zip(ns, ghat) if abs(value) > 1e-15}
    edge = np.abs(ghat[np.abs(ns) >= max(1, M - 2)]).max() if M >= 1 else 0.0
    mid = np.abs(ghat[np.abs(ns) >= max(1, M // 2)]).max()
    ratio = min(0.99, (edge / mid) ** (1.0 / max(1, M - M // 2))) if mid > 0 else 0.0
    bound = float(edge * ratio / (1 - ratio)) if ratio < 1 else float("inf")
    return ParametrixResult(SymbolFunction(coeffs), bound, "quadrature")


@dataclass(frozen=True)
class HardyIndexResult:
    value: float
    N: int
    M: int
    parametrix_method: str
    parametrix_bound: float


def hardy_index(f: SymbolFunction, N: int, M: int) -> HardyIndexResult:
    """Stabilized trace estimate of ind(T_f); converges to -winding(f).

    Tr(T_f T_g - P) - Tr(T_g T_f - P) over the rank-(N+1) compression,
    with the products formed at padded size so the corner terms match the
    semi-infinite operators.
    """
    if not f.is_elliptic():
        raise ValueError("hardy_index needs an elliptic symbol (margin > 0)")
    par = invert_symbol(f, M)
    g = par.symbol
    size = N + 1 + max(f.bandwidth, g.bandwidth)
    tf = toeplitz(f, size)
    tg = toeplitz(g, size)
    fg = (tf @ tg)[: N + 1, : N + 1]
    gf = (tg @ tf)[: N + 1, : N + 1]
    value = float(np.real(np.trace(fg) - np.trace(gf)))
    return HardyIndexResult(value, N, M, par.method, par.truncation_bound)
