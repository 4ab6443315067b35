"""Berezin-Toeplitz matrices on the projective line, exactly.

Level-k sections are spanned by the monomials 1, z, ..., z^k with Gram
weights <z^a, z^a> = a!(k-a)!/(k+1)!.  For admissible symbols
f = z^p zbar^q (1+|z|^2)^{-c} (p, q <= c) every matrix element of the
compression is a Beta-integral value, hence an exact rational; the matrix
is stored in the monomial basis and conjugated by the square root of the
Gram diagonal only when floating-point norms are required.

The Poisson bracket is taken with respect to 2*pi times the unit-area
Fubini-Study form, i.e. {f, g} = -i (1+u)^2 (dz f dzb g - dzb f dz g);
with this prequantum normalization the first-order law reads
k [T_f, T_g] ~ s * i * T_{f,g} with |constant| = 1 and only the sign s
left to experiment, which the decay sweep selects and reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import index
from typing import Mapping, Sequence

import numpy as np

from .scalar import CScalar, Scalar, _cs
from .series import _check_order


class AdmissibilityError(ValueError):
    pass


def _raise_to_level(terms: Mapping[tuple[int, int, int], CScalar], target: int) -> dict:
    """Rewrite terms at the common denominator exponent ``target``.

    Uses (p,q,c) = (p+1,q+1,c+1) + (p,q,c+1) repeatedly; coefficients of the
    same key merge, so cancellations across levels become visible.
    """
    work = dict(terms)
    for _ in range(target):
        nxt: dict[tuple[int, int, int], CScalar] = {}
        for (p, q, c), coeff in work.items():
            if c < target:
                for key in ((p + 1, q + 1, c + 1), (p, q, c + 1)):
                    nxt[key] = nxt.get(key, CScalar.zero()) + coeff
            else:
                nxt[(p, q, c)] = nxt.get((p, q, c), CScalar.zero()) + coeff
        work = {k: v for k, v in nxt.items() if not v.is_zero()}
    return work


class CP1Function:
    """Finite sum of z^p zbar^q (1+|z|^2)^{-c} with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int, int], CScalar]):
        clean: dict[tuple[int, int, int], CScalar] = {}
        for key, coeff in terms.items():
            try:
                p, q, c = map(index, key)
            except TypeError:
                raise TypeError(f"term {key!r} needs int exponents") from None
            coeff = CScalar.coerce(coeff)
            if not (coeff.re.is_rational() and coeff.im.is_rational()):
                raise AdmissibilityError("coefficients must be rational")
            if p < 0 or q < 0 or c < 0 or p > c or q > c:
                raise AdmissibilityError(
                    f"term z^{p} zbar^{q} (1+u)^-{c} is outside the admissible family"
                )
            if not coeff.is_zero():
                key = (p, q, c)
                clean[key] = clean.get(key, CScalar.zero()) + coeff
        object.__setattr__(
            self, "terms", {k: v for k, v in clean.items() if not v.is_zero()}
        )

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CP1Function is immutable")

    # -- canonical constructors ----------------------------------------------

    @staticmethod
    def monomial(p: int, q: int, c: int, coeff=1) -> "CP1Function":
        return CP1Function({(p, q, c): _cs(coeff) if not isinstance(coeff, CScalar) else coeff})

    @staticmethod
    def one() -> "CP1Function":
        return CP1Function.monomial(0, 0, 0)

    @staticmethod
    def height() -> "CP1Function":
        """u/(1+u) = |z|^2 / (1 + |z|^2), the vertical coordinate."""
        return CP1Function.monomial(1, 1, 1)

    @staticmethod
    def real_part() -> "CP1Function":
        """Re(z) / (1 + |z|^2)."""
        return CP1Function(
            {(1, 0, 1): _cs(Fraction(1, 2)), (0, 1, 1): _cs(Fraction(1, 2))}
        )

    @staticmethod
    def imag_part() -> "CP1Function":
        """Im(z) / (1 + |z|^2)."""
        return CP1Function(
            {
                (1, 0, 1): CScalar(0, Scalar.rational(Fraction(-1, 2))),
                (0, 1, 1): CScalar(0, Scalar.rational(Fraction(1, 2))),
            }
        )

    # -- algebra -------------------------------------------------------------------

    def __add__(self, other: "CP1Function") -> "CP1Function":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, CScalar.zero()) + c
        return CP1Function(out)

    def __neg__(self) -> "CP1Function":
        return CP1Function({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "CP1Function") -> "CP1Function":
        return self + (-other)

    def conj(self) -> "CP1Function":
        return CP1Function({(q, p, c): v.conj() for (p, q, c), v in self.terms.items()})

    def is_real(self) -> bool:
        return self.normalized_terms() == self.conj().normalized_terms()

    def max_c(self) -> int:
        return max((c for (_, _, c) in self.terms), default=0)

    def normalized_terms(self) -> dict:
        """Canonical form: every term at the maximal denominator exponent,
        so structurally different sums compare equal iff they are equal as
        functions."""
        return _raise_to_level(self.terms, self.max_c())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CP1Function):
            return NotImplemented
        target = max(self.max_c(), other.max_c())
        return _raise_to_level(self.terms, target) == _raise_to_level(
            other.terms, target
        )

    def __hash__(self) -> int:
        # equal functions agree at every point, and the exact values at z = 0
        # and z = 1 do not change when the terms are raised to another level
        at_zero = at_one = CScalar.zero()
        for (p, q, c), coeff in self.terms.items():
            if p == q == 0:
                at_zero = at_zero + coeff
            at_one = at_one + coeff * _cs(Fraction(1, 2**c))
        return hash((at_zero, at_one))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({coeff})*z^{p}*zb^{q}*(1+u)^-{c}"
            for (p, q, c), coeff in sorted(self.terms.items())
        )


def _dz(terms: dict) -> dict:
    out: dict[tuple[int, int, int], CScalar] = {}

    def add(key, c):
        out[key] = out.get(key, CScalar.zero()) + c

    for (p, q, c), coeff in terms.items():
        if p > 0:
            add((p - 1, q, c), coeff * _cs(p))
        if c > 0:
            add((p, q + 1, c + 1), coeff * _cs(-c))
    return out


def _dzbar(terms: dict) -> dict:
    out: dict[tuple[int, int, int], CScalar] = {}

    def add(key, c):
        out[key] = out.get(key, CScalar.zero()) + c

    for (p, q, c), coeff in terms.items():
        if q > 0:
            add((p, q - 1, c), coeff * _cs(q))
        if c > 0:
            add((p + 1, q, c + 1), coeff * _cs(-c))
    return out


def poisson_bracket_cp1(f: CP1Function, g: CP1Function) -> CP1Function:
    """{f, g} = -i (1+u)^2 (dz f dzb g - dzb f dz g).

    Stays inside the admissible family for the documented symbol pairs;
    raises AdmissibilityError otherwise.
    """
    combos: dict[tuple[int, int, int], CScalar] = {}

    def accumulate(a: dict, b: dict, sign: int):
        for (p1, q1, c1), u in a.items():
            for (p2, q2, c2), v in b.items():
                key = (p1 + p2, q1 + q2, c1 + c2 - 2)  # the (1+u)^2 factor
                coeff = (u * v).times_i() * _cs(-sign)
                combos[key] = combos.get(key, CScalar.zero()) + coeff

    accumulate(_dz(f.terms), _dzbar(g.terms), +1)
    accumulate(_dzbar(f.terms), _dz(g.terms), -1)
    cleaned = {k: v for k, v in combos.items() if not v.is_zero()}
    if not cleaned:
        return CP1Function({})
    # cross-level cancellations only show at a common denominator exponent
    target = max(c for (_, _, c) in cleaned)
    lifted = _raise_to_level(cleaned, target)
    return CP1Function(lifted)  # constructor enforces admissibility


def gram_weights(k: int) -> list[Fraction]:
    """<z^a, z^a> at level k: a!(k-a)!/(k+1)!."""
    return [
        Fraction(factorial(a) * factorial(k - a), factorial(k + 1))
        for a in range(k + 1)
    ]


def beta_entry(a: int, b: int, p: int, q: int, c: int, k: int) -> Fraction:
    """<f z^a, z^b> / <z^b, z^b> for the term z^p zbar^q (1+u)^{-c}.

    Nonzero only on the band b = a + p - q; the radial factor is the exact
    Beta-integral value s!(k+c-s)!/(k+c+1)! with s = a + p.
    """
    if a + p != b + q:
        return Fraction(0)
    s = a + p
    if s > k + c:
        return Fraction(0)
    radial = Fraction(factorial(s) * factorial(k + c - s), factorial(k + c + 1))
    norm_b = Fraction(factorial(b) * factorial(k - b), factorial(k + 1))
    return radial / norm_b


class BerezinMatrix:
    """Compression of multiplication by f at level k, monomial basis."""

    def __init__(self, symbol: CP1Function, k: int):
        _check_order(k, "level k")
        if k < symbol.max_c():
            raise AdmissibilityError(
                f"level k={k} is below the symbol's denominator degree {symbol.max_c()}"
            )
        self.symbol = symbol
        self.k = k
        entries: dict[tuple[int, int], CScalar] = {}
        for (p, q, c), coeff in symbol.terms.items():
            for a in range(k + 1):
                b = a + p - q
                if not 0 <= b <= k:
                    continue
                w = beta_entry(a, b, p, q, c, k)
                if w == 0:
                    continue
                key = (b, a)
                entries[key] = entries.get(key, CScalar.zero()) + coeff * _cs(w)
        self.entries = {k2: v for k2, v in entries.items() if not v.is_zero()}

    @property
    def size(self) -> int:
        return self.k + 1

    def to_numpy_monomial(self) -> np.ndarray:
        out = np.zeros((self.size, self.size), dtype=complex)
        for (r, c), v in self.entries.items():
            out[r, c] = complex(v)
        return out

    def to_numpy_orthonormal(self) -> np.ndarray:
        """Conjugate by sqrt(Gram): Hermitian for real symbols."""
        d = np.array([float(w) for w in gram_weights(self.k)])
        root = np.sqrt(d)
        return (root[:, None] * self.to_numpy_monomial()) / root[None, :]


@dataclass(frozen=True)
class DecayReport:
    sign: int
    slope: float
    k_values: tuple[int, ...]
    norms: tuple[float, ...]


def commutator_decay(f: CP1Function, g: CP1Function, k_values: Sequence[int]) -> DecayReport:
    """D_k = || k [T_f, T_g] - s i T_{f,g} || with the sign s fitted once.

    Operator norms are taken in the orthonormal basis; the report carries
    the empirical sign and the least-squares slope of log D_k vs log k.
    """
    if not f.is_real() or not g.is_real():
        raise AdmissibilityError("decay sweep expects real symbols")
    bracket = poisson_bracket_cp1(f, g)
    k_values = sorted({_check_order(k, "level k") for k in k_values})
    if any(k < max(f.max_c(), g.max_c(), bracket.max_c(), 1) for k in k_values):
        raise AdmissibilityError("levels too low for the symbol denominators")
    norms_by_sign = {1: [], -1: []}
    for k in k_values:
        tf = BerezinMatrix(f, k).to_numpy_orthonormal()
        tg = BerezinMatrix(g, k).to_numpy_orthonormal()
        tb = BerezinMatrix(bracket, k).to_numpy_orthonormal()
        comm = k * (tf @ tg - tg @ tf)
        for s in (1, -1):
            defect = comm - s * 1j * tb
            norms_by_sign[s].append(float(np.linalg.norm(defect, 2)))
    totals = {s: sum(v) for s, v in norms_by_sign.items()}
    sign = 1 if totals[1] <= totals[-1] else -1
    norms = norms_by_sign[sign]
    logs_k = np.log(np.array(k_values, dtype=float))
    logs_d = np.log(np.maximum(np.array(norms), 1e-300))
    slope = float(np.polyfit(logs_k, logs_d, 1)[0]) if len(k_values) > 1 else 0.0
    return DecayReport(sign, slope, tuple(k_values), tuple(norms))
