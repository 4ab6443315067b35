"""Exact scalars: Laurent polynomials in pi over the rationals.

Every number produced by the toolkit is a finite sum ``sum_m q_m * pi**m``
with rational ``q_m`` and integer ``m``.  Because pi is transcendental, two
such sums are equal as real numbers iff they are structurally equal, so all
equality tests (including membership in ``2*pi*Z``, which decides phase
identities) are exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union
import math
import re

RationalLike = Union[int, Fraction]
ScalarLike = Union["Scalar", int, Fraction]


class Scalar:
    """Immutable Laurent polynomial in pi with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, RationalLike] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for m, q in terms.items():
                if not isinstance(q, (int, Fraction)):
                    raise TypeError(
                        f"Scalar coefficients must be int or Fraction, not {type(q).__name__}"
                    )
                if q != 0:
                    clean[int(m)] = clean.get(int(m), Fraction(0)) + q
        self._terms = {m: q for m, q in clean.items() if q != 0}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return Scalar()

    @staticmethod
    def one() -> "Scalar":
        return Scalar({0: 1})

    @staticmethod
    def rational(q: RationalLike) -> "Scalar":
        return Scalar({0: q})

    @staticmethod
    def pi(power: int = 1, coeff: RationalLike = 1) -> "Scalar":
        return Scalar({power: coeff})

    @staticmethod
    def coerce(x: ScalarLike) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        """True when no pi power appears (pure rational number)."""
        return set(self._terms) <= {0}

    def is_integer(self) -> bool:
        if not self._terms:
            return True
        return self.is_rational() and self._terms[0].denominator == 1

    def is_two_pi_integer(self) -> bool:
        """Exact membership in 2*pi*Z (0 counts)."""
        if not self._terms:
            return True
        if set(self._terms) != {1}:
            return False
        q = self._terms[1] / 2
        return q.denominator == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self}")
        return self._terms.get(0, Fraction(0))

    # -- ring operations ----------------------------------------------
    # Results are built with the trusted ``_scalar``: the inputs are already
    # canonical, and each operation drops the zeros that cancellation makes.

    def __add__(self, other: ScalarLike) -> "Scalar":
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        for m, q in other._terms.items():
            acc = out.get(m)
            out[m] = q if acc is None else acc + q
        return _scalar({m: q for m, q in out.items() if q})

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _scalar({m: -q for m, q in self._terms.items()})

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        if not self._terms:
            return self
        if not other._terms:
            return other
        out: dict[int, Fraction] = {}
        for m1, q1 in self._terms.items():
            for m2, q2 in other._terms.items():
                m = m1 + m2
                acc = out.get(m)
                out[m] = q1 * q2 if acc is None else acc + q1 * q2
        return _scalar({m: q for m, q in out.items() if q})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            raise TypeError("Scalar power must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        result = _scalar({0: Fraction(1)})
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> "Scalar":
        """Exact inverse; defined only for monomials q*pi**m."""
        if len(self._terms) != 1:
            raise ZeroDivisionError(
                f"scalar {self} has no exact inverse in the Laurent-pi ring"
            )
        ((m, q),) = self._terms.items()
        return _scalar({-m: 1 / q})

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        return self * Scalar.coerce(other).inverse()

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a rational Scalar equals its Fraction (0 when zero), so hash as it
        if self.is_rational():
            return hash(self._terms.get(0, Fraction(0)))
        return hash(frozenset(self._terms.items()))

    # -- rendering ------------------------------------------------------

    def __float__(self) -> float:
        return float(sum(float(q) * math.pi**m for m, q in self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m in sorted(self._terms, reverse=True):
            q = self._terms[m]
            if m == 0:
                parts.append(str(q))
            else:
                head = "" if q == 1 else ("-" if q == -1 else f"{q}*")
                tail = "pi" if m == 1 else f"pi^{m}"
                parts.append(head + tail)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _scalar(terms: dict[int, Fraction]) -> Scalar:
    """Trusted constructor: ``terms`` is a fresh dict of int -> nonzero
    ``Fraction`` that the new Scalar owns.  No validation."""
    s = object.__new__(Scalar)
    s._terms = terms
    return s


_TERM_RE = re.compile(
    r"^\s*(?P<coef>[+-]?\d+(?:/\d+)?)?\s*(?:(?P<star>\*)?\s*pi(?:\^(?P<exp>-?\d+))?)?\s*$"
)


def parse_scalar(text: str) -> Scalar:
    """Parse strings like '3/7', '2*pi', '2pi', '-1/2*pi^-1 + 1'."""
    text = text.strip()
    if not text:
        raise ValueError("empty scalar string")
    # split into signed terms
    pieces = re.split(r"(?<=[0-9a-z])\s*\+\s*", text)
    total = Scalar.zero()
    for piece in pieces:
        # allow a single leading minus inside each piece; further minuses split
        chunks = re.split(r"(?<=[0-9a-z])\s*-\s*", piece)
        signs = [1] + [-1] * (len(chunks) - 1)
        for sign, chunk in zip(signs, chunks):
            m = _TERM_RE.match(chunk)
            if not m or (m.group("coef") is None and "pi" not in chunk):
                raise ValueError(f"cannot parse scalar term {chunk!r}")
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
            if "pi" in chunk:
                exp = int(m.group("exp")) if m.group("exp") else 1
            else:
                exp = 0
            total = total + Scalar({exp: sign * coef})
    return total


class CScalar:
    """Complex number with exact Scalar real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: ScalarLike = 0, im: ScalarLike = 0):
        object.__setattr__(self, "re", Scalar.coerce(re))
        object.__setattr__(self, "im", Scalar.coerce(im))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CScalar is immutable")

    @staticmethod
    def zero() -> "CScalar":
        return CScalar()

    @staticmethod
    def one() -> "CScalar":
        return CScalar(Scalar.one())

    @staticmethod
    def i() -> "CScalar":
        return CScalar(0, Scalar.one())

    @staticmethod
    def coerce(x) -> "CScalar":
        if isinstance(x, CScalar):
            return x
        if isinstance(x, (Scalar, int, Fraction)):
            return _cscalar(Scalar.coerce(x), _scalar({}))
        raise TypeError(f"cannot coerce {type(x).__name__} to CScalar")

    def is_zero(self) -> bool:
        return not (self.re._terms or self.im._terms)

    def is_real(self) -> bool:
        return self.im.is_zero()

    def conj(self) -> "CScalar":
        return _cscalar(self.re, -self.im)

    def times_i(self) -> "CScalar":
        return _cscalar(-self.im, self.re)

    def __add__(self, other) -> "CScalar":
        if type(other) is not CScalar:
            other = CScalar.coerce(other)
        return _cscalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "CScalar":
        return _cscalar(-self.re, -self.im)

    def __sub__(self, other) -> "CScalar":
        return self + (-CScalar.coerce(other))

    def __rsub__(self, other) -> "CScalar":
        return CScalar.coerce(other) + (-self)

    def __mul__(self, other) -> "CScalar":
        if type(other) is not CScalar:
            other = CScalar.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        # a real factor needs two Scalar products, not four and two sums
        if not d._terms:
            return _cscalar(a * c, b * c)
        if not b._terms:
            return _cscalar(a * c, a * d)
        return _cscalar(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Scalar, int, Fraction)):
            other = CScalar.coerce(other)
        if not isinstance(other, CScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        # a real CScalar equals its real part, so hash as it
        if self.im.is_zero():
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im.is_zero():
            return str(self.re)
        if self.re.is_zero():
            return f"({self.im})*i"
        return f"({self.re} + ({self.im})*i)"

    def __repr__(self) -> str:
        return f"CScalar({self})"


def _cscalar(re: Scalar, im: Scalar) -> CScalar:
    """Trusted constructor from two Scalars.  No coercion."""
    z = object.__new__(CScalar)
    object.__setattr__(z, "re", re)
    object.__setattr__(z, "im", im)
    return z


def _cs(re, im=0) -> CScalar:
    """CScalar with rational parts, from ``int`` or ``Fraction`` values."""
    return CScalar(Scalar.rational(re), Scalar.rational(im))
