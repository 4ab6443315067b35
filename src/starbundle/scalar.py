"""Exact scalars: Laurent polynomials in pi over the Gaussian rationals.

A value ``sum_m (a_m + b_m*i)/d * pi**m`` is stored as one integer
denominator ``d`` and a dict ``{m: (a_m, b_m)}`` of integer numerator pairs.
It is kept canonical: ``d > 0``, gcd(d, every numerator) = 1, no entry is
``(0, 0)``, and zero is ``{}`` over 1.  So each value has exactly one stored
form, and because pi is transcendental, two such sums are equal as complex
numbers iff their forms are structurally equal: all equality tests
(including membership in ``2*pi*Z``, which decides phase identities) are
exact.  :class:`Scalar` is the real subset (every ``b_m`` is 0),
:class:`CScalar` the whole ring; one kernel computes both, and
``CScalar.coerce`` of a Scalar shares its dict.

This module alone does arithmetic on that format.  Its kernel: ``_new``
and ``_reduce`` build canonical values; ``_add_into``, ``_scaled`` and
``_mul_into`` work on bare numerator dicts; ``_add`` and ``_mul`` are the
ring operators and ``_lincomb`` a weighted sum under one lcm.  ``chartfn``,
``cech`` and ``star`` call it to sum many terms before one ``_reduce``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union
import math
import re

RationalLike = Union[int, Fraction]
ScalarLike = Union["Scalar", int, Fraction]


# -- kernel: canonical operands of one class in, a canonical value of that
# class out; no dict is mutated once built, so values may share them.


def _new(cls, den: int, num: dict):
    """Trusted constructor: ``num`` over ``den`` is canonical and owned."""
    x = object.__new__(cls)
    x._den = den
    x._num = num
    return x


def _reduce(cls, den: int, num: dict):
    """Drop the zero entries of ``num`` over ``den > 0``; divide out the gcd."""
    if (0, 0) in num.values():
        num = {m: p for m, p in num.items() if p != (0, 0)}
    if den != 1:
        g = den
        for a, b in num.values():
            g = gcd(g, a, b)
            if g == 1:
                break
        else:  # zero leaves g == den, so it comes out as {} over 1
            den //= g
            num = {m: (a // g, b // g) for m, (a, b) in num.items()}
    return _new(cls, den, num)


def _add(x, y):
    if not y._num:
        return x
    if not x._num:
        return y
    d1, d2 = x._den, y._den
    if d1 == d2:
        out, s2 = dict(x._num), 1
    else:
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        out = {m: (a * s1, b * s1) for m, (a, b) in x._num.items()}
        d1 *= s1
    _add_into(out, y._num, s2)
    return _reduce(type(x), d1, out)


def _add_into(acc: dict, num: dict, scale: int = 1) -> None:
    """Add ``num`` times ``scale`` to ``acc``, both {pi power: (re, im)}."""
    for m, (a, b) in num.items():
        p = acc.get(m)
        acc[m] = (a * scale, b * scale) if p is None else (p[0] + a * scale, p[1] + b * scale)


def _scaled(num: dict, scale: int) -> dict:
    """{pi power: (re, im)} of integer numerators, times ``scale``."""
    if scale == 1:
        return num
    return {m: (a * scale, b * scale) for m, (a, b) in num.items()}


def _mul_into(acc: dict, x: dict, y: dict) -> None:
    """Add x * y to ``acc``, all {pi power: (re, im)} of integer numerators."""
    for m1, (a, b) in x.items():
        for m2, (c, d) in y.items():
            m = m1 + m2
            if b:  # a real a needs two products, not four
                re_, im_ = a * c - b * d, a * d + b * c
            else:
                re_, im_ = a * c, a * d
            p = acc.get(m)
            acc[m] = (re_, im_) if p is None else (p[0] + re_, p[1] + im_)


def _mul(x, y):
    out: dict[int, tuple[int, int]] = {}
    _mul_into(out, x._num, y._num)
    return _reduce(type(x), x._den * y._den, out)


def _lincomb(parts) -> "CScalar":
    """The sum of w * i**t * (num over den) over ``parts`` (den, num, w, t)
    with integer w: one lcm, integer numerators, one ``_reduce``."""
    den = lcm(*(part[0] for part in parts))
    out: dict[int, tuple[int, int]] = {}
    for d, num, w, t in parts:
        for _ in range(t):  # times i
            num = {m: (-b, a) for m, (a, b) in num.items()}
        _add_into(out, num, w * (den // d))
    return _reduce(CScalar, den, out)


def _binary(kernel):
    """The operator ``kernel(self, other)``, other coerced by the class's own
    ``coerce``; an operand that coerce refuses gives NotImplemented, so that
    the other operand's reflected operator decides (a CScalar, a function)."""

    def operator(self, other):
        if type(other) is not type(self):
            try:
                other = self.coerce(other)
            except TypeError:
                return NotImplemented
        return kernel(self, other)

    return operator


class _Exact:
    """Storage and ring operators shared by Scalar and CScalar."""

    __slots__ = ("_den", "_num")

    def is_zero(self) -> bool:
        return not self._num

    def __neg__(self):
        return _new(type(self), self._den, {m: (-a, -b) for m, (a, b) in self._num.items()})

    __add__ = _binary(_add)
    __mul__ = _binary(_mul)
    __sub__ = _binary(lambda x, y: _add(x, -y))
    __rsub__ = _binary(lambda x, y: _add(y, -x))

    def __eq__(self, other: object) -> bool:
        try:
            other = self.coerce(other)
        except TypeError:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        # equal values hash alike across Scalar, CScalar, int and Fraction
        if self._num.keys() <= {0}:
            a, b = self._num.get(0, (0, 0))
            if not b:
                return hash(Fraction(a, self._den))
        return hash((self._den, frozenset(self._num.items())))


class Scalar(_Exact):
    """Immutable real Laurent polynomial in pi with rational coefficients."""

    __slots__ = ()

    def __init__(self, terms: Mapping[int, RationalLike] | None = None):
        total = _new(Scalar, 1, {})
        for m, q in (terms or {}).items():
            if not isinstance(q, (int, Fraction)):
                raise TypeError(
                    f"Scalar coefficients must be int or Fraction, not {type(q).__name__}"
                )
            if not isinstance(m, int):
                raise TypeError(f"pi power {m!r} must be an int, not {type(m).__name__}")
            total = _add(total, _reduce(Scalar, q.denominator, {int(m): (q.numerator, 0)}))
        self._den, self._num = total._den, total._num

    # the operators are class attributes of their own, so that the calls of
    # each class can be told apart when the layers are traced
    __add__ = __radd__ = _Exact.__add__
    __mul__ = __rmul__ = _Exact.__mul__

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return _new(Scalar, 1, {})

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
            return _reduce(Scalar, x.denominator, {0: (x.numerator, 0)})
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        return {m: Fraction(a, self._den) for m, (a, _) in self._num.items()}

    def is_rational(self) -> bool:
        """True when no pi power appears (pure rational number)."""
        return self._num.keys() <= {0}

    def is_integer(self) -> bool:
        return self._den == 1 and self.is_rational()

    def is_two_pi_integer(self) -> bool:
        """Exact membership in 2*pi*Z (0 counts)."""
        if not self._num:
            return True
        return self._num.keys() == {1} and self._den == 1 and self._num[1][0] % 2 == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self}")
        return Fraction(self._num.get(0, (0, 0))[0], self._den)

    # -- ring operations ----------------------------------------------

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            raise TypeError("Scalar power must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        if len(self._num) == 1:  # q*pi**j; q in lowest terms stays so
            ((j, (a, _)),) = self._num.items()
            return _new(Scalar, self._den**n, {j * n: (a**n, 0)})
        result = _new(Scalar, 1, {0: (1, 0)})
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
        if len(self._num) != 1:
            raise ZeroDivisionError(
                f"scalar {self} has no exact inverse in the Laurent-pi ring"
            )
        ((m, (a, _)),) = self._num.items()
        return _new(Scalar, abs(a), {-m: (self._den if a > 0 else -self._den, 0)})

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        return self * Scalar.coerce(other).inverse()

    # -- rendering ------------------------------------------------------

    def __float__(self) -> float:
        return float(sum(float(q) * math.pi**m for m, q in self.terms.items()))

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for m in sorted(terms, reverse=True):
            q = terms[m]
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


class CScalar(_Exact):
    """Immutable complex Laurent polynomial in pi over the Gaussian rationals."""

    __slots__ = ()

    def __init__(self, re: ScalarLike = 0, im: ScalarLike = 0):
        z = CScalar.coerce(Scalar.coerce(re)) + CScalar.coerce(Scalar.coerce(im)).times_i()
        self._den, self._num = z._den, z._num

    __add__ = __radd__ = _Exact.__add__
    __mul__ = __rmul__ = _Exact.__mul__

    @staticmethod
    def zero() -> "CScalar":
        return _new(CScalar, 1, {})

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
            x = Scalar.coerce(x)
            return _new(CScalar, x._den, x._num)
        raise TypeError(f"cannot coerce {type(x).__name__} to CScalar")

    @property
    def re(self) -> Scalar:
        return _reduce(Scalar, self._den, {m: (a, 0) for m, (a, _) in self._num.items()})

    @property
    def im(self) -> Scalar:
        return _reduce(Scalar, self._den, {m: (b, 0) for m, (_, b) in self._num.items()})

    def is_real(self) -> bool:
        return not any(b for _, b in self._num.values())

    def conj(self) -> "CScalar":
        return _new(CScalar, self._den, {m: (a, -b) for m, (a, b) in self._num.items()})

    def times_i(self) -> "CScalar":
        return _new(CScalar, self._den, {m: (-b, a) for m, (a, b) in self._num.items()})

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.is_real():
            return str(self.re)
        if self.re.is_zero():
            return f"({self.im})*i"
        return f"({self.re} + ({self.im})*i)"

    def __repr__(self) -> str:
        return f"CScalar({self})"


def _cs(re, im=0) -> CScalar:
    """CScalar with rational parts, from ``int`` or ``Fraction`` values."""
    return CScalar(Scalar.rational(re), Scalar.rational(im))
