"""Toeplitz operators on the Hardy space of the circle, with exact index.

A symbol f = sum c_n z^n (lo <= n <= hi, z = e(x)) is a ChartFunction on
Torus(1) with pi-free coefficients in Q(i).  T_f is Fredholm iff f has no
zero on the circle (f is elliptic), and then ind T_f = -winding(f)
(Boettcher-Silbermann, *Analysis of Toeplitz Operators*); both are decided
in Fractions.  p = z^(-lo) f has degree d = hi - lo.  The Cayley map
z = (1 + iu)/(1 - iu) sends the real line onto the circle without z = -1,
and p(z)(1 - iu)^d = R(u) + i I(u), R and I in Q[u], with u^d coefficient
(-i)^d p(-1).  Along the line arg (1 - iu)^d falls by d*pi, and arg(R + iI)
moves by pi times the Cauchy index Ind(R/I) unless the path ends on the
real axis, as it does when the u^d coefficient is real (1/2 + z^2 would
count 1, not 2); then R + iI is first turned by i: (R, I) -> (-I, R).
So winding(f) = lo + (Ind(R/I) + d)/2.  Ind(R/I) = V(-oo) - V(+oo), the
sign changes of the Sturm chain I, R, -rem, ..., which ends in g = gcd(R, I)
(Henrici, *Applied and Computational Complex Analysis* I).  f is elliptic
iff p(-1) != 0 and g, whose real roots are the zeros of f off z = -1, has
none: Ind(g'/g) = 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .chartfn import ChartFunction


def _rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """The remainder of a by b, with len(b) - 1 coefficients, some maybe 0."""
    a = list(a)
    while len(a) >= len(b):
        q, shift = a.pop() / b[-1], len(a) - len(b) + 1
        for i, c in enumerate(b[:-1]):
            a[shift + i] -= q * c
    return a


def _cauchy_index(a: list[Fraction], b: list[Fraction]) -> tuple[int, list[Fraction]]:
    """Ind(b/a) over the real line, and gcd(a, b) up to a unit.

    Polynomials list their coefficients from degree 0 up; a[-1] != 0."""
    chain = [a]
    while any(b):
        while not b[-1]:
            b.pop()
        chain.append(b)
        a, b = b, [-c for c in _rem(a, b)]

    def variations(at_minus_infinity: bool) -> int:
        # the sign of p at -oo is its leading sign, flipped for odd degree
        signs = [(p[-1] > 0) != (at_minus_infinity and len(p) % 2 == 0) for p in chain]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(True) - variations(False), chain[-1]


def _laurent(f: ChartFunction) -> tuple[int, list[tuple[Fraction, Fraction]]]:
    """lo and the coefficients (re, im) of p = z^(-lo) f, from degree 0 up."""
    if not isinstance(f, ChartFunction):
        raise TypeError(f"a Hardy symbol must be a ChartFunction, not {type(f).__name__}")
    if f.space.periodic != (True,):
        raise ValueError(f"a Hardy symbol needs a one-coordinate periodic chart, not {f.space}")
    coeffs = {}
    for ((e,), (n,)), c in f.terms.items():
        if e:
            raise ValueError(f"symbol {f} depends on the lifted coordinate (exponent {e})")
        if not (c.re.is_rational() and c.im.is_rational()):
            raise ValueError(f"coefficient {c} has a pi power: Sturm signs need pi-free coefficients")
        coeffs[n] = (c.re.as_fraction(), c.im.as_fraction())
    if not coeffs:
        raise ValueError("the zero symbol has no index")
    lo, hi = min(coeffs), max(coeffs)
    return lo, [coeffs.get(n, (0, 0)) for n in range(lo, hi + 1)]


def _winding(f: ChartFunction) -> int | None:
    """winding(f) when f is elliptic, None when f vanishes on the circle."""
    lo, p = _laurent(f)
    d = len(p) - 1
    R, I = [], []
    for j in range(d + 1):
        # u^j in sum_k p_k (1 + iu)^k (1 - iu)^(d - k) is i^j sum_k w_jk p_k
        re = im = Fraction(0)
        for k, (a, b) in enumerate(p):
            w = sum((-1) ** (j - s) * comb(k, s) * comb(d - k, j - s) for s in range(j + 1))
            re, im = re + w * a, im + w * b
        for _ in range(j % 4):
            re, im = -im, re
        R.append(re)
        I.append(im)
    if not (R[d] or I[d]):
        return None
    if not I[d]:
        R, I = [-c for c in I], R
    index, g = _cauchy_index(I, R)
    if _cauchy_index(g, [k * c for k, c in enumerate(g)][1:])[0]:
        return None
    return lo + (index + d) // 2


def is_elliptic(f: ChartFunction) -> bool:
    """f has no zero on the circle, so T_f is Fredholm."""
    return _winding(f) is not None


def winding_number(f: ChartFunction) -> int:
    """The winding number of f around 0 along the circle; f must be elliptic."""
    wind = _winding(f)
    if wind is None:
        raise ValueError(f"symbol {f} vanishes on the circle: not elliptic")
    return wind


def toeplitz_index(f: ChartFunction) -> int:
    """ind T_f = -winding(f) for an elliptic symbol f."""
    return -winding_number(f)
