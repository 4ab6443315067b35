"""The exact Toeplitz index against two independent float oracles.

``roots_winding`` counts the roots of z^(-lo) f inside the unit disk with
``np.roots``.  ``trace_index`` is the padded-section trace estimate of
ind T_f: with g the Fourier coefficients of 1/f (by quadrature, clipped to
|n| <= M), it takes Tr P(T_f T_g - T_g T_f)P on modes 0..N, forming the
products at a size padded by the bandwidth so that the corners match the
semi-infinite operators.  Both read plain {n: complex} dicts.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from starbundle.chartfn import ChartFunction
from starbundle.hardy import is_elliptic, toeplitz_index, winding_number
from starbundle.manifold import Torus
from starbundle.scalar import CScalar

S1 = Torus(1).space
Z = ChartFunction.fourier(S1, {"x": 1})
I = CScalar.i()


def floats(f: ChartFunction) -> dict[int, complex]:
    return {freq[0]: complex(c) for (_, freq), c in f.terms.items()}


def roots_winding(c: dict[int, complex]) -> int | None:
    """lo + #roots of p inside the disk; None when a root is within 1e-6
    of the circle, where a float count decides nothing."""
    lo, hi = min(c), max(c)
    roots = np.roots([c.get(n, 0) for n in range(hi, lo - 1, -1)])
    if len(roots) and np.min(np.abs(np.abs(roots) - 1)) < 1e-6:
        return None
    return lo + int(np.sum(np.abs(roots) < 1))


def toeplitz(c: dict[int, complex], size: int) -> np.ndarray:
    """The banded compression P M_f P on modes 0..size-1."""
    out = np.zeros((size, size), dtype=complex)
    for band, a in c.items():
        idx = np.arange(max(0, band), min(size, size + band))
        out[idx, idx - band] = a
    return out


def trace_index(c: dict[int, complex], N: int = 40, M: int = 40, L: int = 1024) -> float:
    theta = 2 * np.pi * np.arange(L) / L
    values = sum(a * np.exp(1j * n * theta) for n, a in c.items())
    ns = np.arange(-M, M + 1)
    g = dict(zip(ns.tolist(), np.exp(-1j * np.outer(ns, theta)) @ (1 / values) / L))
    size = N + 1 + max(abs(n) for n in [*c, *g])
    tf, tg = toeplitz(c, size), toeplitz(g, size)
    return float(np.real(np.trace((tf @ tg)[: N + 1, : N + 1] - (tg @ tf)[: N + 1, : N + 1])))


SYMBOLS = {
    "z": (Z, 1),
    "z^-2": (ChartFunction.fourier(S1, {"x": -2}), -2),
    "2+z": (2 + Z, 0),
    "1+3z": (1 + Z * 3, 1),
    "1/2+z": (Fraction(1, 2) + Z, 1),
    # the u^d coefficient of R + iI is real: both ends of the Cayley path
    # lie on the real axis, and the bare formula says 1
    "1/2+z^2": (Fraction(1, 2) + Z * Z, 2),
    "3+z^2": (3 + Z * Z, 0),
    # the u^d coefficient is a real multiple of 1 - i: a turn by 1 + i
    # would leave the ends on the real axis and say 0
    "(1-i)/2+z": (Z + CScalar(Fraction(1, 2), Fraction(-1, 2)), 1),
}


@pytest.mark.parametrize("name", SYMBOLS)
def test_hardy_index_is_minus_winding(name):
    f, winding = SYMBOLS[name]
    assert is_elliptic(f)
    assert winding_number(f) == winding == roots_winding(floats(f))
    assert toeplitz_index(f) == -winding
    assert abs(trace_index(floats(f)) + winding) < 1e-6


@pytest.mark.parametrize(
    "f",
    [1 + Z, Z - I, 1 + Z + Z * Z],
    # zeros at z = -1, where the Cayley line ends; at z = i; and at
    # e^{2*pi*i/3} and its conjugate, which only gcd(R, I) finds
    ids=["1+z", "z-i", "1+z+z^2"],
)
def test_symbol_with_a_zero_on_the_circle_is_not_elliptic(f):
    assert not is_elliptic(f)
    with pytest.raises(ValueError, match="vanishes on the circle: not elliptic"):
        winding_number(f)


def test_random_symbols_match_the_root_count():
    """150 seeded Laurent polynomials with |n| <= 3 and Gaussian-rational
    coefficients; a symbol with a root near the circle is skipped."""
    rng = random.Random(7)
    skipped = 0
    for _ in range(150):
        lo = rng.randint(-3, 3)
        hi = rng.randint(lo, 3)
        terms = {}
        for n in range(lo, hi + 1):
            if n in (lo, hi) or rng.random() < 0.6:
                re, im = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in "ri")
                terms[((0,), (n,))] = CScalar(re, im) if re or im else CScalar(1)
        f = ChartFunction(S1, terms)
        expected = roots_winding(floats(f))
        if expected is None:
            skipped += 1
            continue
        assert is_elliptic(f), f
        assert winding_number(f) == expected, f
    # seed 7 skips one symbol, -3i/z - 3z^3, whose zeros z^4 = -i lie on the circle
    assert skipped <= 5
