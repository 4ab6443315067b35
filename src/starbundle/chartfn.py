"""Sparse exact function algebra on coordinate charts.

A chart function is a finite sum of terms

    c * u1^e1 * ... * un^en * exp(2*pi*i*(k1*u1 + ... + kn*un))

with ``c`` an exact complex scalar (:class:`~starbundle.scalar.CScalar`),
integer exponents ``e`` and integer frequencies ``k``.  Pure polynomials
(all ``k = 0``) and finite Fourier sums (all ``e = 0``) are the two primary
shapes; products of the two arise when global partition windows multiply
chart-local polynomial data, so the algebra is closed by design.

Frequencies are only allowed along periodic (torus) directions.  Monomial
exponents along periodic directions represent dependence on a *lifted*
coordinate and mark the function as chart-local rather than global.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, prod
from operator import add, index, mul
from typing import Mapping, Sequence, Union

from .scalar import CScalar, Scalar, _reduce

CoeffLike = Union[CScalar, Scalar, int, Fraction]


@dataclass(frozen=True)
class ChartSpace:
    """An ordered tuple of named real coordinates, some marked periodic."""

    names: tuple[str, ...]
    periodic: tuple[bool, ...]

    def __post_init__(self):
        if len(self.names) != len(self.periodic):
            raise ValueError("names and periodic flags must align")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate coordinate names: {self.names}")

    @staticmethod
    def euclidean(names: Sequence[str]) -> "ChartSpace":
        names = tuple(names)
        return ChartSpace(names, (False,) * len(names))

    @staticmethod
    def torus(names: Sequence[str]) -> "ChartSpace":
        names = tuple(names)
        return ChartSpace(names, (True,) * len(names))

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown coordinate {name!r} in chart {self.names}")

    def copies(self, k: int) -> "ChartSpace":
        """Product of k copies; coordinate u becomes u_1 .. u_k."""
        names = tuple(f"{n}_{j}" for j in range(1, k + 1) for n in self.names)
        periodic = tuple(p for _ in range(k) for p in self.periodic)
        return ChartSpace(names, periodic)

    def copy_map(self, j: int) -> dict[str, str]:
        """Variable map embedding this space as the j-th factor (1-based)."""
        return {n: f"{n}_{j}" for n in self.names}


def _quarter_turns(n: int, d: int) -> int:
    """t in 0..3 with exp(2*pi*i*n/d) = i**t, for n/d in (1/4)Z; these are
    the only exactly representable unit phases in the coefficient field."""
    if 4 * n % d:
        raise ValueError(
            f"phase exp(2*pi*i*{Fraction(n, d) % 1}) is irrational over the scalar field; "
            "only quarter-integer arguments are exact"
        )
    return 4 * n // d % 4


def _exact(name: str, v) -> int | Fraction:
    """A coordinate value as an int, or a Fraction when it is not integral."""
    if isinstance(v, (int, Fraction)):
        return v.numerator if v.denominator == 1 else v
    raise TypeError(f"coordinate {name!r} takes an int or a Fraction, not {type(v).__name__}")


def _lincomb(parts) -> CScalar:
    """The sum of w * i**t * (num over den) over ``parts`` (den, num, w, t)
    with integer w: one lcm, integer numerators, one ``_reduce``."""
    den = lcm(*(part[0] for part in parts))
    out: dict[int, tuple[int, int]] = {}
    for d, num, w, t in parts:
        s = w * (den // d)
        for m, (a, b) in num.items():
            for _ in range(t):  # times i
                a, b = -b, a
            p = out.get(m)
            out[m] = (a * s, b * s) if p is None else (p[0] + a * s, p[1] + b * s)
    return _reduce(CScalar, den, out)


def _shift_into(parts: dict, f: "ChartFunction", dvec, sign: int) -> None:
    """Append to ``parts`` the ``_lincomb`` parts (den, num, w, t) of
    sign * f(u + dvec) by output term, dvec an int or a Fraction per axis:
    monomials expand binomially, and a Fourier mode k picks up the phase
    exp(2*pi*i*k.dvec), which must be a power of i (1 on an integer dvec)."""
    if not any(dvec):
        for key, c in f._terms.items():
            parts.setdefault(key, []).append((c._den, c._num, sign, 0))
        return
    for (mon, freq), c in f._terms.items():
        turns = 0
        if any(freq):
            arg = sum(k * d for k, d in zip(freq, dvec) if k)
            turns = _quarter_turns(arg.numerator, arg.denominator)
        # expand prod (u_i + d_i)^{e_i}; every weight w is nonzero
        keys: list[tuple[tuple[int, ...], int | Fraction]] = [((), sign)]
        for e, d in zip(mon, dvec):
            if not d:
                keys = [(prefix + (e,), w) for prefix, w in keys]
                continue
            keys = [
                (prefix + (r,), w * comb(e, r) * d ** (e - r))
                for prefix, w in keys
                for r in range(e + 1)
            ]
        for mon2, w in keys:
            part = (c._den * w.denominator, c._num, w.numerator, turns)
            parts.setdefault((mon2, freq), []).append(part)


def _value_into(parts: list, f: "ChartFunction", nvec, den: int = 1) -> None:
    """Append to ``parts`` the ``_lincomb`` parts of f at nvec/den, nvec ints:
    c n^e / den^|e| turned by exp(2*pi*i*k.n/den), which must be a power of i."""
    for (mon, freq), c in f._terms.items():
        w = prod(map(pow, nvec, mon))
        if w:
            turns = _quarter_turns(sum(map(mul, freq, nvec)), den) if any(freq) else 0
            parts.append((c._den * den ** sum(mon), c._num, w, turns))


def _derive_into(parts: dict, f: "ChartFunction", i: int, sign: int) -> None:
    """Append to ``parts`` the ``_lincomb`` parts of sign * df/du_i, keyed by
    output term; a Fourier mode's 2*pi*i*k is one pi power and one turn."""
    for (mon, freq), c in f._terms.items():
        if mon[i]:
            dm = mon[:i] + (mon[i] - 1,) + mon[i + 1:]
            parts.setdefault((dm, freq), []).append((c._den, c._num, sign * mon[i], 0))
        if freq[i]:
            num = {m + 1: p for m, p in c._num.items()}
            parts.setdefault((mon, freq), []).append((c._den, num, sign * 2 * freq[i], 1))


def _chartfn(space: ChartSpace, terms: dict) -> "ChartFunction":
    """Trusted constructor: every key of ``terms`` is already valid for
    ``space``; zero coefficients are dropped here.  No other validation."""
    f = object.__new__(ChartFunction)
    object.__setattr__(f, "space", space)
    object.__setattr__(f, "_terms", {k: c for k, c in terms.items() if not c.is_zero()})
    return f


class ChartFunction:
    """Immutable sparse function on a :class:`ChartSpace`."""

    __slots__ = ("space", "_terms")

    def __init__(
        self,
        space: ChartSpace,
        terms: Mapping[tuple[tuple[int, ...], tuple[int, ...]], CoeffLike] | None = None,
    ):
        clean: dict[tuple[tuple[int, ...], tuple[int, ...]], CScalar] = {}
        n = space.dim
        if terms:
            for (mon, freq), c in terms.items():
                try:
                    mon, freq = tuple(map(index, mon)), tuple(map(index, freq))
                except TypeError:
                    raise TypeError(
                        f"term {(mon, freq)!r} needs int exponents and frequencies"
                    ) from None
                if len(mon) != n or len(freq) != n:
                    raise ValueError("term arity does not match chart dimension")
                if any(e < 0 for e in mon):
                    raise ValueError("negative monomial exponent")
                for k, per in zip(freq, space.periodic):
                    if k != 0 and not per:
                        raise ValueError(
                            "Fourier frequency on a non-periodic coordinate"
                        )
                c = CScalar.coerce(c)
                if not c.is_zero():
                    key = (mon, freq)
                    acc = clean.get(key)
                    clean[key] = c if acc is None else acc + c
        object.__setattr__(self, "space", space)
        object.__setattr__(
            self, "_terms", {k: v for k, v in clean.items() if not v.is_zero()}
        )

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ChartFunction is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(space: ChartSpace) -> "ChartFunction":
        return ChartFunction(space)

    @staticmethod
    def constant(space: ChartSpace, c: CoeffLike) -> "ChartFunction":
        zero = (0,) * space.dim
        return ChartFunction(space, {(zero, zero): CScalar.coerce(c)})

    @staticmethod
    def one(space: ChartSpace) -> "ChartFunction":
        return ChartFunction.constant(space, 1)

    @staticmethod
    def variable(space: ChartSpace, name: str) -> "ChartFunction":
        i = space.index(name)
        mon = tuple(1 if j == i else 0 for j in range(space.dim))
        zero = (0,) * space.dim
        return ChartFunction(space, {(mon, zero): CScalar.one()})

    @staticmethod
    def monomial(
        space: ChartSpace, exponents: Mapping[str, int], coeff: CoeffLike = 1
    ) -> "ChartFunction":
        mon = [0] * space.dim
        for name, e in exponents.items():
            mon[space.index(name)] = e
        zero = (0,) * space.dim
        return ChartFunction(space, {(tuple(mon), zero): CScalar.coerce(coeff)})

    @staticmethod
    def fourier(
        space: ChartSpace, freqs: Mapping[str, int], coeff: CoeffLike = 1
    ) -> "ChartFunction":
        freq = [0] * space.dim
        for name, k in freqs.items():
            freq[space.index(name)] = k
        zero = (0,) * space.dim
        return ChartFunction(space, {(zero, tuple(freq)): CScalar.coerce(coeff)})

    @staticmethod
    def cosine(space: ChartSpace, name: str, k: int = 1, coeff: CoeffLike = 1) -> "ChartFunction":
        """coeff * cos(2*pi*k*name) as a two-mode Fourier sum."""
        half = CScalar.coerce(coeff) * CScalar(Fraction(1, 2))
        return ChartFunction.fourier(space, {name: k}, half) + ChartFunction.fourier(
            space, {name: -k}, half
        )

    @staticmethod
    def sine(space: ChartSpace, name: str, k: int = 1, coeff: CoeffLike = 1) -> "ChartFunction":
        """coeff * sin(2*pi*k*name)."""
        half_over_i = CScalar.coerce(coeff) * CScalar(0, Fraction(-1, 2))
        return ChartFunction.fourier(space, {name: k}, half_over_i) + ChartFunction.fourier(
            space, {name: -k}, -half_over_i
        )

    # -- structure -------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], CScalar]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_polynomial(self) -> bool:
        return all(all(k == 0 for k in freq) for (_, freq) in self._terms)

    def is_trig(self) -> bool:
        return all(all(e == 0 for e in mon) for (mon, _) in self._terms)

    def is_global(self) -> bool:
        """Well-defined on the torus itself: no lifted-coordinate dependence."""
        for (mon, _), _c in self._terms.items():
            for e, per in zip(mon, self.space.periodic):
                if e != 0 and per:
                    return False
        return True

    def is_constant(self) -> bool:
        zero = (0,) * self.space.dim
        return set(self._terms) <= {(zero, zero)}

    def constant_value(self) -> CScalar:
        if not self.is_constant():
            raise ValueError(f"not a constant function: {self}")
        zero = (0,) * self.space.dim
        c = self._terms.get((zero, zero))
        return CScalar.zero() if c is None else c

    def is_real(self) -> bool:
        """Conjugate symmetry: coeff(mon, -k) == conj(coeff(mon, k))."""
        for (mon, freq), c in self._terms.items():
            mirror = self._terms.get((mon, tuple(-k for k in freq)), CScalar.zero())
            if mirror != c.conj():
                return False
        return True

    def conj(self) -> "ChartFunction":
        return _chartfn(
            self.space,
            {
                (mon, tuple(-k for k in freq)): c.conj()
                for (mon, freq), c in self._terms.items()
            },
        )

    # -- arithmetic --------------------------------------------------------

    def _check_space(self, other: "ChartFunction"):
        if self.space != other.space:
            raise ValueError(
                f"chart mismatch: {self.space.names} vs {other.space.names}"
            )

    # Results are built with the trusted ``_chartfn``: their keys come from
    # keys that are already valid for the space.

    def __add__(self, other) -> "ChartFunction":
        if isinstance(other, (CScalar, Scalar, int, Fraction)):
            other = ChartFunction.constant(self.space, other)
        self._check_space(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        for key, c in other._terms.items():
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
        return _chartfn(self.space, out)

    __radd__ = __add__

    def __neg__(self) -> "ChartFunction":
        return _chartfn(self.space, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "ChartFunction":
        if isinstance(other, (CScalar, Scalar, int, Fraction)):
            other = ChartFunction.constant(self.space, other)
        return self + (-other)

    def __rsub__(self, other) -> "ChartFunction":
        return (-self) + other

    def scale(self, c: CoeffLike) -> "ChartFunction":
        c = CScalar.coerce(c)
        return _chartfn(self.space, {k: c * v for k, v in self._terms.items()})

    def __mul__(self, other) -> "ChartFunction":
        if isinstance(other, (CScalar, Scalar, int, Fraction)):
            return self.scale(other)
        self._check_space(other)
        out: dict[tuple[tuple[int, ...], tuple[int, ...]], CScalar] = {}
        for (m1, f1), c1 in self._terms.items():
            for (m2, f2), c2 in other._terms.items():
                key = (tuple(map(add, m1, m2)), tuple(map(add, f1, f2)))
                c = c1 * c2
                acc = out.get(key)
                out[key] = c if acc is None else acc + c
        return _chartfn(self.space, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ChartFunction":
        if not isinstance(n, int) or n < 0:
            raise TypeError("power must be a nonnegative integer")
        result = ChartFunction.one(self.space)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChartFunction):
            return NotImplemented
        return self.space == other.space and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self._terms.items())))

    # -- calculus ------------------------------------------------------------

    def derive(self, name: str) -> "ChartFunction":
        """Exact partial derivative, one ``_lincomb`` per output key over the
        parts of ``_derive_into``; Fourier modes pick up 2*pi*i*k."""
        parts: dict = {}
        _derive_into(parts, self, self.space.index(name), 1)
        return _chartfn(self.space, {key: _lincomb(p) for key, p in parts.items()})

    def torus_mean(self) -> CScalar:
        """Mean over the torus (unit volume).  Requires a global function."""
        if not all(self.space.periodic):
            raise ValueError("torus mean requires an all-periodic chart")
        if not self.is_global():
            raise ValueError(
                "function depends on lifted coordinates; not globally defined"
            )
        zero = (0,) * self.space.dim
        return self._terms.get((zero, zero), CScalar.zero())

    # -- substitution machinery ------------------------------------------

    def embed(self, target: ChartSpace, var_map: Mapping[str, str]) -> "ChartFunction":
        """Rename coordinates into a (possibly larger) chart.

        Every key of ``var_map`` must be a source coordinate (KeyError
        otherwise); coordinates it omits keep their names.
        """
        for name in var_map:
            self.space.index(name)
        idx = []
        for name in self.space.names:
            new = var_map.get(name, name)
            idx.append(target.index(new))
        out: dict[tuple[tuple[int, ...], tuple[int, ...]], CScalar] = {}
        for (mon, freq), c in self._terms.items():
            m2 = [0] * target.dim
            f2 = [0] * target.dim
            for j, (e, k) in enumerate(zip(mon, freq)):
                m2[idx[j]] += e
                f2[idx[j]] += k
            key = (tuple(m2), tuple(f2))
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
        # a periodic coordinate renamed onto an aperiodic one is the only way
        # an output key can be invalid
        aperiodic = [t for t in set(idx) if not target.periodic[t]]
        if aperiodic and any(freq[t] for _, freq in out for t in aperiodic):
            raise ValueError("Fourier frequency on a non-periodic coordinate")
        return _chartfn(target, out)

    def shift(self, delta: Mapping[str, Fraction]) -> "ChartFunction":
        """Return g with g(u) = f(u + delta).

        Each delta is an int or a Fraction (TypeError otherwise), and a key
        that is not a coordinate raises KeyError; a zero delta returns f.
        One ``_lincomb`` per output key sums the parts of ``_shift_into``.
        """
        dvec = [0] * self.space.dim
        for name, d in delta.items():
            dvec[self.space.index(name)] = _exact(name, d)
        if not any(dvec):
            return self
        parts: dict = {}
        _shift_into(parts, self, dvec, 1)
        return _chartfn(self.space, {key: _lincomb(p) for key, p in parts.items()})

    def evaluate(self, point: Mapping[str, Fraction]) -> CScalar:
        """Exact value at a rational point.

        Every coordinate must be given, as an int or a Fraction: a missing
        or unknown coordinate raises KeyError, any other value TypeError.
        The terms' parts at the point over one denominator are reduced once.
        """
        names = self.space.names
        for name in point:
            self.space.index(name)
        try:
            coords = [_exact(n, point[n]) for n in names]
        except KeyError as err:
            raise KeyError(f"point has no coordinate {err.args[0]!r} of chart {names}") from None
        den = lcm(*(x.denominator for x in coords))
        parts: list = []
        _value_into(parts, self, [x.numerator * (den // x.denominator) for x in coords], den)
        return _lincomb(parts)

    # -- rendering ---------------------------------------------------------

    def _sorted_terms(self):
        return sorted(self._terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for (mon, freq), c in self._sorted_terms():
            factors = []
            for name, e in zip(self.space.names, mon):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            nz = {n: k for n, k in zip(self.space.names, freq) if k != 0}
            if nz:
                arg = "+".join(f"{k}{n}" for n, k in nz.items())
                factors.append(f"e({arg})")
            body = "*".join(factors) if factors else "1"
            chunks.append(f"({c})*{body}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"ChartFunction({self})"

    def kind(self) -> str:
        if self.is_polynomial():
            return "poly"
        if self.is_trig():
            return "trig"
        return "mixed"
