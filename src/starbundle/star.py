"""Pure star products with exponential-of-Poisson bidifferential operators.

The order-m bidifferential operator is Pi^m/m! applied as m-fold contracted
derivatives:

    B_m(a, b) = (1/m!) sum Pi^{i1 j1} ... Pi^{im jm} (d_{i1..im} a)(d_{j1..jm} b)

so B_0 is the pointwise product and B_1 is the Poisson bracket.  For a
constant bivector this product is associative at every truncation order,
which the toolkit verifies by exact expansion rather than assuming.

On Fourier modes e_k = exp(2*pi*i*k.u) every derivative is a multiplication
by 2*pi*i*k_i, so the operator has the closed form

    B_m(e_k, e_l) = (-4*pi^2 * k.Pi.l)^m / m! * e_{k+l}.

``PureStarProduct.bidiff`` uses it whenever both arguments are pure Fourier
sums; any monomial factor sends B_m through iterated derivatives, the
general path.  Both give the same exact result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import factorial
from operator import add
from typing import Sequence

from .chartfn import ChartFunction, _chartfn
from .poisson import PoissonStructure
from .scalar import CScalar, Scalar, _new
from .series import FormalSeries

StarInput = ChartFunction | FormalSeries

_MINUS_FOUR_PI2 = _new(Scalar, 1, {2: (-4, 0)})


def _derive_multi(f: ChartFunction, order: tuple[int, ...], cache: dict) -> ChartFunction:
    """Iterated partial derivative d^order f with memoization."""
    if all(o == 0 for o in order):
        return f
    got = cache.get(order)
    if got is not None:
        return got
    i = next(k for k, o in enumerate(order) if o > 0)
    prev = tuple(o - (1 if k == i else 0) for k, o in enumerate(order))
    result = _derive_multi(f, prev, cache).derive(f.space.names[i])
    cache[order] = result
    return result


@dataclass(frozen=True)
class PureStarProduct:
    """Star product generated by powers of a constant Poisson bivector."""

    poisson: PoissonStructure

    @property
    def space(self):
        return self.poisson.space

    def _promote(self, a: StarInput, K: int | None) -> FormalSeries:
        if isinstance(a, ChartFunction):
            if K is None:
                raise ValueError("a truncation order K is required for plain functions")
            return FormalSeries.constant(a, K)
        return a

    def bidiff(self, m: int, a: ChartFunction, b: ChartFunction) -> ChartFunction:
        """The order-m bidifferential operator applied to (a, b).

        On two pure Fourier sums B_m is taken in closed form
        (``_fourier_bidiff``); otherwise as m-fold contracted derivatives
        (``_derivative_bidiff``).  Both give the same exact result.
        """
        if a.space != self.space or b.space != self.space:
            raise ValueError("star-product inputs live on the wrong chart")
        if m == 0:
            return a * b
        if a.is_trig() and b.is_trig():
            return self._fourier_bidiff(m, a, b)
        return self._derivative_bidiff(m, a, b)

    def _derivative_bidiff(self, m: int, a: ChartFunction, b: ChartFunction) -> ChartFunction:
        """B_m(a, b) for m >= 1 from iterated derivatives; any inputs."""
        if a.is_zero() or b.is_zero():
            return ChartFunction.zero(self.space)
        n = self.space.dim
        entries = self.poisson.nonzero_entries()
        cache_a: dict = {}
        cache_b: dict = {}
        total = ChartFunction.zero(self.space)
        for multiset in combinations_with_replacement(range(len(entries)), m):
            weight = Scalar.one()
            order_a = [0] * n
            order_b = [0] * n
            run = 1
            prev = None
            mult = 1
            for idx in multiset:
                i, j, s = entries[idx]
                weight = weight * s
                order_a[i] += 1
                order_b[j] += 1
                if idx == prev:
                    mult += 1
                    run *= mult
                else:
                    prev, mult = idx, 1
            da = _derive_multi(a, tuple(order_a), cache_a)
            if da.is_zero():
                continue
            db = _derive_multi(b, tuple(order_b), cache_b)
            if db.is_zero():
                continue
            coeff = weight if run == 1 else weight * _new(Scalar, run, {0: (1, 0)})
            total = total + (da * db).scale(coeff)
        return total

    def _fourier_bidiff(self, m: int, a: ChartFunction, b: ChartFunction) -> ChartFunction:
        """B_m(a, b) for m >= 1 and pure Fourier sums a, b, in closed form.

        The term pairs are grouped by k+l and by the integers that make up
        s = k.Pi.l, so each group sums a_k b_l once and is then scaled by
        w^m/m!, w = -4*pi^2*s.  A pair with s = 0 contributes nothing.
        """
        # Pi is antisymmetric: s = sum over Pi^ij with i < j of Pi^ij (k_i l_j - k_j l_i)
        upper = [(i, j, p) for i, j, p in self.poisson.nonzero_entries() if i < j]
        base = _MINUS_FOUR_PI2**m * _new(Scalar, factorial(m), {0: (1, 0)})
        weights: dict = {}  # (k_i l_j - k_j l_i for each i < j) -> w^m/m!, None for s = 0
        groups: dict = {}  # (k+l, (k_i l_j - k_j l_i ...)) -> sum of a_k b_l
        for (_, k), ak in a._terms.items():
            for (_, q), bq in b._terms.items():
                ns = tuple([k[i] * q[j] - k[j] * q[i] for i, j, _ in upper])
                if ns in weights:
                    w = weights[ns]
                else:
                    s = _new(Scalar, 1, {})
                    for n, (_, _, p) in zip(ns, upper):
                        if n:
                            s = s + p * n
                    w = weights[ns] = None if s.is_zero() else CScalar.coerce(base * s**m)
                if w is None:
                    continue
                key = (tuple(map(add, k, q)), ns)
                c = ak * bq
                acc = groups.get(key)
                groups[key] = c if acc is None else acc + c
        zero = (0,) * self.space.dim
        out: dict = {}
        for (f, ns), c in groups.items():
            key = (zero, f)
            term = c * weights[ns]
            acc = out.get(key)
            out[key] = term if acc is None else acc + term
        return _chartfn(self.space, out)

    def multiply(self, a: StarInput, b: StarInput, K: int | None = None) -> FormalSeries:
        """a * b with c_k = sum_{j+l+m=k} B_m(a_j, b_l), each B_m from ``bidiff``
        (in closed form when a_j and b_l are pure Fourier sums)."""
        sa = self._promote(a, K)
        sb = self._promote(b, K)
        if sa.space != self.space or sb.space != self.space:
            raise ValueError("star-product inputs live on the wrong chart")
        kmax = min(sa.K, sb.K)
        if K is not None:
            kmax = min(kmax, K)
        coeffs = []
        for k in range(kmax + 1):
            c = ChartFunction.zero(self.space)
            for j in range(k + 1):
                if sa.coeffs[j].is_zero():
                    continue
                for l in range(k - j + 1):
                    m = k - j - l
                    if sb.coeffs[l].is_zero():
                        continue
                    c = c + self.bidiff(m, sa.coeffs[j], sb.coeffs[l])
            coeffs.append(c)
        return FormalSeries(self.space, coeffs)

    def commutator(self, a: StarInput, b: StarInput, K: int | None = None) -> FormalSeries:
        return self.multiply(a, b, K) - self.multiply(b, a, K)


@dataclass(frozen=True)
class AssociativityReport:
    requested_order: int
    verified_order: int
    samples: int
    violations: tuple[dict, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return not self.violations


def _associator_defect(product, triple, K):
    a, b, c = triple
    left = product.multiply(product.multiply(a, b, K), c, K)
    right = product.multiply(a, product.multiply(b, c, K), K)
    return left - right


def check_associativity(
    product: PureStarProduct,
    samples: Sequence[tuple[ChartFunction, ChartFunction, ChartFunction]],
    K: int,
) -> AssociativityReport:
    """Expand (a*b)*c - a*(b*c) exactly for every sampled triple.

    Violations are report content, not exceptions.
    """
    violations = []
    for index, triple in enumerate(samples):
        defect = _associator_defect(product, triple, K)
        order = defect.first_nonzero_order()
        if order is not None:
            violations.append(
                {
                    "sample": index,
                    "first_nonzero_order": order,
                    "coefficient": str(defect.coefficient(order)),
                }
            )
    verified = K if not violations else min(v["first_nonzero_order"] for v in violations) - 1
    return AssociativityReport(
        requested_order=K,
        verified_order=verified,
        samples=len(samples),
        violations=tuple(violations),
    )


def star_trace(a: StarInput, product: PureStarProduct, K: int | None = None) -> FormalSeries:
    """Order-by-order torus mean; the unique normalized trace candidate.

    Requires coefficients that are genuine functions on the torus (finite
    Fourier sums with no lifted-coordinate dependence).
    """
    space = product.space
    if not all(space.periodic):
        raise ValueError("the star-algebra trace is defined on torus charts only")
    series = product._promote(a, K)
    if series.space != space:
        raise ValueError("series lives on the wrong chart")
    consts = []
    for c in series.coeffs:
        mean = c.torus_mean()
        consts.append(ChartFunction.constant(space, mean))
    return FormalSeries(space, consts)
