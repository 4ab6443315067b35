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
sums.  Any monomial factor sends B_m through the general path, which works
on terms rather than on derivative functions.  A term x^a * e_k of f has
d^g (x^a * e_k) = sum_b w * (i*pi)^s * x^(a-b) * e_k with integer weights w
(falling factorials times (2k)^s by Leibniz, s = |g - b|), so each operand's
d^g is a *term map*: source term -> output term, w, s.  B_m then sums, per
output term, coeff * w_a * w_b * (i*pi)^(s_a+s_b) * a_t b_u over the
multisets of m Pi entries, with every a_t b_u formed once as integer
numerators over one denominator, and reduces each output coefficient once.
Both paths give the same exact result.

``multiply`` calls ``bidiff`` once per order on the same coefficient pairs,
so each ``multiply`` call keeps one work table (``_Work``) that its
``bidiff`` calls share: the term maps of every operand, the pair products
of every (a, b), the multisets of Pi entries with their weights for each
m, and the Fourier pairs of each (a, b) grouped by k+l and k.Pi.l.  The
table is passed in a context variable that ``multiply`` resets before it
returns, so nothing outlives the call; a ``bidiff`` called outside
``multiply`` builds its own.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
import itertools
from math import comb, lcm, perm, prod
from operator import add, ge, sub
from typing import Sequence

from .chartfn import ChartFunction, _chartfn
from .poisson import PoissonStructure
from .scalar import CScalar, Scalar, _mul, _new, _reduce
from .series import FormalSeries, _check_order

StarInput = ChartFunction | FormalSeries

_MINUS_FOUR_PI2 = _new(Scalar, 1, {2: (-4, 0)})
_ONE = _new(CScalar, 1, {0: (1, 0)})


def _bump(order: tuple[int, ...], i: int) -> tuple[int, ...]:
    return order[:i] + (order[i] + 1,) + order[i + 1 :]


def _numerators(c: CScalar, scale: int) -> list:
    """c's numerators times ``scale``, as [(pi power, re, im)]."""
    return [(k, x * scale, y * scale) for k, (x, y) in c._num.items()]


def _term_map(f: ChartFunction, order: tuple[int, ...]) -> list:
    """d^order f as [(t, key, w, s)]: term t of f puts w * (i*pi)^s times its
    coefficient at ``key``, with w an integer.  By Leibniz, an axis with
    exponent e, frequency k and g derivatives yields x^(e-b) times
    C(g, b) * e!/(e-b)! * (2k)^(g-b) * (i*pi)^(g-b) for each b <= min(e, g),
    only b = g when k = 0."""
    out = []
    for t, (mon, freq) in enumerate(f._terms):
        if not any(freq):  # a monomial: the falling factorials e!/(e-g)!
            if all(map(ge, mon, order)):
                out.append((t, (tuple(map(sub, mon, order)), freq), prod(map(perm, mon, order)), 0))
            continue
        axes = [
            [
                (e - b, comb(g, b) * perm(e, b) * (2 * k) ** (g - b), g - b)
                for b in range(min(e, g) + 1)
                if k or b == g
            ]
            for e, k, g in zip(mon, freq, order)
        ]
        for picks in itertools.product(*axes):
            w, s = 1, 0
            for _, wi, si in picks:
                w *= wi
                s += si
            out.append((t, (tuple([e for e, _, _ in picks]), freq), w, s))
    return out


def _sum(space, parts: list[ChartFunction]) -> ChartFunction:
    """The sum of ``parts`` in one dict; a single nonzero part is returned."""
    parts = [f for f in parts if f._terms]
    if len(parts) == 1:
        return parts[0]
    out = dict(parts[0]._terms) if parts else {}
    for f in parts[1:]:
        for key, c in f._terms.items():
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
    return _chartfn(space, out)


class _Work:
    """What the ``bidiff`` calls of one ``multiply`` share, each entry built
    when an order first needs it.  Operands are keyed by ``id`` and held in
    ``operands``, so no id is reused while the table lives.

    The general path reads the term map of each operand and derivative
    order (``_term_map``) and the pair products a_t b_u of each (a, b),
    which every order m reuses; the Fourier path reads the pair groups and
    the powers of w."""

    def __init__(self, product: "PureStarProduct"):
        self.product = product
        self.entries = [(i, j, CScalar.coerce(p)) for i, j, p in product.poisson.nonzero_entries()]
        self.operands: dict = {}  # id(f) -> f
        self.maps: dict = {}  # (id(f), order) -> _term_map(f, order)
        self.products: dict = {}  # (id(a), id(b)) -> (den, rows)
        zero = (0,) * product.space.dim
        # m -> [(order on a, order on b, coeff, last entry, its run length)]
        self.multisets: dict = {0: [(zero, zero, _ONE, 0, 0)]}
        self.pairs: dict = {}  # (id(a), id(b)) -> {ns: {k+l: sum of a_k b_l}}
        self.powers: dict = {}  # ns -> [w^m/m! for m = 0, 1, ...], None for s = 0

    def term_map(self, f: ChartFunction, order: tuple[int, ...]) -> list:
        got = self.maps.get((id(f), order))
        if got is None:
            self.operands[id(f)] = f
            got = self.maps[(id(f), order)] = _term_map(f, order)
        return got

    def pair_products(self, a: ChartFunction, b: ChartFunction) -> tuple:
        """(den, rows): rows[t][u] is a_t b_u as [(pi power, re, im)] of
        integer numerators over den, the lcm of the products' denominators."""
        got = self.products.get((id(a), id(b)))
        if got is None:
            self.operands[id(a)], self.operands[id(b)] = a, b
            rows = [[_mul(x, y) for y in b._terms.values()] for x in a._terms.values()]
            den = lcm(*(p._den for row in rows for p in row))
            rows = [[_numerators(p, den // p._den) for p in row] for row in rows]
            got = self.products[(id(a), id(b))] = (den, rows)
        return got

    def orders(self, m: int) -> list:
        """The multisets of m Pi entries, each extending one of m - 1 by an
        entry no lower than its last.  A multiset stands for m!/prod(run!)
        index sequences, so with B_m's 1/m! its coeff is the product of its
        entries over prod(run!)."""
        got = self.multisets.get(m)
        if got is None:
            got = self.multisets[m] = []
            for order_a, order_b, coeff, last, run in self.orders(m - 1):
                for idx in range(last, len(self.entries)):
                    i, j, p = self.entries[idx]
                    run_idx = run + 1 if idx == last else 1
                    c = coeff * p
                    if run_idx > 1:
                        c = c * _new(CScalar, run_idx, {0: (1, 0)})
                    got.append((_bump(order_a, i), _bump(order_b, j), c, idx, run_idx))
        return got

    def fourier_groups(self, a: ChartFunction, b: ChartFunction) -> dict:
        """The term pairs of a and b with s = k.Pi.l != 0, summed by ns, the
        tuple of k_i l_j - k_j l_i over the Pi^ij with i < j, and by k+l."""
        got = self.pairs.get((id(a), id(b)))
        if got is not None:
            return got
        self.operands[id(a)], self.operands[id(b)] = a, b
        # Pi is antisymmetric: s = sum over Pi^ij with i < j of Pi^ij (k_i l_j - k_j l_i)
        upper = [(i, j, p) for i, j, p in self.entries if i < j]
        got = self.pairs[(id(a), id(b))] = {}
        for (_, k), ak in a._terms.items():
            for (_, q), bq in b._terms.items():
                ns = tuple([k[i] * q[j] - k[j] * q[i] for i, j, _ in upper])
                if ns not in self.powers:
                    s = _new(CScalar, 1, {})
                    for n, (_, _, p) in zip(ns, upper):
                        if n:
                            s = s + p * n
                    self.powers[ns] = None if s.is_zero() else [_ONE, s * _MINUS_FOUR_PI2]
                if self.powers[ns] is None:
                    continue
                group = got.setdefault(ns, {})
                f = tuple(map(add, k, q))
                c = ak * bq
                acc = group.get(f)
                group[f] = c if acc is None else acc + c
        return got


# the table of the ``multiply`` call in progress, if any
_WORK: ContextVar[_Work | None] = ContextVar("star_work", default=None)


def _work(product: "PureStarProduct") -> _Work:
    work = _WORK.get()
    return work if work is not None and work.product is product else _Work(product)


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
        _check_order(m, "bidifferential order")
        if a.space != self.space or b.space != self.space:
            raise ValueError("star-product inputs live on the wrong chart")
        if m == 0:
            return a * b
        if a.is_trig() and b.is_trig():
            return self._fourier_bidiff(m, a, b)
        return self._derivative_bidiff(m, a, b)

    def _derivative_bidiff(self, m: int, a: ChartFunction, b: ChartFunction) -> ChartFunction:
        """B_m(a, b) for m >= 1 from the term maps; any inputs.

        B_m sums coeff * (d^order_a a)(d^order_b b) over the multisets of m
        Pi entries.  Each term of that sum is the multiset's coeff times a
        pair product a_t b_u times the weights w * (i*pi)^s of the two term
        maps, added as integer numerators over one common denominator; each
        output coefficient is reduced once."""
        work = _work(self)
        den, rows = work.pair_products(a, b)
        orders = work.orders(m)
        den_c = lcm(*(c._den for _, _, c, _, _ in orders))
        out: dict = {}  # key -> {pi power: (re, im)} over den * den_c
        for order_a, order_b, c, _, _ in orders:
            map_a = work.term_map(a, order_a)
            if not map_a:
                continue
            map_b = work.term_map(b, order_b)
            if not map_b:
                continue
            for t, (mon_a, freq_a), wa, sa in map_a:
                row = rows[t]
                cw = []  # coeff * wa * (i*pi)^sa
                for k, x, y in _numerators(c, wa * (den_c // c._den)):
                    for _ in range(sa % 4):
                        x, y = -y, x
                    cw.append((k + sa, x, y))
                for u, (mon_b, freq_b), wb, sb in map_b:
                    key = (tuple(map(add, mon_a, mon_b)), tuple(map(add, freq_a, freq_b)))
                    acc = out.get(key)
                    if acc is None:
                        acc = out[key] = {}
                    for k1, x1, y1 in cw:
                        for k2, x2, y2 in row[u]:
                            x, y = (x1 * x2 - y1 * y2) * wb, (x1 * y2 + y1 * x2) * wb
                            if sb:  # times i^sb
                                for _ in range(sb % 4):
                                    x, y = -y, x
                            k = k1 + k2 + sb
                            p = acc.get(k)
                            acc[k] = (x, y) if p is None else (p[0] + x, p[1] + y)
        den *= den_c
        return _chartfn(self.space, {key: _reduce(CScalar, den, num) for key, num in out.items()})

    def _fourier_bidiff(self, m: int, a: ChartFunction, b: ChartFunction) -> ChartFunction:
        """B_m(a, b) for m >= 1 and pure Fourier sums a, b, in closed form.

        The pairs are grouped by k+l and by the integers that make up
        s = k.Pi.l, and each group's sum of a_k b_l (``_Work.fourier_groups``,
        shared by every order) is scaled by w^m/m!, w = -4*pi^2*s.  A pair
        with s = 0 contributes nothing.
        """
        work = _work(self)
        zero = (0,) * self.space.dim
        out: dict = {}
        for ns, group in work.fourier_groups(a, b).items():
            ws = work.powers[ns]
            while len(ws) <= m:  # w^m/m! from w^(m-1)/(m-1)!
                ws.append(ws[-1] * ws[1] * _new(CScalar, len(ws), {0: (1, 0)}))
            for f, c in group.items():
                key = (zero, f)
                term = ws[m] * c
                acc = out.get(key)
                out[key] = term if acc is None else acc + term
        return _chartfn(self.space, out)

    def multiply(self, a: StarInput, b: StarInput, K: int | None = None) -> FormalSeries:
        """a * b with c_k = sum_{j+l+m=k} B_m(a_j, b_l), each B_m from ``bidiff``
        (in closed form when a_j and b_l are pure Fourier sums).

        The ``bidiff`` calls of one ``multiply`` share one work table: each
        coefficient's term maps, the pair products and Fourier pair groups
        of each (a_j, b_l) and the Pi multisets of each order are computed
        once for all orders.  The table is dropped when the call returns.
        The B_m of one order are summed into one dict."""
        if K is not None:
            _check_order(K, "truncation order K")
        sa = self._promote(a, K)
        sb = self._promote(b, K)
        if sa.space != self.space or sb.space != self.space:
            raise ValueError("star-product inputs live on the wrong chart")
        kmax = min(sa.K, sb.K)
        if K is not None:
            kmax = min(kmax, K)
        token = _WORK.set(_Work(self))
        try:
            coeffs = []
            for k in range(kmax + 1):
                parts = [
                    self.bidiff(k - j - l, sa.coeffs[j], sb.coeffs[l])
                    for j in range(k + 1)
                    if not sa.coeffs[j].is_zero()
                    for l in range(k - j + 1)
                    if not sb.coeffs[l].is_zero()
                ]
                coeffs.append(_sum(self.space, parts))
        finally:
            _WORK.reset(token)
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

    Violations are report content, not exceptions.  K must be an int >= 0
    and ``samples`` must not be empty.
    """
    _check_order(K, "truncation order K")
    if not samples:
        raise ValueError("check_associativity needs at least one sample triple")
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
