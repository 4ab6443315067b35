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

``multiply`` calls ``bidiff`` once per order on the same coefficient pairs,
so each ``multiply`` call keeps one work table (``_Work``) that its
``bidiff`` calls share: the iterated derivatives of every operand, the
multisets of Pi entries with their weights for each m, and the Fourier
pairs of each (a, b) grouped by k+l and k.Pi.l.  The table is passed in a
context variable that ``multiply`` resets before it returns, so nothing
outlives the call; a ``bidiff`` called outside ``multiply`` builds its own.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from operator import add
from typing import Sequence

from .chartfn import ChartFunction, _chartfn
from .poisson import PoissonStructure
from .scalar import CScalar, Scalar, _new
from .series import FormalSeries

StarInput = ChartFunction | FormalSeries

_MINUS_FOUR_PI2 = _new(Scalar, 1, {2: (-4, 0)})
_ONE = _new(CScalar, 1, {0: (1, 0)})


def _bump(order: tuple[int, ...], i: int, by: int = 1) -> tuple[int, ...]:
    return order[:i] + (order[i] + by,) + order[i + 1 :]


class _Work:
    """What the ``bidiff`` calls of one ``multiply`` share, each entry built
    when an order first needs it.  Operands are keyed by ``id`` and held in
    ``operands``, so no id is reused while the table lives."""

    def __init__(self, product: "PureStarProduct"):
        self.product = product
        self.entries = [(i, j, CScalar.coerce(p)) for i, j, p in product.poisson.nonzero_entries()]
        self.operands: dict = {}  # id(f) -> f
        self.derivatives: dict = {}  # (id(f), order) -> d^order f
        zero = (0,) * product.space.dim
        # m -> [(order on a, order on b, coeff, last entry, its run length)]
        self.multisets: dict = {0: [(zero, zero, _ONE, 0, 0)]}
        self.pairs: dict = {}  # (id(a), id(b)) -> {ns: {k+l: sum of a_k b_l}}
        self.powers: dict = {}  # ns -> [w^m/m! for m = 0, 1, ...], None for s = 0

    def derivative(self, f: ChartFunction, order: tuple[int, ...]) -> ChartFunction:
        """d^order f, each iterated derivative taken once per table."""
        if not any(order):
            return f
        key = (id(f), order)
        got = self.derivatives.get(key)
        if got is None:
            self.operands[id(f)] = f
            i = next(k for k, o in enumerate(order) if o)
            got = self.derivative(f, _bump(order, i, -1)).derive(f.space.names[i])
            self.derivatives[key] = got
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
        if m < 0:
            raise ValueError(f"bidifferential order must be >= 0, not {m}")
        if a.space != self.space or b.space != self.space:
            raise ValueError("star-product inputs live on the wrong chart")
        if m == 0:
            return a * b
        if a.is_trig() and b.is_trig():
            return self._fourier_bidiff(m, a, b)
        return self._derivative_bidiff(m, a, b)

    def _derivative_bidiff(self, m: int, a: ChartFunction, b: ChartFunction) -> ChartFunction:
        """B_m(a, b) for m >= 1 from iterated derivatives; any inputs.

        Sums coeff * (d^order_a a)(d^order_b b) over the multisets of m Pi
        entries, term pair by term pair, into one dict."""
        work = _work(self)
        out: dict = {}
        for order_a, order_b, coeff, _, _ in work.orders(m):
            da = work.derivative(a, order_a)
            if da.is_zero():
                continue
            db = work.derivative(b, order_b)
            if db.is_zero():
                continue
            for (m1, f1), c1 in da._terms.items():
                c1 = coeff * c1
                for (m2, f2), c2 in db._terms.items():
                    key = (tuple(map(add, m1, m2)), tuple(map(add, f1, f2)))
                    c = c1 * c2
                    acc = out.get(key)
                    out[key] = c if acc is None else acc + c
        return _chartfn(self.space, out)

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
        coefficient's iterated derivatives, the Pi multisets of each order
        and the Fourier pair groups of each (a_j, b_l) are computed once for
        all orders.  The table is dropped when the call returns."""
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
