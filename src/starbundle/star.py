"""Pure star products with exponential-of-Poisson bidifferential operators.

The order-m bidifferential operator is Pi^m/m! applied as m-fold contracted
derivatives:

    B_m(a, b) = (1/m!) sum Pi^{i1 j1} ... Pi^{im jm} (d_{i1..im} a)(d_{j1..jm} b)

so B_0 is the pointwise product and B_1 is the Poisson bracket.  For a
constant bivector this product is associative at every truncation order,
which the toolkit verifies by exact expansion rather than assuming.

Every product runs through one kernel, ``PureStarProduct._star_sum``: the
sum of sign * (x * y) over a list of signed pairs of series, up to order K.
Its order k adds every B_m(x_j, y_l) with j + l + m = k, from every pair.
``multiply`` is the kernel on one pair and ``commutator`` on (a, b, +1) and
(b, a, -1).  ``check_associativity`` forms a*b and b*c and takes the defect
(a*b)*c - a*(b*c) as one kernel call on (a*b, c, +1) and (a, b*c, -1), so
the two outer products are never formed.  Each order is one per-order sum,
``_order_sum``: every part sign * B_m(x_j, y_l) of the order, from every
pair and every m (B_0 included), is added into one dict of integer
numerators over the lcm of the parts' denominators, and each output
coefficient is reduced once.  An order with one part of sign +1 is that
part's ``bidiff``, which is ``_order_sum`` on it.

On Fourier modes e_k = exp(2*pi*i*k.u) every derivative is a multiplication
by 2*pi*i*k_i, so the operator has the closed form

    B_m(e_k, e_l) = (-4*pi^2 * k.Pi.l)^m / m! * e_{k+l}.

A part on a pair of pure Fourier sums is added in that form
(``_add_fourier``), at every m.  Every a_k b_l of the pair is formed once,
as integer numerators over one denominator, and summed by k+l and by the
integers that make up k.Pi.l; the numerators of w^m = (-4*pi^2 * k.Pi.l)^m
are kept over pden^m, pden the lcm of the Pi entries' denominators.  B_m
adds w^m times each sum to its output frequency, over the pair denominator
times pden^m * m!; B_0 (w^0 = 1) is a * b from the same table.  Any
monomial factor sends the pair through the general path (``_add_bidiff``),
which works on terms rather than on derivative functions.  A term
x^a * e_k of f has d^g (x^a * e_k) = sum_b w * (i*pi)^s * x^(a-b) * e_k with
integer weights w (falling factorials times (2k)^s by Leibniz,
s = |g - b|), so each operand's d^g is a *term map*: source term -> output
term, w, s.  The map of g is derived from the map of g less one derivative,
one axis at a time, so a term that dies at some order costs nothing above
it.  B_m then sums, per output term, coeff * w_a * w_b * (i*pi)^(s_a+s_b) *
a_t b_u over the multisets of m Pi entries, with every a_t b_u formed once
as integer numerators.  Both paths give the same exact result, and both
add into the same dict.

Each ``multiply``, ``commutator``, ``bidiff`` or associativity sample keeps
one work table (``_Work``), which the calls nested in it share: the term
maps of every operand, the pair products of every (a, b), the multisets of
Pi entries with their weights for each m, the Fourier pair table of each
(a, b) and the powers of w for each k.Pi.l.  So a*b, b*c and the defect
of one sample build each of these once.  The table is passed in a context
variable that is reset before the outermost call returns, so nothing
outlives it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from math import factorial, lcm
from operator import add
from typing import Iterable

from .chartfn import ChartFunction, _chartfn
from .poisson import PoissonStructure
from .scalar import CScalar, _mul, _new, _reduce
from .series import FormalSeries, _check_order

StarInput = ChartFunction | FormalSeries

_ONE = _new(CScalar, 1, {0: (1, 0)})


def _bump(order: tuple[int, ...], i: int, by: int = 1) -> tuple[int, ...]:
    return order[:i] + (order[i] + by,) + order[i + 1 :]


def _numerators(c: CScalar, scale: int) -> list:
    """c's numerators times ``scale``, as [(pi power, re, im)]."""
    return [(k, x * scale, y * scale) for k, (x, y) in c._num.items()]


def _scaled(num: dict, scale: int) -> dict:
    """{pi power: (re, im)} of integer numerators, times ``scale``."""
    if scale == 1:
        return num
    return {k: (x * scale, y * scale) for k, (x, y) in num.items()}


def _mul_into(acc: dict, x: dict, y: dict) -> None:
    """Add x * y to ``acc``, all {pi power: (re, im)} of integer numerators."""
    for k1, (a, b) in x.items():
        for k2, (c, d) in y.items():
            k = k1 + k2
            if b:  # a real a needs two products, not four
                re_, im_ = a * c - b * d, a * d + b * c
            else:
                re_, im_ = a * c, a * d
            p = acc.get(k)
            acc[k] = (re_, im_) if p is None else (p[0] + re_, p[1] + im_)


def _derive_map(parent: list, i: int) -> list:
    """The term map of one more derivative along axis i.  An entry with
    exponent e and frequency k on axis i yields e times x^(e-1) and, when
    k != 0, 2k * (i*pi) times the same term; entries of one source term that
    land on one output term are merged, so their weights add up to the
    Leibniz coefficients."""
    out: dict = {}  # (t, key) -> (w, s)
    for t, (mon, freq), w, s in parent:
        e, k = mon[i], freq[i]
        if e:
            at = (t, (_bump(mon, i, -1), freq))
            got = out.get(at)
            out[at] = (w * e, s) if got is None else (got[0] + w * e, s)
        if k:
            at = (t, (mon, freq))
            got = out.get(at)
            out[at] = (2 * k * w, s + 1) if got is None else (got[0] + 2 * k * w, s + 1)
    return [(t, key, w, s) for (t, key), (w, s) in out.items()]


class _Work:
    """What the kernel calls of one star-product call share, each entry
    built when an order first needs it.  Operands are keyed by ``id`` and
    held in ``operands``, so no id is reused while the table lives.

    The general path reads the term map of each operand and derivative
    order and the pair products a_t b_u of each (a, b), which every order m
    reuses.  The Fourier path reads the pair table of each (a, b): every
    a_k b_l as integer numerators over one denominator, summed by ns and
    by the term key of e_{k+l}; and, for each ns, the numerators of
    w^m = (-4*pi^2 * s)^m over pden^m, pden the lcm of the Pi entries'
    denominators."""

    def __init__(self, product: "PureStarProduct"):
        self.product = product
        self.entries = [(i, j, CScalar.coerce(p)) for i, j, p in product.poisson.nonzero_entries()]
        # Pi is antisymmetric: s = k.Pi.l = sum over these Pi^ij of Pi^ij (k_i l_j - k_j l_i)
        self.upper = [(i, j, p) for i, j, p in self.entries if i < j]
        self.pden = lcm(*(p._den for _, _, p in self.upper))
        self.operands: dict = {}  # id(f) -> f
        self.maps: dict = {}  # (id(f), order) -> term map of d^order f
        self.products: dict = {}  # (id(a), id(b)) -> (den, rows)
        zero = (0,) * product.space.dim
        # m -> ([(order on a, order on b, coeff, last entry, its run length)], lcm of coeff dens)
        self.multisets: dict = {0: ([(zero, zero, _ONE, 0, 0)], 1)}
        self.pairs: dict = {}  # (id(a), id(b)) -> (den, {ns: {(0, k+l): numerators}})
        self.powers: dict = {}  # ns -> [numerators of w^m over pden^m for m = 0, 1, ...]

    def term_map(self, f: ChartFunction, order: tuple[int, ...]) -> list:
        """d^order f as [(t, key, w, s)]: term t of f puts w * (i*pi)^s times
        its coefficient at ``key``, with w an integer.  Built from the map of
        order less one derivative on its first nonzero axis."""
        got = self.maps.get((id(f), order))
        if got is None:
            self.operands[id(f)] = f
            i = next((i for i, g in enumerate(order) if g), None)
            if i is None:
                got = [(t, key, 1, 0) for t, key in enumerate(f._terms)]
            else:
                got = _derive_map(self.term_map(f, _bump(order, i, -1)), i)
            self.maps[(id(f), order)] = got
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

    def orders(self, m: int) -> tuple:
        """(multisets, den): the multisets of m Pi entries, each extending
        one of m - 1 by an entry no lower than its last, and the lcm of
        their coeffs' denominators.  A multiset stands for m!/prod(run!)
        index sequences, so with B_m's 1/m! its coeff is the product of its
        entries over prod(run!)."""
        got = self.multisets.get(m)
        if got is None:
            rows = []
            for order_a, order_b, coeff, last, run in self.orders(m - 1)[0]:
                for idx in range(last, len(self.entries)):
                    i, j, p = self.entries[idx]
                    run_idx = run + 1 if idx == last else 1
                    c = coeff * p
                    if run_idx > 1:
                        c = c * _new(CScalar, run_idx, {0: (1, 0)})
                    rows.append((_bump(order_a, i), _bump(order_b, j), c, idx, run_idx))
            got = self.multisets[m] = (rows, lcm(*(c._den for _, _, c, _, _ in rows)))
        return got

    def fourier_groups(self, a: ChartFunction, b: ChartFunction) -> tuple:
        """(den, groups): the pair table of two pure Fourier sums.  Every
        a_k b_l is formed once, as integer numerators {pi power: (re, im)}
        over den, the lcm of a's coefficient denominators times that of
        b's, and summed into groups[ns][key], key the term key of e_{k+l}
        and ns the tuple of k_i l_j - k_j l_i over the Pi^ij with i < j.
        The groups with s = k.Pi.l = 0 are kept, since B_0 reads every
        pair."""
        got = self.pairs.get((id(a), id(b)))
        if got is None:
            self.operands[id(a)], self.operands[id(b)] = a, b
            da = lcm(*(c._den for c in a._terms.values()))
            db = lcm(*(c._den for c in b._terms.values()))
            ys = [(l, _scaled(c._num, db // c._den)) for (_, l), c in b._terms.items()]
            groups: dict = {}
            for (zero, k), c in a._terms.items():  # a is pure Fourier: zero monomial
                x = _scaled(c._num, da // c._den)
                for l, y in ys:
                    ns = tuple([k[i] * l[j] - k[j] * l[i] for i, j, _ in self.upper])
                    group = groups.setdefault(ns, {})
                    _mul_into(group.setdefault((zero, tuple(map(add, k, l))), {}), x, y)
            got = self.pairs[(id(a), id(b))] = (da * db, groups)
        return got

    def power(self, ns: tuple, m: int) -> dict:
        """The numerators of w^m over pden^m, w = -4*pi^2 * s and s the sum
        of n * Pi^ij over ns; each power is built from the one before as
        w^(m-1) * w in integers.  {} for m >= 1 when s = 0."""
        ws = self.powers.get(ns)
        if ws is None:
            w: dict = {}
            for n, (_, _, p) in zip(ns, self.upper):
                if n:
                    _mul_into(w, {2: (-4 * n * (self.pden // p._den), 0)}, p._num)
            w = {k: p for k, p in w.items() if p != (0, 0)}
            ws = self.powers[ns] = [{0: (1, 0)}, w]
        while len(ws) <= m:
            nxt: dict = {}
            _mul_into(nxt, ws[1], ws[-1])
            ws.append(nxt)
        return ws[m]


# the table of the star-product call in progress, if any
_WORK: ContextVar[_Work | None] = ContextVar("star_work", default=None)


@contextmanager
def _shared_work(product: "PureStarProduct"):
    """The table of the call in progress on ``product``, or a new one that
    the calls nested in this one share and that is dropped when it ends."""
    work = _WORK.get()
    if work is not None and work.product is product:
        yield work
        return
    work = _Work(product)
    token = _WORK.set(work)
    try:
        yield work
    finally:
        _WORK.reset(token)


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
            a = FormalSeries.constant(a, K)
        elif not isinstance(a, FormalSeries):
            raise TypeError(
                "star-product operands must be ChartFunctions or FormalSeries, "
                f"not {type(a).__name__}"
            )
        if a.space != self.space:
            raise ValueError("star-product inputs live on the wrong chart")
        return a

    def bidiff(self, m: int, a: ChartFunction, b: ChartFunction) -> ChartFunction:
        """The order-m bidifferential operator applied to (a, b): the
        kernel's per-order sum ``_order_sum`` on the one part (m, a, b, +1),
        in closed form when a and b are pure Fourier sums.
        """
        _check_order(m, "bidifferential order")
        for f in (a, b):
            if not isinstance(f, ChartFunction):
                raise TypeError(f"bidiff operands must be ChartFunctions, not {type(f).__name__}")
        if a.space != self.space or b.space != self.space:
            raise ValueError("star-product inputs live on the wrong chart")
        with _shared_work(self) as work:
            return self._order_sum(work, [(m, a, b, 1)])

    def _order_sum(self, work: _Work, parts: list) -> ChartFunction:
        """The sum of sign * B_m(x, y) over ``parts`` (m, x, y, sign).  Every
        part is added into one dict of integer numerators over the lcm of
        the parts' denominators: a pair of pure Fourier sums by
        ``_add_fourier``, any other pair by ``_add_bidiff``.  Each output
        coefficient is reduced once."""
        adds = []  # (add, den, m, x, y, sign)
        for m, x, y, sign in parts:
            if x.is_trig() and y.is_trig():
                den = work.fourier_groups(x, y)[0] * work.pden**m * factorial(m)
                adds.append((self._add_fourier, den, m, x, y, sign))
            else:
                den = work.pair_products(x, y)[0] * work.orders(m)[1]
                adds.append((self._add_bidiff, den, m, x, y, sign))
        den = lcm(*(part[1] for part in adds))
        out: dict = {}  # key -> {pi power: (re, im)} over den
        for add_part, _, m, x, y, sign in adds:
            add_part(work, out, den, sign, m, x, y)
        return _chartfn(self.space, {key: _reduce(CScalar, den, num) for key, num in out.items()})

    def _add_bidiff(self, work: _Work, out: dict, den: int, sign: int, m: int, a, b) -> None:
        """Add sign * B_m(a, b) to ``out``, integer numerators over ``den``,
        a multiple of the pair products' denominator times the multisets'.

        B_m sums coeff * (d^order_a a)(d^order_b b) over the multisets of m
        Pi entries.  Each term of that sum is the multiset's coeff times a
        pair product a_t b_u times the weights w * (i*pi)^s of the two term
        maps."""
        pden, rows = work.pair_products(a, b)
        orders, den_c = work.orders(m)
        scale = sign * (den // (pden * den_c))
        for order_a, order_b, c, _, _ in orders:
            map_a = work.term_map(a, order_a)
            if not map_a:
                continue
            map_b = work.term_map(b, order_b)
            if not map_b:
                continue
            cs = _numerators(c, scale * (den_c // c._den))
            for t, (mon_a, freq_a), wa, sa in map_a:
                row = rows[t]
                cw = []  # coeff * wa * (i*pi)^sa
                for k, x, y in cs:
                    x, y = x * wa, y * wa
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

    def _add_fourier(self, work: _Work, out: dict, den: int, sign: int, m: int, a, b) -> None:
        """Add sign * B_m(a, b) for pure Fourier sums a, b to ``out``,
        integer numerators over ``den``, a multiple of the pair table's
        denominator times pden^m * m!.

        B_m adds, for each k+l, w^m/m! times the pair table's sum of a_k b_l
        in each group ns (``_Work.fourier_groups``, shared by every order),
        w = -4*pi^2*s.  At m = 0, w^0 = 1 for every group, so B_0 = a * b
        comes from the same table; at m >= 1 a group with s = 0 contributes
        nothing.
        """
        pair_den, groups = work.fourier_groups(a, b)
        scale = sign * (den // (pair_den * work.pden**m * factorial(m)))
        for ns, group in groups.items():
            w = work.power(ns, m)
            if not w:
                continue
            w = _scaled(w, scale)
            for key, c in group.items():
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = {}
                _mul_into(acc, w, c)

    def _star_sum(self, pairs: list, K: int | None) -> FormalSeries:
        """The sum of sign * (x * y) over ``pairs`` (x, y, sign) of star
        inputs, truncated at K and at every operand's order.

        Order k adds sign * B_m(x_j, y_l) for every j + l + m = k with x_j
        and y_l nonzero, in one ``_order_sum``; an order whose only part
        has sign +1 is that part's ``bidiff``."""
        if K is not None:
            _check_order(K, "truncation order K")
        pairs = [(self._promote(x, K), self._promote(y, K), sign) for x, y, sign in pairs]
        kmax = min(s.K for x, y, _ in pairs for s in (x, y))
        if K is not None:
            kmax = min(kmax, K)

        def nonzero(s: FormalSeries) -> list:
            return [(j, f) for j, f in enumerate(s.coeffs) if not f.is_zero()]

        sides = [(nonzero(x), nonzero(y), sign) for x, y, sign in pairs]
        coeffs = []
        with _shared_work(self) as work:
            for k in range(kmax + 1):
                parts = []  # (m, x, y, sign)
                for xs, ys, sign in sides:
                    for j, x in xs:
                        for l, y in ys:
                            m = k - j - l
                            if m < 0:
                                break
                            parts.append((m, x, y, sign))
                if len(parts) == 1 and parts[0][3] == 1:
                    coeffs.append(self.bidiff(*parts[0][:3]))
                else:
                    coeffs.append(self._order_sum(work, parts))
        return FormalSeries(self.space, coeffs)

    def multiply(self, a: StarInput, b: StarInput, K: int | None = None) -> FormalSeries:
        """a * b with c_k = sum_{j+l+m=k} B_m(a_j, b_l) (``_star_sum`` on one
        pair).  The table of the call computes each coefficient's term maps,
        the pair products and Fourier pair table of each (a_j, b_l) and the
        Pi multisets of each order once for all orders, and is dropped when
        the call returns."""
        return self._star_sum([(a, b, 1)], K)

    def commutator(self, a: StarInput, b: StarInput, K: int | None = None) -> FormalSeries:
        """a * b - b * a as one ``_star_sum`` on (a, b, +1) and (b, a, -1)."""
        return self._star_sum([(a, b, 1), (b, a, -1)], K)


@dataclass(frozen=True)
class AssociativityReport:
    requested_order: int
    verified_order: int
    samples: int
    violations: tuple[dict, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return not self.violations


def _check_product(product, caller: str) -> None:
    if not isinstance(product, PureStarProduct):
        raise TypeError(f"{caller} needs a PureStarProduct, not {type(product).__name__}")


def _associator(product: PureStarProduct, triple: tuple, K: int) -> FormalSeries:
    """(a*b)*c - a*(b*c) as one ``_star_sum`` on (a*b, c, +1) and
    (a, b*c, -1); a*b, b*c and the defect share one work table."""
    a, b, c = triple
    with _shared_work(product):
        ab = product.multiply(a, b, K)
        bc = product.multiply(b, c, K)
        return product._star_sum([(ab, c, 1), (a, bc, -1)], K)


def check_associativity(
    product: PureStarProduct,
    samples: Iterable[tuple[ChartFunction, ChartFunction, ChartFunction]],
    K: int,
) -> AssociativityReport:
    """Expand (a*b)*c - a*(b*c) exactly for every sampled triple.

    Violations are report content, not exceptions.  ``product`` must be a
    ``PureStarProduct``, K an int >= 0 and ``samples`` a non-empty iterable.
    """
    _check_product(product, "check_associativity")
    _check_order(K, "truncation order K")
    samples = tuple(samples)
    if not samples:
        raise ValueError("check_associativity needs at least one sample triple")
    violations = []
    for index, triple in enumerate(samples):
        if not isinstance(triple, (tuple, list)) or len(triple) != 3:
            got = type(triple).__name__
            if isinstance(triple, (tuple, list)):
                got = f"{len(triple)} entries"
            raise ValueError(f"sample {index} is not a triple (a, b, c): {got}")
        defect = _associator(product, triple, K)
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
    _check_product(product, "star_trace")
    space = product.space
    if not all(space.periodic):
        raise ValueError("the star-algebra trace is defined on torus charts only")
    series = product._promote(a, K)
    consts = []
    for c in series.coeffs:
        mean = c.torus_mean()
        consts.append(ChartFunction.constant(space, mean))
    return FormalSeries(space, consts)
