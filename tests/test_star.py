import gc
import itertools
import weakref
from fractions import Fraction
from math import factorial

import pytest

from starbundle.chartfn import ChartFunction, ChartSpace
from starbundle.poisson import PoissonStructure, poisson_bracket
from starbundle.scalar import CScalar, Scalar, _reduce
from starbundle.series import FormalSeries
from starbundle import star
from starbundle.star import PureStarProduct, check_associativity, star_trace

from conftest import random_cscalar, random_fraction, random_poly, random_trig

R2 = ChartSpace.euclidean(("x", "y"))
R4 = ChartSpace.euclidean(("x1", "y1", "x2", "y2"))
T2 = ChartSpace.torus(("x", "y"))

P2 = PoissonStructure.standard(R2)
P4 = PoissonStructure.standard(R4)
PT2 = PoissonStructure.standard(T2)

S2 = PureStarProduct(P2)
S4 = PureStarProduct(P4)
ST2 = PureStarProduct(PT2)

X = ChartFunction.variable(R2, "x")
Y = ChartFunction.variable(R2, "y")


def naive_bidiff(product, m, a, b):
    """Independent oracle: raw sum over index sequences, weight 1/m!."""
    entries = product.poisson.nonzero_entries()
    names = product.space.names
    total = ChartFunction.zero(product.space)
    for seq in itertools.product(entries, repeat=m):
        coeff = Scalar.one()
        da, db = a, b
        for i, j, s in seq:
            coeff = coeff * s
            da = da.derive(names[i])
            db = db.derive(names[j])
        total = total + (da * db).scale(coeff)
    return total.scale(Fraction(1, factorial(m)))


def test_bidiff_matches_naive_oracle(rng):
    for product, space in [(S2, R2), (S4, R4)]:
        for _ in range(6):
            a = random_poly(space, rng, max_deg=3, n_terms=3)
            b = random_poly(space, rng, max_deg=3, n_terms=3)
            for m in range(4):
                assert product.bidiff(m, a, b) == naive_bidiff(product, m, a, b)
    for _ in range(4):
        a = random_trig(T2, rng, max_freq=1, n_terms=2)
        b = random_trig(T2, rng, max_freq=1, n_terms=2)
        for m in range(3):
            assert ST2.bidiff(m, a, b) == naive_bidiff(ST2, m, a, b)


def test_poisson_bracket_examples():
    assert poisson_bracket(X, Y, P2) == ChartFunction.one(R2)
    f = X * X * Y + Y
    assert poisson_bracket(f, f, P2).is_zero()
    assert poisson_bracket(X * X, Y, P2) == X.scale(2)


def test_poisson_jacobi_randomized(rng):
    for _ in range(10):
        a = random_poly(R4, rng, max_deg=2, n_terms=3)
        b = random_poly(R4, rng, max_deg=2, n_terms=3)
        c = random_poly(R4, rng, max_deg=2, n_terms=3)
        jac = (
            poisson_bracket(poisson_bracket(a, b, P4), c, P4)
            + poisson_bracket(poisson_bracket(b, c, P4), a, P4)
            + poisson_bracket(poisson_bracket(c, a, P4), b, P4)
        )
        assert jac.is_zero()


def test_poisson_dimension_mismatch():
    with pytest.raises(ValueError):
        poisson_bracket(ChartFunction.variable(R4, "x1"), Y, P2)


@pytest.mark.parametrize("space", [R2, R4], ids=["R2", "R4"])
@pytest.mark.parametrize("scale", [1, Fraction(-1, 3), Scalar.pi()], ids=["1", "-1/3", "pi"])
def test_symplectic_form_inverts_bivector(space, scale):
    # omega = Pi^{-1} is the symplectic form the star product quantizes
    structure = PoissonStructure.standard(space, scale)
    bivector, omega = structure.matrix, structure.symplectic_form()
    n = space.dim
    for i in range(n):
        for j in range(n):
            entry = sum((bivector[i][k] * omega[k][j] for k in range(n)), Scalar.zero())
            assert entry == (1 if i == j else 0)


def test_star_unit_law(rng):
    one = ChartFunction.one(R2)
    for _ in range(5):
        a = random_poly(R2, rng)
        sa = FormalSeries.constant(a, 4)
        assert S2.multiply(one, a, 4) == sa
        assert S2.multiply(a, one, 4) == sa


def test_star_frozen_examples():
    # x * y = xy + t
    got = S2.multiply(X, Y, 2)
    assert got.coefficient(0) == X * Y
    assert got.coefficient(1) == ChartFunction.one(R2)
    assert got.coefficient(2).is_zero()
    # x^2 * y^2 = x^2 y^2 + 4t xy + 2 t^2
    got = S2.multiply(X * X, Y * Y, 3)
    assert got.coefficient(0) == X * X * Y * Y
    assert got.coefficient(1) == (X * Y).scale(4)
    assert got.coefficient(2) == ChartFunction.constant(R2, 2)
    assert got.coefficient(3).is_zero()


def test_commutator_examples(rng):
    # [x, y] = 2t
    comm = S2.commutator(X, Y, 3)
    assert comm.coefficient(0).is_zero()
    assert comm.coefficient(1) == ChartFunction.constant(R2, 2)
    # [1, a] = 0 and [a, a] = 0
    a = random_poly(R2, rng)
    assert S2.commutator(ChartFunction.one(R2), a, 3).is_zero()
    assert S2.commutator(a, a, 3).is_zero()
    # t^1 coefficient of [a, b] is 2{a0, b0}
    b = random_poly(R2, rng)
    comm = S2.commutator(a, b, 2)
    assert comm.coefficient(1) == poisson_bracket(a, b, P2).scale(2)


def test_first_order_normal_form_monomial_span():
    # B_0 = pointwise product and antisym(B_1) = Poisson bracket on all
    # monomials of degree <= 3
    monos = []
    for dx in range(4):
        for dy in range(4 - dx):
            monos.append(ChartFunction.monomial(R2, {"x": dx, "y": dy}))
    for a in monos:
        for b in monos:
            assert S2.bidiff(0, a, b) == a * b
            anti = (S2.bidiff(1, a, b) - S2.bidiff(1, b, a)).scale(Fraction(1, 2))
            assert anti == poisson_bracket(a, b, P2)


def test_derivative_count_bound():
    # the order-k operator applies exactly k derivatives to each argument:
    # on monomials every surviving term drops total degree by exactly k per side
    a = ChartFunction.monomial(R2, {"x": 2, "y": 1})
    b = ChartFunction.monomial(R2, {"x": 1, "y": 2})
    for k in range(4):
        out = S2.bidiff(k, a, b)
        expected_degree = (3 - k) + (3 - k)
        for (mon, _freq), _c in out.terms.items():
            assert sum(mon) == expected_degree
    assert S2.bidiff(4, a, b).is_zero()  # more derivatives than degree


def test_min_truncation_semantics(rng):
    a = FormalSeries.constant(random_poly(R2, rng), 5)
    b = FormalSeries.constant(random_poly(R2, rng), 3)
    assert S2.multiply(a, b).K == 3
    assert (a + b).K == 3


def test_associativity_random_triples(rng):
    triples = []
    for _ in range(6):
        triples.append(tuple(random_poly(R2, rng, max_deg=3, n_terms=2) for _ in range(3)))
    for _ in range(3):
        triples.append(tuple(random_poly(R4, rng, max_deg=2, n_terms=2) for _ in range(3)))
    report2 = check_associativity(S2, triples[:6], K=4)
    report4 = check_associativity(S4, triples[6:], K=3)
    assert report2.passed and report2.verified_order == 4
    assert report4.passed and report4.verified_order == 3


def test_associativity_with_unit_triple(rng):
    one = ChartFunction.one(R2)
    triple = (one, random_poly(R2, rng), random_poly(R2, rng))
    report = check_associativity(S2, [triple], K=5)
    assert report.passed


class BrokenFirstOrder(PureStarProduct):
    """B_1 replaced by a*(d_x b), that is B_0(a, d_x b), on the general path.
    It is not a Hochschild cocycle: the associator picks up -a*b*(d_x c)
    already at order t^1."""

    def _add_bidiff(self, work, out, den, sign, m, a, b):
        if m == 1:
            m, b = 0, b.derive("x")
        super()._add_bidiff(work, out, den, sign, m, a, b)


def test_associativity_detects_violation():
    broken = BrokenFirstOrder(P2)
    triple = (Y, Y, X)
    report = check_associativity(broken, [triple], K=3)
    assert not report.passed
    assert report.violations[0]["first_nonzero_order"] == 1
    assert report.verified_order == 0
    assert report.violations[0]["coefficient"] == "(-1)*y^2"


def test_star_trace_examples():
    one = ChartFunction.one(T2)
    ex = ChartFunction.fourier(T2, {"x": 1})
    ey = ChartFunction.fourier(T2, {"y": 1})
    tr_one = star_trace(one, ST2, 3)
    assert tr_one.coefficient(0) == one
    assert all(tr_one.coefficient(k).is_zero() for k in (1, 2, 3))
    assert star_trace(ex, ST2, 3).is_zero()
    comm = ST2.commutator(ex, ey, 5)
    assert star_trace(comm, ST2).is_zero()


def test_star_trace_property_randomized(rng):
    for _ in range(8):
        a = random_trig(T2, rng, max_freq=2, n_terms=2, real=False)
        b = random_trig(T2, rng, max_freq=2, n_terms=2, real=False)
        lhs = star_trace(ST2.multiply(a, b, 5), ST2)
        rhs = star_trace(ST2.multiply(b, a, 5), ST2)
        assert lhs == rhs


def test_star_trace_rejects_non_torus():
    with pytest.raises(ValueError):
        star_trace(X, S2, 2)


def test_star_trace_rejects_lifted_coordinates():
    lifted = ChartFunction.variable(T2, "x")
    with pytest.raises(ValueError):
        star_trace(lifted, ST2, 2)


def closed_form_star(a_modes, b_modes, scale, K):
    """B_m(e_k, e_l) = (-4 pi^2 k.Pi.l)^m / m! e_{k+l} for Pi = scale*[[0,1],[-1,0]],
    in plain Fractions: order m -> frequency -> (re, im) of the pi^(2m) coefficient."""
    out = [{} for _ in range(K + 1)]
    for k, (ar, ai) in a_modes.items():
        for l, (br, bi) in b_modes.items():
            kpil = scale * (k[0] * l[1] - k[1] * l[0])
            re, im = ar * br - ai * bi, ar * bi + ai * br
            n = (k[0] + l[0], k[1] + l[1])
            for m in range(K + 1):
                w = (-4 * kpil) ** m / factorial(m)
                r0, i0 = out[m].get(n, (0, 0))
                out[m][n] = (r0 + w * re, i0 + w * im)
    return out


def modes(f):
    return {freq: (c.re.as_fraction(), c.im.as_fraction()) for (_, freq), c in f.terms.items()}


@pytest.mark.parametrize("K", [2, 6])
@pytest.mark.parametrize("scale", [Fraction(1), Fraction(-1, 3)])
def test_fourier_star_matches_closed_form(rng, K, scale):
    product = PureStarProduct(PoissonStructure.standard(T2, scale))
    zero = (0, 0)
    for _ in range(2):
        a = random_trig(T2, rng, max_freq=2, n_terms=3)
        b = random_trig(T2, rng, max_freq=2, n_terms=3)
        got = product.multiply(a, b, K)
        expected = closed_form_star(modes(a), modes(b), scale, K)
        for m in range(K + 1):
            terms = {
                (zero, n): CScalar(Scalar({2 * m: re}), Scalar({2 * m: im}))
                for n, (re, im) in expected[m].items()
            }
            assert got.coefficient(m) == ChartFunction(T2, terms)
        assert any(not got.coefficient(m).is_zero() for m in range(1, K + 1))


T4 = ChartSpace.torus(("x1", "y1", "x2", "y2"))


def series_by_orders(product, sa, sb, K, bidiff):
    """Order k of sa * sb as sum_{j+l+m=k} bidiff(m, a_j, b_l), one call per
    term, with no state shared between the calls."""
    coeffs = []
    for k in range(K + 1):
        c = ChartFunction.zero(product.space)
        for j in range(k + 1):
            for l in range(k - j + 1):
                c = c + bidiff(k - j - l, sa.coefficient(j), sb.coefficient(l))
        coeffs.append(c)
    return coeffs


def general_bidiff(product, m, a, b):
    """B_m(a, b) by the general path of the kernel, whatever the inputs:
    ``_add_bidiff`` into integer numerators, each coefficient reduced once."""
    work = star._Work(product)
    den = work.pair_products(a, b)[0] * work.orders(m)[1]
    out = {}
    product._add_bidiff(work, out, den, 1, m, a, b)
    return ChartFunction(product.space, {key: _reduce(CScalar, den, num) for key, num in out.items()})


def derivative_series(product, sa, sb, K):
    """Every B_m with m >= 1 from the term maps, the general path."""
    return series_by_orders(
        product, sa, sb, K,
        lambda m, a, b: a * b if m == 0 else general_bidiff(product, m, a, b),
    )


@pytest.mark.parametrize("K", [2, 6, 8])
@pytest.mark.parametrize("space", [T2, T4], ids=["T2", "T4"])
@pytest.mark.parametrize(
    "scale", [Fraction(1), Fraction(-1, 3), Scalar.pi()], ids=["1", "-1/3", "pi"]
)
def test_fourier_path_matches_bidiff(rng, monkeypatch, space, K, scale):
    product = PureStarProduct(PoissonStructure.standard(space, scale))
    derivative_calls = []
    general = PureStarProduct._add_bidiff
    monkeypatch.setattr(
        PureStarProduct,
        "_add_bidiff",
        lambda self, *args: derivative_calls.append(args) or general(self, *args),
    )

    zero = ChartFunction.zero(space)

    def trig():
        return random_trig(space, rng, max_freq=2, n_terms=2)

    def series(*coeffs):
        return FormalSeries(space, list(coeffs) + [zero] * (K + 1 - len(coeffs)))

    a, b = trig(), trig()
    u, v = space.names[:2]
    mixed = ChartFunction.variable(space, v) * ChartFunction.fourier(space, {u: 1})
    cases = [
        (a, b, True),
        (b, a, True),
        (series(a, trig(), trig()), series(trig(), trig(), b), True),
        (series(zero, trig(), trig()), b, True),
        (zero, b, True),
        (mixed, a, False),
    ]
    for x, y, fourier in cases:
        derivative_calls.clear()
        got = product.multiply(x, y, K)
        assert bool(derivative_calls) != fourier
        want = derivative_series(product, product._promote(x, K), product._promote(y, K), K)
        assert got.K == K
        for m in range(K + 1):
            assert got.coefficient(m) == want[m]
    assert any(not product.multiply(a, b, K).coefficient(m).is_zero() for m in range(2, K + 1))


def cross_coupled(space):
    """The standard Pi on a 4-chart plus Pi^02 = 1/2 + pi, which couples x1
    with x2 and is not a monomial in pi."""
    cross = Scalar({0: Fraction(1, 2), 1: 1})
    entries = {(0, 1): Scalar.one(), (2, 3): Scalar.one(), (0, 2): cross}
    rows = [[Scalar.zero()] * 4 for _ in range(4)]
    for (i, j), p in entries.items():
        rows[i][j], rows[j][i] = p, -p
    return PureStarProduct(PoissonStructure(space, tuple(tuple(r) for r in rows)))


def test_fourier_bidiff_with_cross_coupling(rng):
    # s = k.Pi.l sums three entries and its powers take the general Scalar power
    product = cross_coupled(T4)
    for _ in range(2):
        a = random_trig(T4, rng, max_freq=2, n_terms=3)
        b = random_trig(T4, rng, max_freq=2, n_terms=3)
        for m in range(5):
            assert product.bidiff(m, a, b) == general_bidiff(product, m, a, b)
        assert not product.bidiff(3, a, b).is_zero()


def laurent_trig(space, rng, n_terms=3):
    """n_terms Fourier modes, frequencies -2..2, with complex Laurent-pi
    coefficients."""
    total = ChartFunction.zero(space)
    for _ in range(n_terms):
        freqs = {n: rng.randint(-2, 2) for n in space.names}
        total = total + ChartFunction.fourier(space, freqs, random_cscalar(rng))
    return total


@pytest.mark.parametrize("space", [T2, T4], ids=["T2", "T4"])
def test_fourier_bidiff_matches_general_path_on_laurent_coefficients(rng, space):
    # Pi^01 = pi^-1 + 1/3: the powers of w carry two pi powers over 3^m, and
    # the pair table's numerators carry the operands' own pi powers
    K = 5
    product = PureStarProduct(
        PoissonStructure.standard(space, Scalar({-1: 1, 0: Fraction(1, 3)}))
    )
    zero = ChartFunction.zero(space)
    a, b = laurent_trig(space, rng), laurent_trig(space, rng)
    assert not all(c.is_real() for c in a.terms.values())
    for x, y in ((a, b), (b, a), (a, a), (zero, b), (a, zero)):
        assert product.bidiff(0, x, y) == x * y
        for m in range(K + 1):
            assert product.bidiff(m, x, y) == general_bidiff(product, m, x, y)
    assert all(not product.bidiff(m, a, b).is_zero() for m in range(K + 1))


def test_trig_multiply_takes_b0_from_the_pair_table(rng, monkeypatch):
    # B_0 of two pure Fourier sums is read off the pair table that every
    # order shares, so a trig-by-trig multiply forms no ChartFunction
    # product; the kernel still calls bidiff once per order
    K = 6
    a, b = random_trig(T2, rng), random_trig(T2, rng)
    want = derivative_series(ST2, ST2._promote(a, K), ST2._promote(b, K), K)
    products, orders = [], []
    mul, bidiff = ChartFunction.__mul__, PureStarProduct.bidiff

    def counting_mul(self, other):
        products.append(other)
        return mul(self, other)

    def counting_bidiff(self, m, x, y):
        orders.append(m)
        return bidiff(self, m, x, y)

    monkeypatch.setattr(ChartFunction, "__mul__", counting_mul)
    monkeypatch.setattr(ChartFunction, "__rmul__", counting_mul)
    monkeypatch.setattr(PureStarProduct, "bidiff", counting_bidiff)
    got = ST2.multiply(a, b, K)
    assert products == []
    assert orders == list(range(K + 1))
    assert [got.coefficient(m) for m in range(K + 1)] == want
    assert a * b == want[0] and len(products) == 1


def poly_of_degree(space, rng, degree, n_terms=3):
    """n_terms monomials of total degree ``degree``, exponents placed at random,
    the shape of the benchmark's associativity inputs."""
    total = ChartFunction.zero(space)
    for _ in range(n_terms):
        exps = dict.fromkeys(space.names, 0)
        for _ in range(degree):
            exps[rng.choice(space.names)] += 1
        total = total + ChartFunction.monomial(space, exps, random_fraction(rng) or 1)
    return total


def random_mixed(space, rng, n_terms=3):
    """n_terms terms c * x^alpha * e_k with exponents 0-2, frequencies -1..1
    and complex Laurent-pi coefficients c."""
    total = ChartFunction.zero(space)
    for _ in range(n_terms):
        mono = ChartFunction.monomial(space, {n: rng.randint(0, 2) for n in space.names})
        freqs = {n: rng.randint(-1, 1) for n in space.names}
        total = total + mono * ChartFunction.fourier(space, freqs, random_cscalar(rng))
    return total


@pytest.mark.parametrize(
    "case",
    ["R4-degree-4-6", "T2-mixed", "series", "pi-scaled", "cross", "T4-mixed-cross", "T4-mixed-pi", "late-series"],
)
def test_multiply_matches_naive_oracle(rng, case):
    # multiply shares one work table among its bidiff calls; every order
    # must still equal the oracle's independent sum over index sequences
    K = 4

    def r4_pairs(degrees):
        return [tuple(poly_of_degree(R4, rng, rng.choice(degrees)) for _ in "ab") for _ in "12"]

    def series():
        # nonzero orders 0-2 of a K = 4 series
        return FormalSeries(R2, [random_poly(R2, rng) for _ in range(3)] + [ChartFunction.zero(R2)] * 2)

    if case == "R4-degree-4-6":
        product, pairs = S4, r4_pairs((4, 5, 6))
    elif case == "T2-mixed":
        product = ST2
        mixed = ChartFunction.variable(T2, "y") * ChartFunction.fourier(T2, {"x": 1})
        pairs = [(mixed, mixed), (mixed, random_trig(T2, rng)), (random_trig(T2, rng), mixed)]
    elif case == "series":
        product, pairs = S2, [(series(), series()), (series(), random_poly(R2, rng))]
    elif case == "pi-scaled":
        product = PureStarProduct(PoissonStructure.standard(R4, Scalar.pi()))
        pairs = r4_pairs((3, 4))
    elif case == "cross":  # six nonzero entries: 6^m index sequences for the oracle, so K = 3
        product, K, pairs = cross_coupled(R4), 3, r4_pairs((3, 4))
    elif case.startswith("T4-mixed"):  # order k of a plain product is B_k, so m <= 3
        K = 3
        if case == "T4-mixed-cross":
            product = cross_coupled(T4)
        else:
            product = PureStarProduct(PoissonStructure.standard(T4, Scalar.pi()))
        pairs = [(random_mixed(T4, rng), random_mixed(T4, rng)) for _ in "12"]
    else:  # series whose nonzero orders start at 1 and 2, with gaps
        product, K = cross_coupled(R4), 4
        zero = ChartFunction.zero(R4)

        def late(*orders):
            coeffs = [zero] * (K + 1)
            for k in orders:
                coeffs[k] = poly_of_degree(R4, rng, 3)
            return FormalSeries(R4, coeffs)

        pairs = [(late(1, 2), late(1, 3)), (late(2), late(1, 2, 4))]
    for x, y in pairs:
        got = product.multiply(x, y, K)
        sx, sy = product._promote(x, K), product._promote(y, K)
        want = series_by_orders(product, sx, sy, K, lambda m, a, b: naive_bidiff(product, m, a, b))
        assert got.K == K
        for k in range(K + 1):
            assert got.coefficient(k) == want[k]
        assert any(not got.coefficient(k).is_zero() for k in range(1, K + 1))


def test_associativity_of_benchmark_shaped_triples(rng):
    triples = [tuple(poly_of_degree(R4, rng, d) for d in (4, 5, 6)) for _ in range(2)]
    report = check_associativity(S4, triples, K=4)
    assert report.passed and report.verified_order == 4


def spy_term_maps(monkeypatch):
    """Record, for every term map built, its table, operand and order."""
    built = []
    term_map = star._Work.term_map

    def spy(self, f, order):
        if (id(f), order) not in self.maps:
            built.append((weakref.ref(self), id(f), order))
        return term_map(self, f, order)

    monkeypatch.setattr(star._Work, "term_map", spy)
    return built


def test_work_table_does_not_outlive_the_call(rng, monkeypatch):
    # a cache that survived a call would make the second of two equal calls
    # build fewer term maps, or leave a table reachable after the call
    built = spy_term_maps(monkeypatch)
    tables = []
    a, b, c = (poly_of_degree(R4, rng, d) for d in (4, 5, 6))
    for call in (
        lambda: S4.multiply(a, b, 4),
        lambda: check_associativity(S4, [(a, b, c)], 4).passed or pytest.fail("not associative"),
    ):
        counts = []
        for _ in range(2):
            built.clear()
            call()
            counts.append(len(built))
            # every kernel call of the multiply, or of the sample, shared one table
            assert len({id(ref) for ref, _, _ in built}) == 1
            tables.append(built[0][0])
        assert counts[0] == counts[1] > 0
    built.clear()
    gc.collect()
    assert all(ref() is None for ref in tables)
    assert star._WORK.get() is None
    assert vars(S4) == {"poisson": P4}


# the term maps that the sample of test_each_term_map_is_built_once built at
# commit f69fe5c, where each of the four multiply calls of a sample kept a
# table of its own
PARENT_TERM_MAPS_PER_SAMPLE = 493


def test_each_term_map_is_built_once(rng, monkeypatch):
    built = spy_term_maps(monkeypatch)
    a, b, c = (poly_of_degree(R4, rng, d) for d in (4, 5, 6))
    assert check_associativity(S4, [(a, b, c)], 4).passed
    keys = [(id_f, order) for _, id_f, order in built]
    assert len(set(keys)) == len(keys) > 0
    assert len(keys) < PARENT_TERM_MAPS_PER_SAMPLE


def unfused_multiply(product, x, y, K):
    """x * y as one ``bidiff`` call per (j, l, m), each a table of its own,
    summed as chart functions."""
    sx, sy = product._promote(x, K), product._promote(y, K)
    return FormalSeries(product.space, series_by_orders(product, sx, sy, K, product.bidiff))


@pytest.mark.parametrize("case", ["R4-degree-4-6", "T2-trig", "T2-mixed", "cross", "order-1-break"])
def test_fused_sums_match_unfused_reference(rng, monkeypatch, case):
    # the kernel sums every pair and order of an output coefficient before
    # it reduces, Fourier parts included; the reference forms each B_m,
    # each product and each difference on its own
    K = 4
    if case == "R4-degree-4-6":
        product = S4
        triple = tuple(poly_of_degree(R4, rng, d) for d in (4, 5, 6))
    elif case == "T2-trig":  # every part in closed form
        product = ST2
        triple = tuple(random_trig(T2, rng, n_terms=2) for _ in "abc")
    elif case == "T2-mixed":  # b * c in closed form, a * b by the general path
        product = ST2
        mixed = ChartFunction.variable(T2, "y") * ChartFunction.fourier(T2, {"x": 1})
        triple = (mixed + random_mixed(T2, rng), random_trig(T2, rng), random_trig(T2, rng))
    elif case == "cross":  # the Pi^02 = 1/2 + pi entry
        product, K = cross_coupled(R4), 3
        triple = tuple(poly_of_degree(R4, rng, d) for d in (3, 4, 3))
    else:
        product, K = BrokenFirstOrder(P2), 3
        triple = tuple(random_poly(R2, rng) for _ in "abc")
    a, b, c = triple

    def same(got, want):
        assert got.K == want.K == K
        for k in range(K + 1):
            assert got.coefficient(k) == want.coefficient(k)

    # no part of the associator is negated or added as a chart function
    added = []
    with monkeypatch.context() as patch:
        for name in ("__add__", "__neg__"):
            real = getattr(ChartFunction, name)
            patch.setattr(
                ChartFunction, name, lambda *args, real=real, name=name: added.append(name) or real(*args)
            )
        got = star._associator(product, triple, K)
    assert added == []
    ab, bc = unfused_multiply(product, a, b, K), unfused_multiply(product, b, c, K)
    defect = unfused_multiply(product, ab, c, K) - unfused_multiply(product, a, bc, K)
    same(got, defect)
    assert defect.is_zero() != (case == "order-1-break")
    same(
        product.commutator(a, b, K),
        unfused_multiply(product, a, b, K) - unfused_multiply(product, b, a, K),
    )
    # pairs whose products do not cancel, one of them a series
    same(
        product._star_sum([(ab, c, 1), (b, c, -1)], K),
        unfused_multiply(product, ab, c, K) - unfused_multiply(product, b, c, K),
    )
    # a subtracted pair whose orders hold one part each, summed with the
    # other pair's part in one order sum
    same(
        product._star_sum([(b, c, 1), (a, b, -1)], K),
        unfused_multiply(product, b, c, K) - unfused_multiply(product, a, b, K),
    )
