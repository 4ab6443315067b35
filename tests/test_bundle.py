from fractions import Fraction

import pytest

from starbundle.bundle import BundleError, GermElement, LocalLineBundle, PolarC, build_local_line_bundle
from starbundle.cech import CechConnectionData, constant_two_form, solve_cech
from starbundle.chartfn import ChartFunction
from starbundle.cover import GoodCover
from starbundle.manifold import Torus
from starbundle.scalar import Scalar

T2 = Torus(2)
COVER = GoodCover.grid(T2, 3)


def make_bundle(theta):
    return build_local_line_bundle(solve_cech(constant_two_form(T2, theta), COVER))


def sample_points(rect, count):
    """Deterministic rational points spread inside a rectangle."""
    return [
        tuple(
            c + w * Fraction(2 * s - count + 1, 2 * count + 1)
            for c, w in zip(rect.center, rect.halfwidth)
        )
        for s in range(count)
    ]


def sampled_chain(bundle, triple):
    """Both orders of H at one sampled chain p, q, r, s of the triple
    overlap: germs u over (p, q) in chart i, v over (q, r) in chart j and
    w over (r, s) in chart k, composed through the point-level API."""
    i, j, k = triple
    p, q, r, s = chain = sample_points(bundle.cover.triple_rect(i, j, k), 4)
    u = GermElement(i, p, q, PolarC(Fraction(2), Scalar.pi(1, Fraction(1, 3))))
    v = GermElement(j, q, r, PolarC(Fraction(1, 3), Scalar.rational(Fraction(1, 5))))
    w = GermElement(k, r, s, PolarC(Fraction(5), -Scalar.pi()))
    left = bundle.compose(bundle.compose(u, v, anchor=i, chart=i), w, anchor=i, chart=i)
    right = bundle.compose(u, bundle.compose(v, w, anchor=i, chart=j), anchor=i, chart=i)
    return chain, left.value, right.value


def edited(edit):
    """The solved theta = 3/7 datum and its transitions, phi_01 replaced
    by edit(phi_01)."""
    data = solve_cech(constant_two_form(T2, Scalar.rational(Fraction(3, 7))), COVER)
    transitions = dict(data.transitions)
    transitions[(0, 1)] = edit(transitions[(0, 1)])
    return data, transitions


def tampered(term):
    data, transitions = edited(lambda phi: phi + term)
    return CechConnectionData(COVER, data.omega, data.alphas, transitions, data.triple_constants)


def constant_moved():
    """phi_01 + 1/3 with its reverse moved to match and the triple
    constants recomputed: a valid datum whose triple sums stay constant."""
    third = ChartFunction.constant(T2.space, Fraction(1, 3))
    data, transitions = edited(lambda phi: phi + third)
    transitions[(1, 0)] = (-transitions[(0, 1)]).shift(COVER.frame_shift(1, 0))
    moved = CechConnectionData(COVER, data.omega, data.alphas, transitions, {})
    constants = {t: moved.triple_sum(*t).constant_value().re for t in COVER.triples}
    return CechConnectionData(COVER, data.omega, data.alphas, transitions, constants)


X = ChartFunction.variable(T2.space, "x")
Y = ChartFunction.variable(T2.space, "y")
# the tampered pair (0, 1) is the first pair of triples[0]; in a sorted
# triple (i, j, k) it can only stand at (i, j)
BROKEN = {t for t in COVER.triples if t[:2] == COVER.triples[0][:2]}
CHAIN_ROWS = {
    "theta=0": (lambda: make_bundle(Scalar.zero()).data, set()),
    "theta=3/7": (lambda: make_bundle(Scalar.rational(Fraction(3, 7))).data, set()),
    "theta=pi/2": (lambda: make_bundle(Scalar.pi(1, Fraction(1, 2))).data, set()),
    "phi01+y^2/5": (lambda: tampered((Y * Y).scale(Fraction(1, 5))), BROKEN),
    "phi01+x/5": (lambda: tampered(X.scale(Fraction(1, 5))), BROKEN),
    "phi01+1/3": (constant_moved, set()),
}


@pytest.mark.parametrize("row", CHAIN_ROWS)
def test_symbolic_triple_law_matches_sampled_chain(row):
    make, broken = CHAIN_ROWS[row]
    # a datum whose triple sums stay constant is valid and builds
    bundle = LocalLineBundle(make()) if broken else LocalLineBundle.build(make())
    report = bundle.check_triple_associativity()
    failing = {v["triple"] for v in report.violations}
    for triple in bundle.cover.triples:
        (_, _, r, s), left, right = sampled_chain(bundle, triple)
        assert (left == right) == (triple not in failing), triple
        # the phase algebra: left - right = T(s) - T(r) for the triple sum T
        total = bundle.data.triple_sum(*triple)
        at = [total.evaluate(dict(zip(T2.names, point))).re for point in (r, s)]
        assert left.mag == right.mag and left.phase - right.phase == at[1] - at[0]
    assert failing == broken
    assert {f["triple"] for f in bundle.check_gluing_cocycle().failures} == broken
    assert report.passed == (not broken)
    assert (report.triples_checked, report.points_per_triple) == (36, 4)


def test_triple_law_defect_is_symbolic():
    report = LocalLineBundle(tampered((Y * Y).scale(Fraction(1, 5)))).check_triple_associativity()
    assert [v["triple"] for v in report.violations] == sorted(BROKEN)
    assert {v["phase_defect"] for v in report.violations} == {"(1/5)*y_4^2 + (-1/5)*y_3^2"}


def test_polar_arithmetic():
    i_unit = PolarC.unit(Scalar.pi(1, Fraction(1, 2)))
    assert i_unit * i_unit == PolarC.minus_one()
    assert PolarC.minus_one() * PolarC.minus_one() == PolarC.one()
    # phases compare mod 2*pi
    assert PolarC.unit(Scalar.pi(1, 2)) == PolarC.one()
    assert PolarC.unit(Scalar.pi()) != PolarC.one()
    assert PolarC(Fraction(2), Scalar.zero()).inverse() == PolarC(
        Fraction(1, 2), Scalar.zero()
    )
    with pytest.raises(ValueError):
        PolarC(Fraction(-1), Scalar.zero())


@pytest.mark.parametrize(
    "theta", [Scalar.zero(), Scalar.rational(Fraction(3, 7)), Scalar.pi(1, 2)]
)
def test_triple_associativity_passes(theta):
    bundle = make_bundle(theta)
    report = bundle.check_triple_associativity()
    assert report.passed, report.violations[:1]
    assert report.triples_checked == 36


def test_gluing_cocycle_symbolic():
    bundle = make_bundle(Scalar.rational(Fraction(3, 7)))
    result = bundle.check_gluing_cocycle()
    assert result.passed
    assert result.checked == 36


def test_tampered_transition_detected():
    theta = Scalar.rational(Fraction(3, 7))
    cover = GoodCover.grid(T2, 3)
    data = solve_cech(constant_two_form(T2, theta), cover)
    # break constancy of one triple sum with a quadratic term
    i, j, k = data.cover.triples[0]
    y = ChartFunction.variable(T2.space, "y")
    tampered = dict(data.transitions)
    tampered[(i, j)] = tampered[(i, j)] + (y * y).scale(Fraction(1, 5))
    from starbundle.cech import CechConnectionData

    bad = CechConnectionData(cover, data.omega, data.alphas, tampered, data.triple_constants)
    with pytest.raises(BundleError):
        LocalLineBundle.build(bad)
    # bypassing validation, the point checks still catch it
    bundle = LocalLineBundle(bad)
    assert not bundle.check_gluing_cocycle().passed
    report = bundle.check_triple_associativity()
    assert not report.passed
    assert any(v["triple"] == (i, j, k) for v in report.violations)


def test_diagonal_unit_transports_unchanged():
    # the gluing over (x, x) is e^{i(phi(x) - phi(x))} = 1 for every phi,
    # while a germ over (x, y) with y != x moves by the gluing phase
    bundle = make_bundle(Scalar.rational(Fraction(3, 7)))
    value = PolarC(Fraction(7, 2), Scalar.pi(1, Fraction(2, 7)))
    moved = 0
    for i, j in bundle.cover.pairs:
        x, y, _ = sample_points(bundle.cover.pair_rect(i, j), 3)
        for a, b in ((i, j), (j, i)):
            unit = GermElement(b, x, x, PolarC.one())
            assert bundle.transport(unit, a, anchor=i) == GermElement(a, x, x, PolarC.one())
            germ = GermElement(b, x, x, value)
            assert bundle.transport(germ, a, anchor=i).value == value
            moved += bundle.transport(GermElement(b, x, y, value), a, anchor=i).value != value
    assert moved > 0


def test_honest_cocycle_criterion():
    assert make_bundle(Scalar.pi(1, 2)).honest_cocycle_closes().passed
    assert make_bundle(Scalar.zero()).honest_cocycle_closes().passed
    assert not make_bundle(Scalar.rational(Fraction(3, 7))).honest_cocycle_closes().passed
    # non-integral pi-multiple: some triple fails
    assert not make_bundle(Scalar.pi(1, Fraction(2, 3))).honest_cocycle_closes().passed


def test_germ_composability_guard():
    bundle = make_bundle(Scalar.zero())
    rect = bundle.cover.pair_rect(0, 1)
    pts = sample_points(rect, 3)
    u = GermElement(0, pts[0], pts[1], PolarC.one())
    w = GermElement(1, pts[2], pts[0], PolarC.one())
    with pytest.raises(BundleError):
        bundle.compose(u, w, anchor=0)
