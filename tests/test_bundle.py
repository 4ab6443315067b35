from fractions import Fraction

import pytest

from starbundle.bundle import BundleError, GermElement, LocalLineBundle, PolarC, build_local_line_bundle
from starbundle.cech import constant_two_form, solve_cech
from starbundle.chartfn import ChartFunction
from starbundle.cover import GoodCover
from starbundle.manifold import Torus
from starbundle.scalar import Scalar

T2 = Torus(2)


def make_bundle(theta):
    cover = GoodCover.grid(T2, 3)
    return build_local_line_bundle(solve_cech(constant_two_form(T2, theta), cover))


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
        x, y, _ = bundle._sample_points(bundle.cover.pair_rect(i, j), 3)
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
    pts = bundle._sample_points(rect, 3)
    u = GermElement(0, pts[0], pts[1], PolarC.one())
    w = GermElement(1, pts[2], pts[0], PolarC.one())
    with pytest.raises(BundleError):
        bundle.compose(u, w, anchor=0)
