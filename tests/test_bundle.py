"""Local line bundles: the symbolic bundle laws against a point-level oracle.

The oracle represents fiber elements in polar form r * e^{i*gamma} with
rational magnitude and Scalar phase, so unitarity and phase cancellations
are exact.  A germ is a fiber element over a pair of nearby points in one
chart's trivialization; ``transport`` carries it to another chart by the
gluing unitary, and ``compose`` multiplies two composable germs in a common
trivialization.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import pytest

from starbundle.bundle import BundleError, LocalLineBundle, build_local_line_bundle
from starbundle.cech import CechConnectionData, constant_two_form, solve_cech
from starbundle.chartfn import ChartFunction
from starbundle.cover import GoodCover
from starbundle.manifold import Torus
from starbundle.scalar import Scalar


@dataclass(frozen=True)
class PolarC:
    """Exact complex number r * e^{i*gamma}; r rational >= 0, gamma a Scalar."""

    mag: Fraction
    phase: Scalar

    def __post_init__(self):
        if self.mag < 0:
            raise ValueError("polar magnitude must be nonnegative")

    @staticmethod
    def one() -> "PolarC":
        return PolarC(Fraction(1), Scalar.zero())

    @staticmethod
    def unit(phase: Scalar) -> "PolarC":
        return PolarC(Fraction(1), phase)

    @staticmethod
    def minus_one() -> "PolarC":
        return PolarC(Fraction(1), Scalar.pi())

    def __mul__(self, other: "PolarC") -> "PolarC":
        return PolarC(self.mag * other.mag, self.phase + other.phase)

    def inverse(self) -> "PolarC":
        if self.mag == 0:
            raise ZeroDivisionError("zero fiber element")
        return PolarC(1 / self.mag, -self.phase)

    def __eq__(self, other: object) -> bool:
        """Equality as complex numbers: phases compared mod 2*pi."""
        if not isinstance(other, PolarC):
            return NotImplemented
        if self.mag != other.mag:
            return False
        if self.mag == 0:
            return True
        return (self.phase - other.phase).is_two_pi_integer()

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(self.mag)

    def __str__(self) -> str:
        return f"{self.mag}*e^(i*({self.phase}))"


@dataclass(frozen=True)
class GermElement:
    """A fiber element over a pair of nearby points, in a chart trivialization."""

    chart: int
    point_left: tuple[Fraction, ...]
    point_right: tuple[Fraction, ...]
    value: PolarC


def phase_at(bundle, i: int, j: int, anchor: int, point: Sequence[Fraction]) -> Scalar:
    """phi_ij evaluated at a point given in the anchor chart's frame."""
    # phi read in the anchor frame is phi.shift(d) with d = frame_shift(anchor, i),
    # and phi.shift(d)(x) = phi(x + d): move the point, not phi
    shift = bundle.cover.frame_shift(anchor, i)
    value = bundle.data.transition(i, j).evaluate(
        {n: p + shift[n] for n, p in zip(bundle.torus.names, point)}
    )
    assert value.is_real(), "transition phase must be real"
    return value.re


def gluing_value(bundle, i: int, j: int, anchor: int, x, y) -> PolarC:
    """The unitary e^{i phi_ij(x)} * e^{-i phi_ij(y)} mapping the chart-j
    trivialization of the fiber over (x, y) to the chart-i one."""
    return PolarC.unit(phase_at(bundle, i, j, anchor, x) - phase_at(bundle, i, j, anchor, y))


def transport(bundle, germ: GermElement, to_chart: int, anchor: int) -> GermElement:
    if germ.chart == to_chart:
        return germ
    g = gluing_value(bundle, to_chart, germ.chart, anchor, germ.point_left, germ.point_right)
    return GermElement(to_chart, germ.point_left, germ.point_right, g * germ.value)


def compose(bundle, u: GermElement, v: GermElement, anchor: int, chart: int | None = None) -> GermElement:
    """H(u (x) v): multiply in a common trivialization.

    The germs must be composable: u over (x, y), v over (y, z)."""
    if u.point_right != v.point_left:
        raise BundleError("germs are not composable")
    chart = u.chart if chart is None else chart
    uu = transport(bundle, u, chart, anchor)
    vv = transport(bundle, v, chart, anchor)
    return GermElement(chart, u.point_left, v.point_right, uu.value * vv.value)


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
    left = compose(bundle, compose(bundle, u, v, anchor=i, chart=i), w, anchor=i, chart=i)
    right = compose(bundle, u, compose(bundle, v, w, anchor=i, chart=j), anchor=i, chart=i)
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
    bundle = LocalLineBundle(make()) if broken else build_local_line_bundle(make())
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


def test_verify_names_every_triple_the_gluing_cocycle_names():
    """build relies on verify for the cocycle law: on tampered data, each
    triple whose sum check_gluing_cocycle finds nonconstant is also a
    "triple" failure of verify."""
    data = solve_cech(constant_two_form(T2, Scalar.rational(Fraction(3, 7))), COVER)
    terms = (X, Y, X * Y, Y * Y, ChartFunction.cosine(T2.space, "x"), ChartFunction.one(T2.space))
    rng = random.Random(0)
    named = 0
    for _ in range(20):
        transitions = dict(data.transitions)
        for _ in range(rng.randint(1, 3)):
            i, j = rng.choice(COVER.pairs)[:: rng.choice((1, -1))]
            scale = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 5))
            transitions[(i, j)] = transitions[(i, j)] + rng.choice(terms).scale(scale)
            if rng.random() < 0.5:  # keep antisymmetry, so only the triple law can fail
                transitions[(j, i)] = (-transitions[(i, j)]).shift(COVER.frame_shift(j, i))
        bad = CechConnectionData(COVER, data.omega, data.alphas, transitions, data.triple_constants)
        cocycle = {f["triple"] for f in LocalLineBundle(bad).check_gluing_cocycle().failures}
        failing = {f["triple"] for f in bad.verify().failures if f["identity"] == "triple"}
        assert cocycle <= failing
        named += len(cocycle)
    assert named > 0


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
        build_local_line_bundle(bad)
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
            assert transport(bundle, unit, a, anchor=i) == GermElement(a, x, x, PolarC.one())
            germ = GermElement(b, x, x, value)
            assert transport(bundle, germ, a, anchor=i).value == value
            moved += transport(bundle, GermElement(b, x, y, value), a, anchor=i).value != value
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
        compose(bundle, u, w, anchor=0)
