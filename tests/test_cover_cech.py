from fractions import Fraction
from math import gcd

import pytest

from starbundle.cech import CechConnectionData, CechError, constant_two_form, solve_cech
from starbundle.chartfn import ChartFunction
from starbundle.cover import GoodCover, Rect
from starbundle.forms import DifferentialForm
from starbundle.manifold import Torus
from starbundle.scalar import Scalar

T2 = Torus(2)


def test_grid_cover_shape():
    cover = GoodCover.grid(T2, 3)
    assert len(cover.charts) == 9
    # every pair of charts overlaps on the 3x3 torus grid
    assert cover.complete_pairwise()
    assert len(cover.pairs) == 36
    # triples need at most two distinct positions per axis: 84 - 27 - 27 + 6
    assert len(cover.triples) == 36


def test_pair_lift_uniqueness_and_rects():
    cover = GoodCover.grid(T2, 3)
    for i, j in cover.pairs:
        lift = cover.pair_lift(i, j)
        assert cover.pair_lift(j, i) == tuple(-s for s in lift)
        rect = cover.pair_rect(i, j)
        assert all(w > 0 for w in rect.halfwidth)
    for i, j, k in cover.triples:
        rect = cover.triple_rect(i, j, k)
        assert rect is not None


def test_frame_shift_is_minus_the_pair_lift():
    cover = GoodCover.grid(T2, 4)
    for i, j in cover.pairs + tuple((j, i) for i, j in cover.pairs) + ((5, 5),):
        shift = cover.frame_shift(i, j)
        assert dict(shift) == {n: Fraction(-s) for n, s in zip(T2.names, cover.pair_lift(i, j))}
        assert shift is cover.frame_shift(i, j)
        with pytest.raises(TypeError):
            shift["x"] = Fraction(1)  # shared between calls, so read-only
    apart = next((i, j) for i in range(16) for j in range(i + 1, 16) if (i, j) not in cover.pairs)
    with pytest.raises(KeyError):
        cover.frame_shift(*apart)


def test_grid_validation_errors():
    with pytest.raises(ValueError):
        GoodCover.grid(T2, 2)
    with pytest.raises(ValueError):
        GoodCover.grid(T2, 3, halfwidth=Fraction(1, 7))  # gap: 1/7 < 1/6
    with pytest.raises(ValueError):
        GoodCover.grid(T2, 3, halfwidth=Fraction(1, 2))


def test_larger_grid_not_complete():
    cover = GoodCover.grid(T2, 4)
    assert not cover.complete_pairwise()
    assert len(cover.charts) == 16


@pytest.mark.parametrize(
    "theta",
    [Scalar.zero(), Scalar.rational(Fraction(3, 7)), Scalar.pi(1, 2)],
)
def test_solve_cech_verifies(theta):
    cover = GoodCover.grid(T2, 3)
    data = solve_cech(constant_two_form(T2, theta), cover)
    report = data.verify()
    assert report.passed, report.failures
    assert data.theta() == theta


def test_theta_zero_gives_trivial_data():
    cover = GoodCover.grid(T2, 3)
    data = solve_cech(constant_two_form(T2, 0), cover)
    assert all(a.is_zero() for a in data.alphas.values())
    assert all(phi.is_zero() for phi in data.transitions.values())
    assert all(c.is_zero() for c in data.triple_constants.values())


def test_triple_constants_are_theta_times_lattice_areas():
    cover = GoodCover.grid(T2, 3)
    theta = Scalar.rational(Fraction(3, 7))
    data = solve_cech(constant_two_form(T2, theta), cover)
    multipliers = []
    for const in data.triple_constants.values():
        ratio = const / theta
        assert ratio.is_integer()
        multipliers.append(int(ratio.as_fraction()))
    assert any(m != 0 for m in multipliers)
    # a unit-area witness exists, so the 2*pi*Z criterion is sharp
    assert gcd(*(abs(m) for m in multipliers if m != 0)) == 1


def test_integral_theta_constants_in_two_pi_z():
    cover = GoodCover.grid(T2, 3)
    data = solve_cech(constant_two_form(T2, Scalar.pi(1, 2)), cover)
    assert all(c.is_two_pi_integer() for c in data.triple_constants.values())
    # sharpness: theta = 2*pi/3 must fail on some triple
    frac = solve_cech(constant_two_form(T2, Scalar.pi(1, Fraction(2, 3))), cover)
    assert not all(c.is_two_pi_integer() for c in frac.triple_constants.values())


def test_solve_cech_rejects_nonconstant_family():
    cover = GoodCover.grid(T2, 3)
    wobble = ChartFunction.cosine(T2.space, "x")
    omega = DifferentialForm(T2, {(0, 1): wobble})
    with pytest.raises(CechError):
        solve_cech(omega, cover)


def test_solve_cech_rejects_wrong_degree_or_manifold():
    cover = GoodCover.grid(T2, 3)
    with pytest.raises(CechError):
        solve_cech(DifferentialForm.basis(T2, "dx"), cover)
    with pytest.raises(CechError):
        solve_cech(constant_two_form(Torus(2, ("u", "v")), 1), cover)


def test_cech_data_is_immutable():
    data = solve_cech(constant_two_form(T2, Scalar.pi(1, 2)), GoodCover.grid(T2, 3))
    report = data.verify()
    assert report.passed and data.verify() is report
    i, j = next(iter(data.transitions))
    with pytest.raises(AttributeError):
        data.transitions = {}
    with pytest.raises(AttributeError):
        data.cover = None
    with pytest.raises(AttributeError):
        del data.omega
    with pytest.raises(TypeError):
        data.transitions[(i, j)] = data.transitions[(j, i)]
    with pytest.raises(TypeError):
        data.alphas[0] = data.alphas[1]
    with pytest.raises(TypeError):
        data.triple_constants[data.cover.triples[0]] = Scalar.zero()


def test_overlap_failures_name_the_broken_chart():
    data = solve_cech(constant_two_form(T2, Scalar.pi(1, 2)), GoodCover.grid(T2, 3))
    assert data.overlap_failures(data.alphas) == []
    # alpha_0 + dy still has curl omega, but breaks alpha_i - alpha_j = d phi_ij
    alphas = dict(data.alphas)
    alphas[0] = alphas[0] + DifferentialForm.basis(T2, "dy")
    broken = {pair for pair in data.transitions if 0 in pair}
    assert set(data.overlap_failures(alphas)) == broken
    report = CechConnectionData(
        data.cover, data.omega, alphas, data.transitions, data.triple_constants
    ).verify()
    assert {w["identity"] for w in report.failures} == {"overlap"}
    assert {w["pair"] for w in report.failures} == broken and len(report.failures) == len(broken)
