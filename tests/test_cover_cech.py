import random
import re
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd

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
    lifts, rects, triples = reference_nerve(cover)
    for i, j in cover.pairs:
        lift = cover.pair_lift(i, j)
        assert cover.pair_lift(j, i) == tuple(-s for s in lift)
        assert cover.pair_rect(i, j) == rects[(i, j)] and cover.pair_rect(j, i) == rects[(j, i)]
    for i in range(len(cover.charts)):
        assert cover.pair_lift(i, i) == (0, 0) and cover.pair_rect(i, i) == cover.charts[i]
    for key, rect in triples.items():
        assert cover.triple_rect(*key) == rect


def test_frame_shift_is_minus_the_pair_lift():
    cover = GoodCover.grid(T2, 4)
    for i, j in cover.pairs + tuple((j, i) for i, j in cover.pairs) + ((5, 5),):
        shift = cover.frame_shift(i, j)
        assert dict(shift) == {n: -s for n, s in zip(T2.names, cover.pair_lift(i, j))}
        assert all(type(s) is int for s in shift.values())
        assert shift is cover.frame_shift(i, j)
        with pytest.raises(TypeError):
            shift["x"] = Fraction(1)  # shared between calls, so read-only
    apart = next((i, j) for i in range(16) for j in range(i + 1, 16) if (i, j) not in cover.pairs)
    with pytest.raises(KeyError):
        cover.frame_shift(*apart)


@pytest.mark.parametrize(
    "torus, n", [(T2, n) for n in range(3, 7)] + [(Torus(3), 3)], ids=["3", "4", "5", "6", "T3-3"]
)
def test_frame_shifts_are_opposite_integer_vectors(torus, n):
    """The invariant the pair-once rule of ``verify`` rests on: shifts by
    frame_shift(i, j) and frame_shift(j, i) compose exactly to the identity."""
    cover = GoodCover.grid(torus, n)
    for i, j in cover.pairs:
        there, back = cover.frame_shift(i, j), cover.frame_shift(j, i)
        assert back == {name: -d for name, d in there.items()}
        assert all(type(d) is int for d in (*there.values(), *back.values()))


def _box_rect(parts_per_axis):
    """The intersection of the (lo, hi) parts on every axis, as a Rect, or
    None when it is empty on some axis."""
    box = [(max(lo for lo, _ in parts), min(hi for _, hi in parts)) for parts in parts_per_axis]
    if any(lo >= hi for lo, hi in box):
        return None
    return Rect(tuple((lo + hi) / 2 for lo, hi in box), tuple((hi - lo) / 2 for lo, hi in box))


def reference_nerve(cover):
    """Pair lifts, pair rectangles and triple rectangles from plain Fraction
    geometry: the integers s with (lo1, hi1) meeting (lo2 + s, hi2 + s) on
    every axis, and the pair and triple intersections in the first chart's
    frame, for both orders of each pair."""
    charts, dim = cover.charts, cover.torus.dim
    lifts = {}
    for i, j in combinations(range(len(charts)), 2):
        per_axis = []
        for ax in range(dim):
            (lo1, hi1), (lo2, hi2) = charts[i].bounds(ax), charts[j].bounds(ax)
            per_axis.append(
                [s for s in range(floor(lo1 - hi2), ceil(hi1 - lo2) + 1) if lo1 < hi2 + s and lo2 + s < hi1]
            )
        assert all(len(ns) <= 1 for ns in per_axis)
        if all(per_axis):
            lifts[(i, j)] = tuple(ns[0] for ns in per_axis)

    def moved(m, lift, ax):
        return tuple(b + lift[ax] for b in charts[m].bounds(ax))

    rects = {}
    for (i, j), lift in lifts.items():
        back = tuple(-s for s in lift)
        rects[(i, j)] = _box_rect([[charts[i].bounds(ax), moved(j, lift, ax)] for ax in range(dim)])
        rects[(j, i)] = _box_rect([[charts[j].bounds(ax), moved(i, back, ax)] for ax in range(dim)])
    triples = {}
    for i, j, k in combinations(range(len(charts)), 3):
        if not {(i, j), (i, k), (j, k)} <= set(lifts):
            continue
        rect = _box_rect(
            [[charts[i].bounds(ax)] + [moved(m, lifts[(i, m)], ax) for m in (j, k)] for ax in range(dim)]
        )
        if rect is not None:
            triples[(i, j, k)] = rect
    return lifts, rects, triples


def _mixed_cover():
    """A 3x3 product of unequal charts with mixed denominators, plus one
    chart whose centre lies outside [0, 1)."""
    xs = [(Fraction(0), Fraction(5, 24)), (Fraction(2, 7), Fraction(1, 8)), (Fraction(3, 5), Fraction(9, 40))]
    ys = [(Fraction(1, 6), Fraction(3, 14)), (Fraction(1, 2), Fraction(1, 5)), (Fraction(5, 6), Fraction(2, 9))]
    charts = [Rect((cx, cy), (wx, wy)) for cx, wx in xs for cy, wy in ys]
    charts.append(Rect((Fraction(-10, 11), Fraction(20, 13)), (Fraction(1, 9), Fraction(1, 10))))
    return GoodCover(T2, charts)


@pytest.mark.parametrize(
    "make",
    [lambda n=n: GoodCover.grid(T2, n) for n in range(3, 7)]
    + [
        lambda: GoodCover.grid(T2, 3, Fraction(2, 9)),
        lambda: GoodCover.grid(T2, 3, Fraction(1, 3)),  # some triples touch at a point
        lambda: GoodCover.grid(T2, 3, Fraction(7, 30)),
        lambda: GoodCover.grid(T2, 4, Fraction(3, 16)),
        lambda: GoodCover.grid(T2, 5, Fraction(3, 20)),
        lambda: GoodCover.grid(T2, 6, Fraction(1, 9)),
        _mixed_cover,
    ],
    ids=[f"grid{n}" for n in range(3, 7)]
    + ["grid3-2/9", "grid3-1/3", "grid3-7/30", "grid4-3/16", "grid5-3/20", "grid6-1/9", "mixed"],
)
def test_nerve_matches_fraction_reference(make):
    cover = make()
    lifts, rects, triples = reference_nerve(cover)
    assert cover.pairs == tuple(lifts)
    for (i, j), lift in lifts.items():
        assert cover.pair_lift(i, j) == lift
    for key, rect in rects.items():
        assert rect is not None and cover.pair_rect(*key) == rect
    assert triples and cover.triples == tuple(triples)
    for (i, j, k), rect in triples.items():
        assert cover.triple_rect(i, j, k) == rect
        # pair lift uniqueness forces the triple's lifts to agree
        assert tuple(b - a for a, b in zip(lifts[(i, j)], lifts[(i, k)])) == lifts[(j, k)]


def test_disconnected_overlap_rejected():
    # 4 * 5/12 > 1: two lifts of a neighbouring chart meet it
    with pytest.raises(ValueError, match="disconnected on axis"):
        GoodCover.grid(T2, 3, Fraction(5, 12))
    # charts 0 and 1 miss each other on axis 0, yet axis 1 is still checked
    w = (Fraction(1, 8), Fraction(5, 12))
    charts = [
        Rect((Fraction(0), Fraction(0)), w),
        Rect((Fraction(1, 2), Fraction(1, 3)), w),
        Rect((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 6), Fraction(1, 5))),
        Rect((Fraction(3, 4), Fraction(1, 2)), (Fraction(1, 6), Fraction(1, 5))),
    ]
    with pytest.raises(ValueError, match="charts 0,1 is disconnected on axis 1"):
        GoodCover(T2, charts)


def _on_axis(rect, ax, x):
    """Whether the open interval of ``rect`` on axis ``ax``, read mod 1,
    holds x, by Fraction bounds."""
    return 0 < (x - rect.bounds(ax)[0]) % 1 < 2 * rect.halfwidth[ax]


def _holds(charts, point):
    return any(all(_on_axis(r, ax, x) for ax, x in enumerate(point)) for r in charts)


# (id, charts, the point the error names, a point known to lie in no chart)
NON_COVERS = [
    (
        "grid3-without-centre",
        lambda: [c for i, c in enumerate(GoodCover.grid(T2, 3).charts) if i != 4],
        "(5/24, 5/24)",
        (Fraction(1, 3), Fraction(1, 3)),
    ),
    (
        "diagonal",
        lambda: [Rect((Fraction(k, 3),) * 2, (Fraction(1, 5),) * 2) for k in range(3)],
        "(2/15, 1/5)",
        (Fraction(0), Fraction(1, 2)),
    ),
    ("empty", lambda: [], "(0, 0)", (Fraction(0), Fraction(0))),
]


@pytest.mark.parametrize(
    "charts, named, known", [c[1:] for c in NON_COVERS], ids=[c[0] for c in NON_COVERS]
)
def test_non_cover_names_an_uncovered_point(charts, named, known):
    charts = charts()
    with pytest.raises(ValueError, match=re.escape(f"do not cover the torus: {named} lies in no chart")):
        GoodCover(T2, charts)
    for point in (tuple(Fraction(q) for q in named[1:-1].split(", ")), known):
        assert not _holds(charts, point)


@pytest.mark.parametrize("seed", range(6))
def test_coverage_matches_every_half_lattice_point(seed):
    """Jittered 3-grids, some with charts dropped: GoodCover accepts exactly
    when every point k/(2 den) of the torus lies in a chart, and otherwise
    names such a point.  Every face of the arrangement of chart edges, which
    sit at multiples of 1/den, holds one of these points."""
    rng = random.Random(seed)
    charts = [
        Rect(
            tuple(Fraction(c, 3) + Fraction(rng.randint(-1, 1), 48) for c in (a, b)),
            tuple(Fraction(rng.randint(9, 11), 48) for _ in "xy"),
        )
        for a in range(3)
        for b in range(3)
        if rng.random() > 0.05
    ]
    grid = [Fraction(u, 96) for u in range(96)]  # den = 48 divides every bound
    xs, ys = ([{i for i, r in enumerate(charts) if _on_axis(r, ax, q)} for q in grid] for ax in (0, 1))
    gaps = [(grid[u], grid[v]) for u in range(96) for v in range(96) if not xs[u] & ys[v]]
    if not gaps:
        GoodCover(T2, charts)
        return
    with pytest.raises(ValueError, match="do not cover the torus") as err:
        GoodCover(T2, charts)
    named = str(err.value).split("(")[1].split(")")[0]
    assert tuple(Fraction(q) for q in named.split(", ")) in gaps


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


def function_algebra_datum(theta, cover):
    """Reference: the descent datum built through ChartFunction algebra,
    phi_ji as (-phi_ij) moved by frame_shift(j, i) and each triple
    constant read off the sum of the three moved transitions."""
    space = T2.space
    x, y = (ChartFunction.variable(space, name) for name in T2.names)
    alphas = {
        i: DifferentialForm(
            T2, {(1,): (x - ChartFunction.constant(space, rect.center[0])).scale(theta)}
        )
        for i, rect in enumerate(cover.charts)
    }
    transitions = {}
    for i, j in cover.pairs:
        n = cover.pair_lift(i, j)
        a_i, a_j = cover.charts[i].center[0], cover.charts[j].center[0]
        const = ChartFunction.constant(space, -(a_j + n[0]) * n[1])
        phi = (y.scale(a_j + n[0] - a_i) + const).scale(theta)
        transitions[(i, j)] = phi
        transitions[(j, i)] = (-phi).shift(cover.frame_shift(j, i))
    constants = {}
    for i, j, k in cover.triples:
        total = ChartFunction.zero(space)
        for a, b in ((i, j), (j, k), (k, i)):
            total = total + transitions[(a, b)].shift(cover.frame_shift(i, a))
        constants[(i, j, k)] = total.constant_value().re
    return alphas, transitions, constants


@pytest.mark.parametrize(
    "n, halfwidth", [(3, None), (4, None), (5, None), (6, None), (3, Fraction(9, 40))],
    ids=["3", "4", "5", "6", "3-9/40"],
)
@pytest.mark.parametrize(
    "theta",
    [
        Scalar.pi(1, 2), Scalar.pi(1, -4), Scalar.pi(1, Fraction(1, 3)),
        Scalar.rational(Fraction(5, 7)), Scalar.zero(), Scalar({-1: 3, 1: 2}),
    ],
    ids=["2pi", "-4pi", "pi/3", "5/7", "0", "3/pi+2pi"],
)
def test_solve_cech_matches_function_algebra(theta, n, halfwidth):
    cover = GoodCover.grid(T2, n, halfwidth)
    data = solve_cech(constant_two_form(T2, theta), cover)
    alphas, transitions, constants = function_algebra_datum(theta, cover)
    for built, expected in (
        (data.alphas, alphas), (data.transitions, transitions), (data.triple_constants, constants)
    ):
        assert dict(built) == expected
        assert list(built) == list(expected)
        assert all(hash(built[key]) == hash(value) for key, value in expected.items())
    assert all(type(c) is Scalar for c in data.triple_constants.values())
    assert CechConnectionData(cover, data.omega, alphas, transitions, constants).verify().passed


def form_level_overlap_failures(data, forms):
    """Reference: the overlap identity decided on whole forms, d phi_ij
    taken through ``exterior_d``."""
    return [
        (i, j)
        for i, j in data.transitions
        if forms[i] - forms[j].shift(data.cover.frame_shift(i, j))
        != DifferentialForm.from_function(T2, data.transition(i, j)).exterior_d()
    ]


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
    # covector indices that differ between charts match the form-level check
    dx = DifferentialForm.basis(T2, "dx")
    x_dx = dx.multiply_function(ChartFunction.variable(T2.space, "x"))
    cases = {
        # dx on chart 0 only: for (0, j) it is on chart i only, for (j, 0) on chart j only
        "dx-on-chart-0": {0: data.alphas[0] + dx},
        "dx-on-chart-4": {4: data.alphas[4] + dx.scale(3)},
        # the same global dx everywhere cancels across every overlap
        "dx-everywhere": {i: a + dx for i, a in data.alphas.items()},
        # x dx everywhere breaks exactly the overlaps whose frames differ in x
        "x-dx-everywhere": {i: a + x_dx for i, a in data.alphas.items()},
    }
    seen = {}
    for name, changed in cases.items():
        forms = {**data.alphas, **changed}
        seen[name] = data.overlap_failures(forms)
        assert seen[name] == form_level_overlap_failures(data, forms), name
    assert set(seen["dx-on-chart-0"]) == {p for p in data.transitions if 0 in p}
    assert set(seen["dx-on-chart-4"]) == {p for p in data.transitions if 4 in p}
    assert seen["dx-everywhere"] == []
    moved_in_x = [p for p in data.transitions if data.cover.frame_shift(*p).get("x", 0) != 0]
    assert seen["x-dx-everywhere"] == moved_in_x != []
