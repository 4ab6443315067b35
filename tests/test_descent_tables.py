"""The triple sums of a Cech datum are built once each, equal a fresh
computation, and die with the datum; a passing datum builds none in full,
its triples being decided by telescoping; the overlap law builds no form
from a transition; the triple law reads the sums and evaluates no point."""

import gc
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from starbundle import cech, chartfn
from starbundle.bundle import LocalLineBundle, build_local_line_bundle
from starbundle.chartfn import ChartFunction
from starbundle.cech import CechConnectionData, constant_two_form, solve_cech
from starbundle.cover import GoodCover
from starbundle.forms import DifferentialForm
from starbundle.gluing import (
    PartitionOfUnity,
    chern_class,
    glue_multiplicative_connection,
    left_curvature,
)
from starbundle.index import EllipticSymbolClass, twisted_index
from starbundle.manifold import Torus
from starbundle.scalar import Scalar

T2 = Torus(2)


def pipeline_op(theta):
    """One t2 pipeline run, stage by stage; returns the datum."""
    cover = GoodCover.grid(T2, 3)
    omega = constant_two_form(T2, theta)
    data = solve_cech(omega, cover)
    bundle = build_local_line_bundle(data)
    assert bundle.check_triple_associativity().passed
    connection = glue_multiplicative_connection(bundle, PartitionOfUnity.for_grid(cover))
    assert left_curvature(connection) == omega
    chern_class(bundle, connection)
    twisted_index(EllipticSymbolClass.on_torus2(T2, 1, 2), omega, T2)
    return data


@pytest.mark.parametrize("theta", [Scalar.pi(1, Fraction(1, 3)), Scalar.rational(Fraction(3, 7))])
def test_tables_equal_fresh_computation(theta):
    data = pipeline_op(theta)
    for triple in data.cover.triples:
        assert data.triple_sum(*triple) == cech._triple_sum(data.cover, data.transitions, *triple)


def _count_triple_sums(monkeypatch) -> Counter:
    sums = Counter()
    real_sum = cech._triple_sum

    def counted_sum(cover, transitions, i, j, k):
        sums[(i, j, k)] += 1
        return real_sum(cover, transitions, i, j, k)

    monkeypatch.setattr(cech, "_triple_sum", counted_sum)
    return sums


def test_one_op_builds_each_quantity_once(monkeypatch):
    """A passing op decides every triple by telescoping and builds no triple
    sum in full; the table still holds one (constant) sum per triple.  The
    identities stream their translated terms, so no ChartFunction.shift runs
    (the parent's solve and verify made 144)."""
    sums = _count_triple_sums(monkeypatch)
    arguments, shifted = [], []
    real_from_function, real_shift = DifferentialForm.from_function, ChartFunction.shift

    def counted_from_function(manifold, f):
        arguments.append(f)
        return real_from_function(manifold, f)

    def counted_shift(f, delta):
        shifted.append(f)
        return real_shift(f, delta)

    monkeypatch.setattr(DifferentialForm, "from_function", staticmethod(counted_from_function))
    monkeypatch.setattr(ChartFunction, "shift", counted_shift)
    data = pipeline_op(Scalar.pi(1, Fraction(2, 5)))
    assert sums == Counter() and shifted == []
    assert data._sums.keys() == set(data.cover.triples)
    assert all(total.is_constant() for total in data._sums.values())
    # the overlap law reads partial derivatives of each phi_ij, not a form
    for key, phi in data.transitions.items():
        assert not any(f is phi for f in arguments), key


def test_tampered_pair_builds_the_sums_that_touch_it(monkeypatch):
    """phi_01 + y fails the overlap law on (0, 1) alone: each triple through
    that pair is built in full once, and no other triple is."""
    sums = _count_triple_sums(monkeypatch)
    data = _edited(transitions=_phi01_plus_y)
    assert not data.verify().passed
    touching = [t for t in data.cover.triples if {0, 1} <= set(t)]
    assert touching and sums == Counter({t: 1 for t in touching})


THETAS = [
    Scalar.pi(1, 2), Scalar.pi(1, -2), Scalar.pi(1, Fraction(1, 3)),
    Scalar.rational(Fraction(3, 7)), Scalar.zero(), Scalar({1: Fraction(5, 7), 0: Fraction(-1, 2)}),
    Scalar.pi(-1, Fraction(4, 3)),
]


@pytest.mark.parametrize(
    "n, halfwidth", [(n, w) for n in range(3, 7) for w in (None, Fraction(9, 40))]
)
def test_telescoped_triple_equals_full_sum(n, halfwidth):
    """Every sum ``verify`` keeps as the constant T(0) equals the triple sum
    built in full, coefficient by coefficient and by hash."""
    cover = GoodCover.grid(T2, n, halfwidth)
    for theta in THETAS:
        data = solve_cech(constant_two_form(T2, theta), cover)
        assert data._sums.keys() == set(cover.triples)
        for triple, kept in data._sums.items():
            full = cech._triple_sum(cover, data.transitions, *triple)
            assert kept == full and hash(kept) == hash(full)
            assert {k: (c._den, c._num) for k, c in kept._terms.items()} == {
                k: (c._den, c._num) for k, c in full._terms.items()
            }


def test_triple_law_evaluates_no_point(monkeypatch):
    inside = []
    calls = Counter()
    real_check = LocalLineBundle.check_triple_associativity
    real_evaluate = ChartFunction.evaluate

    def staged_check(bundle):
        inside.append(True)
        try:
            return real_check(bundle)
        finally:
            inside.pop()

    def counted_evaluate(f, point):
        calls["triple" if inside else "other"] += 1
        return real_evaluate(f, point)

    monkeypatch.setattr(LocalLineBundle, "check_triple_associativity", staged_check)
    monkeypatch.setattr(ChartFunction, "evaluate", counted_evaluate)
    pipeline_op(Scalar.pi(1, Fraction(2, 5)))
    assert calls["triple"] == 0


@pytest.mark.parametrize("moved", [0, 3], ids=["default", "varied"])
def test_glue_shifts_only_the_moved_connections(monkeypatch, moved):
    """With the default initial the glue transports nothing; a chart whose
    initial connection is not alpha_j costs one shift per other chart."""
    cover = GoodCover.grid(T2, 3)
    bundle = build_local_line_bundle(solve_cech(constant_two_form(T2, Scalar.pi(1, 2)), cover))
    partition = PartitionOfUnity.for_grid(cover)
    initial = dict(bundle.data.alphas)
    for j in range(moved):
        initial[j] = initial[j] + DifferentialForm.basis(T2, "dx").scale(j + 1)
    shifted = []
    real_shift = DifferentialForm.shift

    def counted_shift(form, delta):
        shifted.append(form)
        return real_shift(form, delta)

    monkeypatch.setattr(DifferentialForm, "shift", counted_shift)
    glue_multiplicative_connection(bundle, partition, initial=initial if moved else None)
    assert len(shifted) == moved * (len(cover.charts) - 1)


def test_tables_die_with_the_datum():
    data = pipeline_op(Scalar.pi(1, Fraction(5, 3)))
    assert len(data._sums) == len(data.cover.triples)
    # only the datum holds its table: nothing at module level keeps it
    assert gc.get_referrers(data._sums) == [data]
    ref = weakref.ref(data)
    del data
    gc.collect()
    assert ref() is None



def directed_reference_failures(data):
    """Reference: the witnesses of ``verify`` with every directed overlap
    and antisymmetry decided on its own, on whole forms, with phi_ji
    compared against (-phi_ij) moved by frame_shift(j, i)."""
    cover, transitions, alphas = data.cover, data.transitions, data.alphas
    charts = range(len(cover.charts))
    failures = [
        {"identity": "primitive", "chart": i, "missing": True} for i in charts if i not in alphas
    ]
    nerve_pairs = [p for i, j in cover.pairs for p in ((i, j), (j, i))]
    failures += [
        {"identity": "transition", "pair": p, "missing": True}
        for p in nerve_pairs
        if p not in transitions
    ]
    failures += [
        {"identity": "curl", "chart": i} for i, a in alphas.items() if a.exterior_d() != data.omega
    ]
    failures += [
        {"identity": "overlap", "pair": (i, j)}
        for (i, j), phi in transitions.items()
        if i not in alphas or j not in alphas
        or alphas[i] - alphas[j].shift(cover.frame_shift(i, j))
        != DifferentialForm.from_function(T2, phi).exterior_d()
    ]
    for (i, j), phi in transitions.items():
        reverse = transitions.get((j, i))
        if reverse is None or reverse != (-phi).shift(cover.frame_shift(j, i)):
            missing = reverse is None
            failures.append({"identity": "antisymmetry", "pair": (i, j), "missing": missing})
    for i, j, k in cover.triples:
        if {(i, j), (j, k), (k, i)} <= transitions.keys():
            total = ChartFunction.zero(T2.space)
            for a, b in ((i, j), (j, k), (k, i)):
                total = total + transitions[(a, b)].shift(cover.frame_shift(i, a))
            const = data.triple_constants[(i, j, k)]
            if total != ChartFunction.constant(T2.space, const):
                found = {"sum": str(total), "stored": str(const)}
                failures.append({"identity": "triple", "triple": (i, j, k), **found})
    return failures


def _edited(alphas=None, transitions=None):
    """The solved theta = 3/7 datum on the 3-grid with ``alphas`` and
    ``transitions`` edited in place by the given functions."""
    data = solve_cech(constant_two_form(T2, Scalar.rational(Fraction(3, 7))), GoodCover.grid(T2, 3))
    forms, phis = dict(data.alphas), dict(data.transitions)
    if alphas:
        alphas(forms)
    if transitions:
        transitions(phis, data.cover)
    return CechConnectionData(data.cover, data.omega, forms, phis, data.triple_constants)


Y = ChartFunction.variable(T2.space, "y")


def _alpha0_dy(forms):
    forms[0] = forms[0] + DifferentialForm.basis(T2, "dy")


def _phi01_plus_one(phis, cover):
    phis[(0, 1)] = phis[(0, 1)] + 1


def _phi01_plus_y_antisymmetric(phis, cover):
    phis[(0, 1)] = phis[(0, 1)] + Y
    phis[(1, 0)] = (-phis[(0, 1)]).shift(cover.frame_shift(1, 0))


def _plus_y(pair):
    def edit(phis, cover):
        phis[pair] = phis[pair] + Y

    return edit


_phi01_plus_y = _plus_y((0, 1))


def _phi01_plus_minus_constant(phis, cover):
    phis[(0, 1)] = phis[(0, 1)] + Fraction(2, 9)
    phis[(1, 0)] = phis[(1, 0)] - Fraction(2, 9)


def _phi01_plus_cos(phis, cover):
    phis[(0, 1)] = phis[(0, 1)] + ChartFunction.cosine(T2.space, "x")


def _drop_phi10(phis, cover):
    del phis[(1, 0)]


PARITY_ROWS = {
    # overlap fails on every pair through chart 0, in both directions
    "alpha0+dy": (lambda: _edited(alphas=_alpha0_dy), {"overlap"}),
    # d(phi_01 + 1) = d(phi_01): only antisymmetry and the triples fail
    "phi01+1": (lambda: _edited(transitions=_phi01_plus_one), {"antisymmetry", "triple"}),
    # antisymmetric, so overlap (1, 0) is decided through (0, 1)
    "phi01+y-antisymmetric": (
        lambda: _edited(transitions=_phi01_plus_y_antisymmetric), {"overlap", "triple"}
    ),
    # not antisymmetric: overlap (1, 0) still holds and is decided on its own
    "phi01+y": (lambda: _edited(transitions=_phi01_plus_y), {"overlap", "antisymmetry", "triple"}),
    "phi10-deleted": (lambda: _edited(transitions=_drop_phi10), {"transition", "antisymmetry"}),
    # overlap and antisymmetry hold, so every triple through (0, 1) is
    # decided by telescoping and fails on its constant alone
    "phi01+-2/9": (lambda: _edited(transitions=_phi01_plus_minus_constant), {"triple"}),
    # nonconstant in one direction: the triples through (0, 1) get full sums
    "phi01+cos": (lambda: _edited(transitions=_phi01_plus_cos), {"overlap", "antisymmetry", "triple"}),
    # (1, 3) is the pair (j, k) of the triple (0, 1, 3); (6, 0) is the pair
    # (k, i) of (0, 1, 6) and (0, 2, 6)
    "phi13+y": (lambda: _edited(transitions=_plus_y((1, 3))), {"overlap", "antisymmetry", "triple"}),
    "phi60+y": (lambda: _edited(transitions=_plus_y((6, 0))), {"overlap", "antisymmetry", "triple"}),
}


@pytest.mark.parametrize("row", PARITY_ROWS)
def test_verify_witnesses_match_directed_reference(row):
    make, identities = PARITY_ROWS[row]
    data = make()
    failures = [dict(w) for w in data.verify().failures]
    assert failures == directed_reference_failures(data)
    assert {w["identity"] for w in failures} == identities
    overlaps = [w["pair"] for w in failures if w["identity"] == "overlap"]
    if row == "phi01+y-antisymmetric":
        assert overlaps == [(0, 1), (1, 0)]
    if row == "phi01+y":
        assert overlaps == [(0, 1)]
    triples = [w for w in failures if w["identity"] == "triple"]
    if row == "phi01+-2/9":
        assert triples and all("x" not in w["sum"] and "y" not in w["sum"] for w in triples)
    if row == "phi01+cos":
        assert triples and all("e(1x)" in w["sum"] for w in triples)


def test_verify_derives_each_transition_pair_once(monkeypatch):
    """Pair-once rule: on a solved datum the overlap law streams the parts
    of the two partial derivatives of one transition per nerve pair (72,
    where deciding each direction takes 144); the curl of each of the 9
    primitives takes two more, through ``ChartFunction.derive``."""
    solved = solve_cech(constant_two_form(T2, Scalar.pi(1, Fraction(1, 3))), GoodCover.grid(T2, 3))
    data = CechConnectionData(
        solved.cover, solved.omega, solved.alphas, solved.transitions, solved.triple_constants
    )
    derived = []
    real_derive_into = chartfn._derive_into

    def counted_derive_into(parts, f, i, sign):
        derived.append(f)
        return real_derive_into(parts, f, i, sign)

    monkeypatch.setattr(cech, "_derive_into", counted_derive_into)
    monkeypatch.setattr(chartfn, "_derive_into", counted_derive_into)
    assert data.verify().passed
    assert len(derived) == 2 * len(data.cover.pairs) + 2 * len(data.cover.charts) == 72 + 18
    pair_of = {id(phi): tuple(sorted(key)) for key, phi in data.transitions.items()}
    per_pair = Counter(pair_of[id(f)] for f in derived if id(f) in pair_of)
    assert per_pair == Counter({pair: 2 for pair in data.cover.pairs})
